"""Program sketches: AST, parser and printer.

A sketch is a tiny straight-line function with an optional guarded return
followed by a mandatory unconditional return.  Incomplete positions are
holes: ``[COND]`` (comparison token), ``[OP]`` (arithmetic token) and
``[Real]`` (numeric constant).  Filling every hole yields a concrete,
evaluable program.

`read_number` reads every number the package is handed (hole values, pinned
reals, hyperparameters, thetas), and `show` names one in an error message.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field

KIND_COND = "cond"
KIND_OP = "op"
KIND_REAL = "real"

_RESERVED = frozenset({"fn", "if", "return", "f32", "inf", "nan"})


class SketchError(ValueError):
    """Invalid sketch, program or assignment."""


class SketchSyntaxError(SketchError):
    """Source text does not conform to the sketch grammar."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST nodes.  Operands are Var | Lit | RealHole.  A slot (the comparison of a
# guard, or an operator of a chain) holds a token string or a hole that stands
# for one token of a fixed set: a CondHole or an OpHole.  Each hole class
# declares its source token, its kind, its token set (None: a real, not a
# token) and the slot it may fill, which parse errors name.  A sketch's hole
# table is its hole nodes, in source order.


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Hole:
    """A hole: its position `index` in the sketch's hole table."""

    index: int

    @property
    def arity(self) -> int | None:
        """Token count for a categorical hole, None for a real hole."""
        return None if self.tokens is None else len(self.tokens)


@dataclass(frozen=True)
class RealHole(Hole):
    token, kind, tokens, slot = "[Real]", KIND_REAL, None, "operand"


@dataclass(frozen=True)
class OpHole(Hole):
    token, kind, tokens, slot = "[OP]", KIND_OP, ("+", "-", "*", "/"), "operator"


@dataclass(frozen=True)
class CondHole(Hole):
    token, kind, tokens, slot = "[COND]", KIND_COND, ("==", ">", "<"), "comparison"


@dataclass(frozen=True)
class Chain:
    """Flat operand/operator chain, evaluated strictly left to right.

    ``a op1 b op2 c`` means ``(a op1 b) op2 c``; operators carry no
    precedence because a hole operator has none until it is filled.
    """

    operands: tuple
    ops: tuple

    def __post_init__(self):
        if len(self.operands) != len(self.ops) + 1:
            raise SketchError("chain needs exactly one more operand than operators")


@dataclass(frozen=True)
class Guard:
    """`if lhs cmp rhs { return body; }`"""

    lhs: object
    cmp: object  # str token or CondHole
    rhs: object
    body: Chain


@dataclass(frozen=True)
class Sketch:
    name: str
    params: tuple[str, ...]
    guard: Guard | None
    ret: Chain
    holes: tuple[Hole, ...] = field(default=())

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def hole_count(self) -> int:
        return len(self.holes)

    @property
    def is_concrete(self) -> bool:
        return not self.holes

    @property
    def hole_kinds(self) -> tuple[str, ...]:
        return tuple(h.kind for h in self.holes)


@dataclass(frozen=True)
class Assignment:
    """One concrete value per hole: a category index or a real number."""

    values: tuple


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class _Token:
    type: str  # "ident" | "float" | "punct" | "hole" | "eof"
    text: str
    line: int
    col: int


_HOLE_TOKENS = tuple(node.token for node in (CondHole, OpHole, RealHole))

# One alternative per token class, tried in order.  `\d` is a Unicode decimal digit, which `float` accepts;
# `\w` is exactly `str.isalnum()` plus `_`.  A `[` with no `]` anywhere after it is unterminated.
_TOKEN_RE = re.compile(
    r"""(?P<newline>\n)
      | (?P<skip>[ \t\r]+ | //[^\n]*)
      | (?P<punct>-> | == | [(){},:;><+\-*/])
      | (?P<hole>\[[^\]]*\])
      | (?P<unterminated>\[)
      | (?P<float>(?:\d+(?:\.\d*)? | \.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>\w+)
      | (?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "newline":
            line, col = line + 1, 1
            continue
        if kind == "ident" and not (tok[0].isalpha() or tok[0] == "_"):
            kind, tok = "bad", tok[0]  # a numeral that is not a decimal digit, such as `²` or `½`
        if kind == "bad":
            raise SketchSyntaxError(f"unexpected character {tok!r}", line, col)
        if kind == "unterminated":
            raise SketchSyntaxError("unterminated '[' token", line, col)
        if kind == "hole" and tok not in _HOLE_TOKENS:
            raise SketchSyntaxError(
                f"unknown hole token {tok!r} (expected one of {', '.join(_HOLE_TOKENS)})", line, col
            )
        if kind != "skip":
            toks.append(_Token(kind, tok, line, col))
        col += len(tok)
    toks.append(_Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser (recursive descent; the grammar is LL(1))


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.params: tuple[str, ...] = ()
        self.holes: list[Hole] = []

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise SketchSyntaxError(message, tok.line, tok.col)

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text or tok.type == "eof":
            self.error(f"expected {text!r}, found {tok.text!r}" if tok.text else f"expected {text!r}, found end of input")
        return self.next()

    def expect_ident(self, what: str) -> _Token:
        tok = self.peek()
        if tok.type != "ident":
            self.error(f"expected {what}, found {tok.text!r}")
        return self.next()

    def new_hole(self, hole_type):
        """The hole token at the cursor, which must be `hole_type`'s, as the next hole in the table."""
        tok = self.next()
        if tok.text != hole_type.token:
            article = "an" if hole_type.slot[0] in "aeiou" else "a"
            self.error(f"{tok.text} cannot appear where {article} {hole_type.slot} is required", tok)
        self.holes.append(hole_type(len(self.holes)))
        return self.holes[-1]

    def parse(self) -> Sketch:
        self.expect("fn")
        name_tok = self.expect_ident("function name")
        if name_tok.text in _RESERVED:
            self.error(f"{name_tok.text!r} is a reserved word", name_tok)
        self.expect("(")
        params: list[str] = []
        if self.peek().text == ")":
            self.error("function must take at least one input")
        while True:
            p = self.expect_ident("parameter name")
            if p.text in _RESERVED:
                self.error(f"{p.text!r} is a reserved word", p)
            if p.text in params:
                self.error(f"duplicate parameter {p.text!r}", p)
            params.append(p.text)
            self.expect(":")
            self.expect("f32")
            if self.peek().text == ",":
                self.next()
                continue
            break
        self.expect(")")
        self.params = tuple(params)
        self.expect("->")
        self.expect("f32")
        self.expect("{")
        guard = None
        if self.peek().text == "if":
            guard = self.parse_guard()
        ret = self.parse_return()
        self.expect("}")
        if self.peek().type != "eof":
            self.error(f"unexpected trailing input {self.peek().text!r}")
        return Sketch(name_tok.text, self.params, guard, ret, tuple(self.holes))

    def parse_guard(self) -> Guard:
        self.expect("if")
        lhs = self.parse_operand()
        cmp = self.parse_slot(CondHole)
        rhs = self.parse_operand()
        self.expect("{")
        body = self.parse_return()
        self.expect("}")
        return Guard(lhs, cmp, rhs, body)

    def parse_return(self) -> Chain:
        self.expect("return")
        chain = self.parse_chain()
        self.expect(";")
        return chain

    def parse_chain(self) -> Chain:
        operands = [self.parse_operand()]
        ops: list = []
        while True:
            tok = self.peek()
            if tok.text in (";", "}") or tok.type == "eof":
                break
            ops.append(self.parse_slot(OpHole))
            operands.append(self.parse_operand())
        return Chain(tuple(operands), tuple(ops))

    def parse_operand(self):
        tok = self.peek()
        if tok.type == "hole":
            return self.new_hole(RealHole)
        if tok.type == "float":
            self.next()
            return Lit(float(tok.text))
        if tok.text == "-":
            # Unary minus: only directly before a numeric literal.
            self.next()
            val = self.peek()
            if val.type == "float":
                self.next()
                return Lit(-float(val.text))
            if val.type == "ident" and val.text in ("inf", "nan"):
                self.next()
                return Lit(-float(val.text))
            self.error("expected a numeric literal after unary '-'", val)
        if tok.type == "ident":
            if tok.text in ("inf", "nan"):
                self.next()
                return Lit(float(tok.text))
            if tok.text in _RESERVED:
                self.error(f"expected operand, found {tok.text!r}")
            if tok.text not in self.params:
                self.error(f"unknown variable {tok.text!r} (inputs: {', '.join(self.params)})", tok)
            self.next()
            return Var(tok.text)
        self.error(f"expected operand, found {tok.text!r}" if tok.text else "expected operand, found end of input")

    def parse_slot(self, hole_type):
        """A comparison or operator slot: a token of `hole_type.tokens`, or the `hole_type` hole's token."""
        tok = self.peek()
        if tok.type == "hole":
            return self.new_hole(hole_type)
        if tok.text in hole_type.tokens:
            self.next()
            return tok.text
        choices = ", ".join(map(repr, hole_type.tokens))
        self.error(f"expected {hole_type.slot} ({choices} or {hole_type.token}), found {tok.text!r}")


def parse_sketch(text: str) -> Sketch:
    """Parse sketch source text.

    Holes are numbered 0..H-1 in left-to-right, top-to-bottom source order.
    Raises SketchSyntaxError (with line/column) on malformed input, holes in
    illegal positions, unknown variables or a parameterless function.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing


def format_real(value: float) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(value))


def show(value) -> str:
    """`value` as an error message names it: its repr, but an integer too long for `str()` (Python's limit on the
    digits it turns into text) by its first four digits and exponent, `~1.000e+5000`, and a container that
    holds one by its type, `a list`."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, numbers.Integral):
            return f"a {type(value).__name__}"
        import decimal  # here, not at the top: importing it costs every run about 0.3 MB

        return f"~{decimal.Decimal(int(value)):.3e}"


def read_number(value, what: str, error: type[Exception], kind: type = float, finite: bool = False):
    """`value` as a `kind`, float or int: a real number (an integral one for int) that is not a bool, and no
    real past the float range such as 10**400; if `finite`, not inf or nan either.  Anything else is an
    `error` naming `what`.  Every number the package is handed is read here."""
    integral = kind is int
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integral else numbers.Real):
        raise error(f"{what} must be {'an integer' if integral else 'a number'}, got {show(value)}")
    try:
        number = kind(value)
    except OverflowError:
        raise error(f"{what} is past the float range") from None
    if finite and not math.isfinite(number):
        raise error(f"{what} must be finite, got {show(value)}")
    return number


def _operand_str(node) -> str:
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Lit):
        return format_real(node.value)
    if isinstance(node, RealHole):
        return node.token
    raise SketchError(f"not an operand: {node!r}")


def _slot_str(slot) -> str:
    """A comparison or operator slot: its token, or its hole's."""
    return slot if isinstance(slot, str) else slot.token


def _chain_str(chain: Chain) -> str:
    parts = [_operand_str(chain.operands[0])]
    for op, operand in zip(chain.ops, chain.operands[1:]):
        parts.append(_slot_str(op))
        parts.append(_operand_str(operand))
    return " ".join(parts)


def print_program(sketch: Sketch) -> str:
    """Render a sketch or concrete program in canonical form.

    Canonical means: parse(print(s)) is structurally identical to s, and
    printing an already-canonical text is a fixed point.
    """
    params = ", ".join(f"{p}: f32" for p in sketch.params)
    lines = [f"fn {sketch.name}({params}) -> f32", "{"]
    if sketch.guard is not None:
        g = sketch.guard
        lines.append(f"    if {_operand_str(g.lhs)} {_slot_str(g.cmp)} {_operand_str(g.rhs)}")
        lines.append("    {")
        lines.append(f"        return {_chain_str(g.body)};")
        lines.append("    }")
        lines.append("")
    lines.append(f"    return {_chain_str(sketch.ret)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Instantiation


def _filled(hole: Hole, value) -> object:
    """What fills `hole` for `value`: a literal for a real hole (inf or nan too), the token at a category index."""
    if hole.tokens is None:
        return Lit(read_number(value, f"hole {hole.index}: [Real] value", SketchError))
    index = read_number(value, f"hole {hole.index}: category index", SketchError, int)
    if not 0 <= index < hole.arity:
        raise SketchError(f"hole {hole.index}: category index {show(index)} out of range 0..{hole.arity - 1}")
    return hole.tokens[index]


def instantiate(sketch: Sketch, assignment: Assignment) -> Sketch:
    """Substitute every hole, producing a concrete program.

    Categorical holes take the token at their category index; real holes take
    the given number as a literal.  Raises SketchError on length mismatch,
    kind mismatch or an out-of-range category index.
    """
    if len(assignment.values) != sketch.hole_count:
        raise SketchError(
            f"assignment has {len(assignment.values)} values but sketch has {sketch.hole_count} holes"
        )
    fill = {h.index: _filled(h, v) for h, v in zip(sketch.holes, assignment.values)}

    def sub(node):  # an operand or a slot
        return fill[node.index] if isinstance(node, Hole) else node

    def sub_chain(chain: Chain) -> Chain:
        return Chain(tuple(map(sub, chain.operands)), tuple(map(sub, chain.ops)))

    g = sketch.guard
    guard = None if g is None else Guard(sub(g.lhs), sub(g.cmp), sub(g.rhs), sub_chain(g.body))
    return Sketch(sketch.name, sketch.params, guard, sub_chain(sketch.ret), ())

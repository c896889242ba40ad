import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchgrad as sg
from sketchgrad.sketch import KIND_COND, KIND_OP, KIND_REAL, _tokenize

from conftest import ONEVAR_LEARNED, ONEVAR_SKETCH, ONEVAR_TRUTH, TWOVAR_SKETCH


def test_onevar_sketch_hole_table(onevar_sketch):
    assert onevar_sketch.hole_count == 6
    assert onevar_sketch.hole_kinds == (KIND_COND, KIND_REAL, KIND_REAL, KIND_OP, KIND_OP, KIND_REAL)
    assert [h.index for h in onevar_sketch.holes] == list(range(6))
    assert onevar_sketch.arity == 1


def test_twovar_sketch_hole_table(twovar_sketch):
    # 1 cond + 2 real + 4 op holes, in source order.
    assert twovar_sketch.hole_kinds == (KIND_COND, KIND_REAL, KIND_OP, KIND_OP, KIND_REAL, KIND_OP, KIND_OP)
    assert twovar_sketch.arity == 2


def test_hole_free_program_parses_with_empty_table(onevar_truth):
    assert onevar_truth.hole_count == 0
    assert onevar_truth.is_concrete


def test_hole_domains():
    hole = sg.CondHole(0)
    assert hole.tokens == ("==", ">", "<")
    assert hole.arity == 3
    hole = sg.OpHole(1)
    assert hole.tokens == ("+", "-", "*", "/")
    assert hole.arity == 4
    assert sg.RealHole(2).tokens is None


def test_comments_and_whitespace():
    text = """
    // leading comment
    fn f(x: f32) -> f32 {   // trailing
        return x; }
    """
    s = sg.parse_sketch(text)
    assert s.name == "f"
    assert s.guard is None


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("fn f() -> f32 { return 1.0; }", "at least one input"),
        ("fn f(x: f32) -> f32 { return [OP]; }", "operand"),
        ("fn f(x: f32) -> f32 { return 1.0 [COND] x; }", "operator"),
        ("fn f(x: f32) -> f32 { if x [OP] 1.0 { return x; } return x; }", "comparison"),
        ("fn f(x: f32) -> f32 { return y; }", "unknown variable"),
        ("fn f(x: f32, x: f32) -> f32 { return x; }", "duplicate parameter"),
        ("fn f(x: f32) -> f32 { return x }", "expected"),
        ("fn f(x: f32) -> f32 { return x; } trailing", "trailing"),
        ("fn f(x: f32) -> f32 { return [Foo]; }", "unknown hole token"),
        ("fn if(x: f32) -> f32 { return x; }", "reserved"),
        ("fn f(x: f32) -> f32 { return x + ²; }", "unexpected character '²'"),
        ("fn f(x: f32) -> f32 { return [Real; }", "unterminated"),
        ("fn f(x: f32) -> f32 { return .; }", "unexpected character '.'"),
        ("fn f(½: f32) -> f32 { return 1.0; }", "unexpected character '½'"),
    ],
)
def test_syntax_errors(text, fragment):
    with pytest.raises(sg.SketchSyntaxError) as err:
        sg.parse_sketch(text)
    assert fragment in str(err.value)


_SLOTS = "fn f(x: f32) -> f32 {{ if x {cmp} 1.0 {{ return x; }} return x {op} {operand}; }}"


@pytest.mark.parametrize(
    "cmp, op, operand, message",
    [
        ("[OP]", "+", "x", "line 1, col 28: [OP] cannot appear where a comparison is required"),
        ("[Real]", "+", "x", "line 1, col 28: [Real] cannot appear where a comparison is required"),
        ("+", "+", "x", "line 1, col 28: expected comparison ('==', '>', '<' or [COND]), found '+'"),
        (">", "[COND]", "x", "line 1, col 57: [COND] cannot appear where an operator is required"),
        (">", "[Real]", "x", "line 1, col 57: [Real] cannot appear where an operator is required"),
        (">", "<", "x", "line 1, col 57: expected operator ('+', '-', '*', '/' or [OP]), found '<'"),
        (">", "+", "[OP]", "line 1, col 59: [OP] cannot appear where an operand is required"),
        (">", "+", "[COND]", "line 1, col 59: [COND] cannot appear where an operand is required"),
    ],
)
def test_slot_misuse_messages(cmp, op, operand, message):
    with pytest.raises(sg.SketchSyntaxError) as err:
        sg.parse_sketch(_SLOTS.format(cmp=cmp, op=op, operand=operand))
    assert str(err.value) == message


def test_hole_table_reads_the_node_declarations(twovar_sketch):
    assert [h.token for h in twovar_sketch.holes] == ["[COND]", "[Real]", "[OP]", "[OP]", "[Real]", "[OP]", "[OP]"]
    kinds = [sg.CondHole, sg.RealHole, sg.OpHole, sg.OpHole, sg.RealHole, sg.OpHole, sg.OpHole]
    assert [type(h) for h in twovar_sketch.holes] == kinds and all(isinstance(h, sg.Hole) for h in twovar_sketch.holes)
    # The table holds the AST's own hole nodes.
    assert twovar_sketch.holes[0] is twovar_sketch.guard.cmp and twovar_sketch.holes[-1] is twovar_sketch.ret.ops[-1]


def test_syntax_error_carries_line_and_column():
    with pytest.raises(sg.SketchSyntaxError) as err:
        sg.parse_sketch("fn f(x: f32) -> f32 {\n    return q;\n}")
    assert err.value.line == 2
    assert err.value.col == 12
    assert "line 2" in str(err.value)


def test_end_of_input_column_after_trailing_comment():
    text = "fn f(x: f32) -> f32 { return x; // no closing brace"
    with pytest.raises(sg.SketchSyntaxError) as err:
        sg.parse_sketch(text)
    assert (err.value.line, err.value.col) == (1, len(text) + 1)
    assert "end of input" in str(err.value)


def test_instantiate_onevar_truth_pattern(onevar_sketch, onevar_truth):
    # cond '>', threshold 3.5, then-branch 4.2 * x, else x * 2.1
    a = sg.Assignment((1, 3.5, 4.2, 2, 2, 2.1))
    program = sg.instantiate(onevar_sketch, a)
    assert program.is_concrete
    # Text-equal to the ground truth modulo the function name.
    got = sg.print_program(program)
    want = sg.print_program(onevar_truth).replace("ground_truth_prog", "synth_prog")
    assert got == want


def test_instantiate_onevar_learned_pattern(onevar_sketch):
    a = sg.Assignment((2, 2.2305248, 2.4594104, 2, 2, 4.0324993))
    program = sg.instantiate(onevar_sketch, a)
    assert sg.print_program(program) == ONEVAR_LEARNED


def test_instantiate_empty_assignment_is_identity(onevar_truth):
    assert sg.instantiate(onevar_truth, sg.Assignment(())) == onevar_truth


@pytest.mark.parametrize(
    "values, fragment",
    [
        ((1, 3.5, 4.2, 2, 2), "6 holes"),
        ((1.5, 3.5, 4.2, 2, 2, 2.1), "categorical but got"),
        ((1, 3.5, 4.2, 2, 7, 2.1), "out of range"),
        ((1, 3.5, 4.2, 2, True, 2.1), "categorical but got"),
    ],
)
def test_instantiate_rejects_bad_assignments(onevar_sketch, values, fragment):
    with pytest.raises(sg.SketchError) as err:
        sg.instantiate(onevar_sketch, sg.Assignment(values))
    assert fragment in str(err.value)


def test_real_hole_accepts_int_value():
    s = sg.parse_sketch("fn f(x: f32) -> f32 { return [Real]; }")
    program = sg.instantiate(s, sg.Assignment((3,)))
    assert program.ret.operands[0] == sg.Lit(3.0)


def test_print_is_fixed_point_after_one_pass():
    for text in (ONEVAR_SKETCH, ONEVAR_TRUTH, TWOVAR_SKETCH):
        once = sg.print_program(sg.parse_sketch(text))
        assert sg.print_program(sg.parse_sketch(once)) == once


def test_roundtrip_both_benchmark_sketches():
    for text in (ONEVAR_SKETCH, TWOVAR_SKETCH, ONEVAR_TRUTH, ONEVAR_LEARNED):
        s = sg.parse_sketch(text)
        assert sg.parse_sketch(sg.print_program(s)) == s


def test_real_literal_prints_shortest_roundtrip():
    s = sg.parse_sketch("fn f(x: f32) -> f32 { return 3.5; }")
    assert "return 3.5;" in sg.print_program(s)
    s = sg.parse_sketch("fn f(x: f32) -> f32 { return 2.2305248; }")
    assert "return 2.2305248;" in sg.print_program(s)


def test_holes_print_as_bracket_tokens(onevar_sketch):
    text = sg.print_program(onevar_sketch)
    assert "if x [COND] [Real]" in text
    assert "return [Real] [OP] x;" in text
    assert "return x [OP] [Real];" in text


def test_negative_and_nonfinite_literals_roundtrip():
    s = sg.parse_sketch("fn f(x: f32) -> f32 { return x * -3.25 - -1.5; }")
    ops = s.ret.ops
    assert ops == ("*", "-")
    assert s.ret.operands[1] == sg.Lit(-3.25)
    assert s.ret.operands[2] == sg.Lit(-1.5)
    assert sg.parse_sketch(sg.print_program(s)) == s

    s = sg.parse_sketch("fn f(x: f32) -> f32 { return inf + -inf; }")
    assert sg.print_program(s).count("inf") == 2
    nan_prog = sg.parse_sketch("fn f(x: f32) -> f32 { return nan; }")
    assert math.isnan(nan_prog.ret.operands[0].value)


def test_scientific_notation_literals():
    s = sg.parse_sketch("fn f(x: f32) -> f32 { return 1e+300 * 2.5e-3; }")
    assert s.ret.operands[0] == sg.Lit(1e300)
    assert sg.parse_sketch(sg.print_program(s)) == s


# ---------------------------------------------------------------------------
# Property: parse/print round trip over random grammar-valid sketches.

_ident = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in {"fn", "if", "return", "f32", "inf", "nan"}
)
_float = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def sketch_texts(draw, guard=None):
    """Grammar-valid sketch text.  Half the sketches have a guard, comparing
    with any of the four tokens; `guard`, a strategy for that token, gives
    every sketch a guard drawn from it."""
    params = draw(st.lists(_ident, min_size=1, max_size=3, unique=True))
    name = draw(_ident)

    def operand():
        kind = draw(st.sampled_from(["var", "lit", "hole"]))
        if kind == "var":
            return draw(st.sampled_from(params))
        if kind == "lit":
            return repr(draw(_float))
        return "[Real]"

    def chain():
        parts = [operand()]
        for _ in range(draw(st.integers(0, 3))):
            parts.append(draw(st.sampled_from(["+", "-", "*", "/", "[OP]"])))
            parts.append(operand())
        return " ".join(parts)

    lines = [f"fn {name}({', '.join(f'{p}: f32' for p in params)}) -> f32", "{"]
    if guard is not None or draw(st.booleans()):
        cmp = draw(st.sampled_from(["==", ">", "<", "[COND]"]) if guard is None else guard)
        lines += [f"    if {operand()} {cmp} {operand()}", "    {", f"        return {chain()};", "    }", ""]
    lines += [f"    return {chain()};", "}"]
    return "\n".join(lines) + "\n"


@given(sketch_texts())
@settings(max_examples=150, deadline=None)
def test_roundtrip_property(text):
    s = sg.parse_sketch(text)
    printed = sg.print_program(s)
    assert sg.parse_sketch(printed) == s
    assert sg.print_program(sg.parse_sketch(printed)) == printed


# Between two tokens: at least one whitespace character (so no two tokens merge, and no `//` swallows a
# `/`), then any mix of whitespace and `//` comments.
_separator = st.builds(
    lambda first, rest: first + "".join(rest),
    st.sampled_from(" \t\r\n"),
    st.lists(
        st.one_of(
            st.sampled_from(" \t\r\n"),
            st.text(st.characters(exclude_characters="\n", exclude_categories=["Cs"]), max_size=6).map(
                lambda body: f"//{body}\n"
            ),
        ),
        max_size=3,
    ),
)


@given(sketch_texts(), st.data())
@settings(max_examples=150, deadline=None)
def test_token_positions_point_at_their_text(text, data):
    tokens = [tok.text for tok in _tokenize(text)[:-1]]
    spaced = "".join(data.draw(_separator) + tok for tok in tokens) + data.draw(_separator)
    toks = _tokenize(spaced)
    lines = spaced.split("\n")
    assert [tok.text for tok in toks[:-1]] == tokens
    for tok in toks[:-1]:
        assert lines[tok.line - 1][tok.col - 1 :].startswith(tok.text)
    assert (toks[-1].line, toks[-1].col) == (len(lines), len(lines[-1]) + 1)
    assert sg.parse_sketch(spaced) == sg.parse_sketch(text)

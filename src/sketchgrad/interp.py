"""Total evaluation of concrete programs against input-output specifications.

Arithmetic follows IEEE-754 double semantics end to end: division by zero
produces an infinity or NaN instead of trapping, so no candidate program can
crash the search.  Candidates whose predictions (or accumulated error) go
non-finite are scored with a large penalty constant instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sketch import Chain, Lit, RealHole, Sketch, SketchError, Var

NONFINITE_PENALTY = 1e12


class SpecError(ValueError):
    """Invalid specification data."""


@dataclass(frozen=True, eq=False)
class SpecSet:
    """The training data: input vectors and the output each must produce, held as read-only float64
    arrays `inputs` (rows, arity) and `outputs` (rows,), copied from the array-likes given.  Code that
    wants Python floats reads rows with `.tolist()`."""

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        try:
            inputs, outputs = np.array(self.inputs, dtype=np.float64), np.array(self.outputs, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SpecError(_ragged_row(self.inputs) or f"not a table of numbers: {exc}") from None
        if inputs.shape[:1] == (0,):
            raise SpecError("specification is empty")
        if inputs.ndim != 2 or not inputs.shape[1] or outputs.ndim != 1:
            raise SpecError(f"expected shapes (rows, arity >= 1) and (rows,), got {inputs.shape} and {outputs.shape}")
        if len(inputs) != len(outputs):
            raise SpecError("inputs and outputs differ in length")
        bad = np.flatnonzero(~(np.isfinite(inputs).all(axis=1) & np.isfinite(outputs)))
        if bad.size:
            raise SpecError(f"row {bad[0]}: non-finite value")
        object.__setattr__(self, "inputs", _read_only(inputs))
        object.__setattr__(self, "outputs", _read_only(outputs))

    def __eq__(self, other):
        same = isinstance(other, SpecSet) and np.array_equal(self.inputs, other.inputs)
        return same and np.array_equal(self.outputs, other.outputs)

    @property
    def arity(self) -> int:
        return self.inputs.shape[1]

    def __len__(self) -> int:
        return len(self.outputs)

    @classmethod
    def from_pairs(cls, pairs) -> "SpecSet":
        """Build from an iterable of (input_vector, output) pairs."""
        pairs = list(pairs)
        return cls([vec for vec, _ in pairs], [out for _, out in pairs])


def _ragged_row(inputs) -> str | None:
    """The message for the first row whose length differs from row 0's, if there is one."""
    try:
        lengths = [len(vec) for vec in inputs]
    except TypeError:
        return None
    bad = [(i, n) for i, n in enumerate(lengths) if n != lengths[0]]
    return f"row {bad[0][0]}: expected {lengths[0]} inputs, got {bad[0][1]}" if bad else None


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _ieee_div(a: float, b: float) -> float:
    try:
        return a / b
    except ZeroDivisionError:
        if a != a or a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _ieee_div,
}

_CMPS = {
    "==": lambda a, b: a == b,  # exact IEEE equality, deliberately
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
}


def _operand_value(node, env: dict) -> float:
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Lit):
        return node.value
    raise SketchError("cannot evaluate a sketch with unfilled holes")


def _chain_value(chain: Chain, env: dict) -> float:
    acc = _operand_value(chain.operands[0], env)
    for op, operand in zip(chain.ops, chain.operands[1:]):
        acc = _BINOPS[op](acc, _operand_value(operand, env))
    return acc


def eval_program(program: Sketch, x) -> float:
    """Run a concrete program on one input vector.

    Deterministic, total on finite inputs; the result may be non-finite.
    An arity mismatch is a programming error and raises ValueError.
    """
    if not program.is_concrete:
        raise SketchError("program still contains holes")
    if len(x) != program.arity:
        raise ValueError(f"arity mismatch: program takes {program.arity} inputs, got {len(x)}")
    env = {name: float(v) for name, v in zip(program.params, x)}
    if program.guard is not None:
        g = program.guard
        if _CMPS[g.cmp](_operand_value(g.lhs, env), _operand_value(g.rhs, env)):
            return _chain_value(g.body, env)
    return _chain_value(program.ret, env)


def eval_spec_loss(program: Sketch, spec: SpecSet, penalty: float = NONFINITE_PENALTY) -> float:
    """Mean squared error of a program over the specification.

    If any prediction is non-finite, or the accumulated error overflows,
    the whole candidate scores `penalty` so that fitness standardization
    stays well defined.
    """
    preds = [eval_program(program, vec) for vec in spec.inputs.tolist()]
    if not all(math.isfinite(p) for p in preds):
        return penalty
    total = 0.0
    for pred, out in zip(preds, spec.outputs.tolist()):
        d = pred - out
        total += d * d
    loss = total / len(preds)
    return loss if math.isfinite(loss) else penalty


# ---------------------------------------------------------------------------
# Vectorized population evaluation.
#
# Evaluates one sketch for a whole population of hole assignments over all
# spec rows in a single numpy pass.  Per-element operations are the same IEEE
# doubles as the scalar interpreter, and the error accumulation below follows
# the same left-to-right order, so the result is bit-identical to calling
# eval_spec_loss on each instantiated candidate.


_UFUNCS = {
    "==": np.equal,
    ">": np.greater,
    "<": np.less,
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}


def eval_population_losses(
    sketch: Sketch,
    hole_values: list,
    spec: SpecSet,
    penalty: float = NONFINITE_PENALTY,
) -> np.ndarray:
    """Spec losses for a population of hole assignments, vectorized.

    hole_values: one array per hole, in hole-table order; int arrays of
    category indices for cond/op holes, float arrays of concrete values for
    real holes.  All arrays share one length n.  Returns losses, shape (n,).
    """
    if spec.arity != sketch.arity:
        raise SketchError(f"spec arity {spec.arity} does not match sketch arity {sketch.arity}")
    if sketch.hole_count != len(hole_values):
        raise SketchError(f"expected {sketch.hole_count} value arrays, got {len(hole_values)}")
    n = len(hole_values[0]) if hole_values else 1
    if any(len(arr) != n for arr in hole_values):
        raise SketchError("hole value arrays differ in length")
    cols = {name: spec.inputs[:, k][None, :] for k, name in enumerate(sketch.params)}
    rows = len(spec)

    def operand(node):
        if isinstance(node, Var):
            return cols[node.name]  # shape (1, P)
        if isinstance(node, Lit):
            return np.float64(node.value)
        if isinstance(node, RealHole):
            return hole_values[node.index][:, None]  # shape (n, 1)
        raise SketchError(f"not an operand: {node!r}")

    def apply(slot, a, b):
        """A comparison or operator slot applied to a and b; a hole picks, per candidate, the token it drew."""
        if isinstance(slot, str):
            return _UFUNCS[slot](a, b)
        idx = hole_values[slot.index][:, None]  # (n, 1) int, into slot.tokens
        return np.choose(idx, [_UFUNCS[tok](a, b) for tok in slot.tokens])

    def chain(c: Chain):
        acc = operand(c.operands[0])
        for op, nxt in zip(c.ops, c.operands[1:]):
            acc = apply(op, acc, operand(nxt))
        return acc

    with np.errstate(all="ignore"):
        preds = chain(sketch.ret)
        if sketch.guard is not None:
            g = sketch.guard
            preds = np.where(apply(g.cmp, operand(g.lhs), operand(g.rhs)), chain(g.body), preds)
        d = np.subtract(preds, spec.outputs, out=np.empty((n, rows)))
        sq = d * d
        # cumsum accumulates left to right, as the scalar path does (a
        # pairwise sum would round differently).  A non-finite prediction
        # makes its candidate's loss non-finite, so one check covers both.
        losses = sq.cumsum(axis=1)[:, -1] / rows
        return np.where(np.isfinite(losses), losses, penalty)

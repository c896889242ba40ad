"""Total evaluation of concrete programs against input-output specifications.

Arithmetic follows IEEE-754 double semantics end to end: division by zero
produces an infinity or NaN instead of trapping, so no candidate program can
crash the search.  Candidates whose predictions (or accumulated error) go
non-finite are scored with a large penalty constant instead.

The scalar interpreter (`eval_program`, `eval_spec_loss`) runs one program on
one input; it is the reference.  The population scorer runs a `Plan`, which
`compile_sketch` resolves once per sketch and spec into a flat step list.
At a categorical hole it sorts the candidates by the token they drew and
applies each drawn token's ufunc to its own candidates only (gather, apply,
scatter); a token drawn by every candidate is applied to the whole operand,
and a population of one (the argmax program) takes its one token after a
range check, with no partition.  Rows are scored in chunks of
`CHUNK_CELLS // n`, and the row loop allocates no array past the first chunk
of each shape (numpy's own iterator buffers aside): the arrays that chunk's
steps, gathers and scatters allocate are kept on the plan, keyed by candidate
count and chunk width (its workspace), and later chunks and calls write into
them with `out=`.  The guard picks its branch by a bitwise select on the int64
views of the two branches, which gives `np.where`'s bits (NaN payloads and
-0.0 too) without a mispredicted branch per cell; real holes are scored as
float64, so both branches are float64.  Its comparison is copied to a 0/1
int64 mask first, a step of its own, as a multiply by a bool mask would cast
it through a buffer numpy allocates per call.  The squared errors are written
transposed, one row per spec row under a row holding the running total, and
summed by `np.add.reduce` down the rows: for n >= 2 numpy adds them row by
row, which is the scalar loop's left-to-right sum, so each loss is that
sequential sum at any chunk size, bit for bit.  For n = 1 the same reduction
runs down one contiguous column, where numpy sums pairwise and rounds
differently, so a population of one (the argmax program) is summed by
`np.add.accumulate`, a `cumsum`, instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sketch import Chain, CondHole, Lit, RealHole, Sketch, SketchError, Var

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
# Population scoring through a compiled plan (see the module docstring).

# The scorer holds at most this many candidate x spec-row cells per
# intermediate array: it scores the rows in chunks of CHUNK_CELLS // n.  A plan
# keeps its chunks' buffers (see `_workspace`); at 2^16 cells they raised the
# peak RSS of a 10 000-row training run and of a 49 152-program enumeration by
# 6-8 MB, and neither ran faster than at 2^15.  Read at call time, so that
# tests can move the chunk boundaries.
CHUNK_CELLS = 1 << 15

# A plan keeps scratch buffers for this many (candidate count, chunk width) pairs, the most recent ones; a
# training run uses at most three (the population's whole chunks and its last one, and the argmax
# program), an enumeration two (its whole candidate chunks and its last one).
WORKSPACES = 4

_UFUNCS = {
    "==": np.equal,
    ">": np.greater,
    "<": np.less,
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}


def _int_mask(mask, out=None):
    """A bool `mask` as 0/1 int64, into `out` (a new array when None), for `_select`: an assignment casts
    with no buffer, where a multiply by the bool mask casts through one numpy allocates per call."""
    if out is None:
        out = np.empty(mask.shape, np.int64)
    out[...] = mask
    return out


def _select(mask, x, y, out=None):
    """`np.where(mask, x, y)` on float64 `x` and `y`, bit for bit (NaN payloads and -0.0 included), into
    `out` (a new array when None), with no branch per cell: on the int64 views of the floats,
    y ^ ((x ^ y) * mask), where the mask is 0 or 1.  Give it `_int_mask`'s int64 mask: a bool one gives
    the same bits, through a cast buffer."""
    if out is None:
        out = np.empty(np.broadcast_shapes(mask.shape, x.shape, y.shape))
    bits, y = out.view(np.int64), y.view(np.int64)
    np.bitwise_xor(x.view(np.int64), y, out=bits)
    np.multiply(bits, mask, out=bits)
    np.bitwise_xor(bits, y, out=bits)
    return out


@dataclass(frozen=True, eq=False)
class Plan:
    """A sketch compiled against a spec, for `eval_population_losses`.

    A call holds a list of values, each a 2-D array over (candidates, spec rows) whose axes have length 1
    where the value does not vary.  Values 0 .. arity-1 are the input columns of the current row chunk,
    cut from `columns` (the spec's inputs, one contiguous row per input; `slots` holds them whole, for a
    call scored in one chunk); value arity + h is real hole h's candidate values; the rest are, in `slots`
    order, the literals (held there) and the step results (None there).  A step `(out, hole, fns, args,
    dtype)` sets value `out` to a function of `fns` applied to the values at `args`: `fns[0]` when `hole`
    is None, else, per candidate, the function of the token it drew for that categorical hole, into an
    array of `dtype`.  Value `out` is the prediction.

    A plan owns the scratch buffers its calls write into (`workspaces`, see `_workspace`), so one plan
    must not be scored from two threads at once; compile one per thread."""

    holes: tuple
    columns: np.ndarray
    outputs: np.ndarray
    slots: tuple
    steps: tuple
    out: int
    workspaces: dict = field(default_factory=dict, repr=False)


def compile_sketch(sketch: Sketch, spec: SpecSet) -> Plan:
    """The plan that scores populations of `sketch`'s hole assignments on `spec`; a SketchError if the
    spec's arity is not the sketch's."""
    if spec.arity != sketch.arity:
        raise SketchError(f"spec arity {spec.arity} does not match sketch arity {sketch.arity}")
    slots: list = [None] * (sketch.arity + sketch.hole_count)
    steps = []

    def operand(node) -> int:
        if isinstance(node, Var):
            return sketch.params.index(node.name)
        if isinstance(node, RealHole):
            return sketch.arity + node.index
        if isinstance(node, Lit):
            slots.append(_read_only(np.full((1, 1), node.value)))
            return len(slots) - 1
        raise SketchError(f"not an operand: {node!r}")

    def step(hole, fns: tuple, dtype, *args: int) -> int:
        slots.append(None)
        steps.append((len(slots) - 1, hole, fns, args, dtype))
        return len(slots) - 1

    def apply(slot, a: int, b: int) -> int:
        """A comparison or operator slot: a token, or a hole that applies the token each candidate drew."""
        tokens = (slot,) if isinstance(slot, str) else slot.tokens
        dtype = bool if tokens[0] in CondHole.tokens else np.float64
        return step(None if isinstance(slot, str) else slot.index, tuple(_UFUNCS[t] for t in tokens), dtype, a, b)

    def chain(c: Chain) -> int:
        acc = operand(c.operands[0])
        for op, nxt in zip(c.ops, c.operands[1:]):
            acc = apply(op, acc, operand(nxt))
        return acc

    out = chain(sketch.ret)
    if sketch.guard is not None:
        g = sketch.guard
        mask = step(None, (_int_mask,), np.int64, apply(g.cmp, operand(g.lhs), operand(g.rhs)))
        out = step(None, (_select,), np.float64, mask, chain(g.body), out)
    columns = _read_only(np.ascontiguousarray(spec.inputs.T))
    slots[: sketch.arity] = columns[:, None, :]  # whole rows, which a call scored in one chunk reads
    return Plan(sketch.holes, columns, spec.outputs, tuple(slots), tuple(steps), out)


def eval_population_losses(plan: Plan, hole_values: list, penalty: float = NONFINITE_PENALTY) -> np.ndarray:
    """Spec losses for a population of hole assignments, vectorized.

    hole_values: one array per hole, in hole-table order; int arrays of
    category indices for cond/op holes, int or float arrays of concrete
    values for real holes (scored as float64).  All arrays share one length
    n.  Returns losses, shape (n), a new array that later calls leave alone.
    A SketchError names a hole whose array does not fit it.
    """
    if len(plan.holes) != len(hole_values):
        raise SketchError(f"expected {len(plan.holes)} value arrays, got {len(hole_values)}")
    hole_values = list(map(np.asarray, hole_values))
    lengths = set(map(len, hole_values))
    if len(lengths) > 1:
        raise SketchError("hole value arrays differ in length")
    n = lengths.pop() if lengths else 1
    arity, rows = plan.columns.shape
    values = list(plan.slots)
    drawn = {}
    for hole, v in zip(plan.holes, hole_values):
        if hole.tokens is not None:
            drawn[hole.index] = _drawn_tokens(hole, v)
        elif v.ndim == 1 and v.dtype.kind in "iuf":
            values[arity + hole.index] = v.astype(np.float64, copy=False)[:, None]
        else:
            raise SketchError(f"hole {hole.index} is real but got {v.ndim}-D {v.dtype} values")
    chunk = max(1, CHUNK_CELLS // max(n, 1))
    total = np.empty(n)
    with np.errstate(all="ignore"):
        for lo in range(0, rows, chunk):
            hi = min(lo + chunk, rows)
            bufs, squares, running = plan.workspaces.get((n, hi - lo)) or _workspace(plan, n, hi - lo)
            if chunk < rows:  # else the plan's slots hold every row
                values[:arity] = plan.columns[:, None, lo:hi]
            for (out, hole, fns, args, dtype), buf in zip(plan.steps, bufs):
                if hole is None:
                    values[out] = buf[0] = fns[0](*[values[a] for a in args], out=buf[0])
                else:
                    values[out] = _apply(fns, drawn[hole], values[args[0]], values[args[1]], n, dtype, buf)
            # A sequential sum, whatever the chunks (see the module docstring): rows 1.. of `squares` are the
            # chunk's squared errors, one row per spec row, and from the second chunk on its row 0 is the
            # running total.  A non-finite prediction makes its candidate's loss non-finite, so the one
            # check below covers both.
            body = squares[1:]
            np.subtract(values[plan.out].T, plan.outputs[lo:hi, None], out=body)
            np.multiply(body, body, out=body)
            if lo:
                squares[0] = total
            terms = squares if lo else body
            if running is None:
                np.add.reduce(terms, axis=0, out=total)
            else:  # n = 1, where the reduction would be pairwise
                total[:] = np.add.accumulate(terms, axis=0, out=running[: len(terms)])[-1]
        total /= rows
        # A finite sum of the losses shows that each is finite, with no pass over them that allocates.
        if not math.isfinite(np.add.reduce(total)):
            total[~np.isfinite(total)] = penalty
    return total


def _workspace(plan: Plan, n: int, width: int) -> tuple:
    """The scratch buffers of a row chunk of `width` rows scored for `n` candidates, kept on the plan for
    the last `WORKSPACES` such pairs: `(bufs, squares, running)`.  `bufs` holds one list per step, all None
    until the first chunk of this shape fills it with the arrays the step allocated (its result, and at a
    categorical hole its gathered operands and runs), which later chunks write into.  `squares` is the
    (width + 1, n) buffer of the sequential sum and `running`, for n = 1, the buffer of its `cumsum`."""
    if len(plan.workspaces) >= WORKSPACES:
        del plan.workspaces[next(iter(plan.workspaces))]  # the oldest
    running = np.empty((width + 1, 1)) if n == 1 else None
    bufs = [[None] * (4 if hole is not None else 1) for _, hole, _, _, _ in plan.steps]
    plan.workspaces[n, width] = workspace = bufs, np.empty((width + 1, n)), running
    return workspace


def _drawn_tokens(hole, indices: np.ndarray) -> tuple:
    """Which candidates drew which token of categorical `hole`: `(order, inverse, spans)`, where `order`
    sorts the candidates by token, `inverse` undoes it, and `spans` holds `(token, start, stop)` of each
    drawn token's run in that order; `order` is None when every candidate drew one token.  A SketchError
    names the hole if an index is not an integer in 0..arity-1.  A population of one (the argmax program)
    has one token, and is not partitioned."""
    arity = len(hole.tokens)
    integral = indices.dtype.kind in "iu"
    if integral and indices.shape == (1,) and 0 <= indices.item() < arity:
        return None, None, ((indices.item(), 0, 1),)
    try:
        counts = np.bincount(indices, minlength=arity).tolist() if integral else None
    except (TypeError, ValueError):  # a negative index, or an unsigned type past int64
        counts = None
    if counts is None or len(counts) > arity:
        bad = indices[(indices < 0) | (indices >= arity)] if integral else ()
        if len(bad):
            raise SketchError(f"hole {hole.index}: category index {bad[0]} out of range 0..{arity - 1}")
        raise SketchError(f"hole {hole.index} is categorical but got {indices.dtype} values")
    n = len(indices)
    if n in counts:
        return None, None, ((counts.index(n), 0, n),)
    order = indices.argsort(kind="stable")
    spans, start = [], 0
    for tok, count in enumerate(counts):
        if count:
            spans.append((tok, start, start + count))
            start += count
    # The inverse permutation by one scatter, in O(n): a second sort would cost O(n log n).
    inverse = np.empty(n, order.dtype)
    inverse[order] = np.arange(n)
    return order, inverse, spans


def _apply(fns: tuple, drawn: tuple, a, b, n: int, dtype, buf: list):
    """Each drawn token's function applied to `a` and `b` on the candidates that drew it: the candidate
    rows of `a` and `b` are gathered in token order, each token's run is computed into its run of `runs`,
    and `runs` is put back in candidate order, into an (n, width) array of `dtype`.  When every candidate
    drew one token its function is applied to the whole operands.  `buf` is `[result, a_runs, b_runs,
    runs]`, each None until this call allocates it; the arrays are left there for the next chunk."""
    order, inverse, spans = drawn
    res, a_runs, b_runs, runs = buf
    if res is None:
        res = buf[0] = np.empty((n, max(a.shape[1], b.shape[1])), dtype)
    if order is None:
        return fns[spans[0][0]](a, b, out=res)
    a_rows, b_rows = len(a) == n, len(b) == n  # which operands vary by candidate
    if a_rows:
        a = buf[1] = a.take(order, axis=0, out=a_runs, mode="clip")
    if b_rows:
        b = buf[2] = b.take(order, axis=0, out=b_runs, mode="clip")
    if runs is None:
        runs = buf[3] = np.empty_like(res)
    for tok, start, stop in spans:
        fns[tok](a[start:stop] if a_rows else a, b[start:stop] if b_rows else b, out=runs[start:stop])
    return runs.take(inverse, axis=0, out=res, mode="clip")

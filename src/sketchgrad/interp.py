"""Total evaluation of concrete programs against input-output specifications.

Arithmetic follows IEEE-754 double semantics end to end: division by zero
produces an infinity or NaN instead of trapping, so no candidate program can
crash the search.  Candidates whose predictions (or accumulated error) go
non-finite are scored with a large penalty constant instead.  The rule for a
penalty, finite and positive, is `checked_penalty`'s: every evaluator applies
it, and so do the training config and the enumeration.  A spec fits a sketch
by one rule too, `_check_fit`'s: `compile_sketch` and `eval_spec_loss` raise
its `SpecError` before they score a row, and their callers pass it on.

The scalar interpreter (`eval_program`, `eval_spec_loss`) runs one program on
one input; it is the reference.  `compile_sketch` resolves a sketch and spec
once into a `Plan`, a flat step list that only this module reads, and settles
there what no drawn token changes: each step's operands and functions, which
values read an input, and where each real hole's values go.  The product walk
(`eval_product_losses`) scores every token combination and reads the guard's
select step without running it; the population scorer runs every step for
sampled candidates, holding each value as stored rows plus a map from
candidate to stored row.  How each step runs depends on a call's pattern alone:
n, the arrays' shapes and kinds, and which token, if one, every candidate drew
at each categorical hole.  `_resolve` settles that once per pattern into a
program kept on the plan; a call does what its tokens say (their counts, sorts
and maps) and the arithmetic:

- a value that no candidate varies is one row (an input column, a literal, a
  real hole given one value, and what one token computes from these);
- a step of one token whose varying operands share a layout keeps it;
- a categorical step whose other operand is one row, and whose tokens times
  the varying operand's rows are at most n, is a table of each token's
  function of each of those rows: a chain of `[OP]`s over inputs and pinned
  reals is computed once per token combination, not once per candidate;
- any other categorical step keeps its result in token order: the operand
  rows are gathered into that order through their composed maps, each drawn
  token's ufunc runs on its own run of candidates, and the map of the result
  is the inverse permutation, so nothing is scattered back;
- any other step of one token (the guard's select) gathers its operands into
  candidate order.

The loss is computed once per stored row of the prediction and then mapped to
the candidates.  Rows are scored in chunks of `CHUNK_CELLS // n`, and a call
allocates no array per chunk: a program's step results, gathers and sums are
cut from flat buffers kept on the plan, shared by every candidate count and
pattern (`_scratch`), and numpy's ufunc buffer is cut to `BUFSIZE` cells.  The
guard picks its branch by `_select`, without a branch per cell.  The squared
errors are written transposed, one row per spec row under a row holding the
running total, and summed by `np.add.reduce` down the rows: for two or more
stored rows numpy adds them row by row, which is the scalar loop's
left-to-right sum, so each loss is that sequential sum at any chunk size, bit
for bit.  For one stored row (the argmax program, or any population whose
prediction no candidate varies) the same reduction runs down one column, where
numpy sums pairwise and rounds differently, so it is summed by
`np.add.accumulate`, a `cumsum`, instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter, itemgetter, length_hint, methodcaller

import numpy as np

from .sketch import Chain, CondHole, Lit, RealHole, Sketch, SketchError, Var, read_number

NONFINITE_PENALTY = 1e12


def checked_penalty(penalty, error: type[Exception]) -> float:
    """`penalty` as a float, if it is a finite positive number; else an `error`.  A negative penalty would
    rank a program that divides by zero above an exact fit, and a NaN one would put NaN in a ranking."""
    penalty = read_number(penalty, "penalty", error, finite=True)
    if not penalty > 0:
        raise error(f"penalty must be positive, got {penalty}")
    return penalty


class SpecError(ValueError):
    """Invalid specification data, or a spec that does not fit its sketch."""


def _check_fit(sketch: Sketch, spec: SpecSet) -> None:
    """A SpecError unless `spec` has one input per parameter of `sketch`."""
    if spec.arity != sketch.arity:
        raise SpecError(f"spec arity {spec.arity} does not match sketch arity {sketch.arity}")


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
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer past the float range
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
    stays well defined.  A penalty that is not a finite positive number is a
    ValueError, and a spec that does not fit the program a SpecError.
    """
    return _spec_predictions(program, spec, penalty)[1]


def _spec_predictions(program: Sketch, spec: SpecSet, penalty: float = NONFINITE_PENALTY) -> tuple[list, float]:
    """The program's prediction for each spec row, in row order, and `eval_spec_loss` of them, for a caller that
    shows the rows too: each row runs through `eval_program` once."""
    penalty = checked_penalty(penalty, ValueError)
    _check_fit(program, spec)
    preds = [eval_program(program, vec) for vec in spec.inputs.tolist()]
    if not all(math.isfinite(p) for p in preds):
        return preds, penalty
    total = 0.0
    for pred, out in zip(preds, spec.outputs.tolist()):
        d = pred - out
        total += d * d
    loss = total / len(preds)
    return preds, loss if math.isfinite(loss) else penalty


# ---------------------------------------------------------------------------
# Population scoring through a compiled plan (see the module docstring).

# The scorer holds at most this many candidate x spec-row cells per
# intermediate array: it scores the rows in chunks of CHUNK_CELLS // n, and the
# product walk in chunks of as many rows as fit.  A plan keeps the scorer's
# chunk buffers (see `_scratch`); at 2^16 cells they raised the peak RSS of a
# 10 000-row training run by 6 MB, and it ran no faster than at 2^15.  Read at
# call time, so that tests can move the chunk boundaries.
CHUNK_CELLS = 1 << 15

# numpy's ufunc buffer size, in elements, while a call scores chunks of more cells than this: numpy
# allocates a buffer of up to this many elements for each operand that a ufunc call broadcasts (8192 by
# default, 64 KB of float64, on every chunk).  A multiple of 16, as numpy requires; measured on (50, w)
# broadcasts, 256 runs as fast as any larger size, and 16 no faster.
BUFSIZE = 256

# A plan keeps the programs of at most this many call patterns (see `_resolve`), and drops them all when it needs
# one more: a 10 000-iteration one-input training run draws 10-21 patterns in 10 003 calls, a two-input one 3.
PROGRAMS = 32

_UFUNCS = {
    "==": np.equal,
    ">": np.greater,
    "<": np.less,
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}


def _select(mask, x, y, out):
    """`np.where(mask, x, y)` on float64 `x` and `y`, bit for bit (NaN payloads and -0.0 included), into
    `out`, with no branch per cell: on the int64 views of the floats, y ^ ((x ^ y) * mask), where the mask
    is 0 or 1.  Give it an int64 mask, as a plan's comparison step writes: a bool one gives the same bits,
    through a cast buffer."""
    bits, y = out.view(np.int64), y.view(np.int64)
    np.bitwise_xor(x.view(np.int64), y, out=bits)
    np.multiply(bits, mask, out=bits)
    np.bitwise_xor(bits, y, out=bits)
    return out


@dataclass(frozen=True, eq=False)
class Plan:
    """A sketch compiled against a spec, for `eval_population_losses` and `eval_product_losses`.

    A scorer call holds a list of values, each a 2-D array of stored rows over spec rows, with a column axis
    of length 1 where the value does not vary by row, and a layout `(rows, map)`: candidate i reads stored
    row `map[i]`.  The map is None for one stored row, which every candidate reads, and for n rows in
    candidate order.  Values 0 .. arity-1 are the input columns of the current row chunk, cut from `columns`
    (the spec's inputs, one contiguous row per input; `slots` holds them whole, for a call scored in one
    chunk); then come the values of the real holes `reals`, in hole order; the rest are, in `slots` order,
    the literals (held there) and the step results (None there).  A step `(out, hole, fns, args, dtype,
    operands)` sets value `out` to a function of `fns` applied to the values at `args` (two or three, which
    `operands` picks): `fns[0]` when `hole` is None, else, per candidate, the function of the token it drew
    for that categorical hole, into an array of `dtype`.  `wide` says, per value, whether it reads an input
    (a column per spec row) or not (one column).  `categorical` pairs each categorical hole with its token
    count, in hole order.
    Value `out` is the prediction: in a guarded sketch, the guard's `_select` step, which the product walk
    reads.  A plan keeps its calls' scratch `buffers` and programs (`workspaces`, see `_resolve`), so one plan
    must not be scored from two threads at once; compile one per thread."""

    holes: tuple
    columns: np.ndarray
    outputs: np.ndarray
    slots: tuple
    steps: tuple
    out: int
    reals: tuple
    wide: tuple
    categorical: tuple
    buffers: dict = field(default_factory=dict, repr=False)
    workspaces: dict = field(default_factory=dict, repr=False)


def compile_sketch(sketch: Sketch, spec: SpecSet) -> Plan:
    """The plan that scores populations of `sketch`'s hole assignments on `spec`; a SpecError if the spec
    does not fit the sketch (see `_check_fit`).  It settles what no drawn token changes: each step's
    operands and functions, which values read an input and where the reals go."""
    _check_fit(sketch, spec)
    real_holes = tuple(h.index for h in sketch.holes if not h.tokens)
    slots: list = [None] * (sketch.arity + len(real_holes))
    wide = [True] * sketch.arity + [False] * len(real_holes)  # per value: does it read an input
    steps = []

    def operand(node) -> int:
        if isinstance(node, Var):
            return sketch.params.index(node.name)
        if isinstance(node, RealHole):
            return sketch.arity + real_holes.index(node.index)
        if isinstance(node, Lit):
            slots.append(_read_only(np.full((1, 1), node.value)))
            wide.append(False)
            return len(slots) - 1
        raise SketchError(f"not an operand: {node!r}")

    def step(hole, fns: tuple, dtype, *args: int) -> int:
        slots.append(None)
        wide.append(any(map(wide.__getitem__, args)))
        steps.append((len(slots) - 1, hole, fns, args, dtype, itemgetter(*args)))
        return len(slots) - 1

    def apply(slot, a: int, b: int) -> int:
        """A comparison or operator slot: a token, or a hole that applies the token each candidate drew.  A
        comparison writes its 0/1 results as int64, the mask that `_select` multiplies by."""
        tokens = (slot,) if isinstance(slot, str) else slot.tokens
        dtype = np.int64 if tokens[0] in CondHole.tokens else np.float64
        return step(None if isinstance(slot, str) else slot.index, tuple(_UFUNCS[t] for t in tokens), dtype, a, b)

    def chain(c: Chain) -> int:
        acc = operand(c.operands[0])
        for op, nxt in zip(c.ops, c.operands[1:]):
            acc = apply(op, acc, operand(nxt))
        return acc

    out = chain(sketch.ret)
    if sketch.guard is not None:
        g = sketch.guard
        mask = apply(g.cmp, operand(g.lhs), operand(g.rhs))
        out = step(None, (_select,), np.float64, mask, chain(g.body), out)
    columns = _read_only(np.ascontiguousarray(spec.inputs.T))
    slots[: sketch.arity] = columns[:, None, :]  # whole rows, which a call scored in one chunk reads
    categorical = tuple((h.index, len(h.tokens)) for h in sketch.holes if h.tokens)
    return Plan(
        sketch.holes, columns, spec.outputs, tuple(slots), tuple(steps), out, real_holes, tuple(wide), categorical
    )


def eval_population_losses(plan: Plan, hole_values: list, penalty: float = NONFINITE_PENALTY) -> np.ndarray:
    """Spec losses for a population of hole assignments, vectorized.

    hole_values: one array per hole, in hole-table order; int arrays of
    category indices for cond/op holes, int or float arrays of concrete
    values for real holes (scored as float64).  The population has n
    candidates, the length of the longest array; every array has length n,
    or length 1, a value that applies to every candidate.  Returns losses,
    shape (n), a new array that later calls leave alone (empty when n is 0).
    A SketchError names a hole whose array does not fit it.  `penalty`
    replaces a non-finite loss; when one is replaced, a penalty that is not a
    finite positive number is a ValueError.
    """
    if len(plan.holes) != len(hole_values):
        raise SketchError(f"expected {len(plan.holes)} value arrays, got {len(hole_values)}")
    hole_values = list(map(np.asarray, hole_values))
    # `length_hint`, not `len`: a 0-D array, which has no length, counts as 0, and the checks below name its hole.
    lengths = set(map(length_hint, hole_values))
    n = max(lengths) if lengths else 1
    if len(lengths) > 1:
        if lengths != {1, n}:
            uneven = SketchError(f"hole value arrays differ in length {sorted(lengths)}: each must have length 1 or n")
            raise _misfit(plan, hole_values) or uneven
        for hole, _ in plan.categorical:  # one token for every candidate: n of it, whose counts say so
            if hole_values[hole].shape == (1,):
                hole_values[hole] = hole_values[hole].repeat(n)
    if not n:  # nothing to score, but the tokens are checked
        if error := _misfit(plan, hole_values):
            raise error
        return np.empty(0)
    try:  # per categorical hole, in hole order: how many candidates drew each token
        tallies = [np.bincount(hole_values[hole], None, k).tolist() for hole, k in plan.categorical]
    except (TypeError, ValueError):  # a negative index, an unsigned type past int64, or not 1-D
        raise _misfit(plan, hole_values) from None
    # The call's pattern, all that its program depends on (`_resolve`): the chunk size, the arrays' shapes and kinds,
    # and per categorical hole the token every candidate drew, else -len(counts), -k for indices in range.
    key = n, (CHUNK_CELLS, tuple(map(_FORM, hole_values)), *[c.index(n) if n in c else -len(c) for c in tallies])
    program = plan.workspaces.get(key) or _resolve(plan, key, hole_values)
    slots, reals, counted, ops, chunks, pred, count, index, big = program
    values = list(slots)  # the plan's slots, then the program's: the token counts, maps and gathered operands
    values[reals] = map(_COLUMN, map(_FLOAT64, map(hole_values.__getitem__, plan.reals)))
    values[counted] = tallies
    for at, f in ops:  # the maps from candidates to stored rows, and the token orders that build them
        values[at] = f(hole_values, values)
    with np.errstate(all="ignore"):
        # No array has more cells than a chunk, so BUFSIZE is smaller than numpy's size only for a larger chunk.
        # numpy 2 restores the size with the error state, 1 does not.
        bufsize = np.setbufsize(BUFSIZE) if big else None
        try:
            total = np.empty(count)  # the loss of each stored row of the prediction
            for columns, steps, y, squares, body, terms in chunks:
                if columns:
                    values[: len(columns)] = columns
                for out, f, operands, buf in steps:
                    values[out] = f(*operands(values), out=buf)
                # A sequential sum, whatever the chunks (see the module docstring): rows 1.. of `squares` are the
                # chunk's squared errors, a row per spec row and a column per stored prediction row, and from the
                # second chunk on its row 0 is the running total.  A non-finite prediction makes its loss non-finite.
                np.subtract(values[pred].T, y, body)
                np.multiply(body, body, body)
                if terms is squares:
                    squares[0] = total
                if count != 1:
                    np.add.reduce(terms, axis=0, out=total)
                else:  # one stored row, where the reduction would be pairwise: a cumsum, in place
                    total[:] = np.add.accumulate(terms, axis=0, out=terms)[-1]
        finally:
            if bufsize is not None:
                np.setbufsize(bufsize)
        total /= len(plan.outputs)
        _penalize(total, penalty)
    if index is not None:
        return total.take(values[index])
    return total if count == n else total.repeat(n)


def eval_product_losses(plan: Plan, reals, penalty: float) -> np.ndarray:
    """The loss of each assignment of the categorical holes' tokens, in lexicographic order, with `reals` pinned (a
    float per [Real] hole, in hole order, else a SketchError), and `penalty` in place of a non-finite loss (a finite
    positive number, else a ValueError).  Each value is an array whose axis 0 is a chunk's spec rows and axis 1 + h
    is hole h's, of length 1 where it does not depend on the hole.  A categorical step puts token t's function in
    slice t of its hole's axis, so a chain is computed once per token combination.  Per row and cell, the guard's
    mask picks the branch whose squared error the row adds into those cells of the total: each loss is the scalar
    loop's sequential sum.  Chunks hold one row, or as many as fit in `CHUNK_CELLS`."""
    penalty = checked_penalty(penalty, ValueError)
    if len(reals) != (count := sum(not h.tokens for h in plan.holes)):
        raise SketchError(f"expected one real per [Real] hole, {count} of them, got {len(reals)}")
    arity, rows = plan.columns.shape
    ones = (1,) * (1 + len(plan.holes))  # a value that depends on no row and no hole
    values = [None] * arity + [np.full(ones, r) for r in reals]
    values += [s if s is None else s.reshape(ones) for s in plan.slots[len(values) :]] + [np.zeros(ones, bool)]
    steps, (mask, *branches) = plan.steps, (-1, plan.out)  # unguarded: the last value, a mask never true
    if steps and steps[-1][2][0] is _select:  # the guard: its mask and branches are read, not selected
        steps, (mask, *branches) = steps[:-1], steps[-1][3]
    cells = [1] * len(values)  # each value's cells per spec row
    for out, _, fns, args, *_ in steps:
        cells[out] = len(fns) * math.prod(cells[a] for a in args)
    chunk = max(1, CHUNK_CELLS // max(cells))
    total = np.empty((1, *(h.arity or 1 for h in plan.holes)))
    with np.errstate(all="ignore"):
        for lo in range(0, rows, chunk):
            y = plan.outputs[lo : lo + chunk].reshape(-1, *ones[1:])
            values[:arity] = plan.columns[:, lo : lo + chunk].reshape(arity, *y.shape)
            for out, hole, fns, _, _, operands in steps:
                a, b = operands(values)
                values[out] = fns[0](a, b) if hole is None else np.concatenate([f(a, b) for f in fns], 1 + hole)
            squares = [(d := values[b] - y) * d for b in branches]
            m = values[mask]  # one row, or a row per spec row
            for at in np.ndindex(m.shape[1:]):  # each cell of the mask, and the cells of the total it picks for
                view = total[(slice(None), *(slice(i, i + 1 if n > 1 else None) for i, n in zip(at, m.shape[1:])))]
                for r in range(len(y)):  # the scalar loop's sum, which starts at 0.0
                    np.add(view if lo or r else 0.0, squares[0 if m[(r % len(m), *at)] else -1][r : r + 1], out=view)
        losses = total.reshape(-1)
        losses /= rows
        _penalize(losses, penalty)
    return losses


def _penalize(losses: np.ndarray, penalty) -> None:
    """Put `penalty` in place of each non-finite loss in the flat `losses`, which are never negative: the rule
    of both scorers.  A finite sum shows that each loss is finite, with no pass over them that allocates; a
    non-finite or overflowing sum takes the pass, and there a penalty that `checked_penalty` rejects is a
    ValueError."""
    if not math.isfinite(np.add.reduce(losses)):
        losses[~np.isfinite(losses)] = checked_penalty(penalty, ValueError)


_ONE_ROW = (1, None)  # the layout of a value that is the same for every candidate: one stored row, read by each
_FORM = attrgetter("shape", "dtype.kind")  # an array's part of a call's pattern, mapped over its arrays in C
_FLOAT64 = methodcaller("astype", np.float64, copy=False)  # with _COLUMN, mapped over a call's reals in C
_COLUMN = itemgetter((slice(None), None))  # one stored row per candidate
_TAKE = partial(np.ndarray.take, axis=0, mode="clip")  # a gather step: its operand's rows at a map, into `out`


def _resolve(plan: Plan, key: tuple, hole_values: list) -> tuple:
    """The program of the calls of `key` (n and a call's pattern, see `eval_population_losses`), kept on the plan
    once `_misfit` finds that each array fits its hole: `(slots, reals, counted, ops, chunks, pred, count, index,
    big)`.  A call's values start as `slots`: the plan's, one per categorical hole for its token counts (put at
    `counted`, as the reals' columns are put at `reals`), then the maps, gathered operands and tables' counts.
    An op `(at, f)` puts `f(hole_values, values)` at `at`: a table's map, a token order and its inverse, or a
    composed map.  Per row chunk, `chunks` holds its input columns (none if one chunk holds every row), steps,
    outputs as a column, and the `squares`, `body` and `terms` of its sum.  A step `(out, f, operands, buf)` puts
    `f` of the values `operands` picks at `out`, into `buf`: a plan's step (a categorical one by `_runs`) or a
    gather (`_TAKE`).  Value `pred` is the prediction, of `count` stored rows and map `values[index]` (None:
    none); `big` says a chunk has more than BUFSIZE cells."""
    if error := _misfit(plan, hole_values):
        raise error
    n, (cells, forms, *drawn) = key
    every = (n, None) if n > 1 else _ONE_ROW  # one row per candidate, in candidate order
    slots = [*plan.slots, *[None] * len(plan.categorical)]
    layouts = [_ONE_ROW] * len(slots)
    for slot, hole in enumerate(plan.reals, len(plan.columns)):
        layouts[slot] = _ONE_ROW if forms[hole][0] == (1,) else every
    kinds = [(reads_input, np.float64) for reads_input in plan.wide]  # per plan value: its buffers' width and dtype
    drawn = {hole: (position, t) for position, ((hole, _), t) in enumerate(zip(plan.categorical, drawn))}
    ops, program = [], []

    def value(data=None, like=None, gather=None) -> int:  # a new slot
        slots.append(data)
        if gather is not None:  # plan value `like` gathered by the map at `gather[0]`, into buffer `gather[1]`
            program.append((len(slots) - 1, _TAKE, (like, gather[0]), n, gather[1], kinds[like]))
        return len(slots) - 1

    for out, hole, fns, args, dtype, _ in plan.steps:
        position, t = drawn.get(hole, (None, 0))
        kinds[out] = plan.wide[out], dtype
        if t >= 0:
            f = fns[t]
            shared = {layouts[a] for a in args} - {_ONE_ROW}  # the layout of the operands that vary, if one
            if len(shared) > 1:  # gathered into candidate order
                maps = enumerate(layouts[a][1] for a in args)  # a value with no map is read as it is
                args = tuple(a if m is None else value(like=a, gather=(m, (out, j))) for a, (j, m) in zip(args, maps))
            layouts[out] = every if len(shared) > 1 else shared.pop() if shared else _ONE_ROW
        else:
            a, b = layouts[args[0]], layouts[args[1]]  # a categorical step is binary
            r, by = b if a == _ONE_ROW else a  # the rows of the operand that varies, if one does, and its map
            if len(fns) * r <= n and _ONE_ROW in (a, b):
                # Row t * r + i of the table is token t's function of the operand's row i.
                ops.append((value(), partial(_table, hole, r, by)))
                layouts[out] = len(fns) * r, len(slots) - 1
                f, args = partial(_runs, fns, False, False), (*args, value([r] * len(fns)))
            else:  # in token order: the operands that vary gathered by the order, composed with their own maps
                order = value()
                ops.append((slice(order, value() + 1), partial(_sort, hole)))
                layouts[out] = n, order + 1
                for j, s in enumerate((a, b)):
                    if s != every and s != _ONE_ROW:
                        ops.append((value(), lambda hole_values, values, m=s[1], o=order: values[m].take(values[o])))
                    if s != _ONE_ROW:
                        picks = order if s == every else len(slots) - 1
                        args = (*args[:j], value(like=args[j], gather=(picks, (out, j))), *args[j + 1 :])
                f, args = partial(_runs, fns, a != _ONE_ROW, b != _ONE_ROW), (*args, len(plan.slots) + position)
        program.append((out, f, args, layouts[out][0], out, kinds[out]))
    rows, chunk, count = len(plan.outputs), max(1, cells // n), layouts[plan.out][0]
    chunks = []
    for lo in range(0, rows, chunk):
        width = min(chunk, rows - lo)
        steps = [
            (out, f, itemgetter(*args), _scratch(plan, buf, (n, width if wide else 1), dtype)[:stored])
            for out, f, args, stored, buf, (wide, dtype) in program
        ]
        squares = _scratch(plan, "squares", (width + 1, n))[:, :count]
        columns = list(plan.columns[:, None, lo : lo + width]) if chunk < rows else []
        y = plan.outputs[lo : lo + width, None]
        chunks.append((columns, steps, y, squares, squares[1:], squares if lo else squares[1:]))
    # Every program goes when there are PROGRAMS, or one of another count than n (1 aside), whose buffers this
    # count may outgrow.
    if len(plan.workspaces) >= PROGRAMS or n > 1 and any(k[0] not in (1, n) for k in plan.workspaces):
        plan.workspaces.clear()
    reals = slice(len(plan.columns), len(plan.columns) + len(plan.reals))
    counted = slice(len(plan.slots), len(plan.slots) + len(plan.categorical))
    big = n * min(chunk, rows) > BUFSIZE
    program = tuple(slots), reals, counted, ops, chunks, plan.out, *layouts[plan.out], big
    plan.workspaces[key] = program
    return program


def _table(hole: int, r: int, by, hole_values: list, values: list) -> np.ndarray:
    """The map of hole `hole`'s token table, whose varying operand has r rows and map `values[by]` (None: none)."""
    indices = hole_values[hole].astype(np.intp, copy=False)  # an unsigned index times an int would be a float
    return indices if by is None else indices * r + values[by]


def _sort(hole: int, hole_values: list, values: list) -> tuple:
    """The stable order of hole `hole`'s tokens, and its inverse by one scatter, in O(n): a sort is O(n log n)."""
    order = hole_values[hole].argsort(kind="stable")
    inverse = np.empty(len(order), order.dtype)
    inverse[order] = np.arange(len(order))
    return order, inverse


def _runs(fns: tuple, a_runs: bool, b_runs: bool, a, b, counts: list, out: np.ndarray) -> np.ndarray:
    """Each function of `fns` of `a` and `b` into its run of rows of `out`, in order, `counts[t]` rows for token
    t; an operand is read a run at a time if `a_runs` (`b_runs`) says so (it is in token order), else whole."""
    start = 0
    for g, count in zip(fns, counts):
        if count:
            stop = start + count
            g(a[start:stop] if a_runs else a, b[start:stop] if b_runs else b, out=out[start:stop])
            start = stop
    return out


def _scratch(plan: Plan, key, shape: tuple, dtype=np.float64) -> np.ndarray:
    """An array of `shape` cut from the plan's flat buffer `key`, as long as the most cells a call has needed of
    it: a run that scores n and n + 1 candidates, and the argmax alone, holds one buffer, not one per count."""
    cells = math.prod(shape)
    flat = plan.buffers.get(key)
    if flat is None or flat.size < cells:
        flat = plan.buffers[key] = np.empty(cells, dtype)
    return flat[:cells].reshape(shape)


def _misfit(plan: Plan, hole_values: list) -> SketchError | None:
    """The error that names the first hole, in hole order, whose array does not fit it, if one does not: a real
    hole takes a 1-D array of integers or floats, a categorical one a 1-D array of integers that `np.bincount`
    takes, each in 0..arity-1."""
    for hole, values in zip(plan.holes, hole_values):
        if hole.tokens is None:
            if values.ndim != 1 or values.dtype.kind not in "iuf":
                return SketchError(f"hole {hole.index} is real but got {values.ndim}-D {values.dtype} values")
            continue
        integral = values.ndim == 1 and values.dtype.kind in "iu"
        bad = values[(values < 0) | (values >= len(hole.tokens))] if integral else ()
        if len(bad):
            return SketchError(f"hole {hole.index}: category index {bad[0]} out of range 0..{len(hole.tokens) - 1}")
        if not integral or not np.can_cast(values.dtype, np.intp):
            shape = "" if values.ndim == 1 else f" of shape {values.shape}"
            return SketchError(f"hole {hole.index} is categorical but got {values.dtype} values{shape}")
    return None

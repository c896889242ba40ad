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
once into a `Plan`, a flat step list that only this module reads.  The product
walk (`eval_product_losses`) scores every token combination and reads the
guard's select step without running it; the population scorer runs every step
for sampled candidates, holding each value as stored rows plus a map from
candidate to stored row; how each step runs is settled once per call, before
the row loop (`_resolve`):

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

The loss is computed once per stored row of the prediction and then mapped
to the candidates.  Rows are scored in chunks of `CHUNK_CELLS // n`, and the
row loop allocates no array past the first chunk of each shape: each step's
result buffer, and the buffers its gathers take on the first chunk, are cut
from flat buffers kept on the plan, shared by every candidate count (`_scratch`).
While a call scores chunks of more cells than `BUFSIZE`, numpy's ufunc
buffer size is set to it, so a ufunc that broadcasts or casts an operand
goes through a small iterator buffer, not one of 8192 elements.  The guard
picks its branch by a bitwise select on the int64 views of the two branches,
which gives `np.where`'s bits (NaN payloads and -0.0 too) without a
mispredicted branch per cell; real holes are scored as float64, so both
branches are float64, and the comparison writes its 0/1 results as int64,
the mask the select multiplies by.  The squared errors are written
transposed, one row per spec row under a row holding the running total, and
summed by `np.add.reduce` down the rows: for two or more stored rows numpy
adds them row by row, which is the scalar loop's left-to-right sum, so each
loss is that sequential sum at any chunk size, bit for bit.  For one stored
row (the argmax program, or any population whose prediction no candidate
varies) the same reduction runs down one column, where numpy sums pairwise
and rounds differently, so it is summed by `np.add.accumulate`, a `cumsum`,
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter, length_hint

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
    candidate order (see the module docstring).  Values 0 .. arity-1 are the input columns of the current
    row chunk, cut from `columns` (the spec's inputs, one contiguous row per input; `slots` holds them
    whole, for a call scored in one chunk); value arity + h is real hole h's values; the rest are, in
    `slots` order, the literals (held there) and the step results (None there).  A step `(out, hole, fns,
    args, dtype, operands)` sets value `out` to a function of `fns` applied to the values at `args` (two
    or three of them, which `operands` picks from the list of values): `fns[0]` when `hole` is None, else,
    per candidate, the function of the token it drew for that categorical hole, into an array of `dtype`.
    Value `out` is the prediction: in a guarded sketch, the guard's `_select` step, which the product walk reads.

    A plan owns the scratch buffers its calls write into (`buffers` and `workspaces`, see `_workspace`), so
    one plan must not be scored from two threads at once; compile one per thread."""

    holes: tuple
    columns: np.ndarray
    outputs: np.ndarray
    slots: tuple
    steps: tuple
    out: int
    buffers: dict = field(default_factory=dict, repr=False)
    workspaces: dict = field(default_factory=dict, repr=False)


def compile_sketch(sketch: Sketch, spec: SpecSet) -> Plan:
    """The plan that scores populations of `sketch`'s hole assignments on `spec`; a SpecError if the spec
    does not fit the sketch (see `_check_fit`)."""
    _check_fit(sketch, spec)
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
    return Plan(sketch.holes, columns, spec.outputs, tuple(slots), tuple(steps), out)


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
    if len(lengths) > 1 and lengths != {1, n}:
        for hole, v in zip(plan.holes, hole_values):
            if v.ndim == 0:
                raise _misfit(hole, v)
        raise SketchError(f"hole value arrays differ in length {sorted(lengths)}: each must have length 1 or n")
    arity, rows = plan.columns.shape
    values = list(plan.slots)
    layouts = [_ONE_ROW] * len(values)
    every = (n, None)  # one row per candidate, in candidate order
    drawn = {None: 0}  # a step that is no hole applies its one function
    for hole, v in zip(plan.holes, hole_values):
        if hole.tokens is not None:
            drawn[hole.index] = _drawn_tokens(hole, v)
        elif v.ndim == 1 and v.dtype.kind in "iuf":
            values[arity + hole.index] = v.astype(np.float64, copy=False)[:, None]
            if len(v) != 1:
                layouts[arity + hole.index] = every
        else:
            raise _misfit(hole, v)
    if not n:
        return np.empty(0)
    # Each value's layout, and so each step's way of running, is settled here, once per call (see `_resolve`).
    program = _resolve(plan.steps, drawn, layouts, n, every)
    count, index = layouts[plan.out]  # the prediction's stored rows, and which one each candidate reads
    chunk = max(1, CHUNK_CELLS // n)
    total = np.empty(count)
    with np.errstate(all="ignore"):
        # No array of a call has more cells than one chunk of n candidates, so a buffer of BUFSIZE
        # elements is only smaller than numpy's when a chunk is larger.  numpy 2 restores the size
        # with the error state, older versions need it put back by hand.
        bufsize = np.setbufsize(BUFSIZE) if n * min(chunk, rows) > BUFSIZE else None
        try:
            for lo in range(0, rows, chunk):
                hi = min(lo + chunk, rows)
                bufs, squares = plan.workspaces.get((n, hi - lo)) or _workspace(plan, n, hi - lo)
                if chunk < rows:  # else the plan's slots hold every row
                    values[:arity] = plan.columns[:, None, lo:hi]
                for (out, hole, fns, _, _, operands), how, buf in zip(plan.steps, program, bufs):
                    if how is None:  # the token's function, of one row per candidate or of n = 1 row
                        values[out] = fns[drawn[hole]](*operands(values), out=buf[0])
                    elif how.__class__ is int:  # the token's function of `how` stored rows
                        values[out] = fns[drawn[hole]](*operands(values), out=buf[0][:how])
                    else:  # each `(j, picks)` gathers operand j into an (n, width) buffer kept for later
                        gathers, counts = how
                        gathered = list(operands(values))
                        for j, picks in gathers:
                            o = gathered[j]
                            if buf[1 + j] is None:
                                buf[1 + j] = _scratch(plan, (out, j), (n, o.shape[1]), o.dtype)
                            gathered[j] = o.take(picks, axis=0, out=buf[1 + j], mode="clip")
                        if counts is None:  # in candidate order
                            values[out] = fns[drawn[hole]](*gathered, out=buf[0])
                        else:
                            values[out] = _runs(fns, counts, *gathered, buf[0])
                # A sequential sum, whatever the chunks (see the module docstring): rows 1.. of `squares` are the
                # chunk's squared errors, one row per spec row and one column per stored prediction row, and
                # from the second chunk on its row 0 is the running total.  A non-finite prediction makes its
                # loss non-finite, so the one check below covers both.
                body = squares[1:, :count]
                np.subtract(values[plan.out].T, plan.outputs[lo:hi, None], out=body)
                np.multiply(body, body, out=body)
                if lo:
                    squares[0, :count] = total
                terms = squares[:, :count] if lo else body
                if count != 1:
                    np.add.reduce(terms, axis=0, out=total)
                else:  # one stored row, where the reduction would be pairwise: a cumsum, in place
                    total[:] = np.add.accumulate(terms, axis=0, out=terms)[-1]
        finally:
            if bufsize is not None:
                np.setbufsize(bufsize)
        total /= rows
        _penalize(total, penalty)
    if index is not None:
        return total.take(index)
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
    pinned = iter(reals)  # a categorical hole's slot is never read
    arity, rows = plan.columns.shape
    ones = (1,) * (1 + len(plan.holes))  # a value that depends on no row and no hole
    values = [None] * arity + [None if h.tokens else np.full(ones, next(pinned)) for h in plan.holes]
    values += [s if s is None else s.reshape(ones) for s in plan.slots[len(values) :]] + [np.zeros(ones, bool)]
    steps, (mask, *branches) = plan.steps, (-1, plan.out)  # unguarded: the last value, a mask never true
    if steps and steps[-1][2][0] is _select:  # the guard: its mask and branches are read, not selected
        steps, (mask, *branches) = steps[:-1], steps[-1][3]
    cells = [1] * len(values)  # each value's cells per spec row
    for out, _, fns, args, _, _ in steps:
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


# The layout of a value that is the same for every candidate: one stored row, which each candidate reads.
_ONE_ROW = (1, None)


def _resolve(steps: tuple, drawn: dict, layouts: list, n: int, every: tuple) -> list:
    """How each plan step runs in this call, for the row loop, in step order; each step's result layout goes
    into `layouts` (see `Plan`).  `drawn` holds, per categorical hole, the token every candidate took or
    `(indices, counts)` (see `_drawn_tokens`), and 0 for a step that is no hole; `every` is the layout of
    one row per candidate.  A step runs as:

    - One token, and the operands that vary share one layout: the token's function of the stored rows,
      in that layout; None when there are n of them, else their count.
    - Else `(gathers, counts)`: the row loop gathers operand j by the stored rows `picks` of each `(j,
      picks)` pair in `gathers`, then applies the token's function (`counts` None), or each token's
      function to its run of `counts[t]` rows (see `_runs`).
    - A step of one token (the guard's select) gathers the operands that have a map into candidate order.
    - A categorical step with at most one operand that varies, and at most n combinations of a token and
      that operand's rows, gathers nothing: it is a table, a run of each token's function of all of the
      operand's rows.  Its map is composed from the hole's indices and the operand's map.
    - Any other categorical step gathers each operand that varies into token order, through its composed
      map, and runs each token's function on the candidates that drew it.  Its map is the inverse
      permutation.

    One loop, with no comprehension: at a few spec rows, a call per step costs more than its arithmetic.
    """
    program = []
    for out, hole, fns, args, _, _ in steps:
        tokens = drawn[hole]
        if tokens.__class__ is int:
            layout = _ONE_ROW  # the layout of the operands that vary, while they share one
            for a in args:
                s = layouts[a]
                if s is not _ONE_ROW and s is not layout:
                    if layout is not _ONE_ROW:
                        break
                    layout = s
            else:
                layouts[out] = layout
                program.append(None if layout[0] == n else layout[0])
                continue
            layouts[out] = every
            gathers = []
            for j, a in enumerate(args):
                if layouts[a][1] is not None:
                    gathers.append((j, layouts[a][1]))
            program.append((gathers, None))
            continue
        a, b = layouts[args[0]], layouts[args[1]]  # a categorical step is binary
        shaped = b if a is _ONE_ROW else a
        if len(fns) * shaped[0] <= n and (a is _ONE_ROW or b is _ONE_ROW):
            # Row t * rows + r of the table is token t's function of the operand's row r.
            indices = tokens[0].astype(np.intp, copy=False)  # an unsigned index times an int would be a float
            layouts[out] = len(fns) * shaped[0], indices if shaped is _ONE_ROW else indices * shaped[0] + shaped[1]
            program.append(((), [shaped[0]] * len(fns)))
            continue
        order = tokens[0].argsort(kind="stable")
        # The inverse permutation by one scatter, in O(n): a second sort would cost O(n log n).
        inverse = np.empty(n, order.dtype)
        inverse[order] = np.arange(n)
        layouts[out] = n, inverse
        gathers = []
        if a is not _ONE_ROW:
            gathers.append((0, order if a is every else a[1][order]))
        if b is not _ONE_ROW:
            gathers.append((1, order if b is every else b[1][order]))
        program.append((gathers, tokens[1]))
    return program


def _runs(fns: tuple, counts: list, a, b, out: np.ndarray) -> np.ndarray:
    """Each token's function of its run of the operands, `counts[t]` rows for token t, into the same rows of
    `out`, which are returned.  An operand of n rows (one per row of `out`, gathered into token order) is
    read a run at a time, any other whole: a single row, or the rows of a table's operand."""
    a_runs, b_runs = len(a) == len(out), len(b) == len(out)
    start = 0
    for f, count in zip(fns, counts):
        if count:
            stop = start + count
            f(a[start:stop] if a_runs else a, b[start:stop] if b_runs else b, out=out[start:stop])
            start = stop
    return out if start == len(out) else out[:start]


def _workspace(plan: Plan, n: int, width: int) -> list:
    """The scratch arrays of a row chunk of `width` rows scored for `n` candidates, `[bufs, squares]`, cut from
    the plan's flat buffers (`_scratch`), and kept for the last count over 1 and for 1 (an argmax scored alone),
    which a `train_step` loop alternates.  `bufs` holds one list per step: its result, n rows of `width` columns
    (1 for a step that reads no input), then one array per operand for the operand gathered into the result's
    order, None until a chunk gathers it.  `squares`: the (width + 1, n) array of the sequential sum."""
    for key in [key for key in plan.workspaces if key[0] != n and (key[0] == 1) == (n == 1)]:
        del plan.workspaces[key]
    wide = [True] * len(plan.columns) + [False] * (len(plan.slots) - len(plan.columns))  # reads an input
    bufs = []
    for out, _, _, args, dtype, _ in plan.steps:
        wide[out] = any(wide[a] for a in args)
        bufs.append([_scratch(plan, out, (n, width if wide[out] else 1), dtype)] + [None] * len(args))
    plan.workspaces[n, width] = workspace = [bufs, _scratch(plan, "squares", (width + 1, max(n, 1)))]
    return workspace


def _scratch(plan: Plan, key, shape: tuple, dtype=np.float64) -> np.ndarray:
    """An array of `shape` cut from the plan's flat buffer `key`, as long as the most cells a call has needed of
    it: a run that scores n and n + 1 candidates, and the argmax alone, holds one buffer, not one per count."""
    cells = math.prod(shape)
    flat = plan.buffers.get(key)
    if flat is None or flat.size < cells:
        flat = plan.buffers[key] = np.empty(cells, dtype)
    return flat[:cells].reshape(shape)


def _drawn_tokens(hole, indices: np.ndarray):
    """The token every candidate drew for categorical `hole`, given one index per candidate or one index for
    all; else `(indices, counts)`, the indices and how many candidates drew each token.  A SketchError names
    the hole if an index is not an integer in 0..arity-1."""
    arity = len(hole.tokens)
    integral = indices.dtype.kind in "iu"
    try:
        counts = np.bincount(indices, minlength=arity).tolist() if integral else None
    except (TypeError, ValueError):  # a negative index, or an unsigned type past int64
        counts = None
    if counts is None or len(counts) > arity:
        bad = indices[(indices < 0) | (indices >= arity)] if integral and indices.ndim == 1 else ()
        if len(bad):
            raise SketchError(f"hole {hole.index}: category index {bad[0]} out of range 0..{arity - 1}")
        raise _misfit(hole, indices)
    if len(indices) in counts:
        return counts.index(len(indices))
    return indices, counts


def _misfit(hole, values: np.ndarray) -> SketchError:
    """The error for hole `values` that are not a 1-D array of a dtype the hole's kind takes."""
    if hole.tokens is None:
        return SketchError(f"hole {hole.index} is real but got {values.ndim}-D {values.dtype} values")
    shape = "" if values.ndim == 1 else f" of shape {values.shape}"
    return SketchError(f"hole {hole.index} is categorical but got {values.dtype} values{shape}")

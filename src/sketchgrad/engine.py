"""The training loop: sample programs, score them, step the distributions.

`train` and `enumerate_discrete` each compile the sketch against the spec
once (`interp.compile_sketch`) and score through that plan.  One iteration
samples a population of hole assignments from the current per-hole
distributions, scores every candidate in one call of the vectorized scorer,
standardizes the negated losses into fitness, estimates a gradient per hole
and takes an ascent step: `train_step` maps one `TrainState` value of plain
arrays to the next, and theta objects exist only at the edges.  The argmax
program (most probable token per categorical hole, mean per real hole) is
scored every iteration by the same scorer, as a population of one, and the
best one seen is kept; `train` instantiates a concrete program only for the
best and the final state.  Scorer calls go through this module's name
`eval_population_losses`, looked up at call time, so a wrapper put there sees
every one.

`enumerate_discrete` ranks the whole discrete space, which interp's product
walk scores, called through this module's name `eval_product_losses` (looked
up at call time too); `_rank` sorts the losses in the walk's own buffer and
re-sorts only the groups of losses that tie in their high bits, so that
buffer and the one order array it adds are the arrays a `Ranking` holds.
The scalar interpreter (`interp.eval_spec_loss`) is on neither path: it is
the reference both are tested against.  Both paths take a penalty for
non-finite losses by interp's rule (`checked_penalty`).

Because the best program is kept, a search that has settled can be
restarted at no cost: when the argmax loss has not improved by
`RESTART_MIN_GAIN` for `RESTART_PATIENCE` iterations, the distributions are
drawn afresh (see `restart_state`) and the search goes on from there.  Once
every categorical hole has committed, its score-function gradient vanishes
and the search cannot leave the basin it is in; a restart is the way out.
"""

from __future__ import annotations

import math
import typing
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dists, interp
from . import sketch as _sketch
from .dists import (
    SCORE_KINDS,
    SCORE_LOG_SOFTMAX,
    CategoricalTheta,
    GaussianTheta,
    _categorical_accumulator,
    _categorical_draws,
    _gaussian_accumulator,
    check_thetas,
    standardize_fitness,
)
from .interp import (
    NONFINITE_PENALTY,
    SpecSet,
    _read_only,
    checked_penalty,
    compile_sketch,
    eval_population_losses,
    eval_product_losses,
)
from .sketch import Assignment, Sketch, SketchError, instantiate, read_number, show

OPTIMIZER_SGD = "sgd"
OPTIMIZER_ADAM = "adam"
OPTIMIZERS = (OPTIMIZER_SGD, OPTIMIZER_ADAM)

# A restart is due when the argmax loss has not fallen below (1 - gain) times
# its last low for RESTART_PATIENCE iterations.  Restarted categorical holes
# draw their logits from N(0, RESTART_LOGIT_STD).
RESTART_PATIENCE = 2000
RESTART_MIN_GAIN = 0.01
RESTART_LOGIT_STD = 1.0

# loss_spikes takes the medians of this many full windows per numpy call.
SPIKE_CHUNK = 4096

# The most candidates a training iteration samples (TrainConfig.population) and, by default, the most
# programs `enumerate_discrete` ranks: a million candidates' arrays are tens of MB.
MAX_CANDIDATES = 10**6


class ConfigError(ValueError):
    """Invalid training configuration."""


class EnumerationError(ValueError):
    """Discrete search space too large to enumerate."""


class DivergenceError(ArithmeticError):
    """A training step left a non-finite parameter."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    `sigma` is the fixed standard deviation of every real hole's search
    distribution; `penalty` replaces non-finite candidate losses.  Each field
    holds its annotated type: an integral number that is not a bool, a finite
    real number (stored as a float) or a string; anything else is a ConfigError.
    A value: `dataclasses.replace` makes a changed copy, and checks it again.
    """

    learning_rate: float
    iterations: int
    population: int = 50
    sigma: float = 0.5
    seed: int = 0
    optimizer: str = OPTIMIZER_SGD
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    # The score-function weight, so that training does what the package
    # docstring says, "estimate gradients of expected fitness": the
    # expectation of `softmax_grad` is not that gradient (see
    # dists._categorical_accumulator).
    categorical_score: str = SCORE_LOG_SOFTMAX
    penalty: float = NONFINITE_PENALTY
    # Real holes start at the multiplicative identity rather than 0.0: a zero
    # mean parks guard thresholds outside any positive data range and zeroes
    # out multiplicative candidates, which traps a large fraction of runs in
    # a dead-branch basin.
    mu_init: float = 1.0

    def __post_init__(self):
        for name, kind in typing.get_type_hints(TrainConfig).items():
            object.__setattr__(self, name, _field(name, kind, getattr(self, name), ConfigError))
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be at least 1, got {show(self.iterations)}")
        if self.population < 2:
            raise ConfigError(f"population must be at least 2, got {show(self.population)}")
        if self.population > MAX_CANDIDATES:
            raise ConfigError(f"population must be at most {MAX_CANDIDATES}, got {show(self.population)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {show(self.seed)}")
        if not self.sigma > 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.categorical_score not in SCORE_KINDS:
            raise ConfigError(f"categorical_score must be one of {SCORE_KINDS}, got {self.categorical_score!r}")
        if not 0 <= self.adam_beta1 < 1 or not 0 <= self.adam_beta2 < 1:
            raise ConfigError("adam betas must lie in [0, 1)")
        if not self.adam_eps > 0:
            raise ConfigError("adam_eps must be positive")
        checked_penalty(self.penalty, ConfigError)

    def __repr__(self) -> str:
        # The generated repr, but with each field shown as an error message shows it: a seed too long for
        # `repr` would end the call in a bare ValueError.
        shown = ", ".join(f"{f.name}={show(getattr(self, f.name))}" for f in fields(self))
        return f"{type(self).__qualname__}({shown})"


def _field(name: str, kind: type, value, error: type[Exception]):
    """`value` as a TrainConfig field `name` annotated `kind`, which it must hold (see TrainConfig); else an `error`."""
    if kind is not str:
        return read_number(value, name, error, kind, finite=kind is float)
    if not isinstance(value, str):
        raise error(f"{name} must be a string, got {show(value)}")
    return value


@dataclass(frozen=True)
class TrainRecord:
    iteration: int
    mean_population_loss: float
    argmax_loss: float
    best_so_far_loss: float


@dataclass
class TrainResult:
    thetas: tuple
    best_thetas: tuple
    best_program: Sketch
    best_loss: float
    final_program: Sketch
    final_loss: float
    records: list[TrainRecord] = field(default_factory=list)
    restarts: list[int] = field(default_factory=list)  # iterations after which the distributions were redrawn


@dataclass
class Population:
    """One iteration's candidates, and the draws their gradients are estimated from, one array per hole
    in hole order: the values are token indices, or mu + sigma * eps for a real hole; the draws are the
    softmax a categorical hole's tokens were drawn from, or a real hole's standard-normal eps."""

    values: list[np.ndarray]
    draws: list[np.ndarray]


@dataclass(frozen=True, eq=False)  # arrays have no single truth value, so states compare by identity
class TrainState:
    """What one training step reads and writes, as a value of read-only arrays, one entry per hole in
    hole order: a categorical hole's logit vector, or a real hole's mean as a 1-vector; its sigma, fixed
    for a real hole and None for a categorical one; and Adam's (m, v), shaped like the parameter."""

    params: tuple
    sigmas: tuple
    moments: tuple
    step_count: int = 0  # optimizer steps since the last (re)start
    iteration: int = 0
    best_loss: float = math.inf  # best argmax loss so far, across restarts

    @classmethod
    def from_thetas(cls, sketch: Sketch, thetas) -> TrainState:
        """A state at step 0 holding `thetas`, which must fit the sketch's holes (ThetaError)."""
        check_thetas(thetas, sketch)
        params = [t.logits if isinstance(t, CategoricalTheta) else [t.mu] for t in thetas]
        return _fresh_state(params, [None if isinstance(t, CategoricalTheta) else t.sigma for t in thetas])

    def thetas(self) -> tuple:
        """The distributions as theta values, in hole order."""
        return tuple(
            CategoricalTheta(p) if sigma is None else GaussianTheta(p.item(), sigma)
            for p, sigma in zip(self.params, self.sigmas)
        )


def _fresh_state(params, sigmas) -> TrainState:
    params = tuple(_read_only(np.array(p, dtype=np.float64)) for p in params)
    moments = tuple((_read_only(np.zeros_like(p)), _read_only(np.zeros_like(p))) for p in params)
    return TrainState(params, tuple(sigmas), moments)


def init_state(sketch: Sketch, config: TrainConfig) -> TrainState:
    """Uniform logits for categorical holes, N(mu_init, sigma) for real holes."""
    params = [np.zeros(h.arity) if h.tokens else [config.mu_init] for h in sketch.holes]
    return _fresh_state(params, [None if h.tokens else config.sigma for h in sketch.holes])


def restart_state(sketch: Sketch, state: TrainState, config: TrainConfig, streams) -> TrainState:
    """`init_state`, but with logits drawn from N(0, RESTART_LOGIT_STD) on each categorical hole's stream,
    and the iteration and best loss of `state`.  Uniform logits would send the search down the same
    mean path as the first start, into the basin it is leaving; random logits start it elsewhere."""
    fresh = init_state(sketch, config)
    params = tuple(
        p if sigma is not None else _read_only(stream.normal(0.0, RESTART_LOGIT_STD, p.size))
        for p, sigma, stream in zip(fresh.params, fresh.sigmas, streams)
    )
    return replace(fresh, params=params, iteration=state.iteration, best_loss=state.best_loss)


def hole_streams(seed: int, n_holes: int) -> list[np.random.Generator]:
    """One independent random stream per hole, derived from the master seed.

    Sampling happens before the evaluation phase, so the draws cannot depend
    on evaluation order.  Both arguments are non-negative integers that are
    not bools, else a ValueError.
    """
    seed, n_holes = read_number(seed, "seed", ValueError, int), read_number(n_holes, "n_holes", ValueError, int)
    for name, value in (("seed", seed), ("n_holes", n_holes)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {show(value)}")
    root = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in root.spawn(max(n_holes, 1))]


def sample_population(state: TrainState, n: int, streams) -> Population:
    """Draw n candidates, each hole from its own stream in `streams` (one per hole,
    in hole order): category indices per categorical hole, mu + sigma*eps per real hole."""
    values, draws = [], []
    for p, sigma, stream in zip(state.params, state.sigmas, streams):
        # Softmax through the module, so that a patched or traced `dists.softmax` sees every call.
        draws.append(dists.softmax(p) if sigma is None else stream.standard_normal(n))
        values.append(_categorical_draws(draws[-1], n, stream) if sigma is None else p + sigma * draws[-1])
    return Population(values, draws)


def estimate_gradients(state: TrainState, population: Population, fitness: np.ndarray, score: str) -> tuple:
    """Gradients from one scored population, one per hole, shaped like its parameter."""
    return tuple(
        _categorical_accumulator(draw, tokens, fitness, score)
        if sigma is None
        else np.array([_gaussian_accumulator(draw, fitness, sigma)])
        for sigma, tokens, draw in zip(state.sigmas, population.values, population.draws)
    )


@dataclass(frozen=True)
class SgdOptimizer:
    """Gradient ascent, `param + learning_rate * grad`; a rule that keeps no state."""

    learning_rate: float

    def step(self, params: tuple, grads: tuple, moments: tuple, step_count: int) -> tuple[tuple, tuple]:
        return tuple(p + self.learning_rate * g for p, g in zip(params, grads)), moments


@dataclass(frozen=True)
class AdamOptimizer:
    """Adam as ascent; the moments and the 1-based step count come in and go out with the parameters."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def step(self, params: tuple, grads: tuple, moments: tuple, step_count: int) -> tuple[tuple, tuple]:
        out, new_moments = [], []
        for p, g, (m, v) in zip(params, grads, moments):
            m = self.beta1 * m + (1 - self.beta1) * g
            v = self.beta2 * v + (1 - self.beta2) * g * g
            mhat = m / (1 - self.beta1**step_count)
            vhat = v / (1 - self.beta2**step_count)
            out.append(p + self.learning_rate * mhat / (np.sqrt(vhat) + self.eps))
            new_moments.append((_read_only(m), _read_only(v)))
        return tuple(out), tuple(new_moments)


def make_optimizer(config: TrainConfig):
    """The update rule `config.optimizer` names."""
    if config.optimizer == OPTIMIZER_ADAM:
        return AdamOptimizer(config.learning_rate, config.adam_beta1, config.adam_beta2, config.adam_eps)
    return SgdOptimizer(config.learning_rate)


def _argmax_columns(params, sigmas) -> list:
    """The most probable value per hole of a state's `params` and `sigmas`, as one-candidate columns in
    hole order: the highest-logit token index (ties break to the lowest index) per categorical hole,
    the mean per real hole."""
    return [p if sigma is not None else p.argmax(keepdims=True) for p, sigma in zip(params, sigmas)]


def argmax_program(sketch: Sketch, thetas) -> Sketch:
    """Most probable concrete program, by the rule of `_argmax_columns`; ThetaError unless the thetas fit the holes."""
    state = TrainState.from_thetas(sketch, thetas)
    columns = _argmax_columns(state.params, state.sigmas)
    return instantiate(sketch, Assignment(tuple(column.item() for column in columns)))


def train_step(plan: interp.Plan, state: TrainState, config: TrainConfig, streams):
    """One iteration: the state after `state`, and its record.  `plan` is the sketch compiled against the
    spec (see `compile_sketch`), `streams` holds one Generator per hole (see `hole_streams`).  Raises
    DivergenceError when the step leaves a non-finite parameter."""
    # Overflow is not an error here: a logit gap past the float range gives a
    # probability of 0, its limit, and a step past the range is caught below.
    with np.errstate(over="ignore"):
        population = sample_population(state, config.population, streams)
        losses = eval_population_losses(plan, population.values, config.penalty)
        fitness = standardize_fitness(losses)
        grads = estimate_gradients(state, population, fitness, config.categorical_score)
        step_count = state.step_count + 1
        params, moments = make_optimizer(config).step(state.params, grads, state.moments, step_count)
    iteration = state.iteration + 1
    # The reductions here are ufunc methods, called directly: numpy's wrappers for `.all()` and `np.mean`
    # cost more than the few cells they reduce.
    if not np.logical_and.reduce(np.isfinite(np.concatenate(params))):
        raise DivergenceError(f"the run diverged: iteration {iteration} left a non-finite parameter")
    params = tuple(map(_read_only, params))
    # The argmax program, scored as a population of one.
    argmax_loss = float(eval_population_losses(plan, _argmax_columns(params, state.sigmas), config.penalty)[0])
    best_loss = min(state.best_loss, argmax_loss)
    record = TrainRecord(iteration, float(np.add.reduce(losses) / losses.size), argmax_loss, best_loss)
    return TrainState(params, state.sigmas, moments, step_count, iteration, best_loss), record


def train(sketch: Sketch, spec: SpecSet, config: TrainConfig, on_step=None) -> TrainResult:
    """Run the full loop; deterministic given (sketch, spec, config).

    `on_step(record, state)`, if given, sees each iteration's record and the stepped state
    it scored; both are values, so it can watch the run, not change it.  A restart that is due
    happens before the next step, so the run ends on its last trained state.
    """
    if sketch.hole_count == 0:
        raise SketchError("sketch has no holes; nothing to train")
    plan = compile_sketch(sketch, spec)
    state = best = init_state(sketch, config)
    streams = hole_streams(config.seed, sketch.hole_count)
    records: list[TrainRecord] = []
    restarts: list[int] = []
    low, stale = math.inf, 0  # argmax loss at the last gain, iterations since
    for _ in range(config.iterations):
        if stale == RESTART_PATIENCE:
            state = restart_state(sketch, state, config, streams)
            low, stale = math.inf, 0
            restarts.append(state.iteration)
        state, record = train_step(plan, state, config, streams)
        if state.best_loss < best.best_loss:
            best = state
        records.append(record)
        if on_step is not None:
            on_step(record, state)
        if record.argmax_loss < low * (1 - RESTART_MIN_GAIN):
            low, stale = record.argmax_loss, 0
        else:
            stale += 1
    thetas, best_thetas = state.thetas(), best.thetas()
    return TrainResult(
        thetas=thetas,
        best_thetas=best_thetas,
        best_program=argmax_program(sketch, best_thetas),
        best_loss=best.best_loss,
        final_program=argmax_program(sketch, thetas),
        final_loss=records[-1].argmax_loss,
        records=records,
        restarts=restarts,
    )


def _rank(losses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of `losses` in ascending loss order, ties in ascending index order, and the losses
    in that order: a stable argsort's order, bit for bit, for losses that hold no NaN and no -0.0, as the
    scorer's do.  The losses are ranked in `losses` itself, which is returned; the order is the one other
    array of their size.

    The int64 bits of positive floats sort as the floats do, so one unstable sort of int64 keys, each
    loss's bits with its flat index in place of the low ones, orders the losses up to those low bits, and
    equal losses by index.  The low bits, kept aside in a narrow column, then go back into the sorted keys.
    Only losses whose high bits tie can be out of order, and each group of them already holds its indices
    in ascending order, so a stable sort of the groups that hold an inversion, and of nothing else,
    finishes the ranking.  Negative losses, whose bits sort in reverse, come first and are one group."""
    n = len(losses)
    b = (n - 1).bit_length()  # the bits that hold a flat index
    low = (1 << b) - 1
    bits = losses.view(np.int64)
    lows = np.empty(n, np.uint16 if b <= 16 else np.uint32 if b <= 32 else np.int64)
    np.bitwise_and(bits, low, out=lows, casting="unsafe")
    order = np.arange(n)
    bits &= ~low
    bits |= order
    bits.sort()
    np.bitwise_and(bits, low, out=order)
    bits &= ~low
    bits |= lows.take(order)
    turns = (losses[1:] < losses[:-1]).nonzero()[0]  # each is in a group of losses whose high bits tie
    if len(turns):
        heads = bits[turns]
        heads &= ~low  # ascending, as the keys were sorted by them; then once per group
        heads = np.concatenate((heads[:1], heads[1:][heads[1:] != heads[:-1]]))
        # The keys ascend in their high bits, so both searches are exact however a group's low bits lie.
        starts, stops = bits.searchsorted(heads[:, None] + [0, 1 << b]).T
        if heads[0] < 0:  # the negative losses, the first [0, k), out of order: one group
            keep = heads >= 0
            starts, stops = np.r_[0, starts[keep]], np.r_[bits.searchsorted(0), stops[keep]]
        sizes = stops - starts
        ends = sizes.cumsum()
        at = np.arange(ends[-1]) + (starts - ends + sizes).repeat(sizes)  # the groups' positions, in order
        group = losses[at]
        fix = group.argsort(kind="stable")  # the groups do not mix: every loss of one is below the next's
        order[at] = order[at[fix]]
        losses[at] = group[fix]
    return order, losses


@dataclass(frozen=True, eq=False)  # __eq__ below: the generated one would compare arrays
class Ranking(Sequence):
    """A read-only sequence of `(Assignment, loss)` pairs in ascending loss order, held as arrays: `order`,
    the ranked flat indices into the lexicographic product of `choices` (one tuple of values per hole, in
    hole order), and `losses`, the ranked losses.  An index or a slice builds only the pairs it returns,
    and iteration builds every pair once and keeps them; in a pair a category index is an int, a real is
    the float it was pinned to and a loss is a float.  `in`, `count` and `index` find a pair from the arrays
    and build none.  A ranking equals any sequence of the same pairs."""

    choices: tuple
    order: np.ndarray
    losses: np.ndarray

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._pairs(self.order[index], self.losses[index])
        i = range(len(self))[index]
        return self._pairs(self.order[i : i + 1], self.losses[i : i + 1])[0]

    def __iter__(self):
        return iter(self._every_pair)

    @cached_property
    def _every_pair(self) -> list:
        """All the pairs, built by the first pass over the whole ranking and kept for later ones."""
        return self._pairs(self.order, self.losses)

    def __eq__(self, other):
        if isinstance(other, Ranking):
            return (
                self.choices == other.choices
                and np.array_equal(self.order, other.order)
                and np.array_equal(self.losses, other.losses)
            )
        if isinstance(other, Sequence):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # equal to lists, which have no hash

    def __contains__(self, pair) -> bool:
        return self._position(pair) is not None

    def count(self, pair) -> int:
        return int(self._position(pair) is not None)

    def index(self, pair, start: int = 0, stop: int | None = None) -> int:
        """The position of `pair` in positions start .. stop - 1 (read as a list reads them); a ValueError
        when it is not there.  Like `in` and `count`, it builds no pair: each assignment is at one place."""
        i = self._position(pair)
        lo, hi, _ = slice(start, stop).indices(len(self))
        if i is None or not lo <= i < hi:
            raise ValueError(f"{pair!r} is not in the ranking")
        return i

    def _position(self, pair) -> int | None:
        """Where `pair` is, or None: its assignment's flat index into `choices`, found in `order`, if the
        loss there equals its loss.  Values compare as in a tuple, so a pair read from the ranking is found."""
        if not (isinstance(pair, tuple) and len(pair) == 2 and type(pair[0]) is _sketch.Assignment):
            return None  # a pair equals only a 2-tuple whose first item is an Assignment
        values, loss = pair[0].values, pair[1]
        if not isinstance(values, tuple) or len(values) != len(self.choices):
            return None
        try:
            digits = [c.index(v) for c, v in zip(self.choices, values)]
        except ValueError:
            return None
        at = np.flatnonzero(self.order == np.ravel_multi_index(digits, tuple(map(len, self.choices))))
        return int(at[0]) if self.losses[at[0]].item() == loss else None

    def _pairs(self, flat: np.ndarray, losses: np.ndarray) -> list:
        # Each hole's values in the combinations at `flat`, the k-th combination in lexicographic order being
        # flat index k; an object array keeps the choices themselves, and each is a list before the next is built.
        digits = np.unravel_index(flat, tuple(map(len, self.choices))) if self.choices else ()
        columns = [np.array(c, object)[i].tolist() for c, i in zip(self.choices, digits)]
        rows = zip(*columns) if columns else [()] * len(flat)
        return list(zip(map(Assignment, rows), losses.tolist()))


def enumerate_discrete(
    sketch: Sketch,
    real_values,
    spec: SpecSet,
    cap: int = MAX_CANDIDATES,
    penalty: float = NONFINITE_PENALTY,
) -> Ranking:
    """Exhaustively score every categorical combination, reals pinned.

    real_values supplies one finite real number, not a bool, per [Real]
    hole, in hole order (else a SketchError naming the hole).  `penalty`
    replaces a non-finite loss and must be finite and positive, as in
    `TrainConfig` (else a ConfigError).  Returns a `Ranking` of (assignment,
    loss) pairs in ascending loss order, whose pairs are built when they are
    read; ties break lexicographically on the category indices.  Raises
    EnumerationError if the discrete space exceeds `cap`, an integer (else
    a ConfigError).
    """
    penalty = checked_penalty(penalty, ConfigError)
    cap = read_number(cap, "cap", ConfigError, int)
    real_values = list(real_values)
    real_holes = [h for h in sketch.holes if not h.tokens]
    if len(real_values) != len(real_holes):
        raise SketchError(f"sketch has {len(real_holes)} [Real] holes but {len(real_values)} values given")
    pinned = {
        h.index: _field(f"hole {h.index}: [Real] value", float, v, SketchError) for h, v in zip(real_holes, real_values)
    }
    # Each hole's choices: its token indices, or the one value a real hole is pinned to.
    choices = tuple(tuple(range(h.arity)) if h.tokens else (pinned[h.index],) for h in sketch.holes)
    space = math.prod(map(len, choices))
    if space > cap:
        raise EnumerationError(f"{space} discrete programs exceed the cap of {show(cap)}")
    # The plan and the walk's arrays are freed before the ranking allocates: the two do not add up.
    order, ranked = _rank(eval_product_losses(compile_sketch(sketch, spec), list(pinned.values()), penalty))
    return Ranking(choices, _read_only(order), _read_only(ranked))


def loss_spikes(mean_losses, window: int = 101, factor: float = 3.0, start: int = 1000) -> list[int]:
    """Iterations (1-based) after `start` where the mean population loss
    exceeds `factor` times the local windowed median."""
    window, start = read_number(window, "window", ValueError, int), read_number(start, "start", ValueError, int)
    factor = read_number(factor, "factor", ValueError)
    if window < 1:
        raise ValueError(f"window must be at least 1, got {show(window)}")
    if start < 0:
        raise ValueError(f"start must be non-negative, got {show(start)}")
    x = np.asarray(mean_losses, dtype=np.float64)
    start = min(start, x.size)  # a slice bound numpy can hold
    half = window // 2
    median = np.empty(x.size)  # at t, of the window x[t - half : t + half + 1]
    n_full = max(x.size - 2 * half, 0)  # the windows at t = half .. half + n_full - 1 are whole
    for i in range(0, n_full, SPIKE_CHUNK):  # in chunks, as np.median copies the windows it is given
        windows = sliding_window_view(x[i : i + SPIKE_CHUNK + 2 * half], 2 * half + 1)
        median[half + i : half + i + len(windows)] = np.median(windows, axis=1)
    for t in (*range(min(half, x.size)), *range(half + n_full, x.size)):  # windows cut short by an end
        median[t] = np.median(x[max(0, t - half) : t + half + 1])
    return (np.flatnonzero(x[start:] > factor * median[start:]) + start + 1).tolist()

"""The training loop: sample programs, score them, step the distributions.

`train` and `enumerate_discrete` each compile the sketch against the spec
once (`interp.compile_sketch`) and score through that plan.  One iteration
samples a population of hole assignments from the current per-hole
distributions, scores every candidate in one call of the vectorized scorer,
standardizes the negated losses into fitness, estimates a gradient per hole
and takes an ascent step: `train_step` maps one `TrainState` value of plain
arrays to the next, and theta objects exist only at the edges.  A step runs
each of these once over one vector of every hole's parameters (see
`_Layout`), not once per hole.  `train_step` draws one population from the
streams it is given; `train` draws a block of iterations from each stream in
one call (see `_blocks`), and sets the optimizer and numpy's error state
once per run, not once per step.  The argmax program (most probable token per
categorical hole, mean per real hole) is scored every iteration by the same
scorer: `train` scores a stepped state's argmax as one more candidate of the
next step's population, in the same call, and alone only where a restart
could follow it or no step does.  The best one seen is kept; `train`
instantiates a concrete program only for the best and the final state.
Scorer calls go through this module's name `eval_population_losses`, looked
up at call time, so a wrapper put there sees every one.

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
from dataclasses import dataclass, field, fields
from functools import cached_property
from operator import itemgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dists, interp
from .dists import (
    SCORE_KINDS,
    SCORE_LOG_SOFTMAX,
    CategoricalTheta,
    GaussianTheta,
    _categorical_accumulator,
    _categorical_row_draws,
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

# `train` draws its populations from the hole streams in blocks of iterations (see `_blocks`), each of at most
# this many uniforms and normals, or one iteration's if that holds more: 32 KB, 13 iterations of 50 candidates
# of six holes.  Blocks four times as long ran no faster.  Read at call time, so that tests can move the block
# boundaries.
DRAW_CELLS = 1 << 12

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


def _pick(indices: list) -> typing.Callable:
    """A function from a sequence to the tuple of its items at `indices`."""
    return itemgetter(*indices) if len(indices) > 1 else lambda items: tuple(items[i] for i in indices)


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where each hole's parameter sits in a state's parameter vector: the categorical holes' logits, then the
    real holes' means, each in hole order.  A training step runs once over that vector, or over the
    categorical holes as rows of `blank`'s width, the largest arity: a hole's logits, then -inf.

    Per hole, in hole order: `slices`, its slice of the vector, and `sigmas`, its sigma (None for a
    categorical hole).  `sigma` holds the real holes' sigmas, `cells` the flat position in `blank` of each
    logit, `offsets`, as a column, the flat position of each row's first logit (a gradient's bin offsets), and
    `ceiling` the draws' ceiling (see `dists._categorical_row_draws`): per row, inf for each cumulative probability
    past its hole's tokens, else 0.  `categorical` and `real` pick those holes' items of a sequence in hole order;
    `in_hole_order` puts their rows back in hole order."""

    slices: tuple
    sigmas: tuple
    sigma: np.ndarray
    blank: np.ndarray
    cells: np.ndarray
    offsets: np.ndarray
    ceiling: np.ndarray
    categorical: typing.Callable
    real: typing.Callable
    in_hole_order: typing.Callable


def _layout(sizes: list, sigmas: tuple) -> _Layout:
    """The layout of holes whose parameters have `sizes` entries and whose sigmas are `sigmas`, in hole order."""
    categorical = [h for h, sigma in enumerate(sigmas) if sigma is None]
    real = [h for h, sigma in enumerate(sigmas) if sigma is not None]
    arities = [sizes[h] for h in categorical]
    width = max(arities, default=1)
    bounds = np.cumsum([0, *arities, *[1] * len(real)]).tolist()
    order = categorical + real
    position = sorted(range(len(order)), key=order.__getitem__)  # where each hole is in `order`
    ceiling = [[0.0] * (k - 1) + [math.inf] * (width - k) for k in arities]
    return _Layout(
        slices=tuple(slice(bounds[i], bounds[i + 1]) for i in position),
        sigmas=sigmas,
        sigma=_read_only(np.array([sigmas[h] for h in real], dtype=np.float64)),
        blank=_read_only(np.full((len(arities), width), -np.inf)),
        cells=_read_only(np.array([r * width + t for r, k in enumerate(arities) for t in range(k)], dtype=np.intp)),
        offsets=_read_only(np.arange(0, len(arities) * width, width).reshape(-1, 1)),
        ceiling=_read_only(np.array(ceiling).reshape(len(arities), width - 1)),
        categorical=_pick(categorical),
        real=_pick(real),
        in_hole_order=_pick(position),
    )


@dataclass(eq=False)
class Population:
    """One iteration's n candidates, in the layout of the state they were drawn from (see `_Layout`): `tokens`
    holds a row of token indices per categorical hole and `reals` a row of mu + sigma * eps per real hole,
    each of n + 1 columns, where column n is the state's argmax program (see `_argmax_columns`), which a
    training step can score as one more candidate.  The gradients are estimated from `probs`, the rows of
    softmax the tokens were drawn from, and `eps`, the real holes' standard-normal draws."""

    tokens: np.ndarray
    reals: np.ndarray
    probs: np.ndarray
    eps: np.ndarray
    layout: _Layout

    def columns(self, count: int) -> tuple:
        """Each hole's first `count` candidate values, in hole order, as the scorer takes them."""
        return self.layout.in_hole_order((*self.tokens[:, :count], *self.reals[:, :count]))

    @property
    def values(self) -> tuple:
        """Each hole's n candidate values, in hole order: token indices, or mu + sigma * eps."""
        return self.columns(self.eps.shape[1])


@dataclass(frozen=True, eq=False)  # arrays have no single truth value, so states compare by identity
class TrainState:
    """What one training step reads and writes, as a value of read-only arrays: `vector`, every hole's
    parameter, where `layout` says, and `moment_vectors`, Adam's (m, v), each shaped like it.  Per hole, in
    hole order, `params` and `moments` are views into them: a categorical hole's logit vector or a real
    hole's mean as a 1-vector, and its (m, v); `sigmas` holds a real hole's fixed sigma, None for a
    categorical one."""

    vector: np.ndarray
    moment_vectors: tuple
    layout: _Layout
    step_count: int = 0  # optimizer steps since the last (re)start
    iteration: int = 0
    best_loss: float = math.inf  # best argmax loss so far, across restarts

    @property
    def sigmas(self) -> tuple:
        return self.layout.sigmas

    @cached_property
    def params(self) -> tuple:
        return tuple(self.vector[s] for s in self.layout.slices)

    @cached_property
    def moments(self) -> tuple:
        m, v = self.moment_vectors
        return tuple((m[s], v[s]) for s in self.layout.slices)

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


def _fresh_state(params, sigmas, iteration: int = 0, best_loss: float = math.inf) -> TrainState:
    """A state at step 0 holding `params`, an array-like per hole in hole order, and `sigmas`; zero moments."""
    params = [np.asarray(p, dtype=np.float64) for p in params]
    layout = _layout([p.size for p in params], tuple(sigmas))
    # np.empty(0) first, so that a sketch with no holes has an empty vector, not a concatenation of nothing.
    vector = _read_only(np.concatenate([np.empty(0), *layout.categorical(params), *layout.real(params)]))
    moments = (_read_only(np.zeros_like(vector)), _read_only(np.zeros_like(vector)))
    return TrainState(vector, moments, layout, 0, iteration, best_loss)


def init_state(sketch: Sketch, config: TrainConfig) -> TrainState:
    """Uniform logits for categorical holes, N(mu_init, sigma) for real holes."""
    params = [np.zeros(h.arity) if h.tokens else [config.mu_init] for h in sketch.holes]
    return _fresh_state(params, [None if h.tokens else config.sigma for h in sketch.holes])


def restart_state(sketch: Sketch, state: TrainState, config: TrainConfig, streams) -> TrainState:
    """`init_state`, but with logits drawn from N(0, RESTART_LOGIT_STD) on each categorical hole's stream,
    and the iteration and best loss of `state`.  Uniform logits would send the search down the same
    mean path as the first start, into the basin it is leaving; random logits start it elsewhere."""
    params = [
        stream.normal(0.0, RESTART_LOGIT_STD, h.arity) if h.tokens else [config.mu_init]
        for h, stream in zip(sketch.holes, streams)
    ]
    sigmas = [None if h.tokens else config.sigma for h in sketch.holes]
    return _fresh_state(params, sigmas, state.iteration, state.best_loss)


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


def _logit_rows(state: TrainState) -> np.ndarray:
    """The categorical holes' logits as rows of the layout's width, -inf past each hole's own."""
    rows = state.layout.blank.copy()
    rows.put(state.layout.cells, state.vector[: len(state.layout.cells)])
    return rows


def sample_population(state: TrainState, n: int, streams, draws: tuple | None = None) -> Population:
    """Draw n candidates, each hole from its own stream in `streams` (one per hole, in hole order):
    category indices per categorical hole, mu + sigma*eps per real hole; and, as candidate n, the state's
    argmax program, which draws nothing.  `n` is a non-negative integer that is not a bool, else a
    ValueError.  `draws`, if given, are this iteration's uniforms, normals and scaled normals, already taken
    from `streams` in a block of iterations (see `_draw`)."""
    n = read_number(n, "n", ValueError, int)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {show(n)}")
    layout, means = state.layout, state.vector[len(state.layout.cells) :]
    if draws is None:
        draws = [block[:, 0] for block in _draw(layout, n, streams, 1)]
    uniforms, eps, scaled = draws
    logits = _logit_rows(state)
    # Softmax through the module, so that a patched or traced `dists.softmax` sees every call: one, for every
    # categorical hole.  A -inf adds a 0 to its row's sum, and numpy adds a row of under 8 entries in order (a
    # hole has at most 4 tokens), so each row is its hole's own softmax, bit for bit.
    probs = dists.softmax(logits)
    tokens = np.empty((len(probs), n + 1), np.int64)
    # The ceiling keeps each row to its hole's tokens: a uniform past the row's total draws the hole's last.
    _categorical_row_draws(probs, uniforms, layout.ceiling, tokens[:, :n])
    logits.argmax(axis=1, out=tokens[:, n])
    reals = np.empty((len(means), n + 1))
    np.add(means[:, None], scaled, out=reals[:, :n])
    reals[:, n] = means
    return Population(tokens, reals, probs, eps, layout)


def _draw(layout: _Layout, n: int, streams, iterations: int) -> tuple:
    """The draws of the next `iterations` populations of n from `streams` (one per hole, in hole order): the
    uniforms (categorical holes, iterations, n), the standard normals (real holes, iterations, n) and the
    normals times each real hole's sigma.  A stream gives the same doubles in one call as in one call per
    iteration, so `iterations` calls of `sample_population` read what each would draw."""
    cells = iterations * n
    uniforms = np.empty((len(layout.ceiling), cells))
    for row, stream in zip(uniforms, layout.categorical(streams)):
        row[:] = stream.random(cells)
    normals = np.empty((len(layout.sigma), cells))
    for row, stream in zip(normals, layout.real(streams)):
        stream.standard_normal(out=row)
    normals = normals.reshape(-1, iterations, n)
    return uniforms.reshape(-1, iterations, n), normals, layout.sigma[:, None, None] * normals


def _blocks(layout: _Layout, n: int, streams, iterations: int):
    """A generator of the draws of each of `iterations` populations of n, in order, which `_draw` takes a block of
    iterations at a time.  Each `send` gives how many iterations, from the one it asks for, can pass before a
    restart could draw from `streams`: a block never reaches one, nor runs past the last iteration, nor holds
    more than `DRAW_CELLS` draws (read at each block), unless one iteration holds more."""
    ahead = yield
    left = iterations
    while left:
        count = min(left, ahead, max(1, DRAW_CELLS // max(1, n * (len(layout.ceiling) + len(layout.sigma)))))
        left -= count
        for draws in zip(*(block.swapaxes(0, 1) for block in _draw(layout, n, streams, count))):
            ahead = yield draws
        del draws  # the block's last views, which would keep it alive while the next is drawn


def estimate_gradients(state: TrainState, population: Population, fitness: np.ndarray, score: str) -> np.ndarray:
    """The gradient from one scored population, given its n candidates' `fitness` in candidate order: an
    array shaped like `state.vector`, whose `layout.slices` give each hole's gradient."""
    layout = state.layout
    tokens = population.tokens[:, : fitness.size]
    categorical = _categorical_accumulator(population.probs, tokens, fitness, score, layout.offsets)
    real = _gaussian_accumulator(population.eps, fitness, layout.sigma)
    return np.concatenate((categorical.take(layout.cells), real))


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


def _argmax_columns(state: TrainState) -> tuple:
    """The most probable value per hole of `state`, as one-candidate columns in hole order: the
    highest-logit token index (ties break to the lowest index) per categorical hole, the mean per real hole."""
    means = state.vector[len(state.layout.cells) :]
    return state.layout.in_hole_order((*_logit_rows(state).argmax(axis=1)[:, None], *means[:, None]))


def argmax_program(sketch: Sketch, thetas) -> Sketch:
    """Most probable concrete program, by the rule of `_argmax_columns`; ThetaError unless the thetas fit the holes."""
    columns = _argmax_columns(TrainState.from_thetas(sketch, thetas))
    return instantiate(sketch, Assignment(tuple(column.item() for column in columns)))


def _argmax_loss(plan: interp.Plan, state: TrainState, penalty: float) -> float:
    """The loss of `state`'s argmax program, scored alone."""
    return float(eval_population_losses(plan, _argmax_columns(state), penalty)[0])


def _step(plan: interp.Plan, state: TrainState, config: TrainConfig, streams, draws, step):
    """One iteration's draw, scoring and ascent from `state`, the one step implementation of `train_step` and
    `train`: the losses of the scored candidates (the population's n, then the argmax program of `state` as
    candidate n + 1 of the same scorer call, which every call has, so that a plan keeps the programs of one
    candidate count: see `interp._resolve`), the population's mean loss, and the stepped
    parameter vector and moments, which `_stepped` checks.  The population is drawn from `streams`, or read
    from `draws` (see `sample_population`); `step` is the optimizer's.  It runs under the caller's numpy
    error state, where overflow is not an error: a logit gap past the float range gives a probability of 0,
    its limit, and a step past the range is caught by `_stepped`."""
    n = config.population
    population = sample_population(state, n, streams, draws)
    losses = eval_population_losses(plan, population.columns(n + 1), config.penalty)
    drawn = losses[:n]
    fitness = standardize_fitness(drawn)
    grad = estimate_gradients(state, population, fitness, config.categorical_score)
    (vector,), (moments,) = step((state.vector,), (grad,), (state.moment_vectors,), state.step_count + 1)
    # The reductions are ufunc methods, called directly: numpy's wrapper for `np.mean` costs more than the
    # few cells it reduces.
    return losses, float(np.add.reduce(drawn) / n), vector, moments


def _stepped(state: TrainState, vector: np.ndarray, moments: tuple) -> TrainState:
    """The state after `state`, holding `_step`'s vector and moments, with `state`'s best loss: its own
    argmax loss is not scored yet.  Raises DivergenceError when the vector holds a non-finite parameter."""
    iteration = state.iteration + 1
    # A finite sum of squares shows that every parameter is finite; only a sum past the range needs the pass.
    if not math.isfinite(vector.dot(vector)) and not np.logical_and.reduce(np.isfinite(vector)):
        raise DivergenceError(f"the run diverged: iteration {iteration} left a non-finite parameter")
    return TrainState(_read_only(vector), moments, state.layout, state.step_count + 1, iteration, state.best_loss)


def _scored(state: TrainState, mean: float, argmax_loss: float) -> tuple[TrainState, TrainRecord]:
    """A stepped state with its argmax loss counted in its best loss, and its record."""
    if argmax_loss < state.best_loss:
        state = TrainState(
            state.vector, state.moment_vectors, state.layout, state.step_count, state.iteration, argmax_loss
        )
    return state, TrainRecord(state.iteration, mean, argmax_loss, state.best_loss)


def train_step(plan: interp.Plan, state: TrainState, config: TrainConfig, streams):
    """One iteration: the state after `state`, and its record.  `plan` is the sketch compiled against the
    spec (see `compile_sketch`), `streams` holds one Generator per hole (see `hole_streams`), from which the
    step draws exactly one population.  The stepped state's argmax program is scored alone, after the
    population.  Raises DivergenceError when the step leaves a non-finite parameter."""
    with np.errstate(over="ignore"):
        _, mean, vector, moments = _step(plan, state, config, streams, None, make_optimizer(config).step)
    stepped = _stepped(state, vector, moments)
    return _scored(stepped, mean, _argmax_loss(plan, stepped, config.penalty))


def train(sketch: Sketch, spec: SpecSet, config: TrainConfig, on_step=None) -> TrainResult:
    """Run the full loop; deterministic given (sketch, spec, config).

    Each iteration is `train_step`'s, but the argmax program of a stepped state is scored as one more
    candidate of the next step's population, in the same scorer call, so `on_step(record, state)`, if
    given, sees an iteration's record and the stepped state it scored after the next step's scoring call.
    Both are values, so it can watch the run, not change it.  A restart that is due happens before the
    next step, so the run ends on its last trained state; where one could fall due after a state, and on
    the last one, the argmax is scored alone, since the restart would change what the next step draws.
    The populations are drawn in blocks of iterations (see `_blocks`) that end before any restart could
    draw from the streams, so each draws what `train_step` would; the optimizer and numpy's error state
    (overflow ignored, as in `_step`) are set once per run.  `on_step` runs under the caller's error state.
    """
    if sketch.hole_count == 0:
        raise SketchError("sketch has no holes; nothing to train")
    plan = compile_sketch(sketch, spec)
    state = best = init_state(sketch, config)
    streams = hole_streams(config.seed, sketch.hole_count)
    blocks = _blocks(state.layout, config.population, streams, config.iterations)
    next(blocks)
    step = make_optimizer(config).step
    iterations, patience, floor = config.iterations, RESTART_PATIENCE, 1 - RESTART_MIN_GAIN
    records: list[TrainRecord] = []
    restarts: list[int] = []
    low, stale = math.inf, 0  # argmax loss at the last gain, iterations since
    pending = None  # the last stepped state, whose argmax is not scored yet, and its mean population loss
    outer = np.geterr()
    with np.errstate(over="ignore"):
        for i in range(iterations + 1):
            if pending is not None:
                stepped, mean = pending
                merged = i < iterations and stale < patience - 1
                if merged:
                    # A restart is due no sooner than patience - 1 - stale iterations on: `stale` counts up by one
                    # per record, and this iteration's record is not counted yet.  No name here holds the draws,
                    # so a block is freed before the next is drawn.
                    ahead = patience - 1 - stale
                    losses, next_mean, vector, moments = _step(plan, stepped, config, streams, blocks.send(ahead), step)
                    argmax_loss = float(losses[-1])
                else:
                    argmax_loss = _argmax_loss(plan, stepped, config.penalty)
                state, record = _scored(stepped, mean, argmax_loss)
                if state.best_loss < best.best_loss:
                    best = state
                records.append(record)
                if on_step is not None:
                    with np.errstate(**outer):
                        on_step(record, state)
                if argmax_loss < low * floor:
                    low, stale = argmax_loss, 0
                else:
                    stale += 1
                if merged:
                    pending = _stepped(state, vector, moments), next_mean
                    continue
            if i == iterations:
                break
            if stale == patience:
                state = restart_state(sketch, state, config, streams)
                low, stale = math.inf, 0
                restarts.append(state.iteration)
            _, mean, vector, moments = _step(plan, state, config, streams, blocks.send(patience - stale), step)
            pending = _stepped(state, vector, moments), mean
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
    in that order: a stable argsort's order, bit for bit, for losses that are finite and have no sign bit set
    (no negative loss and no -0.0), as both scorers' are.  The losses are ranked in `losses` itself, which is
    returned; the order is the one other array of their size.

    The int64 bits of such floats sort as the floats do, so one unstable sort of int64 keys, each loss's
    bits with its flat index in place of the low ones, orders the losses up to those low bits, and equal
    losses by index.  The low bits, kept aside in a narrow column, then go back into the sorted keys.  Only
    losses whose high bits tie can be out of order, and each group of them already holds its indices in
    ascending order, so a stable sort of the groups that hold an inversion, and of nothing else, finishes
    the ranking."""
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
        sizes = stops - starts
        ends = sizes.cumsum()
        at = np.arange(ends[-1]) + (starts - ends + sizes).repeat(sizes)  # the groups' positions, in order
        group = losses[at]
        fix = group.argsort(kind="stable")  # the groups do not mix: every loss of one is below the next's
        order[at] = order[at[fix]]
        losses[at] = group[fix]
    return order, losses


@dataclass(frozen=True, eq=False)  # a ranking equals only itself: the generated __eq__ would compare arrays
class Ranking:
    """The `(Assignment, loss)` pairs of an enumeration in ascending loss order, held as read-only arrays:
    `order`, the ranked flat indices into the lexicographic product of `choices` (one tuple of values per hole,
    in hole order), and `losses`, the ranked losses.  It has a length, and an int index or a slice builds only
    the pairs it returns; iteration builds every pair, on each pass.  In a pair a category index is an int, a
    real is the float it was pinned to and a loss is a float."""

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
        return iter(self[:])

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
    loss) pairs in ascending loss order, each loss finite and non-negative;
    ties break lexicographically on the category indices.  It is read by
    `len`, an index, a slice or iteration, each building only the pairs it
    returns, or as its `order` and `losses` arrays.  Raises
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

"""The training loop: sample programs, score them, step the distributions.

One iteration samples a population of hole assignments from the current
per-hole distributions, scores every candidate against the specification in
one vectorized pass, standardizes the negated losses into fitness, estimates a
gradient per hole and takes an ascent step: `train_step` maps one `TrainState`
value of plain arrays to the next, and theta objects exist only at the edges.
The argmax program (most probable token per categorical hole, mean per real
hole) is scored every iteration by the same vectorized scorer, as a
population of one, and the best one seen is kept; `train` instantiates a
concrete program only for the best and the final state.  `enumerate_discrete`
scores the whole discrete space with the same scorer too.  The scalar
interpreter (`interp.eval_spec_loss`) is not on these paths: it is the
reference they are tested against.

Because the best program is kept, a search that has settled can be
restarted at no cost: when the argmax loss has not improved by
`RESTART_MIN_GAIN` for `RESTART_PATIENCE` iterations, the distributions are
drawn afresh (see `restart_state`) and the search goes on from there.  Once
every categorical hole has committed, its score-function gradient vanishes
and the search cannot leave the basin it is in; a restart is the way out.
"""

from __future__ import annotations

import math
import numbers
import typing
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dists
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
from .interp import NONFINITE_PENALTY, SpecSet, _read_only, eval_population_losses
from .sketch import Assignment, Sketch, SketchError, instantiate

OPTIMIZER_SGD = "sgd"
OPTIMIZER_ADAM = "adam"
OPTIMIZERS = (OPTIMIZER_SGD, OPTIMIZER_ADAM)

# A restart is due when the argmax loss has not fallen below (1 - gain) times
# its last low for RESTART_PATIENCE iterations.  Restarted categorical holes
# draw their logits from N(0, RESTART_LOGIT_STD).
RESTART_PATIENCE = 2000
RESTART_MIN_GAIN = 0.01
RESTART_LOGIT_STD = 1.0

# enumerate_discrete scores this many candidate x spec-row cells per call to
# the vectorized scorer, which bounds its intermediates at any space size.
ENUMERATE_CHUNK_CELLS = 1 << 16

# loss_spikes takes the medians of this many full windows per numpy call.
SPIKE_CHUNK = 4096

# What a TrainConfig field annotated with each type accepts, and how an error names it.
_FIELD_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"), str: (str, "a string")}


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
            value = getattr(self, name)
            accepts, what = _FIELD_KINDS[kind]
            if isinstance(value, bool) or not isinstance(value, accepts):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
            try:
                object.__setattr__(self, name, kind(value))
            except OverflowError:  # an integer past the float range
                object.__setattr__(self, name, math.inf)
            if kind is float and not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be at least 1, got {self.iterations}")
        if self.population < 2:
            raise ConfigError(f"population must be at least 2, got {self.population}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
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
        if not self.penalty > 0:
            raise ConfigError(f"penalty must be positive, got {self.penalty}")


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
    on evaluation order.
    """
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
    return [p if sigma is not None else np.argmax(p, keepdims=True) for p, sigma in zip(params, sigmas)]


def argmax_program(sketch: Sketch, thetas) -> Sketch:
    """Most probable concrete program, by the rule of `_argmax_columns`; ThetaError unless the thetas fit the holes."""
    state = TrainState.from_thetas(sketch, thetas)
    columns = _argmax_columns(state.params, state.sigmas)
    return instantiate(sketch, Assignment(tuple(column.item() for column in columns)))


def train_step(sketch: Sketch, spec: SpecSet, state: TrainState, config: TrainConfig, streams):
    """One iteration: the state after `state`, and its record.  `streams` holds one Generator per hole
    (see `hole_streams`).  Raises DivergenceError when the step leaves a non-finite parameter."""
    # Overflow is not an error here: a logit gap past the float range gives a
    # probability of 0, its limit, and a step past the range is caught below.
    with np.errstate(over="ignore"):
        population = sample_population(state, config.population, streams)
        losses = eval_population_losses(sketch, population.values, spec, config.penalty)
        fitness = standardize_fitness(losses)
        grads = estimate_gradients(state, population, fitness, config.categorical_score)
        step_count = state.step_count + 1
        params, moments = make_optimizer(config).step(state.params, grads, state.moments, step_count)
    iteration = state.iteration + 1
    if not np.isfinite(np.concatenate(params)).all():
        raise DivergenceError(f"the run diverged: iteration {iteration} left a non-finite parameter")
    params = tuple(map(_read_only, params))
    # The argmax program, scored as a population of one.
    argmax_loss = float(eval_population_losses(sketch, _argmax_columns(params, state.sigmas), spec, config.penalty)[0])
    best_loss = min(state.best_loss, argmax_loss)
    record = TrainRecord(iteration, float(np.mean(losses)), argmax_loss, best_loss)
    return TrainState(params, state.sigmas, moments, step_count, iteration, best_loss), record


def train(sketch: Sketch, spec: SpecSet, config: TrainConfig, on_step=None) -> TrainResult:
    """Run the full loop; deterministic given (sketch, spec, config).

    `on_step(record, state)`, if given, sees each iteration's record and the stepped state
    it scored; both are values, so it can watch the run, not change it.  A restart that is due
    happens before the next step, so the run ends on its last trained state.
    """
    if sketch.hole_count == 0:
        raise SketchError("sketch has no holes; nothing to train")
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
        state, record = train_step(sketch, spec, state, config, streams)
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


def enumerate_discrete(
    sketch: Sketch,
    real_values,
    spec: SpecSet,
    cap: int = 10**6,
    penalty: float = NONFINITE_PENALTY,
) -> list[tuple[Assignment, float]]:
    """Exhaustively score every categorical combination, reals pinned.

    real_values supplies one number per [Real] hole, in hole order.  Returns
    (assignment, loss) pairs in ascending loss order; ties break
    lexicographically on the category indices.  Raises EnumerationError if
    the discrete space exceeds `cap`.
    """
    real_values = [float(v) for v in real_values]
    n_reals = sum(not h.tokens for h in sketch.holes)
    if len(real_values) != n_reals:
        raise SketchError(f"sketch has {n_reals} [Real] holes but {len(real_values)} values given")
    # Each hole's choices: its token indices, or the one value a real hole is pinned to.
    reals = iter(real_values)
    choices = [tuple(range(h.arity)) if h.tokens else (next(reals),) for h in sketch.holes]
    shape = tuple(map(len, choices))
    space = math.prod(shape)
    if space > cap:
        raise EnumerationError(f"{space} discrete programs exceed the cap of {cap}")

    def columns(flat, dtype=None):
        # Each hole's values in the combinations at `flat`, one hole at a time, so that the ranking holds one object
        # array at once; dtype object keeps the choices themselves.  Flat index k is the k-th combination in
        # lexicographic order, so a stable sort on the loss breaks ties as documented.
        return (np.array(c, dtype)[i] for c, i in zip(choices, np.unravel_index(flat, shape) if shape else ()))

    losses = np.empty(space, dtype=np.float64)
    chunk = max(1, ENUMERATE_CHUNK_CELLS // len(spec))
    for start in range(0, space, chunk):
        flat = np.arange(start, min(start + chunk, space))
        losses[start : start + flat.size] = eval_population_losses(sketch, list(columns(flat)), spec, penalty)
    order = np.argsort(losses, kind="stable")
    rows = zip(*(c.tolist() for c in columns(order, object))) if shape else [()]
    return [(Assignment(values), loss) for values, loss in zip(rows, losses[order].tolist())]


def loss_spikes(mean_losses, window: int = 101, factor: float = 3.0, start: int = 1000) -> list[int]:
    """Iterations (1-based) after `start` where the mean population loss
    exceeds `factor` times the local windowed median."""
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    x = np.asarray(mean_losses, dtype=np.float64)
    half = window // 2
    median = np.empty(x.size)  # at t, of the window x[t - half : t + half + 1]
    n_full = max(x.size - 2 * half, 0)  # the windows at t = half .. half + n_full - 1 are whole
    for i in range(0, n_full, SPIKE_CHUNK):  # in chunks, as np.median copies the windows it is given
        windows = sliding_window_view(x[i : i + SPIKE_CHUNK + 2 * half], 2 * half + 1)
        median[half + i : half + i + len(windows)] = np.median(windows, axis=1)
    for t in (*range(min(half, x.size)), *range(half + n_full, x.size)):  # windows cut short by an end
        median[t] = np.median(x[max(0, t - half) : t + half + 1])
    return (np.flatnonzero(x[start:] > factor * median[start:]) + start + 1).tolist()

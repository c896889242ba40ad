"""The training loop: sample programs, score them, step the distributions.

One iteration samples a population of hole assignments from the current
per-hole distributions, scores every candidate against the specification in
one vectorized pass, standardizes the negated losses into fitness, estimates a
gradient per hole and takes an ascent step.  The argmax program (most
probable token per categorical hole, mean per real hole) is scored every
iteration by the same vectorized scorer, as a population of one, and the best
one seen is kept; `train` instantiates a concrete program only for the best
and the final thetas.  `enumerate_discrete` scores the whole discrete space
with the same scorer too.  The scalar interpreter (`interp.eval_spec_loss`)
is not on these paths: it is the reference they are tested against.

Because the best program is kept, a search that has settled can be
restarted at no cost: when the argmax loss has not improved by
`RESTART_MIN_GAIN` for `RESTART_PATIENCE` iterations, the distributions are
drawn afresh (see `restart_thetas`) and the search goes on from there.  Once
every categorical hole has committed, its score-function gradient vanishes
and the search cannot leave the basin it is in; a restart is the way out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dists import (
    SCORE_KINDS,
    SCORE_LOG_SOFTMAX,
    CategoricalTheta,
    GaussianTheta,
    _categorical_accumulator,
    _gaussian_accumulator,
    sample_categorical_many,
    standardize_fitness,
)
from .interp import NONFINITE_PENALTY, SpecSet, eval_population_losses
from .sketch import Assignment, KIND_REAL, Sketch, SketchError, instantiate

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


class ConfigError(ValueError):
    """Invalid training configuration."""


class EnumerationError(ValueError):
    """Discrete search space too large to enumerate."""


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    `sigma` is the fixed standard deviation of every real hole's search
    distribution; `penalty` replaces non-finite candidate losses.
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
        for name in ("learning_rate", "sigma", "adam_beta1", "adam_beta2", "adam_eps", "penalty", "mu_init"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be at least 1, got {self.iterations}")
        if self.population < 2:
            raise ConfigError(f"population must be at least 2, got {self.population}")
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
    """Per-hole draws and concrete values for one iteration's candidates."""

    draws: list[np.ndarray]  # int indices for categorical holes, standard-normal eps for real holes
    values: list[np.ndarray]  # indices again, or mu + sigma * eps


def init_thetas(sketch: Sketch, config: TrainConfig) -> list:
    """Uniform logits for categorical holes, N(mu_init, sigma) for real holes."""
    thetas = []
    for hole in sketch.holes:
        if hole.kind == KIND_REAL:
            thetas.append(GaussianTheta(config.mu_init, config.sigma))
        else:
            thetas.append(CategoricalTheta(np.zeros(hole.arity)))
    return thetas


def restart_thetas(thetas: list, config: TrainConfig, rng) -> list:
    """Fresh distributions for a restart: logits drawn from N(0, RESTART_LOGIT_STD)
    for categorical holes, N(mu_init, sigma) again for real holes.

    Uniform logits would send the search down the same mean path as the first
    start, into the basin it is leaving; random logits start it elsewhere.
    `rng` is one Generator or one per hole, as in `sample_population`.
    """
    out = []
    for theta, stream in zip(thetas, _streams_for(rng, len(thetas))):
        if isinstance(theta, GaussianTheta):
            out.append(GaussianTheta(config.mu_init, config.sigma))
        else:
            out.append(CategoricalTheta(stream.normal(0.0, RESTART_LOGIT_STD, theta.arity)))
    return out


def hole_streams(seed: int, n_holes: int) -> list[np.random.Generator]:
    """One independent random stream per hole, derived from the master seed.

    Sampling happens before the evaluation phase, so the draws cannot depend
    on evaluation order.
    """
    root = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in root.spawn(max(n_holes, 1))]


def _streams_for(rng, n_holes: int) -> list:
    if isinstance(rng, np.random.Generator):
        return [rng] * n_holes
    return list(rng)


def sample_population(thetas: list, n: int, rng) -> Population:
    """Draw n candidates: category indices per categorical hole, mu + sigma*eps per real hole.

    `rng` is either one numpy Generator (shared by all holes, consumed in
    hole order) or a sequence of per-hole Generators.
    """
    streams = _streams_for(rng, len(thetas))
    draws: list[np.ndarray] = []
    values: list[np.ndarray] = []
    for theta, stream in zip(thetas, streams):
        if isinstance(theta, GaussianTheta):
            eps = stream.standard_normal(n)
            draws.append(eps)
            values.append(theta.mu + theta.sigma * eps)
        else:
            idx = sample_categorical_many(theta, n, stream)
            draws.append(idx)
            values.append(idx)
    return Population(draws, values)


def estimate_gradients(thetas: list, population: Population, fitness: np.ndarray, score: str = SCORE_LOG_SOFTMAX) -> list:
    """Per-hole parameter gradients from one scored population.

    Returns one float per Gaussian hole (d/d mu) and one vector per
    categorical hole, in hole order.  Every hole's gradient is estimated
    from the same population.
    """
    grads = []
    for theta, draws in zip(thetas, population.draws):
        if isinstance(theta, GaussianTheta):
            grads.append(_gaussian_accumulator(draws, fitness, theta.sigma))
        else:
            grads.append(_categorical_accumulator(theta.probs, draws, fitness, score))
    return grads


class SgdOptimizer:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, thetas: list, grads: list) -> list:
        out = []
        for theta, g in zip(thetas, grads):
            if isinstance(theta, GaussianTheta):
                out.append(GaussianTheta(theta.mu + self.learning_rate * g, theta.sigma))
            else:
                out.append(CategoricalTheta(theta.logits + self.learning_rate * g))
        return out


class AdamOptimizer:
    def __init__(self, learning_rate: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: list | None = None
        self.v: list | None = None

    def step(self, thetas: list, grads: list) -> list:
        gs = [np.atleast_1d(np.asarray(g, dtype=np.float64)) for g in grads]
        if self.m is None:
            self.m = [np.zeros_like(g) for g in gs]
            self.v = [np.zeros_like(g) for g in gs]
        self.t += 1
        out = []
        for i, (theta, g) in enumerate(zip(thetas, gs)):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            mhat = self.m[i] / (1 - self.beta1**self.t)
            vhat = self.v[i] / (1 - self.beta2**self.t)
            delta = self.learning_rate * mhat / (np.sqrt(vhat) + self.eps)
            if isinstance(theta, GaussianTheta):
                out.append(GaussianTheta(theta.mu + float(delta[0]), theta.sigma))
            else:
                out.append(CategoricalTheta(theta.logits + delta))
        return out


def make_optimizer(config: TrainConfig):
    if config.optimizer == OPTIMIZER_ADAM:
        return AdamOptimizer(config.learning_rate, config.adam_beta1, config.adam_beta2, config.adam_eps)
    return SgdOptimizer(config.learning_rate)


def _argmax_values(thetas: list) -> list:
    """The most probable value per hole: the highest-logit token index (ties
    break to the lowest index) per categorical hole, the mean per real hole."""
    return [theta.mu if isinstance(theta, GaussianTheta) else int(np.argmax(theta.logits)) for theta in thetas]


def argmax_program(sketch: Sketch, thetas: list) -> Sketch:
    """Most probable concrete program, by the rule of `_argmax_values`."""
    if len(thetas) != sketch.hole_count:
        raise SketchError(f"{len(thetas)} thetas for {sketch.hole_count} holes")
    return instantiate(sketch, Assignment(tuple(_argmax_values(thetas))))


def _argmax_loss(sketch: Sketch, thetas: list, spec: SpecSet, penalty: float) -> float:
    """Spec loss of the argmax program, scored as a population of one."""
    values = [np.array([v]) for v in _argmax_values(thetas)]
    return float(eval_population_losses(sketch, values, spec, penalty)[0])


def train_step(
    sketch: Sketch,
    spec: SpecSet,
    thetas: list,
    config: TrainConfig,
    rng,
    optimizer=None,
    iteration: int = 1,
    prev_best: float = math.inf,
) -> tuple[tuple, TrainRecord]:
    """One full iteration; returns the updated thetas, as a tuple, and its record."""
    optimizer = optimizer or make_optimizer(config)
    population = sample_population(thetas, config.population, rng)
    losses = eval_population_losses(sketch, population.values, spec, config.penalty)
    fitness = standardize_fitness(losses)
    grads = estimate_gradients(thetas, population, fitness, config.categorical_score)
    new_thetas = optimizer.step(thetas, grads)
    argmax_loss = _argmax_loss(sketch, new_thetas, spec, config.penalty)
    record = TrainRecord(
        iteration=iteration,
        mean_population_loss=float(np.mean(losses)),
        argmax_loss=argmax_loss,
        best_so_far_loss=min(prev_best, argmax_loss),
    )
    return tuple(new_thetas), record


def train(sketch: Sketch, spec: SpecSet, config: TrainConfig, on_step=None) -> TrainResult:
    """Run the full loop; deterministic given (sketch, spec, config).

    `on_step(record, thetas)`, if given, sees each iteration's record and the stepped thetas
    it scored, before the restart check; both are values, so it can watch the run, not change it.
    """
    if spec.arity != sketch.arity:
        raise SketchError(f"spec arity {spec.arity} does not match sketch arity {sketch.arity}")
    if sketch.hole_count == 0:
        raise SketchError("sketch has no holes; nothing to train")
    thetas = init_thetas(sketch, config)
    streams = hole_streams(config.seed, sketch.hole_count)
    optimizer = make_optimizer(config)
    records: list[TrainRecord] = []
    restarts: list[int] = []
    best_loss = math.inf
    best_thetas = None
    low, stale = math.inf, 0  # argmax loss at the last gain, iterations since
    for it in range(1, config.iterations + 1):
        thetas, record = train_step(
            sketch, spec, thetas, config, streams, optimizer=optimizer, iteration=it, prev_best=best_loss
        )
        if record.argmax_loss < best_loss:
            best_loss, best_thetas = record.argmax_loss, thetas
        records.append(record)
        if on_step is not None:
            on_step(record, thetas)
        if record.argmax_loss < low * (1 - RESTART_MIN_GAIN):
            low, stale = record.argmax_loss, 0
        else:
            stale += 1
            if stale == RESTART_PATIENCE:
                thetas = tuple(restart_thetas(thetas, config, streams))
                optimizer = make_optimizer(config)
                low, stale = math.inf, 0
                restarts.append(it)
    return TrainResult(
        thetas=thetas,
        best_thetas=best_thetas,
        best_program=argmax_program(sketch, best_thetas),
        best_loss=best_loss,
        final_program=argmax_program(sketch, thetas),
        final_loss=_argmax_loss(sketch, thetas, spec, config.penalty),
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
    n_reals = sum(h.kind == KIND_REAL for h in sketch.holes)
    if len(real_values) != n_reals:
        raise SketchError(f"sketch has {n_reals} [Real] holes but {len(real_values)} values given")
    shape = tuple(h.arity for h in sketch.holes if h.kind != KIND_REAL)
    space = math.prod(shape)
    if space > cap:
        raise EnumerationError(f"{space} discrete programs exceed the cap of {cap}")
    # Flat index k is the k-th combination in lexicographic order of the
    # category indices, so a stable sort on the loss breaks ties as documented.
    losses = np.empty(space, dtype=np.float64)
    chunk = max(1, ENUMERATE_CHUNK_CELLS // len(spec))
    for start in range(0, space, chunk):
        flat = np.arange(start, min(start + chunk, space))
        reals = [np.full(flat.size, v) for v in real_values]
        cats = np.unravel_index(flat, shape) if shape else ()
        losses[start : start + flat.size] = eval_population_losses(
            sketch, _in_hole_order(sketch, reals, cats), spec, penalty
        )
    order = np.argsort(losses, kind="stable")
    reals = [[v] * space for v in real_values]
    cats = [c.tolist() for c in np.unravel_index(order, shape)] if shape else ()
    columns = _in_hole_order(sketch, reals, cats)
    rows = zip(*columns) if columns else [()]
    return [(Assignment(values), loss) for values, loss in zip(rows, losses[order].tolist())]


def _in_hole_order(sketch: Sketch, real_columns, cat_columns) -> list:
    """Interleave per-hole columns, given separately for real and categorical holes, into hole order."""
    reals, cats = iter(real_columns), iter(cat_columns)
    return [next(reals) if h.kind == KIND_REAL else next(cats) for h in sketch.holes]


def loss_spikes(mean_losses, window: int = 101, factor: float = 3.0, start: int = 1000) -> list[int]:
    """Iterations (1-based) after `start` where the mean population loss
    exceeds `factor` times the local windowed median."""
    x = np.asarray(mean_losses, dtype=np.float64)
    half = window // 2
    spikes = []
    for t in range(start, x.size):
        lo = max(0, t - half)
        hi = min(x.size, t + half + 1)
        if x[t] > factor * np.median(x[lo:hi]):
            spikes.append(t + 1)
    return spikes

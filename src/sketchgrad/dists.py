"""Per-hole search distributions and their gradient estimators.

Categorical holes carry a logit vector; real holes carry a Gaussian with a
learned mean and a fixed standard deviation.  Gradients with respect to the
parameters are estimated from scored population samples: the categorical
accumulator weights each sample by the gradient of the drawn category's
log-probability (the score function, so its expectation is the gradient of
expected fitness), or by the gradient of its softmax probability as in the
printed update rule; the Gaussian mean uses the fixed-sigma closed form
(1 / n*sigma) * sum(F_i * eps_i), for every real hole in one `np.vecdot`
(numpy 2).

The fitness a training step ascends, from a vector of scorer losses, is
here too (`standardize_fitness`).

A theta checks its own numbers, through `sketch.read_number`, so a theta built
in code follows the same rule as one loaded from a theta document (`io`), and
so do the estimators' samples.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sketch import KIND_REAL, read_number, show

SCORE_SOFTMAX = "softmax_grad"
SCORE_LOG_SOFTMAX = "log_softmax_grad"
SCORE_KINDS = (SCORE_SOFTMAX, SCORE_LOG_SOFTMAX)

STANDARDIZE_EPS = 1e-8


class ThetaError(ValueError):
    """Invalid search-distribution parameters or parameter document."""


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax over the last axis; shift-invariant, strictly positive, sums to 1.

    A row of 2-D logits is one distribution, and a -inf logit past a row's own gets probability 0: the
    training step takes every categorical hole's softmax in one call, on rows padded to the widest hole.
    """
    # The reductions are the ufuncs' own, called directly: `np.max` and `e.sum()` reach the same ones
    # through a Python wrapper each, which at the sizes training uses costs more than the arithmetic.
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


@dataclass(frozen=True)
class CategoricalTheta:
    """Logits over a hole's token set.

    A value: the logits are a read-only copy, so `probs` is computed once
    per theta.
    """

    logits: np.ndarray

    def __post_init__(self):
        entries = list(self.logits) if np.iterable(self.logits) else []
        if len(entries) < 2:
            raise ThetaError("logits must be a vector of at least two entries")
        logits = np.array([read_number(v, f"logits[{j}]", ThetaError, finite=True) for j, v in enumerate(entries)])
        logits.flags.writeable = False
        object.__setattr__(self, "logits", logits)

    @property
    def arity(self) -> int:
        return self.logits.size

    @cached_property
    def probs(self) -> np.ndarray:
        probs = softmax(self.logits)
        probs.flags.writeable = False
        return probs


@dataclass(frozen=True)
class GaussianTheta:
    """Gaussian over a real hole: learned mean, fixed standard deviation.  A value, like `CategoricalTheta`."""

    mu: float
    sigma: float

    def __post_init__(self):
        mu, sigma = (read_number(getattr(self, name), name, ThetaError, finite=True) for name in ("mu", "sigma"))
        if not sigma > 0.0:
            raise ThetaError(f"sigma must be positive, got {sigma}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)


def sample_categorical_many(theta: CategoricalTheta, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n category indices by inverse CDF; deterministic given the stream state.  `n` is a non-negative
    integer that is not a bool, else a ValueError."""
    n = read_number(n, "n", ValueError, int)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {show(n)}")
    return _categorical_draws(theta.probs, n, rng)


def _categorical_draws(probs: np.ndarray, n: int, rng) -> np.ndarray:
    """n int64 category indices drawn by inverse CDF from `rng.random(n)`.  A uniform u draws the number of
    cumulative probabilities at or below it, clamped to the last category for a u past them all (rounding can
    leave the total below 1): the count over all but the last cumulative probability, which needs no clamp, and
    `searchsorted(side="right")`'s index, as they ascend."""
    return np.add.accumulate(probs[:-1]).searchsorted(rng.random(n), side="right")


def _categorical_row_draws(probs: np.ndarray, uniforms: np.ndarray, ceiling: np.ndarray, out: np.ndarray):
    """`_categorical_draws` for each row of `probs` (rows, k), from the same row of `uniforms` (rows, n), into
    `out` (rows, n).  `ceiling` (rows, k - 1) adds inf to each cumulative probability past a row's own categories
    and 0 to the others, so a row padded with zeros (see `softmax`) draws from its own categories alone, as if
    clamped to its last one.  One comparison counts every row's draws: for the few narrow rows of a training
    step, that costs less than a `searchsorted` per row."""
    cdf = np.add.accumulate(probs[:, :-1], axis=1)
    cdf += ceiling
    # One comparison per cumulative probability and uniform, (rows, k - 1, n), counted down the cumulative axis,
    # whose rows of n are contiguous: counting along the short last axis would cost twice as much.
    return np.add.reduce(uniforms[:, None, :] >= cdf[:, :, None], axis=1, dtype=np.int64, out=out)


def _categorical_accumulator(
    probs: np.ndarray, indices: np.ndarray, fitness: np.ndarray, score: str, offsets=None
) -> np.ndarray:
    """The per-logit gradient of one distribution `probs` (k) from the drawn `indices` (n) and their
    `fitness` (n), or of each row of 2-D `probs` (rows, k) from the same row of `indices` (rows, n), shaped
    like `probs`.  Row r's index t counts in bin r * k + t of one bincount, whose bins each add their weights
    in candidate order, as a bincount of that row alone does; `offsets`, if given, is the column of each
    row's first bin, r * k, which a caller that keeps the shape takes once."""
    if offsets is None:
        offsets = np.arange(0, probs.size, probs.shape[-1]).reshape(probs.shape[:-1] + (1,))
    n = fitness.size
    bins = indices + offsets
    if score == SCORE_SOFTMAX:
        # Per sample i with drawn index e and P = probs[e]:
        #   j == e: P * (1 - P) * F      j != e: -P * probs[j] * F
        # i.e. F times the gradient of the drawn softmax probability.  Its
        # expectation, sum_k p_k F_k grad p_k, is half the gradient of
        # sum_k p_k^2 F_k, not of expected fitness: a token's pull scales with
        # p_k^2, so the leader runs away and the others hardly move.
        weights = probs.take(bins) * fitness
        sums = np.add.reduce(weights, axis=-1, keepdims=True)
    elif score == SCORE_LOG_SOFTMAX:
        #   j == e: (1 - probs[j]) * F   j != e: -probs[j] * F
        # i.e. F times the gradient of the drawn log-probability.
        weights = np.empty(bins.shape)
        weights[...] = fitness
        sums = np.add.reduce(fitness)  # every row of `weights` is `fitness`, and sums as it does
    else:
        raise ValueError(f"unknown categorical score {score!r}")
    diag = np.bincount(bins.ravel(), weights=weights.ravel(), minlength=probs.size).reshape(probs.shape)
    # A difference, not a subtraction in place: with no rows there are no bins, and a bincount of no bins is int64.
    diag = diag - sums * probs
    diag /= n
    return diag


def _gaussian_accumulator(eps: np.ndarray, fitness: np.ndarray, sigma) -> np.ndarray:
    """The fixed-sigma mean gradient (1 / (n * sigma)) * sum(F_i * eps_i), for one hole's `eps` (n), or for
    each row of 2-D `eps` (rows, n) with that row's entry of `sigma` (rows).  `np.vecdot` dots each row by the BLAS
    dot that `fitness.dot(row)` calls: a matrix product would sum in another order."""
    return np.vecdot(eps, fitness) / (fitness.size * sigma)


def categorical_gradient(theta: CategoricalTheta, samples, *, score: str) -> np.ndarray:
    """Accumulated per-logit gradient from (category index, fitness) samples.

    `score` names the per-sample weight: `softmax_grad` follows the printed
    categorical update rule (gradient of the softmax probability), and
    `log_softmax_grad` is the REINFORCE-style score-function weighting, whose
    expectation is the gradient of expected fitness and which training uses
    by default (`TrainConfig.categorical_score`).  An index is an integer and
    a fitness a finite number, neither a bool, else a ValueError.
    """
    indices, fitness = _sample_columns(samples, ("index", int), ("fitness", float))
    if not (0 <= indices.min() and indices.max() < theta.arity):
        raise ValueError("sample index out of range")
    return _categorical_accumulator(theta.probs, indices.astype(np.int64, copy=False), fitness, score)


def gaussian_gradient(theta: GaussianTheta, samples) -> float:
    """Gradient estimate for the mean: (1 / (n * sigma)) * sum(F_i * eps_i).

    eps are the recorded standard-normal draws (pre-scaling).  Each eps and
    fitness is a finite number that is not a bool, else a ValueError.
    """
    eps, fitness = _sample_columns(samples, ("eps", float), ("fitness", float))
    return float(_gaussian_accumulator(eps, fitness, theta.sigma))


def _sample_columns(samples, *columns: tuple[str, type]) -> list[np.ndarray]:
    """The two columns of `samples`, a non-empty iterable of pairs, as arrays: column j, named and typed by
    `columns[j]`, holds each pair's j-th value read as an int or a finite float (see `_read_column`)."""
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    pairs = [a for a, _ in samples], [b for _, b in samples]
    return [_read_column(values, name, kind) for values, (name, kind) in zip(pairs, columns)]


def _read_column(values: list, name: str, kind: type) -> np.ndarray:
    """`values` read by `sketch.read_number`'s rule as an array of `kind`s (finite, for float); a ValueError names
    the first sample at fault.  An estimate takes up to 10^5 samples and the reader costs about a microsecond a
    value, so numpy converts a column of Python or numpy ints (or floats, for float) at once and checks it there;
    any other column is read value by value (for int, into an object array of Python ints, past int64 too)."""
    types = set(map(type, values))
    bulk = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
    if bool not in types and all(issubclass(t, bulk) for t in types):
        with np.errstate(over="ignore"), suppress(OverflowError):  # an int past int64, or past the float range
            column = np.array(values, np.int64 if kind is int else np.float64)
            if kind is int or np.isfinite(column).all():  # a long double past the float range is inf here
                return column
    read = [read_number(v, f"sample {k}: {name}", ValueError, kind, finite=True) for k, v in enumerate(values)]
    return np.array(read, object if kind is int else np.float64)


def standardize_fitness(raw_losses) -> np.ndarray:
    """Turn raw losses into zero-mean, unit-std fitness (higher is better).

    Losses are negated (the optimizer ascends fitness, the objective descends
    loss), then z-scored with the population standard deviation; the epsilon
    keeps an all-equal population at exactly zero fitness.
    """
    x = -np.asarray(raw_losses, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need at least two losses to standardize")
    if np.maximum.reduce(x) == np.minimum.reduce(x):
        # An all-equal population carries no signal; exact zeros, not the
        # rounding noise of (x - mean(x)) / eps.
        return np.zeros_like(x)
    # (x - x.mean()) / (x.std() + STANDARDIZE_EPS) bit for bit, from the ufuncs that `mean` and `std`
    # call, with the centred vector taken once: std is the root of the mean of its squares.
    x -= np.add.reduce(x) / x.size
    std = math.sqrt(np.add.reduce(x * x) / x.size)
    x /= std + STANDARDIZE_EPS
    return x


def check_thetas(thetas, sketch) -> None:
    """Raise ThetaError unless there is one theta per hole, each of the hole's kind and arity."""
    if len(thetas) != sketch.hole_count:
        raise ThetaError(f"{len(thetas)} thetas for the sketch's {sketch.hole_count} holes")
    for hole, theta in zip(sketch.holes, thetas):
        if hole.kind == KIND_REAL:
            if not isinstance(theta, GaussianTheta):
                raise ThetaError(f"hole {hole.index} is [Real] but its theta is categorical")
        else:
            if not isinstance(theta, CategoricalTheta):
                raise ThetaError(f"hole {hole.index} is categorical but its theta is real")
            if theta.arity != hole.arity:
                raise ThetaError(
                    f"hole {hole.index}: {hole.arity} tokens but {theta.arity} logits"
                )

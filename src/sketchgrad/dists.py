"""Per-hole search distributions and their gradient estimators.

Categorical holes carry a logit vector; real holes carry a Gaussian with a
learned mean and a fixed standard deviation.  Gradients with respect to the
parameters are estimated from scored population samples: the categorical
accumulator weights each sample by the gradient of the drawn category's
log-probability (the score function, so its expectation is the gradient of
expected fitness), or by the gradient of its softmax probability as in the
printed update rule; the Gaussian mean uses the fixed-sigma closed form
(1 / n*sigma) * sum(F_i * eps_i).

What the search reads from a vector of scorer losses is here too: the
fitness a training step ascends (`standardize_fitness`) and the order an
enumeration ranks its programs in (`_rank`).

A theta checks its own numbers, through `sketch.read_number`, so a theta built
in code follows the same rule as one loaded from a theta document.
"""

from __future__ import annotations

import math
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
    """Numerically stable softmax; shift-invariant, strictly positive, sums to 1."""
    # The reductions are the ufuncs' own, called directly: `np.max` and `e.sum()` reach the same ones
    # through a Python wrapper each, which at the sizes training uses costs more than the arithmetic.
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - np.maximum.reduce(z, axis=None))
    e /= np.add.reduce(e, axis=None)
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
    """Draw n category indices by inverse CDF; deterministic given the stream state."""
    return _categorical_draws(theta.probs, n, rng)


def _categorical_draws(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n int64 category indices drawn by inverse CDF from `rng`.  A uniform u draws the number of
    cumulative probabilities at or below it, clamped to the last category for a u past them all (rounding
    can leave the total below 1): the count over all but the last cumulative probability, which needs no
    clamp."""
    return np.add.accumulate(probs[:-1]).searchsorted(rng.random(n), side="right")


def _categorical_accumulator(probs: np.ndarray, indices: np.ndarray, fitness: np.ndarray, score: str) -> np.ndarray:
    n = indices.size
    k = probs.size
    if score == SCORE_SOFTMAX:
        # Per sample i with drawn index e and P = probs[e]:
        #   j == e: P * (1 - P) * F      j != e: -P * probs[j] * F
        # i.e. F times the gradient of the drawn softmax probability.  Its
        # expectation, sum_k p_k F_k grad p_k, is half the gradient of
        # sum_k p_k^2 F_k, not of expected fitness: a token's pull scales with
        # p_k^2, so the leader runs away and the others hardly move.
        w = probs[indices] * fitness
    elif score == SCORE_LOG_SOFTMAX:
        #   j == e: (1 - probs[j]) * F   j != e: -probs[j] * F
        # i.e. F times the gradient of the drawn log-probability.
        w = fitness
    else:
        raise ValueError(f"unknown categorical score {score!r}")
    diag = np.bincount(indices, weights=w, minlength=k)
    diag -= np.add.reduce(w) * probs
    diag /= n
    return diag


def _gaussian_accumulator(eps: np.ndarray, fitness: np.ndarray, sigma: float) -> float:
    """The fixed-sigma mean gradient (1 / (n * sigma)) * sum(F_i * eps_i)."""
    return float(fitness.dot(eps) / (fitness.size * sigma))


def categorical_gradient(theta: CategoricalTheta, samples, *, score: str) -> np.ndarray:
    """Accumulated per-logit gradient from (category index, fitness) samples.

    `score` names the per-sample weight: `softmax_grad` follows the printed
    categorical update rule (gradient of the softmax probability), and
    `log_softmax_grad` is the REINFORCE-style score-function weighting, whose
    expectation is the gradient of expected fitness and which training uses
    by default (`TrainConfig.categorical_score`).
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    indices = np.array([int(i) for i, _ in samples], dtype=np.int64)
    fitness = np.array([float(f) for _, f in samples], dtype=np.float64)
    if indices.min() < 0 or indices.max() >= theta.arity:
        raise ValueError("sample index out of range")
    return _categorical_accumulator(theta.probs, indices, fitness, score)


def gaussian_gradient(theta: GaussianTheta, samples) -> float:
    """Gradient estimate for the mean: (1 / (n * sigma)) * sum(F_i * eps_i).

    eps are the recorded standard-normal draws (pre-scaling).
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    eps = np.array([float(e) for e, _ in samples], dtype=np.float64)
    fitness = np.array([float(f) for _, f in samples], dtype=np.float64)
    return _gaussian_accumulator(eps, fitness, theta.sigma)


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


def _rank(losses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of `losses` in ascending loss order, ties in ascending index order, and the losses
    in that order: a stable argsort's order, bit for bit, for losses that hold no NaN and no -0.0, as the
    scorer's do.  `losses` is overwritten.

    The int64 bits of positive floats sort as the floats do, so one unstable sort of int64 keys, each
    loss's bits with its flat index in place of the low ones, orders the losses up to those low bits, and
    equal losses by index.  A stable sort of that almost sorted order, which is cheap, then orders the
    losses that differ only in their low bits.  On the 49 152 losses of an enumeration the two sorts take
    about a third of the time of one stable argsort."""
    n = len(losses)
    low = (1 << (n - 1).bit_length()) - 1  # the bits that hold a flat index
    order, ranked = np.arange(n), np.empty(n)
    bits = losses.view(np.int64)
    np.bitwise_and(bits, ~low, out=ranked.view(np.int64))
    order |= ranked.view(np.int64)
    order.sort()
    order &= low
    # Every index is in range; under the default mode="raise", numpy writes `out` through a temporary copy.
    np.take(losses, order, out=ranked, mode="clip")
    if np.less(ranked[1:], ranked[:-1]).any():
        fix = ranked.argsort(kind="stable")
        np.take(order, fix, out=bits, mode="clip")  # `losses` is in `ranked` now
        np.take(ranked, fix, out=order.view(np.float64), mode="clip")
        order, ranked = bits, order.view(np.float64)
    return order, ranked


# ---------------------------------------------------------------------------
# Theta documents: a JSON array, one entry per hole, in hole-table order, saved and loaded by `io`.


def thetas_to_doc(thetas) -> list[dict]:
    doc = []
    for theta in thetas:
        if isinstance(theta, CategoricalTheta):
            doc.append({"kind": "cat", "logits": [float(v) for v in theta.logits]})
        elif isinstance(theta, GaussianTheta):
            doc.append({"kind": "real", "mu": theta.mu, "sigma": theta.sigma})
        else:
            raise ThetaError(f"not a theta: {theta!r}")
    return doc


def thetas_from_doc(doc) -> list:
    """The thetas a parsed theta document holds; a ThetaError naming the entry at fault for anything else."""
    if not isinstance(doc, list):
        raise ThetaError("theta document must be an array of per-hole entries")
    thetas = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ThetaError(f"entry {i}: expected an object with a 'kind' field")
        kind = entry["kind"]
        keys = set(entry)
        try:
            if kind == "cat":
                if keys != {"kind", "logits"}:
                    raise ThetaError(f"'cat' entries carry exactly 'logits', got {sorted(keys)}")
                if not isinstance(entry["logits"], list):
                    raise ThetaError(f"logits must be an array of numbers, got {show(entry['logits'])}")
                thetas.append(CategoricalTheta(entry["logits"]))
            elif kind == "real":
                if keys != {"kind", "mu", "sigma"}:
                    raise ThetaError(f"'real' entries carry exactly 'mu' and 'sigma', got {sorted(keys)}")
                thetas.append(GaussianTheta(entry["mu"], entry["sigma"]))
            else:
                raise ThetaError(f"unknown kind {show(kind)}")
        except ThetaError as exc:
            raise ThetaError(f"entry {i}: {exc}") from None
    return thetas


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

"""Per-hole search distributions and their gradient estimators.

Categorical holes carry a logit vector; real holes carry a Gaussian with a
learned mean and a fixed standard deviation.  Gradients with respect to the
parameters are estimated from scored population samples: the categorical
accumulator weights each sample by the gradient of the drawn category's
log-probability (the score function, so its expectation is the gradient of
expected fitness), or by the gradient of its softmax probability as in the
printed update rule; the Gaussian mean uses the fixed-sigma closed form
(1 / n*sigma) * sum(F_i * eps_i).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SCORE_SOFTMAX = "softmax_grad"
SCORE_LOG_SOFTMAX = "log_softmax_grad"
SCORE_KINDS = (SCORE_SOFTMAX, SCORE_LOG_SOFTMAX)

STANDARDIZE_EPS = 1e-8


class ThetaError(ValueError):
    """Invalid search-distribution parameters or parameter document."""


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax; shift-invariant, strictly positive, sums to 1."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - np.max(z))
    return e / e.sum()


@dataclass(frozen=True)
class CategoricalTheta:
    """Logits over a hole's token set.

    A value: the logits are a read-only copy, so `probs` is computed once
    per theta and shared by sampling and the gradient.
    """

    logits: np.ndarray

    def __post_init__(self):
        logits = np.array(self.logits, dtype=np.float64)
        if logits.ndim != 1 or logits.size < 2:
            raise ThetaError("logits must be a vector of at least two entries")
        if not np.isfinite(logits).all():
            raise ThetaError("logits must be finite")
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

    def copy(self) -> "CategoricalTheta":
        return CategoricalTheta(self.logits.copy())


@dataclass
class GaussianTheta:
    """Gaussian over a real hole: learned mean, fixed standard deviation."""

    mu: float
    sigma: float

    def __post_init__(self):
        self.mu = float(self.mu)
        self.sigma = float(self.sigma)
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ThetaError(f"mu and sigma must be finite, got {self.mu} and {self.sigma}")
        if not self.sigma > 0.0:
            raise ThetaError(f"sigma must be positive, got {self.sigma}")

    def copy(self) -> "GaussianTheta":
        return GaussianTheta(self.mu, self.sigma)


def sample_categorical_many(theta: CategoricalTheta, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n category indices by inverse CDF; deterministic given the stream state."""
    cum = np.cumsum(theta.probs)
    u = rng.random(n)
    return np.minimum(np.searchsorted(cum, u, side="right"), theta.arity - 1).astype(np.int64)


def sample_categorical(theta: CategoricalTheta, rng: np.random.Generator) -> int:
    """Draw one category index with probability softmax(logits)[i]."""
    return int(sample_categorical_many(theta, 1, rng)[0])


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
    return (diag - w.sum() * probs) / n


def categorical_gradient(theta: CategoricalTheta, samples, score: str = SCORE_SOFTMAX) -> np.ndarray:
    """Accumulated per-logit gradient from (category index, fitness) samples.

    The default weighting here follows the printed categorical update rule
    (gradient of the softmax probability); `log_softmax_grad` selects the
    REINFORCE-style score-function weighting, whose expectation is the
    gradient of expected fitness and which training uses by default
    (`TrainConfig.categorical_score`).
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
    return float(np.dot(fitness, eps) / (len(samples) * theta.sigma))


def standardize_fitness(raw_losses) -> np.ndarray:
    """Turn raw losses into zero-mean, unit-std fitness (higher is better).

    Losses are negated (the optimizer ascends fitness, the objective descends
    loss), then z-scored with the population standard deviation; the epsilon
    keeps an all-equal population at exactly zero fitness.
    """
    x = -np.asarray(raw_losses, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need at least two losses to standardize")
    if x.max() == x.min():
        # An all-equal population carries no signal; exact zeros, not the
        # rounding noise of (x - mean(x)) / eps.
        return np.zeros_like(x)
    return (x - x.mean()) / (x.std() + STANDARDIZE_EPS)


# ---------------------------------------------------------------------------
# Theta persistence: a JSON array, one entry per hole, in hole-table order.
# Floats are written with shortest round-trip decimals, so save -> load is
# bit exact.


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
    if not isinstance(doc, list):
        raise ThetaError("theta document must be an array of per-hole entries")
    thetas = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ThetaError(f"entry {i}: expected an object with a 'kind' field")
        kind = entry["kind"]
        keys = set(entry)
        if kind == "cat":
            if keys != {"kind", "logits"}:
                raise ThetaError(f"entry {i}: 'cat' entries carry exactly 'logits', got {sorted(keys)}")
            thetas.append(CategoricalTheta(np.array(entry["logits"], dtype=np.float64)))
        elif kind == "real":
            if keys != {"kind", "mu", "sigma"}:
                raise ThetaError(f"entry {i}: 'real' entries carry exactly 'mu' and 'sigma', got {sorted(keys)}")
            thetas.append(GaussianTheta(float(entry["mu"]), float(entry["sigma"])))
        else:
            raise ThetaError(f"entry {i}: unknown kind {kind!r}")
    return thetas


def save_thetas(thetas, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(thetas_to_doc(thetas), fh, indent=2)
        fh.write("\n")


def load_thetas(path, sketch=None) -> list:
    """Load thetas; if a sketch is given, validate kinds and arities against it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ThetaError(f"malformed theta document: {exc}") from exc
    thetas = thetas_from_doc(doc)
    if sketch is not None:
        check_thetas(thetas, sketch)
    return thetas


def check_thetas(thetas, sketch) -> None:
    from .sketch import KIND_REAL

    if len(thetas) != sketch.hole_count:
        raise ThetaError(f"document has {len(thetas)} entries but sketch has {sketch.hole_count} holes")
    for hole, theta in zip(sketch.holes, thetas):
        if hole.kind == KIND_REAL:
            if not isinstance(theta, GaussianTheta):
                raise ThetaError(f"hole {hole.index} is [Real] but document entry is categorical")
        else:
            if not isinstance(theta, CategoricalTheta):
                raise ThetaError(f"hole {hole.index} is categorical but document entry is real")
            if theta.arity != hole.arity:
                raise ThetaError(
                    f"hole {hole.index}: {hole.arity} tokens but {theta.arity} logits"
                )

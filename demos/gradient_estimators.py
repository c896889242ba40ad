#!/usr/bin/env python3
"""Check the two search-gradient estimators against closed-form targets.

Categorical holes: the population accumulator weights each sample by the
gradient of the softmax probability of the drawn token (a log-probability
variant is available).  Gaussian holes: the fixed-sigma estimator
(1/(n*sigma)) * sum(F_i * eps_i).  Both are Monte-Carlo estimators, so with
n = 100k draws they should sit within a couple percent of their analytic
expectations.
"""

import numpy as np

import sketchgrad as sg
from sketchgrad.dists import SCORE_LOG_SOFTMAX

rng = np.random.default_rng(0)
n = 100_000

# --- categorical: fixed fitness-per-token table -----------------------------
fitness_table = np.array([3.0, -1.0, 0.5])
print(f"categorical hole, fitness table {fitness_table.tolist()}, n={n}")
for logits in ([0.0, 0.0, 0.0], [1.0, 0.2, -0.4]):
    theta = sg.CategoricalTheta(logits)
    p = theta.probs
    idx = sg.sample_categorical_many(theta, n, rng)
    samples = list(zip(idx.tolist(), fitness_table[idx].tolist()))

    dp = lambda k, j: p[k] * ((k == j) - p[j])  # d softmax_k / d logit_j

    got = sg.categorical_gradient(theta, samples, score="softmax_grad")
    want = np.array([sum(p[k] * fitness_table[k] * dp(k, j) for k in range(3)) for j in range(3)])
    print(f"  logits {logits}")
    print(f"    probability-gradient weighting: MC {np.round(got, 5)}  analytic {np.round(want, 5)}")

    got = sg.categorical_gradient(theta, samples, score=SCORE_LOG_SOFTMAX)
    want = np.array([sum(fitness_table[k] * dp(k, j) for k in range(3)) for j in range(3)])
    print(f"    log-probability weighting:      MC {np.round(got, 5)}  analytic {np.round(want, 5)}")

# --- gaussian: quadratic bowl ------------------------------------------------
print(f"\ngaussian hole, F(x) = (x - 3)^2, sigma = 0.5, n={n}")
for mu in (0.0, 3.0, 5.0):
    theta = sg.GaussianTheta(mu, 0.5)
    eps = rng.standard_normal(n)
    fitness = (mu + 0.5 * eps - 3.0) ** 2
    got = sg.gaussian_gradient(theta, list(zip(eps.tolist(), fitness.tolist())))
    print(f"  mu={mu}: estimate {got:+.4f}   d/dmu E[F] = {2 * (mu - 3.0):+.1f}")

# --- fitness standardization --------------------------------------------------
losses = np.array([1.0, 2.0, 3.0])
print(f"\nstandardized fitness of losses {losses.tolist()}: {sg.standardize_fitness(losses).round(6).tolist()}")
print("(negated, zero-mean, unit population std: lower loss means higher fitness)")

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchgrad as sg
from sketchgrad import dists
from sketchgrad.dists import (
    SCORE_KINDS,
    SCORE_LOG_SOFTMAX,
    SCORE_SOFTMAX,
    STANDARDIZE_EPS,
)
from sketchgrad.interp import NONFINITE_PENALTY
from sketchgrad.io import thetas_from_doc, thetas_to_doc


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform():
    np.testing.assert_allclose(sg.softmax([0.0, 0.0, 0.0]), [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)


def test_softmax_hand_value():
    # e^{ln 2} / (e^{ln 2} + 1) = 2/3
    np.testing.assert_allclose(sg.softmax([math.log(2.0), 0.0]), [2 / 3, 1 / 3], rtol=1e-15)


@pytest.mark.parametrize("shift", [-100.0, -1.0, 0.5, 40.0])
def test_softmax_shift_invariance(shift):
    # Exact within 1e-12 for shifts that do not round the logits themselves.
    base = np.array([0.3, -1.2, 2.0])
    np.testing.assert_allclose(sg.softmax(base + shift), sg.softmax(base), rtol=0, atol=1e-12)
    np.testing.assert_allclose(sg.softmax(np.zeros(2) + shift), [0.5, 0.5], rtol=0, atol=0)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
@settings(max_examples=100, deadline=None)
def test_softmax_is_a_distribution(logits):
    p = sg.softmax(logits)
    assert (p > 0).all()
    assert abs(p.sum() - 1.0) < 1e-12


def _logit_vectors(seed):
    """Seeded logit vectors of 2 to 40 entries, on scales from a tie to gaps past exp's range."""
    rng = np.random.default_rng(seed)
    for k in [2, 3, 4, 7, 9, 16, 40]:
        for scale in [0.0, 1e-3, 1.0, 30.0, 800.0]:
            yield rng.normal(0.0, scale, k) + rng.normal(0.0, 50.0)


def test_softmax_is_e_over_its_sum_bit_for_bit():
    for z in _logit_vectors(11):
        e = np.exp(z - np.max(z))
        assert sg.softmax(z).tobytes() == (e / e.sum()).tobytes(), z
        assert sg.softmax(z.tolist()).tobytes() == (e / e.sum()).tobytes(), z


# ---------------------------------------------------------------------------
# sampling


def test_categorical_draws_are_int64():
    probs = sg.softmax([0.5, -0.2, 1.0, 0.0])
    for n in [0, 1, 50]:
        draws = dists._categorical_draws(probs, n, np.random.default_rng(n))
        assert draws.dtype == np.int64 and draws.shape == (n,)


class _Uniforms:
    """A stand-in for a Generator whose `random(n)` returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, n):
        assert n == self.u.size
        return self.u


def test_categorical_draws_clamp_a_uniform_past_the_last_cumulative_probability():
    probs = np.array([0.25, 0.25, 0.25, 0.2])  # sums to 0.95
    u = [0.0, 0.2499, 0.25, 0.5, 0.9499, 0.95, 0.96, 0.999999]
    draws = dists._categorical_draws(probs, len(u), _Uniforms(u))
    assert draws.tolist() == [0, 0, 1, 2, 3, 3, 3, 3]


def test_categorical_draws_are_the_clamped_inverse_cdf():
    rng = np.random.default_rng(8)
    for k in [2, 3, 4, 9]:
        for _ in range(50):
            probs = rng.dirichlet(np.full(k, 0.3)) * rng.choice([1.0, 0.9, 1.0 - 2**-50])
            u = np.concatenate([rng.random(40), np.cumsum(probs), [np.nextafter(np.sum(probs), 1.0)]])
            draws = dists._categorical_draws(probs, u.size, _Uniforms(u))
            expected = np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"), k - 1)
            assert draws.tolist() == expected.tolist()


def test_categorical_row_draws_count_as_searchsorted_right_bit_for_bit():
    # `_categorical_row_draws` counts, for every row in one comparison, the cumulative probabilities at or below
    # each uniform; that count is `searchsorted(side="right")`'s index over all but the last cumulative
    # probability.  Rows padded with zeros past a hole's own tokens (as the training step's softmax rows are) are
    # drawn from a uniform equal to each cumulative probability, at and just past the row's total, and at random.
    # With a zero ceiling the padding counts as categories; with the training step's ceiling (inf past a row's
    # own k - 1 cumulative probabilities) the count is searchsorted's over those k - 1 alone.  Each row drawn alone
    # by `_categorical_draws`, the 1-D path, is searchsorted's too.
    rng = np.random.default_rng(30)
    for width in (2, 3, 4, 9):
        for _ in range(30):
            rows = int(rng.integers(1, 5))
            ks = rng.integers(2, width + 1, rows)
            logits = np.full((rows, width), -np.inf)
            for row, k in zip(logits, ks):
                row[:k] = rng.normal(0.0, 3.0, k)
            probs = sg.softmax(logits)
            cdf = np.add.accumulate(probs, axis=1)
            top = np.full((rows, 1), np.nextafter(1.0, 0.0))
            u = np.concatenate([rng.random((rows, 20)), cdf, np.nextafter(cdf[:, -1:], 1.0), top], 1)
            out = np.empty((rows, u.shape[1] + 1), np.int64)
            assert dists._categorical_row_draws(probs, u, np.zeros((rows, width - 1)), out[:, :-1]) is not None
            expected = [np.searchsorted(c[:-1], row, side="right") for c, row in zip(cdf, u)]
            assert out[:, :-1].tobytes() == np.array(expected, np.int64).tobytes()
            ceiling = np.where(np.arange(width - 1) < ks[:, None] - 1, 0.0, np.inf)
            draws = dists._categorical_row_draws(probs, u, ceiling, out[:, :-1])
            own = [np.searchsorted(c[: k - 1], row, side="right") for c, k, row in zip(cdf, ks, u)]
            assert draws.dtype == np.int64 and draws.tobytes() == np.array(own, np.int64).tobytes()
            assert (draws == np.minimum(expected, ks[:, None] - 1)).all()
            for p, k, row, drawn in zip(probs, ks, u, draws):
                one = dists._categorical_draws(p, row.size, _Uniforms(row))
                assert one.tobytes() == np.searchsorted(np.add.accumulate(p)[:-1], row, side="right").tobytes()
                mine = dists._categorical_draws(p[:k], row.size, _Uniforms(row))
                assert mine.dtype == np.int64 and mine.tobytes() == drawn.tobytes()
    theta = sg.CategoricalTheta([0.3, -1.2, 2.0, 0.1])
    drawn = sg.sample_categorical_many(theta, 500, np.random.default_rng(5))
    u = np.random.default_rng(5).random(500)
    assert drawn.tobytes() == np.searchsorted(np.add.accumulate(theta.probs)[:-1], u, side="right").tobytes()


def test_sample_categorical_near_deterministic():
    theta = sg.CategoricalTheta([40.0, 0.0, 0.0])
    rng = np.random.default_rng(0)
    draws = sg.sample_categorical_many(theta, 1000, rng)
    assert set(draws) == {0}


def test_sample_categorical_frequency():
    theta = sg.CategoricalTheta([0.0, 0.0])
    rng = np.random.default_rng(1)
    draws = sg.sample_categorical_many(theta, 100_000, rng)
    freq = (draws == 0).mean()
    assert abs(freq - 0.5) < 0.01


def test_sample_categorical_seed_determinism():
    theta = sg.CategoricalTheta([0.5, -0.2, 1.0])
    r1 = np.random.default_rng(7)
    r2 = np.random.default_rng(7)
    d1 = sg.sample_categorical_many(theta, 50, r1).tolist()
    d2 = sg.sample_categorical_many(theta, 50, r2).tolist()
    assert d1 == d2


# ---------------------------------------------------------------------------
# categorical gradient (the printed accumulator and the log variant)


@pytest.mark.parametrize("score", SCORE_KINDS)
def test_categorical_accumulator_is_its_formula_bit_for_bit(score):
    rng = np.random.default_rng(12)
    for k in [2, 3, 4, 9]:
        for n in [2, 3, 50, 300]:
            probs = sg.softmax(rng.normal(0.0, 2.0, k))
            indices = rng.integers(0, k, n)
            fitness = sg.standardize_fitness(rng.lognormal(0.0, 2.0, n))
            w = probs[indices] * fitness if score == SCORE_SOFTMAX else fitness
            expected = (np.bincount(indices, weights=w, minlength=k) - w.sum() * probs) / n
            got = dists._categorical_accumulator(probs, indices, fitness, score)
            assert got.tobytes() == expected.tobytes(), (k, n)


def test_categorical_gradient_hand_value():
    theta = sg.CategoricalTheta([0.0, 0.0])
    grad = sg.categorical_gradient(theta, [(0, 1.0)], score="softmax_grad")
    np.testing.assert_allclose(grad, [0.25, -0.25], rtol=0, atol=0)


def test_categorical_gradient_zero_fitness():
    theta = sg.CategoricalTheta([0.3, -0.6, 0.1])
    grad = sg.categorical_gradient(theta, [(0, 0.0), (2, 0.0), (1, 0.0)], score="softmax_grad")
    assert (grad == 0).all()


def test_categorical_gradient_symmetric_cancellation():
    # Uniform over 3, one sample per index, all fitness 1: terms cancel.
    theta = sg.CategoricalTheta([0.0, 0.0, 0.0])
    grad = sg.categorical_gradient(theta, [(0, 1.0), (1, 1.0), (2, 1.0)], score="softmax_grad")
    np.testing.assert_allclose(grad, [0.0, 0.0, 0.0], rtol=0, atol=1e-16)


def test_categorical_gradient_log_variant_hand_value():
    # (1 - p_j) F on the drawn index, -p_j F elsewhere; p = [0.5, 0.5].
    theta = sg.CategoricalTheta([0.0, 0.0])
    grad = sg.categorical_gradient(theta, [(0, 1.0)], score=SCORE_LOG_SOFTMAX)
    np.testing.assert_allclose(grad, [0.5, -0.5], rtol=0, atol=0)


def test_categorical_gradient_shift_invariance():
    samples = [(0, 1.2), (2, -0.4), (1, 0.3), (0, -1.1)]
    for score in ("softmax_grad", "log_softmax_grad"):
        a = sg.categorical_gradient(sg.CategoricalTheta([0.1, -0.7, 0.4]), samples, score=score)
        b = sg.categorical_gradient(sg.CategoricalTheta([5.1, 4.3, 5.4]), samples, score=score)
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_categorical_gradient_rejects_empty_and_out_of_range():
    theta = sg.CategoricalTheta([0.0, 0.0])
    with pytest.raises(ValueError):
        sg.categorical_gradient(theta, [], score="softmax_grad")
    with pytest.raises(ValueError):
        sg.categorical_gradient(theta, [(2, 1.0)], score="softmax_grad")


def _analytic_expected_accumulator(logits, fitness_table):
    """Exact expectation of the printed accumulator: sum_k p_k F(k) dp_k/dtheta_j."""
    p = sg.softmax(logits)
    k = len(p)
    return np.array(
        [sum(p[i] * fitness_table[i] * p[i] * ((i == j) - p[j]) for i in range(k)) for j in range(k)]
    )


def _analytic_true_gradient(logits, fitness_table):
    """d/dtheta of sum_k p_k F(k)."""
    p = sg.softmax(logits)
    k = len(p)
    return np.array(
        [sum(fitness_table[i] * p[i] * ((i == j) - p[j]) for i in range(k)) for j in range(k)]
    )


def test_categorical_gradient_monte_carlo_expectations():
    fitness_table = np.array([3.0, -1.0, 0.5])
    rng = np.random.default_rng(123)
    for logits in ([0.0, 0.0, 0.0], [1.0, 0.2, -0.4], [-0.8, 0.5, 0.1]):
        theta = sg.CategoricalTheta(logits)
        idx = sg.sample_categorical_many(theta, 100_000, rng)
        samples = list(zip(idx.tolist(), fitness_table[idx].tolist()))
        got = sg.categorical_gradient(theta, samples, score="softmax_grad")
        want = _analytic_expected_accumulator(logits, fitness_table)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 0.02
        got_log = sg.categorical_gradient(theta, samples, score=SCORE_LOG_SOFTMAX)
        want_log = _analytic_true_gradient(logits, fitness_table)
        assert np.linalg.norm(got_log - want_log) / np.linalg.norm(want_log) < 0.02


# ---------------------------------------------------------------------------
# gaussian gradient


def test_gaussian_gradient_zero_fitness():
    theta = sg.GaussianTheta(0.0, 1.0)
    assert sg.gaussian_gradient(theta, [(0.3, 0.0), (-1.2, 0.0)]) == 0.0


def test_gaussian_gradient_hand_value():
    theta = sg.GaussianTheta(0.0, 1.0)
    assert sg.gaussian_gradient(theta, [(1.0, 2.0), (-1.0, 0.0)]) == 1.0


def test_gaussian_gradient_monte_carlo_linear():
    # F(x) = x with x = mu + sigma*eps has d/dmu E[F] = 1.
    mu, sigma = 0.7, 0.5
    theta = sg.GaussianTheta(mu, sigma)
    rng = np.random.default_rng(11)
    eps = rng.standard_normal(100_000)
    samples = list(zip(eps.tolist(), (mu + sigma * eps).tolist()))
    assert sg.gaussian_gradient(theta, samples) == pytest.approx(1.0, abs=0.02)


def test_gaussian_gradient_rejects_empty():
    with pytest.raises(ValueError):
        sg.gaussian_gradient(sg.GaussianTheta(0.0, 1.0), [])


def test_gaussian_theta_requires_positive_sigma():
    with pytest.raises(sg.ThetaError):
        sg.GaussianTheta(0.0, 0.0)
    with pytest.raises(sg.ThetaError):
        sg.GaussianTheta(0.0, -1.0)
    for mu, sigma in [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (0.0, math.nan)]:
        with pytest.raises(sg.ThetaError):
            sg.GaussianTheta(mu, sigma)
    with pytest.raises(sg.ThetaError):
        thetas_from_doc([{"kind": "real", "mu": math.nan, "sigma": math.inf}])


# ---------------------------------------------------------------------------
# fitness standardization


def test_standardize_hand_value():
    fit = sg.standardize_fitness([1.0, 2.0, 3.0])
    np.testing.assert_allclose(fit, [1.2247448563915893, 0.0, -1.2247448563915893], rtol=1e-12)


def test_standardize_constant_input_is_zero():
    assert (sg.standardize_fitness([5.0] * 10) == 0.0).all()
    assert (sg.standardize_fitness([4.2] * 10) == 0.0).all()
    assert (sg.standardize_fitness([1e12] * 50) == 0.0).all()


def test_standardize_moments():
    rng = np.random.default_rng(2)
    for _ in range(20):
        losses = rng.normal(3.0, 2.0, size=50)
        fit = sg.standardize_fitness(losses)
        assert abs(fit.mean()) < 1e-12
        assert abs(fit.std() - 1.0) < 1e-6


@given(st.lists(st.integers(-10**9, 10**9), min_size=2, max_size=60))
@settings(max_examples=100, deadline=None)
def test_standardize_is_rank_preserving(int_losses):
    # Integer-valued losses keep every distinct pair separated by >= 1, so the
    # separation survives z-scoring (rank flips below one ulp are out of scope).
    losses = [float(v) for v in int_losses]
    fit = sg.standardize_fitness(losses)
    neg = -np.asarray(losses)
    assert list(np.argsort(fit, kind="stable")) == list(np.argsort(neg, kind="stable"))


def _textbook_standardize(losses):
    x = -np.asarray(losses, dtype=np.float64)
    return (x - x.mean()) / (x.std() + STANDARDIZE_EPS)


def _loss_populations(seed):
    """Seeded populations of 2 to 300 losses: spread, clustered, heavy-tailed, with a few or many
    NONFINITE_PENALTY values, and all-but-one equal."""
    rng = np.random.default_rng(seed)
    for n in [2, 3, 8, 9, 50, 128, 129, 300]:
        yield rng.normal(3.0, 2.0, n)
        yield 7.0 + rng.normal(0.0, 1e-9, n)
        yield rng.lognormal(0.0, 3.0, n)
        with_penalty = rng.lognormal(0.0, 1.0, n)
        with_penalty[rng.random(n) < 0.3] = NONFINITE_PENALTY
        with_penalty[0] = NONFINITE_PENALTY
        yield with_penalty
        yield np.where(np.arange(n) == n - 1, NONFINITE_PENALTY, 0.25)
        yield np.where(np.arange(n) == 0, np.nextafter(4.2, 5.0), 4.2)


def test_standardize_is_the_textbook_expression_bit_for_bit():
    for losses in _loss_populations(6):
        expected = _textbook_standardize(losses)
        assert sg.standardize_fitness(losses).tobytes() == expected.tobytes(), losses
        assert sg.standardize_fitness(losses.tolist()).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [2, 3, 50, 129])
@pytest.mark.parametrize("value", [0.0, 2.0, 0.1, 4.2, NONFINITE_PENALTY])
def test_standardize_an_all_equal_population_is_exact_zeros(n, value):
    # Positive zeros, where the textbook expression is zero (of either sign) only when the mean of the
    # copies is exact, and rounding noise over the epsilon when it is not.
    fit = sg.standardize_fitness(np.full(n, value))
    assert fit.dtype == np.float64 and fit.tobytes() == np.zeros(n).tobytes()
    if np.full(n, -value).mean() == -value:
        assert np.array_equal(fit, _textbook_standardize(np.full(n, value)))


def test_standardize_rejects_tiny_populations():
    with pytest.raises(ValueError):
        sg.standardize_fitness([1.0])


# ---------------------------------------------------------------------------
# theta persistence


def test_theta_roundtrip_bit_exact(tmp_path):
    thetas = [
        sg.CategoricalTheta([0.1, -2.5, 3.75]),
        sg.GaussianTheta(2.2305248, 0.5),
        sg.CategoricalTheta([1e-17, 40.0, -0.1, 0.3]),
        sg.GaussianTheta(-4.0324993, 0.125),
    ]
    path = tmp_path / "theta.json"
    sg.save_thetas(thetas, path)
    loaded = sg.load_thetas(path)
    assert len(loaded) == len(thetas)
    for a, b in zip(thetas, loaded):
        if isinstance(a, sg.GaussianTheta):
            assert (a.mu, a.sigma) == (b.mu, b.sigma)
        else:
            assert (a.logits == b.logits).all()


def test_theta_doc_shape(tmp_path):
    thetas = [sg.CategoricalTheta([0.0, 0.0, 0.0]), sg.GaussianTheta(1.5, 0.5)]
    path = tmp_path / "theta.json"
    sg.save_thetas(thetas, path)
    doc = json.loads(path.read_text())
    assert doc == [
        {"kind": "cat", "logits": [0.0, 0.0, 0.0]},
        {"kind": "real", "mu": 1.5, "sigma": 0.5},
    ]


def test_theta_kind_mismatch_against_sketch(tmp_path, onevar_sketch):
    # Hole 0 is [COND]; a "real" entry there must be rejected.
    doc = [{"kind": "real", "mu": 0.0, "sigma": 1.0}] + [
        {"kind": "cat", "logits": [0.0, 0.0, 0.0]}
    ] * 5
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(sg.ThetaError, match="hole 0"):
        sg.load_thetas(path, onevar_sketch)


def test_theta_doc_validation(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text("{not json")
    with pytest.raises(sg.ThetaError, match="malformed"):
        sg.load_thetas(path)
    path.write_text(json.dumps([{"kind": "cat", "logits": [0.0, 0.0], "mu": 1.0}]))
    with pytest.raises(sg.ThetaError, match="exactly"):
        sg.load_thetas(path)
    path.write_text(json.dumps([{"kind": "wat"}]))
    with pytest.raises(sg.ThetaError, match="unknown kind"):
        sg.load_thetas(path)


def test_theta_doc_helpers_roundtrip():
    thetas = [sg.GaussianTheta(0.1, 2.0), sg.CategoricalTheta([3.0, -1.0])]
    again = thetas_from_doc(thetas_to_doc(thetas))
    assert again[0].mu == 0.1 and (again[1].logits == [3.0, -1.0]).all()


def test_numpy_scalar_samples_are_read_in_bulk():
    # Samples zipped from numpy arrays hold numpy scalars.  The column reader converts a column of ints,
    # floats or numpy numbers with one numpy call, so such a call costs what a `tolist()` one does, not a
    # reader call per value (about ten times as long at 10^5 samples), and returns the same bits.
    rng = np.random.default_rng(3)
    theta = sg.CategoricalTheta([0.2, -0.1, 0.4])
    idx = sg.sample_categorical_many(theta, 100_000, rng)
    fitness = rng.standard_normal(idx.size)
    calls = {
        "numpy": list(zip(idx, fitness)),
        "tolist": list(zip(idx.tolist(), fitness.tolist())),
    }
    best, got = {}, {}
    for _ in range(5):
        for name, samples in calls.items():
            start = time.perf_counter()
            got[name] = sg.categorical_gradient(theta, samples, score=SCORE_LOG_SOFTMAX)
            best[name] = min(best.get(name, math.inf), time.perf_counter() - start)
    assert got["numpy"].tobytes() == got["tolist"].tobytes()
    assert best["numpy"] < 2 * best["tolist"], best
    gaussian = sg.GaussianTheta(0.0, 1.0)
    eps = fitness[::-1]
    assert sg.gaussian_gradient(gaussian, zip(eps, fitness)) == sg.gaussian_gradient(
        gaussian, zip(eps.tolist(), fitness.tolist())
    )

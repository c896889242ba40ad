"""End-to-end acceptance suite.

One test per acceptance criterion, each asserting its stated tolerance and
printing a PASS/FAIL line (run pytest with -s to see the lines for passing
tests).  The two benchmark reproductions train 10 seeds each, so this module
takes a couple of minutes.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import sketchgrad as sg
from sketchgrad.dists import SCORE_LOG_SOFTMAX

from conftest import ONEVAR_SKETCH, ONEVAR_TRUTH, TWOVAR_SKETCH, TWOVAR_TRUTH

SEEDS = list(range(10))


def report(name: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def onevar_runs(onevar_sketch, onevar_spec):
    runs = []
    for seed in SEEDS:
        cfg = sg.TrainConfig(learning_rate=0.1, iterations=10_000, population=50, sigma=0.5, seed=seed)
        t0 = time.perf_counter()
        result = sg.train(onevar_sketch, onevar_spec, cfg)
        runs.append((result, time.perf_counter() - t0))
    return runs


@pytest.fixture(scope="module")
def twovar_runs(twovar_sketch, twovar_spec):
    runs = []
    for seed in SEEDS:
        cfg = sg.TrainConfig(learning_rate=0.0995, iterations=20_000, population=50, sigma=0.5, seed=seed)
        t0 = time.perf_counter()
        result = sg.train(twovar_sketch, twovar_spec, cfg)
        runs.append((result, time.perf_counter() - t0))
    return runs


def test_criterion_1_one_input_reproduction(onevar_runs, onevar_sketch, onevar_spec):
    """Best-so-far argmax MSE <= 1e-2 on >= 8/10 seeds; the winning token
    pattern must tie the enumeration oracle's optimum for its own reals;
    runtime <= 2 minutes per seed."""
    passing = [r for r, _ in onevar_runs if r.best_loss <= 1e-2]
    oracle_optimal = 0
    for result in passing:
        mus = [t.mu for t in result.best_thetas if isinstance(t, sg.GaussianTheta)]
        ranked = sg.enumerate_discrete(onevar_sketch, mus, onevar_spec)
        best_loss_by_oracle = ranked[0][1]
        pattern = tuple(
            v for v, hole in zip(_assignment_of(result.best_program, onevar_sketch), onevar_sketch.holes)
            if hole.kind != "real"
        )
        trained = [loss for a, loss in ranked if _cat_pattern(a, onevar_sketch) == pattern]
        if trained and trained[0] <= best_loss_by_oracle * (1 + 1e-12):
            oracle_optimal += 1
    slowest = max(dt for _, dt in onevar_runs)
    ok = len(passing) >= 8 and oracle_optimal == len(passing) and slowest <= 120.0
    report(
        "criterion 1 (one-input reproduction)",
        ok,
        f"MSE<=1e-2 on {len(passing)}/10 seeds (need >=8), oracle-optimal pattern on "
        f"{oracle_optimal}/{len(passing)} passing seeds, slowest seed {slowest:.1f}s (limit 120s)",
    )


def _assignment_of(program: sg.Sketch, sketch: sg.Sketch) -> tuple:
    """Recover the assignment that produced `program` from `sketch`."""
    values = []

    def operand(node_s, node_p):
        if isinstance(node_s, sg.RealHole):
            values.append((node_s.index, node_p.value))

    def chain(cs, cp):
        for a, b in zip(cs.operands, cp.operands):
            operand(a, b)
        for a, b in zip(cs.ops, cp.ops):
            if isinstance(a, sg.OpHole):
                values.append((a.index, ("+", "-", "*", "/").index(b)))

    if sketch.guard is not None:
        operand(sketch.guard.lhs, program.guard.lhs)
        if isinstance(sketch.guard.cmp, sg.CondHole):
            values.append((sketch.guard.cmp.index, ("==", ">", "<").index(program.guard.cmp)))
        operand(sketch.guard.rhs, program.guard.rhs)
        chain(sketch.guard.body, program.guard.body)
    chain(sketch.ret, program.ret)
    values.sort()
    return tuple(v for _, v in values)


def _cat_pattern(assignment: sg.Assignment, sketch: sg.Sketch) -> tuple:
    return tuple(
        v for v, hole in zip(assignment.values, sketch.holes) if hole.kind != "real"
    )


def test_criterion_2_two_input_best_mse(twovar_runs):
    """Best-so-far argmax MSE <= 0.5 on >= 6/10 seeds; runtime <= 4 min/seed."""
    bests = [r.best_loss for r, _ in twovar_runs]
    n_ok = sum(b <= 0.5 for b in bests)
    slowest = max(dt for _, dt in twovar_runs)
    ok = n_ok >= 6 and slowest <= 240.0
    report(
        "criterion 2 (two-input reproduction, MSE)",
        ok,
        f"MSE<=0.5 on {n_ok}/10 seeds (need >=6), bests={[round(b, 3) for b in bests]}, "
        f"slowest seed {slowest:.1f}s (limit 240s)",
    )


def test_criterion_2_target_in_search_space(twovar_sketch, twovar_truth, twovar_spec):
    """With both reals pinned at the truth's 2.0, the enumeration oracle ranks
    the truth's token pattern first at loss 0.0 and the runner-up at 6.974, so
    a failure of the MSE criterion points at the search, not at the target."""
    ranked = sg.enumerate_discrete(twovar_sketch, [2.0, 2.0], twovar_spec)
    (top, top_loss), (_, runner_up) = ranked[0], ranked[1]
    ok = (
        top.values == _assignment_of(twovar_truth, twovar_sketch)
        and top_loss == 0.0
        and runner_up == 6.974040004018999
    )
    report(
        "criterion 2 (two-input target inside the search space)",
        ok,
        f"rank 1 {_cat_pattern(top, twovar_sketch)} at {top_loss!r}, runner-up at {runner_up!r}",
    )


def test_criterion_2_two_input_instability(twovar_runs):
    """The mean-population-loss trace shows >= 1 spike above 3x the local
    median after iteration 1000 (checked per seed, majority standard)."""
    spiky = 0
    for result, _ in twovar_runs:
        means = [rec.mean_population_loss for rec in result.records]
        if len(sg.loss_spikes(means, window=101, factor=3.0, start=1000)) >= 1:
            spiky += 1
    ok = spiky >= 6
    report(
        "criterion 2 (two-input reproduction, instability spikes)",
        ok,
        f"spikes after iteration 1000 on {spiky}/10 seeds (need >=6)",
    )


def test_criterion_3_discrete_space_count(onevar_sketch, onevar_spec):
    """Exactly 48 discrete programs for the one-input sketch (3 * 4 * 4)."""
    ranked = sg.enumerate_discrete(onevar_sketch, [3.5, 4.2, 2.1], onevar_spec)
    ok = len(ranked) == 48
    report("criterion 3 (discrete space count)", ok, f"enumerated {len(ranked)} programs (want 48)")


def test_criterion_4_categorical_gradient_oracle():
    """Monte-Carlo mean of the accumulator vs its analytic expectation within
    2% at three theta settings; same bound for the log-probability variant
    against the score-function identity."""
    fitness_table = np.array([3.0, -1.0, 0.5])
    rng = np.random.default_rng(123)
    worst = 0.0
    for logits in ([0.0, 0.0, 0.0], [1.0, 0.2, -0.4], [-0.8, 0.5, 0.1]):
        theta = sg.CategoricalTheta(logits)
        p = theta.probs
        idx = sg.sample_categorical_many(theta, 100_000, rng)
        samples = list(zip(idx.tolist(), fitness_table[idx].tolist()))

        got = sg.categorical_gradient(theta, samples, score="softmax_grad")
        # Expectation of the accumulator: sum_k p_k F(k) dp_k/dtheta_j.
        want = np.array(
            [sum(p[k] * fitness_table[k] * p[k] * ((k == j) - p[j]) for k in range(3)) for j in range(3)]
        )
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)

        got_log = sg.categorical_gradient(theta, samples, score=SCORE_LOG_SOFTMAX)
        # Score-function identity: the true gradient of sum_k p_k F(k).
        want_log = np.array(
            [sum(fitness_table[k] * p[k] * ((k == j) - p[j]) for k in range(3)) for j in range(3)]
        )
        rel_log = np.linalg.norm(got_log - want_log) / np.linalg.norm(want_log)
        worst = max(worst, rel, rel_log)
    ok = worst < 0.02
    report("criterion 4 (categorical gradient oracle)", ok, f"worst relative error {worst:.4%} (limit 2%)")


def test_criterion_5_gaussian_gradient_oracle():
    """Closed-form estimator vs d/dmu E[(x-3)^2] = 2(mu-3) within 2% relative
    (0.05 absolute at mu = 3), sigma = 0.5, n = 1e5."""
    sigma = 0.5
    rng = np.random.default_rng(123)
    details = []
    ok = True
    for mu in (0.0, 3.0, 5.0):
        theta = sg.GaussianTheta(mu, sigma)
        eps = rng.standard_normal(100_000)
        fitness = (mu + sigma * eps - 3.0) ** 2
        got = sg.gaussian_gradient(theta, list(zip(eps.tolist(), fitness.tolist())))
        want = 2.0 * (mu - 3.0)
        if want == 0.0:
            ok = ok and abs(got) < 0.05
            details.append(f"mu=3: |{got:+.4f}| < 0.05")
        else:
            rel = abs(got - want) / abs(want)
            ok = ok and rel < 0.02
            details.append(f"mu={mu}: rel {rel:.4%}")
    report("criterion 5 (gaussian gradient oracle)", ok, "; ".join(details))


def test_criterion_6_standardization_properties():
    """Zero mean (<1e-12), population std within 1e-6 of 1, all-zero on
    constant input, rank preservation on 1000 random vectors."""
    rng = np.random.default_rng(99)
    ok = True
    worst_mean, worst_std = 0.0, 0.0
    for _ in range(1000):
        losses = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 10.0), size=rng.integers(2, 80))
        fit = sg.standardize_fitness(losses)
        worst_mean = max(worst_mean, abs(fit.mean()))
        worst_std = max(worst_std, abs(fit.std() - 1.0))
        ok = ok and list(np.argsort(fit, kind="stable")) == list(np.argsort(-losses, kind="stable"))
    ok = ok and worst_mean < 1e-12 and worst_std < 1e-6
    ok = ok and (sg.standardize_fitness([4.2] * 50) == 0.0).all()
    report(
        "criterion 6 (standardization properties)",
        ok,
        f"worst |mean| {worst_mean:.2e} (<1e-12), worst |std-1| {worst_std:.2e} (<1e-6), "
        "constant input all-zero, ranks preserved on 1000 vectors",
    )


def test_criterion_7_cli_determinism(tmp_path, onevar_spec):
    """Two cmd_train runs with identical flags and seed produce byte-identical
    loss.csv and theta files."""
    (tmp_path / "sketch.txt").write_text(ONEVAR_SKETCH)
    sg.save_spec(onevar_spec, tmp_path / "spec.csv")
    (tmp_path / "config.json").write_text(
        json.dumps({"learning_rate": 0.1, "iterations": 400})
    )

    def run(out):
        proc = subprocess.run(
            [
                sys.executable, "-m", "sketchgrad", "train",
                "--sketch", str(tmp_path / "sketch.txt"),
                "--spec", str(tmp_path / "spec.csv"),
                "--config", str(tmp_path / "config.json"),
                "--out", str(tmp_path / out),
                "--seed", "7",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    out_a, out_b = run("a"), run("b")
    files = ["loss.csv", "theta_final.json", "theta_best.json", "program_final.txt", "program_best.txt"]
    identical = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files
    )
    ok = identical and out_a == out_b
    report("criterion 7 (determinism)", ok, f"byte-identical outputs across runs: {identical}")


def _random_sketch_text(rng) -> str:
    names = ["x", "y", "z"]
    params = names[: rng.integers(1, 4)]

    def operand():
        roll = rng.integers(0, 3)
        if roll == 0:
            return params[rng.integers(0, len(params))]
        if roll == 1:
            return repr(float(np.round(rng.normal(0, 50), 6)))
        return "[Real]"

    def chain():
        parts = [operand()]
        for _ in range(rng.integers(0, 4)):
            parts.append(["+", "-", "*", "/", "[OP]"][rng.integers(0, 5)])
            parts.append(operand())
        return " ".join(parts)

    lines = [f"fn prog({', '.join(f'{p}: f32' for p in params)}) -> f32", "{"]
    if rng.integers(0, 2):
        cmp = ["==", ">", "<", "[COND]"][rng.integers(0, 4)]
        lines += [f"    if {operand()} {cmp} {operand()}", "    {", f"        return {chain()};", "    }", ""]
    lines += [f"    return {chain()};", "}"]
    return "\n".join(lines) + "\n"


def test_criterion_8_roundtrip_corpus(onevar_sketch):
    """Parse/print round trip over both benchmark sketches, both ground
    truths, both learned listings and 500 random grammar-valid sketches."""
    from conftest import ONEVAR_LEARNED, TWOVAR_LEARNED

    corpus = [ONEVAR_SKETCH, TWOVAR_SKETCH, ONEVAR_TRUTH, TWOVAR_TRUTH, ONEVAR_LEARNED, TWOVAR_LEARNED]
    rng = np.random.default_rng(2718)
    corpus += [_random_sketch_text(rng) for _ in range(500)]
    checked = 0
    for text in corpus:
        s = sg.parse_sketch(text)
        printed = sg.print_program(s)
        assert sg.parse_sketch(printed) == s, f"round trip failed for:\n{text}"
        assert sg.print_program(sg.parse_sketch(printed)) == printed
        checked += 1
    report("criterion 8 (parser/printer round trip)", checked == 506, f"{checked}/506 corpus entries round-trip")

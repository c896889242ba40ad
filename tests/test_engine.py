import ast
import dataclasses
import fractions
import hashlib
import itertools
import math
import os
import random
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sketchgrad as sg
from sketchgrad import dists, engine, interp
from sketchgrad.engine import RESTART_PATIENCE, make_optimizer, restart_state
from sketchgrad.interp import CHUNK_CELLS

from conftest import TWOVAR_SKETCH
from test_interp import _finite, _literals, _moderate, _overflowing, _small
from test_sketch import sketch_texts


def _config(**kw):
    base = dict(learning_rate=0.1, iterations=10, population=50, seed=0)
    base.update(kw)
    return sg.TrainConfig(**base)


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "kw",
    [
        dict(learning_rate=-1.0),
        dict(learning_rate=0.0),
        dict(iterations=0),
        dict(population=1),
        dict(sigma=0.0),
        dict(optimizer="rmsprop"),
        dict(categorical_score="nope"),
        dict(adam_beta1=1.0),
        dict(penalty=math.inf),
        dict(learning_rate=math.inf),
        dict(learning_rate=math.nan),
        dict(sigma=math.inf),
        dict(adam_eps=math.inf),
        dict(mu_init=math.nan),
        dict(seed=-1),
    ],
)
def test_config_rejects_bad_values(kw):
    with pytest.raises(sg.ConfigError):
        _config(**kw)


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(iterations=1e4), "iterations must be an integer, got 10000.0"),
        (dict(iterations=True), "iterations must be an integer, got True"),
        (dict(seed=np.bool_(True)), "seed must be an integer, got np.True_"),
        (dict(learning_rate="0.1"), "learning_rate must be a number, got '0.1'"),
        (dict(sigma=False), "sigma must be a number, got False"),
        (dict(learning_rate=10**400), "learning_rate is past the float range"),
        (dict(optimizer=None), "optimizer must be a string, got None"),
    ],
)
def test_config_rejects_wrong_types(kw, message):
    with pytest.raises(sg.ConfigError) as err:
        _config(**kw)
    assert str(err.value).startswith(message)


def test_config_takes_numpy_scalars_as_python_numbers():
    cfg = _config(learning_rate=np.float32(0.5), iterations=np.int64(3), population=np.uint8(4), sigma=np.int32(1))
    assert (cfg.learning_rate, cfg.iterations, cfg.population, cfg.sigma) == (0.5, 3, 4, 1.0)
    assert [type(v) for v in (cfg.learning_rate, cfg.iterations, cfg.population, cfg.sigma)] == [float, int, int, float]
    assert cfg == _config(learning_rate=0.5, iterations=3, population=4, sigma=1)


def test_config_repr_shows_a_seed_too_long_for_repr():
    # The generated repr would end in Python's limit on the digits it turns into text; ordinary fields read as
    # the generated repr reads them.
    cfg = sg.TrainConfig(learning_rate=0.1, iterations=1, seed=10**5000)
    assert repr(cfg) == repr(dataclasses.replace(cfg, seed=7)).replace("seed=7", "seed=~1.000e+5000")
    assert repr(_config(penalty=5)) == (
        "TrainConfig(learning_rate=0.1, iterations=10, population=50, sigma=0.5, seed=0, optimizer='sgd', "
        "adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-08, categorical_score='log_softmax_grad', penalty=5.0, "
        "mu_init=1.0)"
    )


def test_config_defaults():
    cfg = sg.TrainConfig(learning_rate=0.1, iterations=10_000)
    assert cfg.population == 50
    assert cfg.sigma == 0.5
    assert cfg.optimizer == "sgd"
    assert cfg.categorical_score == "log_softmax_grad"
    assert cfg.penalty == 1e12


# ---------------------------------------------------------------------------
# initialization and sampling


def test_init_thetas_match_hole_table(onevar_sketch):
    thetas = sg.init_state(onevar_sketch, _config()).thetas()
    kinds = [type(t).__name__ for t in thetas]
    assert kinds == [
        "CategoricalTheta",
        "GaussianTheta",
        "GaussianTheta",
        "CategoricalTheta",
        "CategoricalTheta",
        "GaussianTheta",
    ]
    assert (thetas[0].logits == 0).all() and thetas[0].arity == 3
    assert thetas[3].arity == 4
    assert thetas[1].sigma == 0.5


def test_sample_population_shapes(onevar_sketch):
    state = sg.init_state(onevar_sketch, _config())
    pop = sg.sample_population(state, 50, sg.hole_streams(0, onevar_sketch.hole_count))
    assert len(pop.values) == 6
    assert all(col.shape == (50,) for col in pop.values)
    # Categorical values are ints in range; real values floats.
    assert pop.values[0].dtype.kind == "i" and set(pop.values[0].tolist()) <= {0, 1, 2}
    assert pop.values[1].dtype == np.float64


def test_sample_population_seed_determinism(onevar_sketch):
    state = sg.init_state(onevar_sketch, _config())
    p1 = sg.sample_population(state, 20, sg.hole_streams(9, onevar_sketch.hole_count))
    p2 = sg.sample_population(state, 20, sg.hole_streams(9, onevar_sketch.hole_count))
    for a, b in zip(p1.values, p2.values):
        assert (a == b).all()


def test_sample_population_degenerate_distributions():
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { if x [COND] [Real] { return 1.0; } return 2.0; }")
    thetas = [sg.CategoricalTheta([40.0, 0.0, 0.0]), sg.GaussianTheta(2.5, 1e-9)]
    state = sg.TrainState.from_thetas(sketch, thetas)
    pop = sg.sample_population(state, 2, sg.hole_streams(4, sketch.hole_count))
    cats, reals = pop.values
    assert cats.tolist() == [0, 0]
    assert abs(reals[0] - 2.5) < 1e-7
    assert abs(reals[1] - 2.5) < 1e-7


def test_hole_streams_are_independent_of_each_other():
    # Drawing from stream 0 must not affect stream 1's sequence.
    s1 = sg.hole_streams(123, 2)
    s2 = sg.hole_streams(123, 2)
    s1[0].random(1000)
    assert (s1[1].random(5) == s2[1].random(5)).all()


# ---------------------------------------------------------------------------
# argmax extraction


def test_argmax_program_examples(onevar_sketch):
    thetas = [
        sg.CategoricalTheta([0.0, 0.1, 3.0]),  # '<'
        sg.GaussianTheta(2.2305248, 0.5),
        sg.GaussianTheta(2.4594104, 0.5),
        sg.CategoricalTheta([0.0, 0.0, 4.0, 0.0]),  # '*'
        sg.CategoricalTheta([0.0, 0.0, 4.0, 0.0]),
        sg.GaussianTheta(4.0324993, 0.5),
    ]
    program = sg.argmax_program(onevar_sketch, thetas)
    text = sg.print_program(program)
    assert "if x < 2.2305248" in text
    assert "return 2.4594104 * x;" in text
    assert "return x * 4.0324993;" in text


def test_argmax_tie_breaks_to_lowest_index():
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { return x [OP] 1.0; }")
    program = sg.argmax_program(sketch, [sg.CategoricalTheta([0.0, 0.0, 0.0, 0.0])])
    assert program.ret.ops == ("+",)
    program = sg.argmax_program(sketch, [sg.CategoricalTheta([0.0, 5.0, 0.0, 0.0])])
    assert program.ret.ops == ("-",)


# ---------------------------------------------------------------------------
# train_step behaviour


class _Stream:
    """A stand-in for a hole's Generator: `random(n)` returns the given uniforms, and `standard_normal` zeros."""

    def __init__(self, u=()):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, n):
        return self.u[:n]

    def standard_normal(self, out):
        out[:] = 0.0


def test_sample_population_clamps_a_uniform_past_a_narrow_holes_total(onevar_sketch):
    # The categorical holes are drawn as rows as wide as the widest hole ([OP], 4 tokens), so the [COND] row ends
    # in a probability of 0, which only a uniform at or past the row's total reaches.  These logits sum to
    # 1 - 2**-53: such a uniform draws the hole's last token, as the hole's own draw clamps it.
    logits = [-6.975092323916503, -0.6563749917976371, -3.7377328417591955]
    total = np.add.accumulate(sg.softmax(logits))[-1]
    assert total < 1.0
    u = [0.0, total, np.nextafter(1.0, 0.0)]
    thetas = list(sg.init_state(onevar_sketch, _config()).thetas())
    thetas[0] = sg.CategoricalTheta(logits)
    state = sg.TrainState.from_thetas(onevar_sketch, thetas)
    population = sg.sample_population(state, 3, [_Stream(u)] + [_Stream([0.5] * 3)] * 5)
    assert population.values[0].tolist() == dists._categorical_draws(sg.softmax(logits), 3, _Stream(u)).tolist()
    assert population.values[0].tolist() == [0, 2, 2]


def test_train_step_equal_losses_leave_thetas_unchanged():
    # Both branches return the same value, so every candidate ties.
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { if x [COND] 100.0 { return 1.0; } return 1.0; }")
    spec = sg.SpecSet.from_pairs([((1.0,), 1.0), ((2.0,), 3.0)])
    cfg = _config()
    state = sg.init_state(sketch, cfg)
    new, record = sg.train_step(sg.compile_sketch(sketch, spec), state, cfg, sg.hole_streams(0, sketch.hole_count))
    assert (new.params[0] == state.params[0]).all()
    assert record.argmax_loss == record.best_so_far_loss


def test_train_step_rewards_perfect_token():
    # Spec generated by '+', with every other token far off: token 0
    # candidates score best and its logit strictly rises in one step.
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { return 10.0 [OP] x; }")
    spec = sg.SpecSet.from_pairs([((1.0,), 11.0), ((2.0,), 12.0), ((3.0,), 13.0)])
    cfg = _config()
    state = sg.init_state(sketch, cfg)
    new, _ = sg.train_step(sg.compile_sketch(sketch, spec), state, cfg, sg.hole_streams(1, sketch.hole_count))
    logits = new.params[0]
    assert logits[0] > 0
    assert logits[0] > logits[1] and logits[0] > logits[2] and logits[0] > logits[3]


def test_train_step_sgd_linearity(onevar_sketch, onevar_spec):
    # mu_init 0 keeps the measured deltas exact (theta + step - theta rounds
    # away from the pure step for nonzero theta).
    cfg1 = _config(learning_rate=0.05, mu_init=0.0)
    cfg2 = _config(learning_rate=0.1, mu_init=0.0)
    state = sg.init_state(onevar_sketch, cfg1)
    plan = sg.compile_sketch(onevar_sketch, onevar_spec)
    out1, _ = sg.train_step(plan, state, cfg1, sg.hole_streams(3, onevar_sketch.hole_count))
    out2, _ = sg.train_step(plan, state, cfg2, sg.hole_streams(3, onevar_sketch.hole_count))
    thetas = state.thetas()
    for base, a, b in zip(thetas, out1.thetas(), out2.thetas()):
        if isinstance(base, sg.GaussianTheta):
            assert b.mu - base.mu == 2 * (a.mu - base.mu)
        else:
            np.testing.assert_array_equal(b.logits - base.logits, 2 * (a.logits - base.logits))


def test_train_step_invariant_to_constant_loss_shift(onevar_sketch, onevar_spec):
    # Shifting every candidate's loss by a constant leaves the update unchanged;
    # emulate by shifting every spec output identically in a constant-output sketch.
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { return [Real] [OP] x; }")
    spec_a = sg.SpecSet.from_pairs([((1.0,), 2.0), ((2.0,), 4.0)])
    cfg = _config()
    state = sg.init_state(sketch, cfg)
    pop = sg.sample_population(state, cfg.population, sg.hole_streams(5, sketch.hole_count))
    losses = sg.eval_population_losses(sg.compile_sketch(sketch, spec_a), pop.values)
    fit_a = sg.standardize_fitness(losses)
    fit_b = sg.standardize_fitness(losses + 123.456)
    np.testing.assert_allclose(fit_a, fit_b, atol=1e-9)
    grads_a = sg.estimate_gradients(state, pop, fit_a, cfg.categorical_score)
    grads_b = sg.estimate_gradients(state, pop, fit_b, cfg.categorical_score)
    for ga, gb in zip(grads_a, grads_b):
        np.testing.assert_allclose(ga, gb, atol=1e-9)


# ---------------------------------------------------------------------------
# the loop's argmax score against the scalar reference

def _pin_to_reference(sketch, spec, cfg, state):
    """Drive train_step as train does and check every record's argmax loss
    against the scalar interpreter bit for bit; returns those losses."""
    streams = sg.hole_streams(cfg.seed, sketch.hole_count)
    plan = sg.compile_sketch(sketch, spec)
    losses = []
    for it in range(1, cfg.iterations + 1):
        state, record = sg.train_step(plan, state, cfg, streams)
        expected = sg.eval_spec_loss(sg.argmax_program(sketch, state.thetas()), spec, cfg.penalty)
        assert struct.pack("<d", record.argmax_loss) == struct.pack("<d", expected), (it, record, expected)
        losses.append(record.argmax_loss)
    return losses


def test_train_step_argmax_loss_matches_scalar_reference_at_every_step(
    onevar_sketch, onevar_spec, twovar_sketch, twovar_spec
):
    for sketch, spec, lr in ((onevar_sketch, onevar_spec, 0.1), (twovar_sketch, twovar_spec, 0.0995)):
        cfg = _config(learning_rate=lr, iterations=200, seed=3)
        _pin_to_reference(sketch, spec, cfg, sg.init_state(sketch, cfg))


def test_train_step_argmax_loss_matches_scalar_reference_on_the_penalty_path():
    # `(x [OP] [Real]) / 0.0` is infinite or NaN on every row.  The second
    # operator hole starts on `/`, so the argmax program divides by zero until
    # the search moves it off.  A penalty other than the default checks that
    # the configured one reaches the scorer.
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { return x [OP] [Real] [OP] 0.0; }")
    spec = sg.SpecSet.from_pairs([((1.0,), 2.0), ((2.0,), 4.0), ((3.0,), 6.0)])
    cfg = _config(iterations=200, seed=5, penalty=1e6)
    thetas = [sg.CategoricalTheta(np.zeros(4)), sg.GaussianTheta(1.0, 0.5), sg.CategoricalTheta([0.0, 0.0, 0.0, 2.0])]
    losses = _pin_to_reference(sketch, spec, cfg, sg.TrainState.from_thetas(sketch, thetas))
    assert losses[0] == cfg.penalty and min(losses) < cfg.penalty


def test_thetas_are_values():
    gaussian = sg.GaussianTheta(1.0, 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        gaussian.mu = 2.0
    source = np.array([0.5, -1.0, 2.0])
    theta = sg.CategoricalTheta(source)
    assert theta.probs is theta.probs
    np.testing.assert_array_equal(theta.probs, sg.softmax(source))
    with pytest.raises(ValueError):
        theta.logits[0] = 1.0
    with pytest.raises(ValueError):
        theta.probs[0] = 1.0
    source[0] = 9.0  # the caller's array stays its own
    assert theta.logits[0] == 0.5


def test_train_step_computes_softmax_once_per_step(monkeypatch, onevar_sketch, onevar_spec):
    # One softmax pass per step, over every categorical hole at once: a row per hole, of the largest arity,
    # each row that hole's logits and -inf past them, whose probabilities are that hole's own.
    calls = []
    softmax = dists.softmax
    monkeypatch.setattr(dists, "softmax", lambda logits: calls.append(logits.copy()) or softmax(logits))
    cfg = _config()
    state = sg.init_state(onevar_sketch, cfg)
    streams = sg.hole_streams(cfg.seed, onevar_sketch.hole_count)
    categorical = [i for i, h in enumerate(onevar_sketch.holes) if h.kind != "real"]
    plan = sg.compile_sketch(onevar_sketch, onevar_spec)
    for it in range(1, 6):
        calls.clear()
        logits = state.params
        state, _ = sg.train_step(plan, state, cfg, streams)
        assert len(calls) == 1 and calls[0].shape == (len(categorical), 4) == (3, 4)
        for row, hole in zip(calls[0], categorical):
            k = onevar_sketch.holes[hole].arity
            assert row[:k].tobytes() == logits[hole].tobytes() and (row[k:] == -np.inf).all()
            assert softmax(row)[:k].tobytes() == softmax(logits[hole]).tobytes()


def test_train_step_reaches_no_numpy_python_wrapper(onevar_sketch, onevar_spec):
    # At 50 candidates x 4 rows a training step is call overhead, so its reductions call the ufuncs and
    # array methods directly: `np.mean`, `x.std()`, `.all()` and the like run Python code in these two
    # numpy modules first, which costs more than the arithmetic at these sizes.
    try:
        from numpy._core import _methods, fromnumeric
    except ImportError:  # numpy 1.x
        from numpy.core import _methods, fromnumeric
    wrappers = {os.path.realpath(_methods.__file__), os.path.realpath(fromnumeric.__file__)}
    cfg = _config()
    plan = sg.compile_sketch(onevar_sketch, onevar_spec)
    state = sg.init_state(onevar_sketch, cfg)
    streams = sg.hole_streams(cfg.seed, onevar_sketch.hole_count)
    state, _ = sg.train_step(plan, state, cfg, streams)
    files = set()
    sys.setprofile(lambda frame, event, arg: files.add(frame.f_code.co_filename) if event == "call" else None)
    try:
        for _ in range(20):
            state, _ = sg.train_step(plan, state, cfg, streams)
    finally:
        sys.setprofile(None)
    assert os.path.realpath(engine.__file__) in set(map(os.path.realpath, files))
    assert not wrappers & set(map(os.path.realpath, files))


# ---------------------------------------------------------------------------
# full train loop


def test_train_is_bit_deterministic(onevar_sketch, onevar_spec):
    cfg = _config(iterations=60, seed=11)
    r1 = sg.train(onevar_sketch, onevar_spec, cfg)
    r2 = sg.train(onevar_sketch, onevar_spec, cfg)
    assert r1.records == r2.records
    assert sg.print_program(r1.best_program) == sg.print_program(r2.best_program)
    for a, b in zip(r1.thetas, r2.thetas):
        if isinstance(a, sg.GaussianTheta):
            assert a.mu == b.mu
        else:
            np.testing.assert_array_equal(a.logits, b.logits)


def test_train_restarts_after_patience_without_gain():
    # Every candidate ties, so the argmax loss never improves and the logits
    # stay at zero until the restart after iteration 1 + RESTART_PATIENCE
    # redraws them, before the next step.
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { if x [COND] 100.0 { return 1.0; } return 1.0; }")
    spec = sg.SpecSet.from_pairs([((1.0,), 1.0), ((2.0,), 3.0)])
    kept = sg.train(sketch, spec, _config(iterations=RESTART_PATIENCE + 1))
    assert (kept.thetas[0].logits == 0).all()
    restarted = sg.train(sketch, spec, _config(iterations=RESTART_PATIENCE + 2))
    assert (restarted.thetas[0].logits != 0).all()
    assert restarted.records[:-1] == kept.records
    assert restarted.best_loss == kept.best_loss
    assert kept.restarts == []
    assert restarted.restarts == [RESTART_PATIENCE + 1]


def _theta_bits(thetas) -> list[bytes]:
    return [
        t.logits.tobytes() if isinstance(t, sg.CategoricalTheta) else struct.pack("<dd", t.mu, t.sigma) for t in thetas
    ]


def test_train_on_step_sees_every_step_and_changes_nothing(onevar_sketch, onevar_spec):
    cfg = _config(iterations=60, seed=5)
    seen = []
    watched = sg.train(onevar_sketch, onevar_spec, cfg, on_step=lambda record, state: seen.append((record, state)))
    plain = sg.train(onevar_sketch, onevar_spec, cfg)
    assert [record for record, _ in seen] == watched.records == plain.records
    assert [record.iteration for record, _ in seen] == list(range(1, cfg.iterations + 1))
    for record, state in seen:
        thetas = state.thetas()
        assert isinstance(thetas, tuple)
        program = sg.argmax_program(onevar_sketch, thetas)
        assert record.argmax_loss == sg.eval_spec_loss(program, onevar_spec, cfg.penalty)
    assert _theta_bits(seen[-1][1].thetas()) == _theta_bits(watched.thetas) == _theta_bits(plain.thetas)
    assert _theta_bits(watched.best_thetas) == _theta_bits(plain.best_thetas)
    assert watched.best_loss == plain.best_loss
    assert sg.print_program(watched.best_program) == sg.print_program(plain.best_program)


def test_train_runs_on_step_under_the_callers_numpy_error_state(onevar_sketch, onevar_spec):
    # `train` ignores overflow in its steps, as `train_step` does, but sets that error state once per run; a
    # callback still sees the error state `train` was called under, and an overflow in it raises there.
    seen = []

    def watch(record, state):
        seen.append(np.geterr())
        np.exp(np.array([1000.0]))

    with np.errstate(over="warn", under="raise"):
        outer = np.geterr()
        with pytest.warns(RuntimeWarning, match="overflow"):
            sg.train(onevar_sketch, onevar_spec, _config(iterations=3), on_step=watch)
        assert np.geterr() == outer
    assert seen == [outer] * 3
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        sg.train(onevar_sketch, onevar_spec, _config(iterations=3), on_step=watch)


def _state_bits(state) -> tuple:
    moments = b"".join(m.tobytes() for m in state.moment_vectors)
    return state.vector.tobytes(), moments, state.step_count, state.iteration, struct.pack("<d", state.best_loss)


def _train_step_loop(sketch, spec, cfg) -> tuple[list, list, list]:
    """`train`'s schedule as a hand loop over `train_step` with the same restart rule: each (record, state) pair in
    iteration order, the restarts, and the iterations since the last gain before each record was counted."""
    plan = sg.compile_sketch(sketch, spec)
    state = sg.init_state(sketch, cfg)
    streams = sg.hole_streams(cfg.seed, sketch.hole_count)
    seen, restarts, stales = [], [], []
    low, stale = math.inf, 0
    for _ in range(cfg.iterations):
        if stale == engine.RESTART_PATIENCE:
            state = restart_state(sketch, state, cfg, streams)
            low, stale = math.inf, 0
            restarts.append(state.iteration)
        state, record = sg.train_step(plan, state, cfg, streams)
        seen.append((record, state))
        stales.append(stale)
        if record.argmax_loss < low * (1 - engine.RESTART_MIN_GAIN):
            low, stale = record.argmax_loss, 0
        else:
            stale += 1
    return seen, restarts, stales


@pytest.mark.parametrize("patience", [1, 2, 3, 5])
def test_train_scores_the_argmax_with_the_next_population_as_train_step_does_alone(
    monkeypatch, patience, onevar_sketch, onevar_spec, twovar_sketch, twovar_spec
):
    # `train` scores a stepped state's argmax as candidate n + 1 of the next step's scorer call, and alone only
    # after a state that a restart could follow (`stale` at patience - 1 when its record is counted) and after
    # the last one.  Every step's call has n + 1 candidates, the last one the argmax of the state it steps from,
    # so that the plan keeps the programs of one candidate count.  With a patience this short, restarts fall due
    # again and again, each right after an argmax scored alone, and the run lengths 1 to 24 end at every point
    # of that schedule.  Records, restarts, thetas and every (record, state) pair `on_step` sees are those of a
    # hand loop over `train_step`.
    monkeypatch.setattr(engine, "RESTART_PATIENCE", patience)
    scorer = engine.eval_population_losses
    for sketch, spec, optimizer in ((onevar_sketch, onevar_spec, "sgd"), (twovar_sketch, twovar_spec, "adam")):
        restarted = []
        for iterations in range(1, 25):
            cfg = _config(iterations=iterations, seed=iterations, population=20, optimizer=optimizer)
            calls, watched = [], []
            monkeypatch.setattr(engine, "eval_population_losses", lambda *a: calls.append(len(a[1][0])) or scorer(*a))
            result = sg.train(sketch, spec, cfg, on_step=lambda record, state: watched.append((record, state)))
            monkeypatch.setattr(engine, "eval_population_losses", scorer)
            seen, restarts, stales = _train_step_loop(sketch, spec, cfg)
            assert result.records == [record for record, _ in seen] == [record for record, _ in watched]
            assert result.restarts == restarts
            assert [_state_bits(state) for _, state in watched] == [_state_bits(state) for _, state in seen]
            assert _theta_bits(result.thetas) == _theta_bits(seen[-1][1].thetas())
            alone = 1 + sum(stale >= patience - 1 for stale in stales[:-1])
            assert calls.count(1) == alone
            assert calls.count(cfg.population + 1) == iterations == len(calls) - alone
            restarted += restarts
        assert len(restarted) >= 10


@pytest.mark.parametrize("patience", [37, 100])
def test_train_draws_in_blocks_that_end_before_a_restart_could_draw(
    monkeypatch, patience, onevar_sketch, onevar_spec, twovar_sketch, twovar_spec
):
    # `train` draws its populations a block of iterations at a time (`engine._blocks`), and a restart draws its
    # logits from the same streams, so a block must end before the first iteration at which a restart could fall
    # due.  In 300-iteration runs at these patiences, blocks span many iterations and restarts fall due inside
    # what a block would otherwise cover; at a population of 100 the cap of DRAW_CELLS draws per block, not the
    # restart distance, sets the block length (4 096 // (100 * 6) = 6 iterations).  Records, restarts, thetas
    # and every (record, state) pair `on_step` sees are those of a hand loop over `train_step`.
    monkeypatch.setattr(engine, "RESTART_PATIENCE", patience)
    draw = engine._draw
    restarted = 0
    cases = ((onevar_sketch, onevar_spec, "sgd", 10), (twovar_sketch, twovar_spec, "adam", 10))
    for sketch, spec, optimizer, population in (*cases, (onevar_sketch, onevar_spec, "sgd", 100)):
        cfg = _config(iterations=300, seed=1, population=population, optimizer=optimizer, learning_rate=0.5)
        blocks, watched = [], []
        monkeypatch.setattr(engine, "_draw", lambda *a: blocks.append(a[3]) or draw(*a))
        result = sg.train(sketch, spec, cfg, on_step=lambda record, state: watched.append((record, state)))
        monkeypatch.setattr(engine, "_draw", draw)
        seen, restarts, _ = _train_step_loop(sketch, spec, cfg)
        assert result.records == [record for record, _ in seen] == [record for record, _ in watched]
        assert result.restarts == restarts
        assert [_state_bits(state) for _, state in watched] == [_state_bits(state) for _, state in seen]
        assert _theta_bits(result.thetas) == _theta_bits(seen[-1][1].thetas())
        assert sum(blocks) == cfg.iterations
        cap = engine.DRAW_CELLS // (population * sketch.hole_count)
        assert max(blocks) == (cap if cap < patience else patience) and len(blocks) < cfg.iterations / 4
        restarted += len(restarts)
    assert restarted >= 3


def test_a_draw_block_holds_draw_cells_or_one_iteration(onevar_sketch):
    # A block holds at most DRAW_CELLS uniforms and normals, or one iteration's if they are more, so a population of
    # 10**5 draws one iteration per block, not as many as a restart allows: its arrays (uniforms, normals, the scaled
    # normals and one stream's draw in flight) stay under twice one iteration's cells.
    state = sg.init_state(onevar_sketch, _config())
    for population, iterations in ((50, 10**4), (10**5, 8)):
        blocks = engine._blocks(state.layout, population, sg.hole_streams(0, onevar_sketch.hole_count), iterations)
        next(blocks)
        tracemalloc.start()
        try:
            uniforms, _, _ = blocks.send(iterations)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = max(engine.DRAW_CELLS, population * onevar_sketch.hole_count)
        assert uniforms.shape == (3, population)
        assert peak < 2 * 8 * cells, (population, peak / (8 * cells))


def test_restart_thetas_redraws_from_the_hole_streams(onevar_sketch):
    cfg = _config(mu_init=1.5)
    thetas = list(sg.init_state(onevar_sketch, cfg).thetas())
    thetas[1] = sg.GaussianTheta(7.0, 0.5)
    state = sg.TrainState.from_thetas(onevar_sketch, thetas)
    fresh = restart_state(onevar_sketch, state, cfg, sg.hole_streams(3, onevar_sketch.hole_count)).thetas()
    again = restart_state(onevar_sketch, state, cfg, sg.hole_streams(3, onevar_sketch.hole_count)).thetas()
    for hole, a, b in zip(onevar_sketch.holes, fresh, again):
        if hole.kind == "real":
            assert (a.mu, a.sigma) == (b.mu, b.sigma) == (1.5, 0.5)
        else:
            assert a.arity == hole.arity
            np.testing.assert_array_equal(a.logits, b.logits)
            assert len(set(a.logits.tolist())) == a.arity


def test_train_best_so_far_is_monotone(onevar_sketch, onevar_spec):
    res = sg.train(onevar_sketch, onevar_spec, _config(iterations=120, seed=2))
    best = [r.best_so_far_loss for r in res.records]
    assert all(b1 >= b2 for b1, b2 in zip(best, best[1:]))
    assert [r.iteration for r in res.records] == list(range(1, 121))


def test_train_best_loss_matches_reevaluation(onevar_sketch, onevar_spec):
    res = sg.train(onevar_sketch, onevar_spec, _config(iterations=80, seed=7))
    assert res.best_loss == sg.eval_spec_loss(res.best_program, onevar_spec)
    assert res.final_loss == sg.eval_spec_loss(res.final_program, onevar_spec)
    assert res.best_loss == res.records[-1].best_so_far_loss
    assert sg.argmax_program(onevar_sketch, res.best_thetas) == res.best_program


def test_run_ends_on_its_last_trained_step(onevar_sketch, onevar_spec):
    # The patience of this run runs out on iteration 4158: a run of 4158 iterations ends on that step's
    # state, and one of 4159 restarts before its last step.
    last = sg.train(onevar_sketch, onevar_spec, _config(iterations=4158, seed=0))
    assert last.restarts == []
    assert last.final_loss == 0.028556710022490994
    assert last.final_program == sg.argmax_program(onevar_sketch, last.thetas)
    restarted = sg.train(onevar_sketch, onevar_spec, _config(iterations=4159, seed=0))
    assert restarted.restarts == [4158]
    assert restarted.records[:-1] == last.records
    for res in (last, restarted):
        assert res.final_loss == res.records[-1].argmax_loss == sg.eval_spec_loss(res.final_program, onevar_spec)
        assert res.best_loss == res.records[-1].best_so_far_loss


def test_train_rejects_bad_inputs(onevar_sketch, onevar_truth, twovar_spec, onevar_spec):
    with pytest.raises(sg.SpecError):
        sg.train(onevar_sketch, twovar_spec, _config())
    with pytest.raises(sg.SketchError):
        sg.train(onevar_truth, onevar_spec, _config())
    with pytest.raises(sg.ConfigError):
        _config(iterations=0)


def test_train_with_adam_runs(onevar_sketch, onevar_spec):
    res = sg.train(onevar_sketch, onevar_spec, _config(iterations=30, optimizer="adam"))
    assert len(res.records) == 30
    assert math.isfinite(res.best_loss)


def test_adam_step_direction_is_ascent():
    opt = make_optimizer(sg.TrainConfig(learning_rate=0.1, iterations=1, optimizer="adam"))
    params = (np.zeros(1), np.zeros(2))  # a vector of means, then a logit vector
    moments = tuple((np.zeros_like(p), np.zeros_like(p)) for p in params)
    out, _ = opt.step(params, (np.array([1.0]), np.array([0.5, -0.5])), moments, 1)
    assert out[0][0] > 0
    assert out[1][0] > 0 > out[1][1]


def test_hand_written_adam_loop_equals_train(onevar_sketch, onevar_spec):
    # The state carries Adam's moments from step to step, so a loop over
    # train_step needs nothing else to match train (no restart in 300 steps).
    cfg = _config(iterations=300, seed=4, optimizer="adam")
    state = sg.init_state(onevar_sketch, cfg)
    streams = sg.hole_streams(cfg.seed, onevar_sketch.hole_count)
    plan = sg.compile_sketch(onevar_sketch, onevar_spec)
    records = []
    for _ in range(cfg.iterations):
        state, record = sg.train_step(plan, state, cfg, streams)
        records.append(record)
    result = sg.train(onevar_sketch, onevar_spec, cfg)
    assert cfg.iterations < RESTART_PATIENCE and result.restarts == []
    assert records == result.records
    assert _theta_bits(state.thetas()) == _theta_bits(result.thetas)
    assert state.step_count == state.iteration == cfg.iterations


def test_restart_resets_adam_moments_and_step_count(onevar_sketch, onevar_spec):
    cfg = _config(optimizer="adam")
    streams = sg.hole_streams(cfg.seed, onevar_sketch.hole_count)
    state = sg.init_state(onevar_sketch, cfg)
    plan = sg.compile_sketch(onevar_sketch, onevar_spec)
    for _ in range(3):
        state, _ = sg.train_step(plan, state, cfg, streams)
    assert state.step_count == 3 and all(m.any() for pair in state.moments for m in pair)
    fresh = restart_state(onevar_sketch, state, cfg, streams)
    assert fresh.step_count == 0
    assert [m.shape for pair in fresh.moments for m in pair] == [m.shape for pair in state.moments for m in pair]
    assert not any(m.any() for pair in fresh.moments for m in pair)
    assert (fresh.iteration, fresh.best_loss) == (state.iteration, state.best_loss)
    # In train, the first step after a restart is Adam's first step again.
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { if x [COND] 100.0 { return 1.0; } return 1.0; }")
    spec = sg.SpecSet.from_pairs([((1.0,), 1.0), ((2.0,), 3.0)])
    counts = []
    watch = lambda record, state: counts.append(state.step_count)
    sg.train(sketch, spec, _config(iterations=RESTART_PATIENCE + 2, optimizer="adam"), on_step=watch)
    assert counts[-3:] == [RESTART_PATIENCE, RESTART_PATIENCE + 1, 1]


def test_train_builds_theta_objects_only_for_its_result(monkeypatch, onevar_sketch, onevar_spec):
    built = []
    for cls in (sg.CategoricalTheta, sg.GaussianTheta):
        counted = lambda self, post_init=cls.__post_init__: built.append(type(self)) or post_init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    for iterations in (5, 200):
        built.clear()
        result = sg.train(onevar_sketch, onevar_spec, _config(iterations=iterations))
        # One tuple each for `thetas` and `best_thetas`: 3 categorical and 3 real holes.
        assert built.count(sg.CategoricalTheta) == built.count(sg.GaussianTheta) == 6
        assert len(result.thetas) == len(result.best_thetas) == 6


# A train iteration on a spec of a million rows, in a fresh process so that ru_maxrss is its own.
_LARGE_SPEC_RUN = """
import resource, sys
import numpy as np
import sketchgrad as sg

rng = np.random.default_rng(0)
x1, x2 = rng.uniform(1.0, 10.0, (2, 10**6))
spec = sg.SpecSet(np.column_stack([x1, x2]), np.where(x1 > x2, 2.0 * x1 + x2, 2.0 / x2 - x1))
sketch = sg.parse_sketch(sys.argv[1])
config = sg.TrainConfig(learning_rate=0.0995, iterations=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
result = sg.train(sketch, spec, config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, result.records[-1].mean_population_loss)
"""


def test_a_train_iteration_on_a_million_rows_holds_row_chunks_not_the_population(twovar_sketch):
    # 50 candidates x 10**6 rows is 400 MB per intermediate array; scored in row chunks, the peak
    # resident set grows by a few MB across `train`.
    src = str(Path(sg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = [sys.executable, "-c", _LARGE_SPEC_RUN, sg.print_program(twovar_sketch)]
    proc = subprocess.run(code, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    growth_kb, mean_loss = proc.stdout.split()
    assert int(growth_kb) < 256 * 1024
    assert math.isfinite(float(mean_loss))


# ---------------------------------------------------------------------------
# enumeration oracle


def test_enumerate_counts_and_rank(onevar_sketch, onevar_spec):
    ranked = sg.enumerate_discrete(onevar_sketch, [3.5, 4.2, 2.1], onevar_spec)
    assert len(ranked) == 48  # 3 * 4 * 4
    top_assignment, top_loss = ranked[0]
    assert top_loss == 0.0
    # Ground-truth token pattern: '>', '*', '*'
    assert top_assignment.values[0] == 1
    assert top_assignment.values[3] == 2 and top_assignment.values[4] == 2
    assert all(a <= b for (_, a), (_, b) in zip(ranked, ranked[1:]))


def test_enumerate_zero_categorical_holes():
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { return [Real] * x; }")
    spec = sg.SpecSet.from_pairs([((2.0,), 5.0)])
    ranked = sg.enumerate_discrete(sketch, [2.5, ], spec)
    assert len(ranked) == 1
    assert ranked[0][1] == 0.0


def test_enumerate_cap(onevar_sketch, onevar_spec):
    with pytest.raises(sg.EnumerationError):
        sg.enumerate_discrete(onevar_sketch, [1.0, 1.0, 1.0], onevar_spec, cap=10)
    # The cap is an integer that is not a bool, else a ConfigError, as for the penalty beside it.
    for cap, message in (("x", "cap must be an integer, got 'x'"), (True, "cap must be an integer, got True")):
        with pytest.raises(sg.ConfigError, match=f"^{re.escape(message)}$"):
            sg.enumerate_discrete(onevar_sketch, [1.0, 1.0, 1.0], onevar_spec, cap=cap)


def test_enumerate_real_count_mismatch(onevar_sketch, onevar_spec):
    with pytest.raises(sg.SketchError):
        sg.enumerate_discrete(onevar_sketch, [1.0], onevar_spec)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, float("1e400")])
def test_enumerate_rejects_a_non_finite_real_naming_its_hole(onevar_sketch, onevar_spec, bad):
    # The onevar sketch's [Real] holes are holes 1, 2 and 5.
    with pytest.raises(sg.SketchError, match=r"^hole 2: \[Real\] value must be finite, got -?(nan|inf)$"):
        sg.enumerate_discrete(onevar_sketch, [3.5, bad, 2.1], onevar_spec)


@pytest.mark.parametrize(
    "bad, message",
    [
        (True, "hole 2: [Real] value must be a number, got True"),
        ("a", "hole 2: [Real] value must be a number, got 'a'"),
        (None, "hole 2: [Real] value must be a number, got None"),
        (10**400, "hole 2: [Real] value is past the float range"),
        (-(10**400), "hole 2: [Real] value is past the float range"),
    ],
    ids=["bool", "str", "None", "10**400", "-10**400"],
)
def test_enumerate_takes_a_real_by_the_train_config_rule(onevar_sketch, onevar_spec, bad, message):
    # As a TrainConfig float field: a real number that is not a bool, and an integer past the float range is
    # not finite.  A bool was read as 1.0, and the others ended in a bare ValueError, TypeError or OverflowError.
    with pytest.raises(sg.SketchError, match=f"^{re.escape(message)}$"):
        sg.enumerate_discrete(onevar_sketch, [3.5, bad, 2.1], onevar_spec)
    with pytest.raises(sg.ConfigError):
        _config(mu_init=bad)
    pinned = [np.float32(3.5), 4, fractions.Fraction(21, 10)]  # numbers.Real, each read as a float
    ranked = sg.enumerate_discrete(onevar_sketch, pinned, onevar_spec)
    floats = sg.enumerate_discrete(onevar_sketch, [3.5, 4.0, 2.1], onevar_spec)
    assert ranked.choices == floats.choices
    assert ranked.order.tobytes() == floats.order.tobytes() and ranked.losses.tobytes() == floats.losses.tobytes()
    assert [type(ranked[0][0].values[i]) for i in (1, 2, 5)] == [float] * 3  # the [Real] holes


@pytest.mark.parametrize(
    "penalty, message",
    [
        (-5.0, "penalty must be positive, got -5.0"),
        (0.0, "penalty must be positive, got 0.0"),
        (math.nan, "penalty must be finite, got nan"),
        (math.inf, "penalty must be finite, got inf"),
        ("1e3", "penalty must be a number, got '1e3'"),
    ],
)
def test_enumerate_rejects_a_penalty_as_train_config_does(penalty, message):
    # With the real pinned to 0.0, `x / 0.0` is the one program the penalty scores.  A negative penalty
    # would rank it above the exact fits, and a NaN one would put a NaN in the ranking.
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { return x [OP] [Real]; }")
    spec = sg.SpecSet.from_pairs([((1.0,), 1.0), ((2.0,), 2.0)])
    with pytest.raises(sg.ConfigError, match=f"^{re.escape(message)}$"):
        sg.enumerate_discrete(sketch, [0.0], spec, penalty=penalty)
    with pytest.raises(sg.ConfigError, match=f"^{re.escape(message)}$"):
        _config(penalty=penalty)
    ranked = sg.enumerate_discrete(sketch, [0.0], spec, penalty=5)
    assert [(a.values[0], loss) for a, loss in ranked] == [(0, 0.0), (1, 0.0), (2, 2.5), (3, 5.0)]


def test_enumerate_tie_order_is_lexicographic():
    # Guard always false regardless of token: then-branch never runs, every
    # cond token ties; ties must come out in index order.
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { if 2.0 [COND] 1.0 { return x; } return x; }")
    spec = sg.SpecSet.from_pairs([((1.0,), 1.0)])
    ranked = sg.enumerate_discrete(sketch, [], spec)
    losses = [l for _, l in ranked]
    assert losses == [0.0, 0.0, 0.0]  # every branch returns x
    assert [a.values[0] for a, _ in ranked] == [0, 1, 2]


def test_enumerate_ranking_crosses_chunks_and_matches_scalar_reference():
    # Enough rows that each scorer call holds three programs, so the twelve
    # programs span four chunks.  The guard never fires for `==` or `<`, so
    # those eight programs tie at the else branch's loss across chunks.
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { if x [COND] 0.5 { return x [OP] 2.0; } return x * [Real]; }")
    rows = CHUNK_CELLS // 3
    spec = sg.SpecSet.from_pairs(((1.0 + k / 1e6,), 1.0 + k / 1e6 + 2.0) for k in range(rows))
    reals = [3.0]
    ranked = sg.enumerate_discrete(sketch, reals, spec)
    reference = []
    for combo in itertools.product(range(3), range(4)):
        assignment = sg.Assignment((*combo, reals[0]))
        reference.append((combo, assignment, sg.eval_spec_loss(sg.instantiate(sketch, assignment), spec)))
    reference.sort(key=lambda item: (item[2], item[0]))
    assert [(a.values, loss) for a, loss in ranked] == [(a.values, loss) for _, a, loss in reference]
    assert ranked[0][0].values == (1, 0, 3.0) and ranked[0][1] == 0.0
    assert [a.values[:2] for a, _ in ranked[1:9]] == [(0, 0), (0, 1), (0, 2), (0, 3), (2, 0), (2, 1), (2, 2), (2, 3)]
    for assignment, loss in ranked:
        c, o, r = assignment.values
        assert type(c) is int and type(o) is int and r is reals[0] and type(loss) is float


def test_ranking_reads_like_a_list_of_its_pairs(onevar_sketch, onevar_spec):
    reals = [3.5, 4.2, 2.1]
    ranked = sg.enumerate_discrete(onevar_sketch, reals, onevar_spec)
    pairs = [ranked[i] for i in range(len(ranked))]
    assert len(ranked) == len(pairs) == 48
    assert [ranked[i] for i in range(-48, 0)] == pairs
    for i in (48, -49, 10**6):
        with pytest.raises(IndexError):
            ranked[i]
    for index in (slice(None), slice(3, 40, 5), slice(None, None, -1), slice(40, 2, -7), slice(50, 60)):
        assert ranked[index] == pairs[index]
    assert ranked[np.int64(5)] == pairs[5]
    assert list(ranked) == pairs and list(ranked) == pairs
    assert ranked.losses.tolist() == [loss for _, loss in pairs]
    assert sorted(ranked.order.tolist()) == list(range(48))
    for a, loss in [ranked[0], *ranked[1::9]]:
        c, r1, r2, o1, o2, r3 = a.values
        assert type(c) is int and type(o1) is int and type(o2) is int and type(loss) is float
        assert r1 is reals[0] and r2 is reals[1] and r3 is reals[2]
    for array in (ranked.order, ranked.losses):
        with pytest.raises(ValueError):
            array[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        ranked.order = ranked.order[::-1]


def test_reading_a_ranking_builds_only_the_pairs_read(twovar_sketch, twovar_spec, monkeypatch):
    built = []

    def counting(values):
        built.append(values)
        return sg.Assignment(values)

    monkeypatch.setattr(engine, "Assignment", counting)
    ranked = sg.enumerate_discrete(twovar_sketch, [2.0, 2.0], twovar_spec)
    assert len(ranked) == 768 and built == []
    top = ranked[:3]
    assert len(top) == 3 and len(built) <= 3
    ranked[-1]
    assert len(built) <= 4
    built.clear()
    assert list(ranked) == list(ranked) and len(built) == 2 * 768  # each full pass builds every pair, and keeps none


def test_a_ranking_equals_only_itself_and_hashes_by_identity(onevar_sketch, onevar_spec):
    # A generated __eq__ would compare the arrays and raise on their truth value, and a generated __hash__ would
    # hash them; a ranking is compared by its arrays, as `order` and `losses`.
    reals = [3.5, 4.2, 2.1]
    ranked = sg.enumerate_discrete(onevar_sketch, reals, onevar_spec)
    again = sg.enumerate_discrete(onevar_sketch, reals, onevar_spec)
    assert ranked == ranked and not ranked != ranked
    assert ranked != again and ranked != list(ranked) and ranked != tuple(ranked) and ranked != 48
    assert hash(ranked) == hash(ranked) and {ranked: 1, again: 2}[ranked] == 1
    assert ranked.order.tobytes() == again.order.tobytes() and ranked.losses.tobytes() == again.losses.tobytes()


def test_discrete_only_training_matches_enumeration_oracle(onevar_spec):
    # Reals pinned as literals leaves a purely discrete 48-program space;
    # the trained argmax pattern must attain the enumeration oracle's
    # rank-1 loss (equivalence by loss, not by identity).
    sketch = sg.parse_sketch(
        "fn synth_prog(x: f32) -> f32\n"
        "{\n"
        "    if x [COND] 3.5\n"
        "    {\n"
        "        return 4.2 [OP] x;\n"
        "    }\n"
        "\n"
        "    return x [OP] 2.1;\n"
        "}\n"
    )
    ranked = sg.enumerate_discrete(sketch, [], onevar_spec)
    assert len(ranked) == 48
    for seed in range(3):
        cfg = _config(iterations=800, seed=seed)
        res = sg.train(sketch, onevar_spec, cfg)
        assert res.final_loss == ranked[0][1] == 0.0


def _reference_ranking(sketch, reals, spec, penalty=sg.NONFINITE_PENALTY):
    """The ranking's arrays from the scalar interpreter: every combination in lexicographic order, scored by
    `eval_spec_loss` and sorted by (loss, flat index)."""
    pinned = iter(reals)
    choices = [range(h.arity) if h.tokens else (next(pinned),) for h in sketch.holes]
    losses = [
        sg.eval_spec_loss(sg.instantiate(sketch, sg.Assignment(combo)), spec, penalty)
        for combo in itertools.product(*choices)
    ]
    order = sorted(range(len(losses)), key=lambda i: (losses[i], i))
    return np.array(order, dtype=np.intp), np.array([losses[i] for i in order], dtype=np.float64)


# Sketch, pinned reals and spec rows (one input each, or a tuple of inputs) for the enumeration differential
# below.
_EDGE_CASES = {
    # [Real] holes between categorical ones, so length-1 axes sit between the token axes.
    "pinned reals between categorical holes": (
        "fn f(x: f32) -> f32 { if x [COND] [Real] { return [Real] [OP] x [OP] [Real]; } return x [OP] [Real] [OP] x; }",
        [2.5, 1.5, 3.0, 0.5],
        [0.5, 2.5, 3.0, 4.0, 7.25],
    ),
    "zero categorical holes": ("fn f(x: f32) -> f32 { return [Real] * x + [Real]; }", [2.0, -1.0], [1.0, 2.0, 3.0]),
    "no holes": ("fn f(x: f32) -> f32 { return x * 2.0; }", [], [1.0, 2.0, 3.5]),
    # Division by a zero real, and 0 / 0 on the row x = 0: most programs tie at the penalty.
    "penalty ties from /": (
        "fn f(x: f32) -> f32 { return x [OP] [Real] [OP] x [OP] [Real]; }",
        [0.0, 0.0],
        [0.0, 1.0, 2.0],
    ),
    # The mask varies by row and by token; two rows make `==` fire.
    "a [COND] comparing two inputs": (
        "fn f(x: f32, z: f32) -> f32 { if x [COND] z { return x [OP] z; } return z [OP] x [OP] [Real]; }",
        [1.5],
        [(1.0, 2.0), (2.0, 2.0), (3.0, 1.0), (0.5, 0.5), (4.0, -1.0)],
    ),
    # The mask is one truth value per row, and x = 2.0 ties the threshold.
    "a fixed comparison token over [OP] branches": (
        "fn f(x: f32) -> f32 { if x > [Real] { return [Real] [OP] x; } return x [OP] [Real] [OP] 2.0; }",
        [2.0, 1.5, 0.5],
        [0.5, 2.0, 3.0, 4.0],
    ),
    # Literals on both sides of an [OP], a step that reads no row, and a division by the literal 0.0.
    "a chain with a literal": (
        "fn f(x: f32) -> f32 { if x [COND] 1.0 { return 2.5 [OP] [Real]; } return x [OP] 0.0 [OP] [Real]; }",
        [3.0, -2.0],
        [0.0, 1.0, 2.0],
    ),
}


def _cells_per_row(sketch) -> int:
    """The most cells per spec row of any value the product walk makes: a chain's last value varies by each
    of its [OP] holes, and a [COND] mask by its tokens."""
    chains = [sketch.ret] + ([sketch.guard.body] if sketch.guard else [])
    cells = [math.prod(op.arity for op in chain.ops if not isinstance(op, str)) for chain in chains]
    if sketch.guard and isinstance(sketch.guard.cmp, sg.CondHole):
        cells.append(sketch.guard.cmp.arity)
    return max(cells)


@pytest.mark.parametrize("case", sorted(_EDGE_CASES))
@pytest.mark.parametrize("chunks", ["one row per chunk", "a boundary inside the spec", "the whole spec"])
def test_enumeration_edge_cases_match_the_scalar_reference_bit_for_bit(monkeypatch, case, chunks):
    text, reals, xs = _EDGE_CASES[case]
    sketch = sg.parse_sketch(text)
    inputs = [x if isinstance(x, tuple) else (x,) for x in xs]
    spec = sg.SpecSet.from_pairs((x, 3.0 * x[0] - 1.0) for x in inputs)
    space = math.prod(h.arity or 1 for h in sketch.holes)
    # The walk scores max(1, CHUNK_CELLS // cells) rows per chunk, where `cells` is the most cells per row of
    # any value: one row per chunk (CHUNK_CELLS 1); two rows, so that each spec of three or more rows has a
    # chunk boundary inside it; every row.
    cells_per_chunk = {"one row per chunk": 1, "a boundary inside the spec": 2 * _cells_per_row(sketch)}
    monkeypatch.setattr(interp, "CHUNK_CELLS", cells_per_chunk.get(chunks, 10 * space * len(xs)))
    sliced = []
    compile_sketch = engine.compile_sketch

    def recording(sketch, spec):  # each chunk reads its outputs as one slice
        plan = compile_sketch(sketch, spec)

        class Outputs(np.ndarray):
            def __getitem__(self, key):
                sliced.append(key)
                return np.asarray(plan.outputs)[key]

        return dataclasses.replace(plan, outputs=plan.outputs.view(Outputs))

    monkeypatch.setattr(engine, "compile_sketch", recording)
    penalty = 1e6
    ranked = sg.enumerate_discrete(sketch, reals, spec, penalty=penalty)
    order, losses = _reference_ranking(sketch, reals, spec, penalty)
    assert ranked.order.tobytes() == order.tobytes()
    assert ranked.losses.tobytes() == losses.tobytes()
    expected = {"one row per chunk": range(len(xs)), "a boundary inside the spec": range(0, len(xs), 2)}
    assert [key.start for key in sliced] == list(expected.get(chunks, [0]))
    if case == "penalty ties from /":
        assert np.count_nonzero(losses == penalty) > space // 2


# Differential check of the product walk over generated sketches, as the scorer's in test_interp.py: every
# ranking equals the scalar reference's bit for bit, in one chunk of rows, in chunks of one row (CHUNK_CELLS
# 1) and in chunks of 7 // cells rows.  The pinned reals are drawn as the scorer's reals are there.


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_the_scalar_reference_on_generated_sketches(data):
    _check_enumeration_matches_the_scalar_reference(data, sketch_texts())


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_the_scalar_reference_on_guarded_sketches(data):
    _check_enumeration_matches_the_scalar_reference(data, sketch_texts(guard=st.just("[COND]")))


def _check_enumeration_matches_the_scalar_reference(data, texts):
    sketch = sg.parse_sketch(data.draw(texts))
    assume(math.prod(h.arity or 1 for h in sketch.holes) <= 256)
    literals = st.sampled_from(_literals(sketch) or [0.0])
    inputs = st.one_of(_moderate, _moderate, _small, literals)
    rows = data.draw(st.integers(1, 40))
    spec = sg.SpecSet.from_pairs(
        (tuple(data.draw(inputs) for _ in sketch.params), data.draw(_moderate)) for _ in range(rows)
    )
    ties = st.sampled_from([v for vec in spec.inputs.tolist() for v in vec])
    reals = st.one_of(_moderate, _moderate, _small, ties, literals, _overflowing, _finite)
    pinned = [data.draw(reals) for hole in sketch.holes if hole.tokens is None]
    order, losses = _reference_ranking(sketch, pinned, spec)
    for chunk_cells in (interp.CHUNK_CELLS, 1, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(interp, "CHUNK_CELLS", chunk_cells)
            ranked = sg.enumerate_discrete(sketch, pinned, spec)
        assert ranked.order.tobytes() == order.tobytes(), chunk_cells
        assert ranked.losses.tobytes() == losses.tobytes(), chunk_cells
    assert np.isfinite(ranked.losses).all() and not np.signbit(ranked.losses).any()  # what `_rank` is given


def _ulps(start: float, *steps: int) -> np.ndarray:
    """The floats `steps` ulps above `start`, in that order."""
    return (np.float64(start).view(np.int64) + np.array(steps)).view(np.float64)


def test_rank_is_a_stable_argsort():
    # Losses that share their high bits but differ in the low ones, in both index orders, make the key sort's
    # order need its stable fix; runs of ties, zeros and lengths around a power of two check the index bits.
    rng = np.random.default_rng(0)
    base = np.repeat(rng.random(64) * 10.0**rng.integers(-3, 12, 64), 9)
    near = (base.view(np.int64) + rng.integers(-8, 8, base.size)).view(np.float64)  # a few ulps apart
    cases = [np.array([2.0]), np.zeros(5), np.full(7, 1e12), base, near, np.concatenate([near, base, [0.0] * 3])]
    cases += [rng.permutation(near)[:n] for n in (255, 256, 257)]
    # Past 2**16 losses the low bits are kept in a wider column.
    wide = np.repeat(rng.random(4097), 16)[: 2**16 + 1]
    cases.append((wide.view(np.int64) + rng.integers(-(2**17), 2**17, wide.size)).view(np.float64))
    # Eight losses hold their flat index in 3 low bits, and 1.5's low bits are zero, so 1.5 + 8 ulps is the next
    # group: the two inverted groups touch, the first one's stop being the second one's start.
    cases.append(np.concatenate([_ulps(1.5, 6, 2, 8 + 5, 8 + 1), [4.0, 3.0, 7.0, 5.0]]))
    # Inverted groups at the first and the last ranked positions, and a group of 6 in reverse low-bit order.
    cases.append(np.concatenate([_ulps(0.25, 3, 1), [1.0, 2.0, 1.0], _ulps(1e12, 1, 0, 1), [0.5]]))
    cases.append(np.concatenate([[9.0], _ulps(3.0, 6, 5, 4, 3, 2, 1), [8.0]]))
    # Penalties among ties and near ties.
    cases.append(np.where(rng.random(near.size) < 0.3, 1e12, rng.permutation(np.concatenate([near[:300], base[:276]]))))
    for losses in cases:
        expected = np.argsort(losses, kind="stable")
        given = losses.copy()
        order, ranked = engine._rank(given)
        assert np.shares_memory(ranked, given)  # ranked in the buffer it was given
        assert order.tobytes() == expected.tobytes()
        assert ranked.tobytes() == losses[expected].tobytes()


ORACLE_SKETCH = """\
fn oracle_prog(x1: f32, x2: f32) -> f32
{
    if x1 [COND] x2
    {
        return [Real] [OP] x1 [OP] x2 [OP] x1;
    }

    return [Real] [OP] x2 [OP] x1 [OP] x2 [OP] [Real];
}
"""


def test_enumerating_the_oracle_sketch_walks_the_product_once(monkeypatch):
    # 11 holes: [COND], [Real], 3 x [OP], [Real], 4 x [OP], [Real]; 3 * 4**7 = 49 152 programs, scored by one
    # walk over the plan through engine's name for it, and by no call of the population scorer.
    sketch = sg.parse_sketch(ORACLE_SKETCH)
    spec = sg.SpecSet.from_pairs([((5.0, 2.0), 9.5), ((6.0, 1.5), 11.0), ((1.0, 4.0), 0.5), ((2.5, 3.0), 1.25)])
    calls, walks = [], []
    walk = engine.eval_product_losses

    def counted(plan, reals, penalty):
        walks.append(([h.arity or 1 for h in plan.holes], reals))
        return walk(plan, reals, penalty)

    monkeypatch.setattr(engine, "eval_population_losses", lambda *args: calls.append(args))
    monkeypatch.setattr(engine, "eval_product_losses", counted)
    ranked = sg.enumerate_discrete(sketch, [1.5, 2.5, 0.5], spec)
    assert len(ranked) == 3 * 4**7
    assert calls == []
    assert walks == [([3, 1, 4, 4, 4, 1, 4, 4, 4, 4, 1], [1.5, 2.5, 0.5])]


def _oracle_jobs(seed: int, count: int):
    """Random truths for ORACLE_SKETCH and 4 spec rows each, two on each side of the guard, built as the
    benchmark's enumeration workload builds them: the reals, the truth's hole values and the rows."""

    def apply(op, a, b):
        return (a + b, a - b, a * b, a / b)[op]  # inputs >= 1 and reals >= 0.5: no division by zero

    rng = random.Random(seed)
    for _ in range(count):
        reals = [round(rng.uniform(0.5, 5.0), 3) for _ in range(3)]
        ops = [rng.randrange(4) for _ in range(7)]
        cond = rng.choice((1, 2))
        pairs = []
        for above in (True, True, False, False):
            a, b = rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0)
            while a == b:
                b = rng.uniform(1.0, 10.0)
            pairs.append((max(a, b), min(a, b)) if above else (min(a, b), max(a, b)))
        rng.shuffle(pairs)
        rows = []
        for x1, x2 in pairs:
            if (x1 > x2) if cond == 1 else (x1 < x2):
                y = apply(ops[2], apply(ops[1], apply(ops[0], reals[0], x1), x2), x1)
            else:
                y = apply(ops[6], apply(ops[5], apply(ops[4], apply(ops[3], reals[1], x2), x1), x2), reals[2])
            rows.append(((x1, x2), y))
        yield reals, sg.SpecSet.from_pairs(rows)


def test_ranking_an_oracle_enumeration_is_a_stable_argsort():
    # Over the whole product of the benchmark's enumeration sketch, the ranking is a stable argsort of the walk's
    # losses, and every job has losses that tie in their high bits out of order, so the stable fix runs.
    sketch = sg.parse_sketch(ORACLE_SKETCH)
    for reals, spec in _oracle_jobs(seed=7, count=12):
        losses = interp.eval_product_losses(interp.compile_sketch(sketch, spec), reals, sg.NONFINITE_PENALTY)
        expected = np.argsort(losses, kind="stable")
        low = (1 << (losses.size - 1).bit_length()) - 1
        keyed = np.sort(losses.view(np.int64) & ~low | np.arange(losses.size)) & low  # by high bits, then index
        assert np.count_nonzero(losses[keyed][1:] < losses[keyed][:-1]) >= 1
        ranked = sg.enumerate_discrete(sketch, reals, spec)
        assert ranked.order.tobytes() == expected.tobytes()
        assert ranked.losses.tobytes() == losses[expected].tobytes()


def test_ranking_allocates_one_array_of_the_products_size():
    # `_rank` sorts in the walk's buffer and adds the order, an int64 array of the product's size, and a narrow
    # column of low bits; with the walk's total that bounds the peak of a 4-row enumeration.
    sketch = sg.parse_sketch(ORACLE_SKETCH)
    reals, spec = next(_oracle_jobs(seed=11, count=1))
    losses = interp.eval_product_losses(interp.compile_sketch(sketch, spec), reals, sg.NONFINITE_PENALTY)
    size = 8 * losses.size
    peaks = []
    for call in (lambda: engine._rank(losses), lambda: sg.enumerate_discrete(sketch, reals, spec)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 2 * size, peaks[0] / size
    assert peaks[1] < 3 * size, peaks[1] / size


def test_engine_reads_no_field_of_a_plan():
    # interp alone knows a plan's format: engine passes plans to interp's two walks and reads none of their
    # fields, the guard's select function or the chunk size, and of interp's private names imports only
    # `_read_only`.
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    read = [n.attr for n in nodes if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "plan"]
    assert read == []
    names = {n.id for n in nodes if isinstance(n, ast.Name)} | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    names |= {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
    assert names.isdisjoint({"_select", "CHUNK_CELLS"})
    imported = [a.name for n in nodes if isinstance(n, ast.ImportFrom) and n.module == "interp" for a in n.names]
    assert [name for name in imported if name.startswith("_")] == ["_read_only"]


@pytest.mark.parametrize(
    "text, reals, rows",
    [(TWOVAR_SKETCH, [2.0, 2.0], 5_000), (ORACLE_SKETCH, [1.5, 2.5, 0.5], 2_000)],
    ids=["two-input sketch", "oracle sketch"],
)
def test_a_wide_enumeration_holds_row_chunks_and_the_product(text, reals, rows):
    # The walk holds the product-shaped total and, per chunk of rows, arrays of at most CHUNK_CELLS cells; the
    # ranking adds its arrays of the product's size.  768 programs fit in CHUNK_CELLS cells, 49 152 do not.
    sketch = sg.parse_sketch(text)
    x = np.random.default_rng(0).uniform(1.0, 10.0, (rows, 2))
    spec = sg.SpecSet(x, np.where(x[:, 0] > x[:, 1], 2.0 * x[:, 0] + x[:, 1], 2.0 / x[:, 1] - x[:, 0]))
    space = math.prod(h.arity or 1 for h in sketch.holes)
    tracemalloc.start()
    try:
        ranked = sg.enumerate_discrete(sketch, reals, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ranked) == space
    held = 10 * 8 * max(interp.CHUNK_CELLS, space)
    # The ranking sorts in the walk's total and adds the order and a narrower column of low bits (see
    # test_ranking_allocates_one_array_of_the_products_size, which bounds `_rank` alone).
    ranking = 2 * 8 * space
    assert peak < held + ranking + spec.inputs.nbytes, (peak, held, ranking)  # the plan copies the inputs


def test_loss_spikes_detector():
    base = [1.0] * 3000
    base[2100] = 10.0  # 10x the local median
    spikes = sg.loss_spikes(base, start=1000)
    assert spikes == [2101]
    assert sg.loss_spikes([1.0] * 3000, start=1000) == []
    assert sg.loss_spikes(base, start=10**400) == []  # past every iteration, and past what numpy can slice by


def test_loss_spikes_sees_the_last_half_window():
    base = [1.0] * 3000
    base[2980] = 10.0  # 20 iterations from the end: its window is cut short
    assert sg.loss_spikes(base, window=101, start=1000) == [2981]
    base[-1] = 5.0
    assert sg.loss_spikes(base, window=101, start=1000) == [2981, 3000]


def _slice_spikes(x, window, factor, start):
    half = window // 2
    return [t + 1 for t in range(start, len(x)) if x[t] > factor * np.median(x[max(0, t - half) : t + half + 1])]


def test_loss_spikes_match_a_median_per_slice():
    rng = np.random.default_rng(3)
    for n, window, start in [(0, 101, 0), (40, 101, 0), (101, 101, 0), (102, 101, 5), (1500, 100, 200), (9000, 7, 0)]:
        x = np.round(rng.lognormal(0.0, 1.0, n), 1)  # rounding makes ties
        assert sg.loss_spikes(x, window, 2.0, start) == _slice_spikes(x, window, 2.0, start)


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(window=0), "window must be at least 1, got 0"),
        (dict(window=-3), "window must be at least 1, got -3"),
        (dict(start=-1), "start must be non-negative, got -1"),
        (dict(window=1.5), "window must be an integer, got 1.5"),
        (dict(start=2.5), "start must be an integer, got 2.5"),
        (dict(factor="a"), "factor must be a number, got 'a'"),
        (dict(window=True), "window must be an integer, got True"),
        (dict(start=True), "start must be an integer, got True"),
    ],
)
def test_loss_spikes_rejects_bad_arguments(kw, message):
    with pytest.raises(ValueError) as err:
        sg.loss_spikes([1.0] * 10 + [9.0], **{"window": 3, "factor": 1.0, "start": 0, **kw})
    assert str(err.value) == message


def test_config_bounds_the_population():
    # Checked before anything is drawn: a population of 10**30 would end in numpy's "Maximum allowed
    # dimension exceeded", and one of 10**9 would allocate gigabytes per iteration.
    assert _config(population=engine.MAX_CANDIDATES).population == engine.MAX_CANDIDATES
    for population in (engine.MAX_CANDIDATES + 1, 10**30):
        message = f"population must be at most {engine.MAX_CANDIDATES}, got {population}"
        with pytest.raises(sg.ConfigError, match=f"^{message}$"):
            _config(population=population)


def test_config_is_frozen_and_replace_checks_again():
    cfg = _config(iterations=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.iterations = 10_000
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.population = 1
    assert dataclasses.replace(cfg, seed=7).seed == 7
    with pytest.raises(sg.ConfigError, match="iterations must be an integer"):
        dataclasses.replace(cfg, iterations=1e4)
    with pytest.raises(sg.ConfigError, match="population must be at least 2"):
        dataclasses.replace(cfg, population=1)


def test_enumerate_a_program_with_no_holes_ranks_the_one_program(onevar_truth, onevar_spec):
    ranked = sg.enumerate_discrete(onevar_truth, [], onevar_spec)
    assert list(ranked) == [(sg.Assignment(()), sg.eval_spec_loss(onevar_truth, onevar_spec))]
    assert len(ranked) == 1 and ranked[-1] == ranked[0] and ranked[1:] == []
    assert ranked.order.tolist() == [0] and ranked.losses.tolist() == [ranked[0][1]]
    with pytest.raises(IndexError):
        ranked[1]


def _run_bytes(result) -> bytes:
    """A training run's records, final and best thetas and restarts as little-endian float64 bytes."""
    records = [(r.iteration, r.mean_population_loss, r.argmax_loss, r.best_so_far_loss) for r in result.records]
    thetas = (*result.thetas, *result.best_thetas)
    parts = [records, *(t.logits if isinstance(t, sg.CategoricalTheta) else (t.mu, t.sigma) for t in thetas)]
    parts.append(result.restarts)
    return b"".join(np.asarray(part, dtype="<f8").tobytes() for part in parts)


# Recorded with numpy 2.4.6; a numpy that rounds differently changes them.
RESULTS_SHA256 = "97ad06af2c2fa3c09dd11c7fdd4d70f60e98fc6f521e2c6ce2fb8e4510a292a9"
SOFTMAX_GRAD_SHA256 = "55e9b6f9a6105b226e308388b0739f876c3c4ad19ce8c370de24a2ae74c84b02"


def test_results_are_pinned_across_commits(onevar_sketch, onevar_spec, twovar_sketch, twovar_spec):
    # One SGD run of the one-input sketch, one Adam run of the two-input sketch that restarts, and one
    # enumeration ranking, digested bit for bit: a refactor that moves any of them by one ulp fails here.
    sgd = sg.train(onevar_sketch, onevar_spec, _config(learning_rate=0.1, iterations=3000, seed=0))
    adam = sg.train(twovar_sketch, twovar_spec, _config(learning_rate=0.05, iterations=3000, seed=0, optimizer="adam"))
    assert adam.restarts != []
    ranked = sg.enumerate_discrete(twovar_sketch, [2.0, 2.0], twovar_spec)
    digest = hashlib.sha256(_run_bytes(sgd) + _run_bytes(adam))
    digest.update(np.asarray([(*a.values, loss) for a, loss in ranked], dtype="<f8").tobytes())
    assert digest.hexdigest() == RESULTS_SHA256


def test_softmax_grad_results_are_pinned_across_commits(onevar_sketch, onevar_spec):
    # The digest above pins the score-function weight only: this one pins the printed softmax-probability weight,
    # whose categorical gradient weights each draw by its probability, over a 3000-iteration one-input SGD run.
    cfg = _config(learning_rate=0.1, iterations=3000, seed=0, categorical_score="softmax_grad")
    run = sg.train(onevar_sketch, onevar_spec, cfg)
    assert hashlib.sha256(_run_bytes(run)).hexdigest() == SOFTMAX_GRAD_SHA256

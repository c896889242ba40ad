import dataclasses
import hashlib
import itertools
import math
import struct

import numpy as np
import pytest

import sketchgrad as sg
from sketchgrad import dists
from sketchgrad.engine import ENUMERATE_CHUNK_CELLS, RESTART_PATIENCE, make_optimizer, restart_state


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
        (dict(learning_rate=10**400), "learning_rate must be finite, got 1000"),
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


def test_train_step_equal_losses_leave_thetas_unchanged():
    # Both branches return the same value, so every candidate ties.
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { if x [COND] 100.0 { return 1.0; } return 1.0; }")
    spec = sg.SpecSet.from_pairs([((1.0,), 1.0), ((2.0,), 3.0)])
    cfg = _config()
    state = sg.init_state(sketch, cfg)
    new, record = sg.train_step(sketch, spec, state, cfg, sg.hole_streams(0, sketch.hole_count))
    assert (new.params[0] == state.params[0]).all()
    assert record.argmax_loss == record.best_so_far_loss


def test_train_step_rewards_perfect_token():
    # Spec generated by '+', with every other token far off: token 0
    # candidates score best and its logit strictly rises in one step.
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { return 10.0 [OP] x; }")
    spec = sg.SpecSet.from_pairs([((1.0,), 11.0), ((2.0,), 12.0), ((3.0,), 13.0)])
    cfg = _config()
    state = sg.init_state(sketch, cfg)
    new, _ = sg.train_step(sketch, spec, state, cfg, sg.hole_streams(1, sketch.hole_count))
    logits = new.params[0]
    assert logits[0] > 0
    assert logits[0] > logits[1] and logits[0] > logits[2] and logits[0] > logits[3]


def test_train_step_sgd_linearity(onevar_sketch, onevar_spec):
    # mu_init 0 keeps the measured deltas exact (theta + step - theta rounds
    # away from the pure step for nonzero theta).
    cfg1 = _config(learning_rate=0.05, mu_init=0.0)
    cfg2 = _config(learning_rate=0.1, mu_init=0.0)
    state = sg.init_state(onevar_sketch, cfg1)
    out1, _ = sg.train_step(onevar_sketch, onevar_spec, state, cfg1, sg.hole_streams(3, onevar_sketch.hole_count))
    out2, _ = sg.train_step(onevar_sketch, onevar_spec, state, cfg2, sg.hole_streams(3, onevar_sketch.hole_count))
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
    losses = sg.eval_population_losses(sketch, pop.values, spec_a)
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
    losses = []
    for it in range(1, cfg.iterations + 1):
        state, record = sg.train_step(sketch, spec, state, cfg, streams)
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


def test_train_step_computes_softmax_once_per_categorical_hole(monkeypatch, onevar_sketch, onevar_spec):
    calls = []
    softmax = dists.softmax
    monkeypatch.setattr(dists, "softmax", lambda logits: calls.append(1) or softmax(logits))
    cfg = _config()
    state = sg.init_state(onevar_sketch, cfg)
    streams = sg.hole_streams(cfg.seed, onevar_sketch.hole_count)
    categorical = sum(h.kind != "real" for h in onevar_sketch.holes)
    for it in range(1, 6):
        calls.clear()
        state, _ = sg.train_step(onevar_sketch, onevar_spec, state, cfg, streams)
        assert len(calls) == categorical == 3


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
    with pytest.raises(sg.SketchError):
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
    records = []
    for _ in range(cfg.iterations):
        state, record = sg.train_step(onevar_sketch, onevar_spec, state, cfg, streams)
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
    for _ in range(3):
        state, _ = sg.train_step(onevar_sketch, onevar_spec, state, cfg, streams)
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


def test_enumerate_real_count_mismatch(onevar_sketch, onevar_spec):
    with pytest.raises(sg.SketchError):
        sg.enumerate_discrete(onevar_sketch, [1.0], onevar_spec)


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
    rows = ENUMERATE_CHUNK_CELLS // 3
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


def test_loss_spikes_detector():
    base = [1.0] * 3000
    base[2100] = 10.0  # 10x the local median
    spikes = sg.loss_spikes(base, start=1000)
    assert spikes == [2101]
    assert sg.loss_spikes([1.0] * 3000, start=1000) == []


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
    ],
)
def test_loss_spikes_rejects_bad_arguments(kw, message):
    with pytest.raises(ValueError) as err:
        sg.loss_spikes([1.0] * 10 + [9.0], **{"window": 3, "factor": 1.0, "start": 0, **kw})
    assert str(err.value) == message


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
    assert ranked == [(sg.Assignment(()), sg.eval_spec_loss(onevar_truth, onevar_spec))]


def _run_bytes(result) -> bytes:
    """A training run's records, final and best thetas and restarts as little-endian float64 bytes."""
    records = [(r.iteration, r.mean_population_loss, r.argmax_loss, r.best_so_far_loss) for r in result.records]
    thetas = (*result.thetas, *result.best_thetas)
    parts = [records, *(t.logits if isinstance(t, sg.CategoricalTheta) else (t.mu, t.sigma) for t in thetas)]
    parts.append(result.restarts)
    return b"".join(np.asarray(part, dtype="<f8").tobytes() for part in parts)


# Recorded with numpy 2.4.6; a numpy that rounds differently changes it.
RESULTS_SHA256 = "97ad06af2c2fa3c09dd11c7fdd4d70f60e98fc6f521e2c6ce2fb8e4510a292a9"


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

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchgrad as sg

from conftest import ONEVAR_LEARNED, TWOVAR_LEARNED
from test_sketch import sketch_texts


def test_truth_program_above_threshold(onevar_truth):
    # 4.0 > 3.5, so the guarded branch fires: 4.2 * 4.0
    assert sg.eval_program(onevar_truth, (4.0,)) == 16.8


def test_truth_program_at_boundary(onevar_truth):
    # The guard is strict, so 3.5 falls through to 3.5 * 2.1.
    assert sg.eval_program(onevar_truth, (3.5,)) == 3.5 * 2.1


def test_division_by_zero_is_ieee():
    p = sg.parse_sketch("fn f(x1: f32, x2: f32) -> f32 { return 2.0 / x2 - x1; }")
    out = sg.eval_program(p, (0.0, 0.0))
    assert math.isinf(out) and out > 0
    # 0/0 is NaN, and a negative zero denominator flips the sign.
    q = sg.parse_sketch("fn f(x: f32) -> f32 { return x / x; }")
    assert math.isnan(sg.eval_program(q, (0.0,)))
    r = sg.parse_sketch("fn f(x: f32) -> f32 { return 1.0 / x; }")
    assert sg.eval_program(r, (-0.0,)) == -math.inf


def test_left_associative_chains():
    p = sg.parse_sketch("fn f(x: f32) -> f32 { return 2.0 + x * 3.0; }")
    # (2.0 + x) * 3.0, not 2.0 + (x * 3.0)
    assert sg.eval_program(p, (1.0,)) == 9.0
    q = sg.parse_sketch("fn f(x: f32) -> f32 { return 12.0 / x - 2.0; }")
    assert sg.eval_program(q, (4.0,)) == 1.0


def test_eval_rejects_holes_and_arity_mismatch(onevar_sketch, onevar_truth):
    with pytest.raises(sg.SketchError):
        sg.eval_program(onevar_sketch, (1.0,))
    with pytest.raises(ValueError):
        sg.eval_program(onevar_truth, (1.0, 2.0))


def test_determinism(onevar_truth):
    outs = {sg.eval_program(onevar_truth, (3.7,)) for _ in range(100)}
    assert len(outs) == 1


def test_spec_loss_zero_on_generating_program(onevar_truth, onevar_spec):
    assert sg.eval_spec_loss(onevar_truth, onevar_spec) == 0.0


def test_spec_loss_of_learned_equivalent(onevar_spec):
    # Frozen from direct arithmetic on the learned-equivalent listing:
    # preds = [2.4594104, 4.9188208, 16.1299972, 20.162496499999996]
    program = sg.parse_sketch(ONEVAR_LEARNED)
    assert sg.eval_spec_loss(program, onevar_spec) == pytest.approx(0.4490487606652248, rel=1e-12)


def test_twovar_learned_predictions(twovar_spec):
    # Frozen from direct arithmetic on the overfit two-input listing; the
    # left-associative chains read (14.287576 / x1) - x2 and
    # (8.472884 * x2) / x1.
    program = sg.parse_sketch(TWOVAR_LEARNED)
    preds = [sg.eval_program(program, vec) for vec in twovar_spec.inputs]
    assert preds == [
        3.6521051724137936,
        -3.3424848000000003,
        6.984404378378378,
        -6.802258909090909,
    ]


def test_spec_loss_penalty_on_nonfinite():
    p = sg.parse_sketch("fn f(x: f32) -> f32 { return 1.0 / x; }")
    spec = sg.SpecSet.from_pairs([((0.0,), 1.0), ((2.0,), 0.5)])
    assert sg.eval_spec_loss(p, spec) == 1e12
    assert sg.eval_spec_loss(p, spec, penalty=7.0) == 7.0


def test_spec_loss_penalty_on_overflowing_error():
    # Predictions are finite but the squared error overflows.
    p = sg.parse_sketch("fn f(x: f32) -> f32 { return x * 1e190; }")
    spec = sg.SpecSet.from_pairs([((1e9,), 0.0)])
    pred = sg.eval_program(p, (1e9,))
    assert math.isfinite(pred)
    assert sg.eval_spec_loss(p, spec) == 1e12


def test_specset_validation():
    with pytest.raises(sg.SpecError):
        sg.SpecSet((), ())
    with pytest.raises(sg.SpecError, match="row 1"):
        sg.SpecSet(((1.0,), (1.0, 2.0)), (0.0, 0.0))
    with pytest.raises(sg.SpecError, match="non-finite"):
        sg.SpecSet(((1.0,), (math.inf,)), (0.0, 0.0))
    spec = sg.SpecSet.from_pairs([((1, 2), 3)])
    assert spec.arity == 2 and len(spec) == 1


def test_exact_equality_comparison():
    p = sg.parse_sketch("fn f(x: f32) -> f32 { if x == 0.3 { return 1.0; } return 0.0; }")
    assert sg.eval_program(p, (0.3,)) == 1.0
    assert sg.eval_program(p, (0.1 + 0.2,)) == 0.0  # 0.30000000000000004 != 0.3


# ---------------------------------------------------------------------------
# Vectorized population evaluation agrees bit for bit with the scalar path.


def _population_values(sketch, rng, n):
    values = []
    for hole in sketch.holes:
        if hole.kind == "real":
            values.append(rng.normal(0.0, 3.0, size=n))
        else:
            values.append(rng.integers(0, hole.arity, size=n))
    return values


@pytest.mark.parametrize("sketch_name", ["onevar_sketch", "twovar_sketch"])
def test_batch_losses_match_scalar_path(sketch_name, onevar_spec, twovar_spec, request):
    sketch = request.getfixturevalue(sketch_name)
    spec = onevar_spec if sketch.arity == 1 else twovar_spec
    rng = np.random.default_rng(42)
    values = _population_values(sketch, rng, 200)
    batch = sg.eval_population_losses(sketch, values, spec)
    for i in range(200):
        vals = tuple(
            float(col[i]) if hole.kind == "real" else int(col[i])
            for hole, col in zip(sketch.holes, values)
        )
        program = sg.instantiate(sketch, sg.Assignment(vals))
        assert sg.eval_spec_loss(program, spec) == batch[i]


def test_batch_losses_cover_division_blowups(twovar_spec):
    # A sketch whose '/' draws divide by a real hole, so zero-crossing values
    # produce huge or non-finite predictions.
    sketch = sg.parse_sketch("fn f(x1: f32, x2: f32) -> f32 { return x1 [OP] [Real] [OP] x2; }")
    rng = np.random.default_rng(7)
    values = [
        rng.integers(0, 4, size=500),
        rng.normal(0.0, 0.01, size=500),
        rng.integers(0, 4, size=500),
    ]
    batch = sg.eval_population_losses(sketch, values, twovar_spec)
    assert np.isfinite(batch).all()
    for i in range(500):
        program = sg.instantiate(
            sketch, sg.Assignment((int(values[0][i]), float(values[1][i]), int(values[2][i])))
        )
        assert sg.eval_spec_loss(program, twovar_spec) == batch[i]


def test_batch_losses_zero_hole_program(onevar_truth, onevar_spec):
    batch = sg.eval_population_losses(onevar_truth, [], onevar_spec)
    assert batch.shape == (1,)
    assert batch[0] == 0.0


# Differential check over generated sketches: the vectorized scorer must equal
# instantiate + eval_spec_loss bit for bit on every candidate.  Most values are
# moderate, so most losses stay finite and sum many rows (where another
# accumulation order would round differently); the rest make the edge cases
# likely: zero and negative-zero reals (division blow-ups), values shared
# between inputs, reals and literals (exact `==` ties), and constants whose
# sums or squares overflow.

_moderate = st.floats(-10.0, 10.0)
_small = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0])
_overflowing = st.sampled_from([1e200, -1e200, 1e308, -1e308, 1.7976931348623157e308])
_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _literals(sketch):
    chains = [sketch.ret] + ([sketch.guard.body] if sketch.guard else [])
    operands = [o for c in chains for o in c.operands]
    if sketch.guard:
        operands += [sketch.guard.lhs, sketch.guard.rhs]
    return [o.value for o in operands if isinstance(o, sg.Lit)]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_population_losses_match_scalar_path_on_generated_sketches(data):
    _check_population_losses_match_scalar_path(data, sketch_texts())


# Only about one generated sketch in eight has a [COND] hole, so the guard
# logic gets a test of its own where every sketch has one.
@given(st.data())
@settings(max_examples=200, deadline=None)
def test_population_losses_match_scalar_path_on_guarded_sketches(data):
    _check_population_losses_match_scalar_path(data, sketch_texts(guard=st.just("[COND]")))


def _check_population_losses_match_scalar_path(data, texts):
    sketch = sg.parse_sketch(data.draw(texts))
    literals = st.sampled_from(_literals(sketch) or [0.0])
    inputs = st.one_of(_moderate, _moderate, _small, literals)
    rows = data.draw(st.integers(1, 40))
    spec = sg.SpecSet.from_pairs(
        (tuple(data.draw(inputs) for _ in sketch.params), data.draw(_moderate)) for _ in range(rows)
    )
    ties = st.sampled_from([v for vec in spec.inputs for v in vec])
    reals = st.one_of(_moderate, _moderate, _small, ties, literals, _overflowing, _finite)
    n = data.draw(st.integers(1, 8))
    columns = []
    for hole in sketch.holes:
        values = reals if hole.kind == "real" else st.integers(0, hole.arity - 1)
        columns.append(data.draw(st.lists(values, min_size=n, max_size=n)))
    arrays = [np.array(col, dtype=np.float64 if h.kind == "real" else np.int64) for h, col in zip(sketch.holes, columns)]
    batch = sg.eval_population_losses(sketch, arrays, spec)
    assert batch.shape == ((n,) if sketch.holes else (1,))
    for i, loss in enumerate(batch.tolist()):
        program = sg.instantiate(sketch, sg.Assignment(tuple(col[i] for col in columns)))
        expected = sg.eval_spec_loss(program, spec)
        assert struct.pack("<d", loss) == struct.pack("<d", expected), (i, loss, expected)


def test_spec_holds_two_read_only_float64_arrays(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("in_0,in_1,out\n1,2,3\n4,5,6\n7,8,9\n", encoding="utf-8")
    rows = [((1, 2), 3), ((4, 5), 6), ((7, 8), 9)]
    for spec in (
        sg.load_spec(path),
        sg.SpecSet.from_pairs(rows),
        sg.SpecSet([vec for vec, _ in rows], [out for _, out in rows]),
        sg.SpecSet(np.array([vec for vec, _ in rows]), np.array([out for _, out in rows])),
    ):
        assert spec.inputs.dtype == spec.outputs.dtype == np.float64
        assert spec.inputs.shape == (3, 2) and spec.outputs.shape == (3,)
        assert spec.inputs.tolist() == [[1.0, 2.0], [4.0, 5.0], [7.0, 8.0]]
        for arr in (spec.inputs, spec.outputs):
            with pytest.raises(ValueError):
                arr[0] = 0.0
    with pytest.raises(sg.SpecError):
        sg.SpecSet([1.0, 2.0], [3.0, 4.0])


def test_population_losses_reject_spec_arity_mismatch(onevar_sketch, twovar_spec):
    values = _population_values(onevar_sketch, np.random.default_rng(0), 3)
    with pytest.raises(sg.SketchError):
        sg.eval_population_losses(onevar_sketch, values, twovar_spec)

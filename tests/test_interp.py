import itertools
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sketchgrad as sg
from sketchgrad import interp

from conftest import ONEVAR_LEARNED, TWOVAR_LEARNED
from test_sketch import _X_OP_REAL, sketch_texts


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


_BAD_PENALTIES = {
    "str": ("x", "penalty must be a number, got 'x'"),
    "negative": (-1.0, "penalty must be positive, got -1.0"),
    "nan": (math.nan, "penalty must be finite, got nan"),
    "inf": (math.inf, "penalty must be finite, got inf"),
    "bool": (True, "penalty must be a number, got True"),
}


@pytest.mark.parametrize("name", list(_BAD_PENALTIES))
def test_every_evaluator_reads_its_penalty_by_one_rule(name):
    # `x / [Real]` with the real at 0.0 divides by zero, so the penalty is the loss it would score.  The scalar
    # interpreter and the product walk check the penalty on every call; the population scorer when it writes one,
    # so that a training step, whose config holds a checked penalty, does no extra work.
    penalty, message = _BAD_PENALTIES[name]
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { return x / [Real]; }")
    spec = sg.SpecSet.from_pairs([((1.0,), 2.0), ((2.0,), 4.0)])
    plan = sg.compile_sketch(sketch, spec)
    for call in (
        lambda: sg.eval_spec_loss(sg.instantiate(sketch, sg.Assignment((0.0,))), spec, penalty),
        lambda: sg.eval_spec_loss(sg.instantiate(sketch, sg.Assignment((0.5,))), spec, penalty),
        lambda: interp.eval_product_losses(plan, [0.5], penalty),
        lambda: sg.eval_population_losses(plan, [np.array([0.0, 0.5])], penalty),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    assert sg.eval_population_losses(plan, [np.array([2.0, 0.5])], penalty).tolist() == [5.625, 0.0]


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
    with pytest.raises(sg.SpecError, match="int too large to convert to float"):
        sg.SpecSet([[10**400]], [1.0])
    with pytest.raises(sg.SpecError, match="int too large to convert to float"):
        sg.SpecSet.from_pairs([((1.0,), 10**400)])
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


def _by_candidate(plan, values, penalty=interp.NONFINITE_PENALTY):
    # A population's losses candidate by candidate, whatever tokens it drew (eval_population_losses goes that way
    # only when they are mixed on a wide spec), with each categorical hole's single value given to every candidate.
    values = list(map(np.asarray, values))
    n = max(map(len, values), default=1)
    values = [v.repeat(n) if h.tokens and len(v) == 1 else v for h, v in zip(plan.holes, values)]
    return interp._by_candidate(plan, values, n, penalty)


@pytest.mark.parametrize("sketch_name", ["onevar_sketch", "twovar_sketch"])
def test_batch_losses_match_scalar_path(sketch_name, onevar_spec, twovar_spec, request):
    sketch = request.getfixturevalue(sketch_name)
    spec = onevar_spec if sketch.arity == 1 else twovar_spec
    rng = np.random.default_rng(42)
    values = _population_values(sketch, rng, 200)
    batch = sg.eval_population_losses(sg.compile_sketch(sketch, spec), values)
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
    batch = sg.eval_population_losses(sg.compile_sketch(sketch, twovar_spec), values)
    assert np.isfinite(batch).all()
    for i in range(500):
        program = sg.instantiate(
            sketch, sg.Assignment((int(values[0][i]), float(values[1][i]), int(values[2][i])))
        )
        assert sg.eval_spec_loss(program, twovar_spec) == batch[i]


@pytest.mark.parametrize("n", [64, 63, 15])
def test_a_chain_of_op_holes_over_shared_operands_matches_scalar_path(n):
    # With its real pinned, [Real] [OP] x1 [OP] x2 [OP] x1 has 4**3 = 64 values per row.  For 64 candidates
    # each step is a table, whose map is composed through the chain.  For 63 the last step has more token
    # combinations than candidates and falls back to a row per candidate, gathered from the table before
    # it; for 15 the last two do, the last one gathered from the token order of the one before.  The
    # candidates come in no particular order, so every map matters.
    sketch = sg.parse_sketch("fn f(x1: f32, x2: f32) -> f32 { return [Real] [OP] x1 [OP] x2 [OP] x1; }")
    rng = np.random.default_rng(n)
    spec = sg.SpecSet(rng.uniform(1.0, 10.0, (5, 2)), rng.uniform(-10.0, 10.0, 5))
    tokens = np.array(list(itertools.product(range(4), repeat=3)))[rng.permutation(64)[:n]]
    losses = sg.eval_population_losses(sg.compile_sketch(sketch, spec), [np.array([1.5]), *tokens.T])
    for loss, combo in zip(losses.tolist(), tokens.tolist()):
        expected = sg.eval_spec_loss(sg.instantiate(sketch, sg.Assignment((1.5, *combo))), spec)
        assert struct.pack("<d", loss) == struct.pack("<d", expected), combo


def test_a_guard_over_token_tables_matches_scalar_path():
    # The comparison (3 tokens), the body (4) and the else branch (4, its real given once for all) are each
    # a table, which the select gathers into candidate order through three maps.  Every combination of
    # tokens comes twice, in no particular order.
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { if x [COND] 1.5 { return x [OP] 2.0; } return [Real] [OP] x; }")
    rng = np.random.default_rng(9)
    spec = sg.SpecSet(rng.choice([0.5, 1.5, 2.5], (7, 1)), rng.uniform(-5.0, 5.0, 7))
    combos = np.array(list(itertools.product(range(3), range(4), range(4))) * 2)[rng.permutation(96)]
    cond, body, ret = combos.T
    losses = sg.eval_population_losses(sg.compile_sketch(sketch, spec), [cond, body, np.array([-0.5]), ret])
    for loss, (c, b, r) in zip(losses.tolist(), combos.tolist()):
        expected = sg.eval_spec_loss(sg.instantiate(sketch, sg.Assignment((c, b, -0.5, r))), spec)
        assert struct.pack("<d", loss) == struct.pack("<d", expected), (c, b, r)


def test_population_losses_are_bit_identical_across_row_chunks(monkeypatch, twovar_sketch):
    # 10 000 rows of a two-input spec, scored in chunks of 1 row, 7 rows and the default size: the running
    # total enters each chunk's sum as its first term, so every loss is the same sequential sum.
    rng = np.random.default_rng(11)
    spec = sg.SpecSet(rng.uniform(1.0, 10.0, (10_000, 2)), rng.uniform(-10.0, 30.0, 10_000))
    n = 20
    values = _population_values(twovar_sketch, rng, n)
    plan = sg.compile_sketch(twovar_sketch, spec)
    default = sg.eval_population_losses(plan, values)
    assert interp.CHUNK_CELLS // n < len(spec)  # the default chunks the rows too
    for rows_per_chunk in (1, 7):
        monkeypatch.setattr(interp, "CHUNK_CELLS", rows_per_chunk * n)
        assert sg.eval_population_losses(plan, values).tobytes() == default.tobytes()
    for i in range(3):
        program = sg.instantiate(twovar_sketch, sg.Assignment(tuple(col[i].item() for col in values)))
        assert struct.pack("<d", sg.eval_spec_loss(program, spec)) == struct.pack("<d", default[i])


@pytest.mark.parametrize(
    "bad, message",
    [
        (-1, "hole 0: category index -1 out of range 0..2"),
        (3, "hole 0: category index 3 out of range 0..2"),
        (1.0, "hole 0 is categorical but got float64 values"),
    ],
)
@pytest.mark.parametrize("wide_rows", [None, 1])  # and candidate by candidate, as the mixed tokens take it
def test_population_losses_reject_a_bad_category_index(
    monkeypatch, onevar_sketch, onevar_spec, bad, message, wide_rows
):
    if wide_rows:
        monkeypatch.setattr(interp, "WIDE_ROWS", wide_rows)
    values = _population_values(onevar_sketch, np.random.default_rng(0), 4)
    values[0] = np.array([1, bad, 0, 2])  # hole 0 is the [COND] hole, with 3 tokens
    with pytest.raises(sg.SketchError, match=re.escape(message)):
        sg.eval_population_losses(sg.compile_sketch(onevar_sketch, onevar_spec), values)


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.array([-1]), "hole 0: category index -1 out of range 0..2"),
        (np.array([3]), "hole 0: category index 3 out of range 0..2"),
        (np.array([2**64 - 1], dtype=np.uint64), f"hole 0: category index {2**64 - 1} out of range 0..2"),
        (np.array([1.0]), "hole 0 is categorical but got float64 values"),
        (np.array([True]), "hole 0 is categorical but got bool values"),
        (np.array([[1]]), "hole 0 is categorical but got int64 values"),
    ],
)
def test_a_population_of_one_rejects_a_bad_category_index(onevar_sketch, onevar_spec, bad, message):
    # A population of one takes the path of any other population, and its index is checked the same way.
    values = _population_values(onevar_sketch, np.random.default_rng(0), 1)
    values[0] = bad  # hole 0 is the [COND] hole, with 3 tokens
    with pytest.raises(sg.SketchError, match=re.escape(message)):
        sg.eval_population_losses(sg.compile_sketch(onevar_sketch, onevar_spec), values)


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.ones((2, 2)), "hole 1 is real but got 2-D float64 values"),
        (np.array(["a", "b"]), "hole 1 is real but got 1-D <U1 values"),
        (np.array([1.0 + 0j, 2.0j]), "hole 1 is real but got 1-D complex128 values"),
        (np.array([True, False]), "hole 1 is real but got 1-D bool values"),
    ],
)
@pytest.mark.parametrize("wide_rows", [None, 1])  # and candidate by candidate, as the mixed tokens take it
def test_population_losses_reject_a_bad_real_array(monkeypatch, onevar_sketch, onevar_spec, bad, message, wide_rows):
    if wide_rows:
        monkeypatch.setattr(interp, "WIDE_ROWS", wide_rows)
    values = _population_values(onevar_sketch, np.random.default_rng(0), 2)
    values[0], values[1] = np.array([0, 1]), bad  # hole 0 is the [COND] hole, hole 1 the guard's [Real] hole
    with pytest.raises(sg.SketchError, match=re.escape(message)):
        sg.eval_population_losses(sg.compile_sketch(onevar_sketch, onevar_spec), values)


@pytest.mark.parametrize(
    "values, message",
    [
        ([np.int64(1), 2.0], "hole 0 is categorical but got int64 values of shape ()"),
        ([np.array([1, 2]), 2.0], "hole 1 is real but got 0-D float64 values"),
        ([np.array([[1, 2]]), np.array([2.0])], "hole 0 is categorical but got int64 values of shape (1, 2)"),
        ([np.array([[1], [2]]), np.array([2.0])], "hole 0 is categorical but got int64 values of shape (2, 1)"),
        ([np.array([[5]]), np.array([2.0])], "hole 0 is categorical but got int64 values of shape (1, 1)"),
    ],
    ids=["0-D arrays", "a 0-D real", "2-D indices", "a column of indices", "an out-of-range 2-D index"],
)
def test_population_losses_name_a_hole_whose_array_is_not_1d(values, message):
    plan = sg.compile_sketch(sg.parse_sketch(_X_OP_REAL), sg.SpecSet.from_pairs([((1.0,), 2.0)]))
    with pytest.raises(sg.SketchError, match=f"^{re.escape(message)}$"):
        sg.eval_population_losses(plan, values)


@pytest.mark.parametrize("reals", [[], [3.5, 4.2], [3.5, 4.2, 2.1, 0.0]], ids=["none", "too few", "too many"])
def test_product_losses_take_one_real_per_real_hole(onevar_sketch, onevar_spec, reals):
    # The onevar sketch has three [Real] holes; the walk pins each to one value and enumerates every token.
    plan = sg.compile_sketch(onevar_sketch, onevar_spec)
    with pytest.raises(sg.SketchError, match=re.escape("expected one real per [Real] hole")):
        interp.eval_product_losses(plan, reals, 1e12)
    assert interp.eval_product_losses(plan, [3.5, 4.2, 2.1], 1e12).shape == (3 * 4 * 4,)


def test_batch_losses_zero_hole_program(onevar_truth, onevar_spec):
    batch = sg.eval_population_losses(sg.compile_sketch(onevar_truth, onevar_spec), [])
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
    # Up to 64 candidates, so that token tables form (a table has at most n rows) and also fall back to a
    # row per candidate when their combinations outnumber the candidates.  A hole given one value applies
    # it to every candidate, so its steps can share rows across candidates.
    size = data.draw(st.one_of(st.integers(1, 8), st.integers(9, 64)))
    columns = []
    for hole in sketch.holes:
        values = reals if hole.kind == "real" else st.integers(0, hole.arity - 1)
        length = data.draw(st.sampled_from([1, size]))
        columns.append(data.draw(st.lists(values, min_size=length, max_size=length)))
    n = max(map(len, columns), default=1)
    arrays = [np.array(col, dtype=np.float64 if h.kind == "real" else np.int64) for h, col in zip(sketch.holes, columns)]
    plan = sg.compile_sketch(sketch, spec)
    batch = sg.eval_population_losses(plan, arrays)
    assert batch.shape == (n,)
    expected = {}  # per distinct assignment, its scalar loss
    for i, loss in enumerate(batch.tolist()):
        values = tuple(col[i] if len(col) == n else col[0] for col in columns)
        if values not in expected:
            expected[values] = sg.eval_spec_loss(sg.instantiate(sketch, sg.Assignment(values)), spec)
        assert struct.pack("<d", loss) == struct.pack("<d", expected[values]), (i, loss, expected[values])
    # The same population scored in row chunks, of one row (CHUNK_CELLS 1) and of 7 // n rows (7); and, if the
    # sketch has a categorical hole, candidate by candidate, whatever its tokens, in one chunk, in chunks of one row
    # (blocks of 8 candidates) and of 7 rows.  With WIDE_ROWS 1 the rule picks the traversal.
    for chunk_cells in (None, 1, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(interp, "CHUNK_CELLS", chunk_cells or interp.CHUNK_CELLS)
            if plan.categorical:  # a sketch with none never goes candidate by candidate
                assert _by_candidate(plan, arrays).tobytes() == batch.tobytes(), chunk_cells
            patch.setattr(interp, "WIDE_ROWS", 1 if chunk_cells is None else interp.WIDE_ROWS)
            assert sg.eval_population_losses(plan, arrays).tobytes() == batch.tobytes(), chunk_cells


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_a_candidate_scores_the_same_alone_and_after_a_population(data):
    # Training scores a state's argmax program as candidate n + 1 of the next step's population: its loss there
    # is the loss it has scored alone, bit for bit, after 1, 2 or 50 other candidates, also when row chunks of 7
    # cells cut the spec (CHUNK_CELLS 7: 3, 2 and 1 rows a chunk), and candidate by candidate.
    sketch = sg.parse_sketch(data.draw(sketch_texts()))
    assume(sketch.holes)  # a sketch with no holes is one program, which no population repeats
    literals = st.sampled_from(_literals(sketch) or [0.0])
    inputs = st.one_of(_moderate, _moderate, _small, literals)
    rows = data.draw(st.integers(1, 40))
    spec = sg.SpecSet.from_pairs(
        (tuple(data.draw(inputs) for _ in sketch.params), data.draw(_moderate)) for _ in range(rows)
    )
    reals = st.one_of(_moderate, _small, literals, _overflowing, _finite)
    candidate = [
        np.array([data.draw(reals)]) if h.kind == "real" else np.array([data.draw(st.integers(0, h.arity - 1))])
        for h in sketch.holes
    ]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    plan = sg.compile_sketch(sketch, spec)
    alone = sg.eval_population_losses(plan, candidate)
    for n in (1, 2, 50):
        population = [
            np.concatenate((rng.normal(0.0, 3.0, n) if h.kind == "real" else rng.integers(0, h.arity, n), c))
            for h, c in zip(sketch.holes, candidate)
        ]
        for score in [sg.eval_population_losses] + [_by_candidate] * bool(plan.categorical):
            assert score(plan, population)[n:].tobytes() == alone.tobytes(), (n, score)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(interp, "CHUNK_CELLS", 7)
                assert score(plan, population)[n:].tobytes() == alone.tobytes(), (n, score)
                assert score(plan, candidate).tobytes() == alone.tobytes(), score


@pytest.mark.parametrize("committed", [False, True])
@pytest.mark.parametrize("sketch_name", ["onevar_sketch", "twovar_sketch"])
def test_both_traversals_score_a_wide_population_alike(sketch_name, committed, request):
    # 51 candidates on 10 000 rows, the two-input benchmark's call, scored by pattern (WIDE_ROWS past the spec), as
    # the rule picks (candidate by candidate for mixed tokens, by pattern when every categorical hole is committed
    # to one token for every candidate, as a converged search draws them) and candidate by candidate.
    sketch = request.getfixturevalue(sketch_name)
    rng = np.random.default_rng(51)
    spec = sg.SpecSet(rng.uniform(1.0, 10.0, (10_000, sketch.arity)), rng.uniform(-10.0, 30.0, 10_000))
    values = _population_values(sketch, rng, 51)
    if committed:
        values = [np.full(51, v[0]) if h.tokens else v for h, v in zip(sketch.holes, values)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interp, "WIDE_ROWS", len(spec) + 1)
        losses = [sg.eval_population_losses(sg.compile_sketch(sketch, spec), values)]
    plan = sg.compile_sketch(sketch, spec)
    losses += [sg.eval_population_losses(plan, values), _by_candidate(plan, values)]
    assert losses[0].tobytes() == losses[1].tobytes() == losses[2].tobytes()
    for i in rng.choice(51, 3, replace=False).tolist():
        program = sg.instantiate(sketch, sg.Assignment(tuple(col[i].item() for col in values)))
        assert struct.pack("<d", sg.eval_spec_loss(program, spec)) == struct.pack("<d", losses[2][i])


@pytest.mark.parametrize("rows, committed", [(7, False), (8, True), (8, False)])
def test_only_mixed_tokens_on_a_wide_spec_go_candidate_by_candidate(monkeypatch, twovar_sketch, rows, committed):
    # The rule reads the spec's rows and whether every candidate drew one token at each categorical hole.
    calls = []
    by_candidate = interp._by_candidate
    monkeypatch.setattr(interp, "_by_candidate", lambda *args: calls.append(args) or by_candidate(*args))
    monkeypatch.setattr(interp, "WIDE_ROWS", 8)
    rng = np.random.default_rng(rows)
    spec = sg.SpecSet(rng.uniform(1.0, 10.0, (rows, 2)), rng.uniform(-10.0, 30.0, rows))
    values = [
        rng.normal(0.0, 3.0, 20) if h.kind == "real" else np.full(20, 1) if committed else np.arange(20) % h.arity
        for h in twovar_sketch.holes
    ]
    sg.eval_population_losses(sg.compile_sketch(twovar_sketch, spec), values)
    assert len(calls) == (rows >= 8 and not committed)


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
    with pytest.raises(sg.SpecError):
        sg.compile_sketch(onevar_sketch, twovar_spec)


# Every path that scores a one-input sketch or program on a two-input spec: one rule, interp's, and one error.
_MISFITS = {
    "compile_sketch": lambda sketch, truth, spec: sg.compile_sketch(sketch, spec),
    "train": lambda sketch, truth, spec: sg.train(sketch, spec, sg.TrainConfig(learning_rate=0.1, iterations=1)),
    "enumerate_discrete": lambda sketch, truth, spec: sg.enumerate_discrete(sketch, [3.5, 4.2, 2.1], spec),
    "eval_spec_loss": lambda sketch, truth, spec: sg.eval_spec_loss(truth, spec),
}


@pytest.mark.parametrize("name", list(_MISFITS))
def test_a_spec_that_does_not_fit_is_one_spec_error(name, monkeypatch, onevar_sketch, onevar_truth, twovar_spec):
    monkeypatch.setattr(interp, "eval_program", lambda *_: pytest.fail("a row was scored"))
    with pytest.raises(sg.SpecError, match="^spec arity 2 does not match sketch arity 1$"):
        _MISFITS[name](onevar_sketch, onevar_truth, twovar_spec)


# ---------------------------------------------------------------------------
# The pieces of the scorer's row loop, each against its plain reference.


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_ODD_FLOATS = [
    _float(0x7FF8000000000001),  # quiet NaNs with payloads, of either sign
    _float(0xFFF80000DEADBEEF),
    _float(0x7FF4000000000000),  # a signalling NaN's bits
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    1.5,
    -2.25e-308,
]


@pytest.mark.parametrize("rows", [6, 60])
@pytest.mark.parametrize(
    "mask_shape, x_shape, y_shape",
    [((6, 40), (6, 40), (6, 40)), ((1, 40), (6, 1), (6, 40)), ((6, 40), (1, 40), (1, 1)), ((6, 1), (1, 1), (1, 40))],
)
def test_guard_select_is_np_where_bit_for_bit(rows, mask_shape, x_shape, y_shape):
    rng = np.random.default_rng(5)
    odd = np.array(_ODD_FLOATS)
    mask_shape, x_shape, y_shape = [(rows if r == 6 else 1, c) for r, c in (mask_shape, x_shape, y_shape)]
    x, y = rng.choice(odd, x_shape), rng.choice(odd, y_shape)
    mask = rng.random(mask_shape) < 0.5
    out = np.full((rows, 40), 7.0)
    assert interp._select(mask, x, y, out) is out
    assert out.tobytes() == np.where(mask, x, y).tobytes()
    assert interp._select(mask, x, y, np.empty((rows, 40))).tobytes() == out.tobytes()
    assert interp._select(mask.astype(np.int64), x, y, np.empty((rows, 40))).tobytes() == out.tobytes()  # a plan's mask
    assert np.isnan(out).any() and np.isinf(out).any() and np.signbit(out[out == 0.0]).any()


# 50 x 4 cells per chunk; 50 x 1 310, and several chunks; and candidate by candidate, in rows of 5 000.
@pytest.mark.parametrize("rows", [4, 2_000, 5_000])
@pytest.mark.parametrize(
    "text",
    [
        "fn f(x: f32) -> f32 { if x [COND] 1.0 { return [Real]; } return x; }",
        "fn f(x: f32) -> f32 { if x [COND] 1.0 { return x * 2.0; } return [Real]; }",
    ],
)
def test_a_bare_real_hole_in_a_guard_branch_scores_as_float64(text, rows):
    # The guard's select reads its branches' bits as float64, so a real hole given as integers or float32
    # must be converted on entry, not passed through bit for bit (3 read as an int64 is about 1.5e-323).
    rng = np.random.default_rng(rows)
    spec = sg.SpecSet(rng.uniform(-2.0, 4.0, (rows, 1)), rng.uniform(-5.0, 5.0, rows))
    sketch = sg.parse_sketch(text)
    plan = sg.compile_sketch(sketch, spec)
    cond, reals = rng.integers(0, 3, 50), rng.integers(0, 9, 50)
    expected = sg.eval_population_losses(plan, [cond, reals.astype(np.float64)])
    for dtype in (np.int64, np.uint64, np.int32, np.float32):
        losses = sg.eval_population_losses(plan, [cond, reals.astype(dtype)])
        assert losses.tobytes() == expected.tobytes(), dtype


def _sequential_sum(terms) -> float:
    total = 0.0
    for t in terms:
        total += t
    return total


@pytest.mark.parametrize("score", [sg.eval_population_losses, _by_candidate])
@pytest.mark.parametrize("n", [1, 2, 3, 50])
@pytest.mark.parametrize("chunk_cells", [None, 1, 7, 64])
def test_population_losses_are_the_sequential_sum(monkeypatch, n, chunk_cells, score):
    # Squared errors of 1e16 and about 1: added one by one, each 1 after a 1e16 is lost to rounding,
    # which a pairwise sum would keep, so only the left-to-right sum gives these losses, by pattern and
    # candidate by candidate.
    rng = np.random.default_rng(n)
    xs = rng.choice([1e8, 1.0, 3.0, 0.5], 301)
    spec = sg.SpecSet(xs[:, None], np.zeros(301))
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { return x [OP] [Real]; }")
    reals = rng.choice([0.0, 1.0, -1.0, 0.25], n)
    values = [np.zeros(n, dtype=np.int64), reals]  # token 0 is '+'
    if chunk_cells is not None:
        monkeypatch.setattr(interp, "CHUNK_CELLS", chunk_cells)
    losses = score(sg.compile_sketch(sketch, spec), values)
    differs = []  # the reals whose sequential sum is not the pairwise one
    for loss, r in zip(losses.tolist(), reals.tolist()):
        squares = [(x + r) * (x + r) for x in xs.tolist()]
        expected = _sequential_sum(squares) / 301
        assert struct.pack("<d", loss) == struct.pack("<d", expected)
        if expected != np.sum(squares) / 301:  # np.sum of a 1-D array is pairwise
            differs.append(r)
    assert differs
    # One real for every candidate, and one token drawn by all: the prediction is one stored row for the n
    # candidates, so it is summed by the rule for one row, whatever n is.
    shared = sg.eval_population_losses(sg.compile_sketch(sketch, spec), [values[0], np.array(differs[:1])])
    assert shared.tobytes() == np.repeat(losses[reals == differs[0]][:1], n).tobytes()


@pytest.mark.parametrize(
    "text",
    [
        # Only categorical holes, so every value would be one stored row, read by no candidate.
        "fn f(x: f32) -> f32 { if x [COND] 2.0 { return x [OP] 1.0; } return x; }",
        "fn f(x: f32) -> f32 { if x [COND] [Real] { return [Real] [OP] x; } return x [OP] [Real]; }",
    ],
)
def test_an_empty_population_has_no_losses(text):
    sketch = sg.parse_sketch(text)
    plan = sg.compile_sketch(sketch, sg.SpecSet([[1.0], [3.0]], [2.0, 6.0]))
    dtypes = [np.float64 if h.kind == "real" else np.int64 for h in sketch.holes]
    for _ in range(2):  # before and after the plan holds a workspace
        losses = sg.eval_population_losses(plan, [np.array([], dtype=d) for d in dtypes])
        assert losses.shape == (0,) and losses.dtype == np.float64
        sg.eval_population_losses(plan, [np.array([1], dtype=d) for d in dtypes])
    with pytest.raises(sg.SketchError, match="differ in length"):
        sg.eval_population_losses(plan, [np.array([], dtype=dtypes[0])] + [np.array([1], dtype=d) for d in dtypes[1:]])


def _wide_spec_and_values(sketch, n_counts):
    rng = np.random.default_rng(23)
    spec = sg.SpecSet(rng.uniform(1.0, 10.0, (10_000, 2)), rng.uniform(-10.0, 30.0, 10_000))
    return spec, {n: _population_values(sketch, rng, n) for n in n_counts}


# 50 candidates by pattern (WIDE_ROWS past the spec) and candidate by candidate (as the rule picks for their mixed
# tokens), and the argmax program, by pattern whatever WIDE_ROWS is.
@pytest.mark.parametrize("n, wide_rows", [(50, 10_001), (50, None), (1, None)])
def test_a_scoring_call_allocates_no_buffers_per_chunk(monkeypatch, twovar_sketch, n, wide_rows):
    # The second call on a plan reuses the first call's buffers: by pattern, 10 000 rows x 50 candidates
    # is 16 chunks, each of which allocated several MB of temporaries before the workspace was kept;
    # candidate by candidate, 50 candidates each run every step on a chunk of rows, into blocks; and the
    # argmax program (n = 1) is one chunk whose every step allocated a row.  What is left is numpy's own
    # iterator buffers (see the test below) and the call's small arrays, less than one chunk's float64
    # buffer: a single array per chunk or candidate, or a few rows per call, would cross that.
    if wide_rows:
        monkeypatch.setattr(interp, "WIDE_ROWS", wide_rows)
    spec, populations = _wide_spec_and_values(twovar_sketch, (n,))
    plan = sg.compile_sketch(twovar_sketch, spec)
    assert interp.CHUNK_CELLS // 50 < len(spec) // 4
    sg.eval_population_losses(plan, populations[n])
    tracemalloc.start()
    try:
        sg.eval_population_losses(plan, populations[n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < interp.CHUNK_CELLS * 8, peak


@pytest.mark.parametrize("wide_rows", [10_001, None])  # by pattern, and candidate by candidate
def test_a_repeat_wide_call_holds_numpy_buffers_small(monkeypatch, twovar_sketch, wide_rows):
    # numpy allocates an iterator buffer for each operand that a ufunc call broadcasts across a chunk, of
    # up to its buffer size in elements: 8192 by default, 127 KB per call for `[Real] [OP] x2` alone.  The
    # scorer sets the size to interp.BUFSIZE while it scores chunks larger than that.
    if wide_rows:
        monkeypatch.setattr(interp, "WIDE_ROWS", wide_rows)
    spec, populations = _wide_spec_and_values(twovar_sketch, (50,))
    plan = sg.compile_sketch(twovar_sketch, spec)
    sg.eval_population_losses(plan, populations[50])
    bufsize = np.getbufsize()
    tracemalloc.start()
    try:
        sg.eval_population_losses(plan, populations[50])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024, peak
    assert np.getbufsize() == bufsize  # put back after the call


@pytest.mark.parametrize("wide_rows", [10_001, None])  # by pattern, and candidate by candidate
def test_the_guard_select_allocates_nothing_on_a_repeat_call(monkeypatch, twovar_sketch, wide_rows):
    # The guard's mask reaches the select as 0/1 int64, so its multiply casts nothing: a multiply by a
    # bool mask casts it through a buffer of numpy's bufsize (64 KB by default) on every chunk.
    peaks, masks = [], []
    select = interp._select

    def traced(mask, x, y, out=None):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = select(mask, x, y, out)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        masks.append(mask.dtype)
        return result

    monkeypatch.setattr(interp, "_select", traced)  # compile_sketch reads it into the plan
    if wide_rows:
        monkeypatch.setattr(interp, "WIDE_ROWS", wide_rows)
    spec, populations = _wide_spec_and_values(twovar_sketch, (50,))
    plan = sg.compile_sketch(twovar_sketch, spec)
    expected = sg.eval_population_losses(plan, populations[50])
    tracemalloc.start()
    try:
        peaks.clear()
        losses = sg.eval_population_losses(plan, populations[50])
    finally:
        tracemalloc.stop()
    assert losses.tobytes() == expected.tobytes()
    # By pattern a select per chunk of CHUNK_CELLS // 50 rows; candidate by candidate, in chunks of up to
    # CHUNK_CELLS rows, a select per candidate and chunk.
    if wide_rows is None:
        assert len(peaks) == 50 * -(-len(spec) // interp.CHUNK_CELLS)
    else:
        assert len(peaks) == -(-len(spec) // (interp.CHUNK_CELLS // 50))
    assert set(masks) == {np.dtype(np.int64)}
    assert max(peaks) < 1024, peaks  # the three int64 views' array objects, and no buffer


def test_returned_losses_are_not_overwritten_by_later_calls(twovar_sketch):
    spec, populations = _wide_spec_and_values(twovar_sketch, (50, 1))
    plan = sg.compile_sketch(twovar_sketch, spec)
    first = sg.eval_population_losses(plan, populations[50])
    kept = first.copy()
    argmax = sg.eval_population_losses(plan, populations[1])
    again = sg.eval_population_losses(plan, [v[::-1] for v in populations[50]])
    assert first.tobytes() == kept.tobytes()
    fresh = sg.eval_population_losses(sg.compile_sketch(twovar_sketch, spec), populations[1])
    assert argmax.tobytes() == fresh.tobytes()
    assert again.tobytes() == kept[::-1].tobytes()


def test_workspace_stays_bounded_over_many_candidate_counts(twovar_sketch, twovar_spec):
    # A plan's scratch is sized by cells and shared by every candidate count: after 42 counts it holds one
    # buffer per step result, gathered operand and the sum at most, each of at most the cells the largest
    # count needs (50 candidates by the spec's rows and a total row), and shaped views of the last count and
    # of one candidate only.
    rng = np.random.default_rng(4)
    plan = sg.compile_sketch(twovar_sketch, twovar_spec)
    buffers = sum(1 + len(args) for _, _, _, args, *_ in plan.steps) + 1
    for n in [*range(1, 40), 50, 1, 50, 3]:
        values = _population_values(twovar_sketch, rng, n)
        losses = sg.eval_population_losses(plan, values)
        assert sum(b.nbytes for b in plan.buffers.values()) <= buffers * 50 * (len(twovar_spec) + 1) * 8, n
        counts = {count for count, _ in plan.workspaces}
        assert len(plan.buffers) <= buffers and n in counts and len(counts - {1}) <= 1
        fresh = sg.eval_population_losses(sg.compile_sketch(twovar_sketch, twovar_spec), values)
        assert losses.tobytes() == fresh.tobytes(), n


def test_a_plan_keeps_at_most_programs_and_scores_past_them_as_a_fresh_plan(onevar_sketch, onevar_spec):
    # A plan keeps the programs of at most `interp.PROGRAMS` call patterns and drops them all when it needs one
    # more.  Each of the 48 one-token-per-hole patterns of the one-input sketch, and the mixed patterns of each
    # categorical hole drawing every token, scored twice over on one plan, give the losses of a fresh plan bit for
    # bit, and the plan never holds more than PROGRAMS programs.
    rng = np.random.default_rng(32)
    n = 24
    holes = onevar_sketch.holes
    calls = [
        [np.full(n, t) if h.tokens else rng.normal(1.0, 2.0, n) for h, t in zip(holes, tokens)]
        for tokens in itertools.product(*[range(h.arity) if h.tokens else [None] for h in holes])
    ]
    for mixed in (h for h in holes if h.tokens):
        drawn = [np.arange(n) % h.arity if h is mixed else np.zeros(n, int) for h in holes]
        calls.append([v if h.tokens else rng.random(n) for h, v in zip(holes, drawn)])
    plan = sg.compile_sketch(onevar_sketch, onevar_spec)
    keys, sizes = set(), []
    for values in calls + calls[::-1]:
        losses = sg.eval_population_losses(plan, values)
        fresh = sg.eval_population_losses(sg.compile_sketch(onevar_sketch, onevar_spec), values)
        assert losses.tobytes() == fresh.tobytes()
        keys |= set(plan.workspaces)
        sizes.append(len(plan.workspaces))
    assert len(keys) == len(calls) > interp.PROGRAMS
    assert max(sizes) == interp.PROGRAMS and sizes.count(1) >= 3

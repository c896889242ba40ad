import ast
import fractions
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchgrad as sg
from sketchgrad.io import thetas_from_doc
from sketchgrad.sketch import KIND_COND, KIND_OP, KIND_REAL, _tokenize

from conftest import ONEVAR_LEARNED, ONEVAR_SKETCH, ONEVAR_TRUTH, TWOVAR_SKETCH


def test_onevar_sketch_hole_table(onevar_sketch):
    assert onevar_sketch.hole_count == 6
    assert onevar_sketch.hole_kinds == (KIND_COND, KIND_REAL, KIND_REAL, KIND_OP, KIND_OP, KIND_REAL)
    assert [h.index for h in onevar_sketch.holes] == list(range(6))
    assert onevar_sketch.arity == 1


def test_twovar_sketch_hole_table(twovar_sketch):
    # 1 cond + 2 real + 4 op holes, in source order.
    assert twovar_sketch.hole_kinds == (KIND_COND, KIND_REAL, KIND_OP, KIND_OP, KIND_REAL, KIND_OP, KIND_OP)
    assert twovar_sketch.arity == 2


def test_hole_free_program_parses_with_empty_table(onevar_truth):
    assert onevar_truth.hole_count == 0
    assert onevar_truth.is_concrete


def test_hole_domains():
    hole = sg.CondHole(0)
    assert hole.tokens == ("==", ">", "<")
    assert hole.arity == 3
    hole = sg.OpHole(1)
    assert hole.tokens == ("+", "-", "*", "/")
    assert hole.arity == 4
    assert sg.RealHole(2).tokens is None


def test_comments_and_whitespace():
    text = """
    // leading comment
    fn f(x: f32) -> f32 {   // trailing
        return x; }
    """
    s = sg.parse_sketch(text)
    assert s.name == "f"
    assert s.guard is None


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("fn f() -> f32 { return 1.0; }", "at least one input"),
        ("fn f(x: f32) -> f32 { return [OP]; }", "operand"),
        ("fn f(x: f32) -> f32 { return 1.0 [COND] x; }", "operator"),
        ("fn f(x: f32) -> f32 { if x [OP] 1.0 { return x; } return x; }", "comparison"),
        ("fn f(x: f32) -> f32 { return y; }", "unknown variable"),
        ("fn f(x: f32, x: f32) -> f32 { return x; }", "duplicate parameter"),
        ("fn f(x: f32) -> f32 { return x }", "expected"),
        ("fn f(x: f32) -> f32 { return x; } trailing", "trailing"),
        ("fn f(x: f32) -> f32 { return [Foo]; }", "unknown hole token"),
        ("fn if(x: f32) -> f32 { return x; }", "reserved"),
        ("fn f(x: f32) -> f32 { return x + ²; }", "unexpected character '²'"),
        ("fn f(x: f32) -> f32 { return [Real; }", "unterminated"),
        ("fn f(x: f32) -> f32 { return .; }", "unexpected character '.'"),
        ("fn f(½: f32) -> f32 { return 1.0; }", "unexpected character '½'"),
    ],
)
def test_syntax_errors(text, fragment):
    with pytest.raises(sg.SketchSyntaxError) as err:
        sg.parse_sketch(text)
    assert fragment in str(err.value)


_SLOTS = "fn f(x: f32) -> f32 {{ if x {cmp} 1.0 {{ return x; }} return x {op} {operand}; }}"


@pytest.mark.parametrize(
    "cmp, op, operand, message",
    [
        ("[OP]", "+", "x", "line 1, col 28: [OP] cannot appear where a comparison is required"),
        ("[Real]", "+", "x", "line 1, col 28: [Real] cannot appear where a comparison is required"),
        ("+", "+", "x", "line 1, col 28: expected comparison ('==', '>', '<' or [COND]), found '+'"),
        (">", "[COND]", "x", "line 1, col 57: [COND] cannot appear where an operator is required"),
        (">", "[Real]", "x", "line 1, col 57: [Real] cannot appear where an operator is required"),
        (">", "<", "x", "line 1, col 57: expected operator ('+', '-', '*', '/' or [OP]), found '<'"),
        (">", "+", "[OP]", "line 1, col 59: [OP] cannot appear where an operand is required"),
        (">", "+", "[COND]", "line 1, col 59: [COND] cannot appear where an operand is required"),
    ],
)
def test_slot_misuse_messages(cmp, op, operand, message):
    with pytest.raises(sg.SketchSyntaxError) as err:
        sg.parse_sketch(_SLOTS.format(cmp=cmp, op=op, operand=operand))
    assert str(err.value) == message


def test_hole_table_reads_the_node_declarations(twovar_sketch):
    assert [h.token for h in twovar_sketch.holes] == ["[COND]", "[Real]", "[OP]", "[OP]", "[Real]", "[OP]", "[OP]"]
    kinds = [sg.CondHole, sg.RealHole, sg.OpHole, sg.OpHole, sg.RealHole, sg.OpHole, sg.OpHole]
    assert [type(h) for h in twovar_sketch.holes] == kinds and all(isinstance(h, sg.Hole) for h in twovar_sketch.holes)
    # The table holds the AST's own hole nodes.
    assert twovar_sketch.holes[0] is twovar_sketch.guard.cmp and twovar_sketch.holes[-1] is twovar_sketch.ret.ops[-1]


def test_syntax_error_carries_line_and_column():
    with pytest.raises(sg.SketchSyntaxError) as err:
        sg.parse_sketch("fn f(x: f32) -> f32 {\n    return q;\n}")
    assert err.value.line == 2
    assert err.value.col == 12
    assert "line 2" in str(err.value)


def test_end_of_input_column_after_trailing_comment():
    text = "fn f(x: f32) -> f32 { return x; // no closing brace"
    with pytest.raises(sg.SketchSyntaxError) as err:
        sg.parse_sketch(text)
    assert (err.value.line, err.value.col) == (1, len(text) + 1)
    assert "end of input" in str(err.value)


def test_instantiate_onevar_truth_pattern(onevar_sketch, onevar_truth):
    # cond '>', threshold 3.5, then-branch 4.2 * x, else x * 2.1
    a = sg.Assignment((1, 3.5, 4.2, 2, 2, 2.1))
    program = sg.instantiate(onevar_sketch, a)
    assert program.is_concrete
    # Text-equal to the ground truth modulo the function name.
    got = sg.print_program(program)
    want = sg.print_program(onevar_truth).replace("ground_truth_prog", "synth_prog")
    assert got == want


def test_instantiate_onevar_learned_pattern(onevar_sketch):
    a = sg.Assignment((2, 2.2305248, 2.4594104, 2, 2, 4.0324993))
    program = sg.instantiate(onevar_sketch, a)
    assert sg.print_program(program) == ONEVAR_LEARNED


def test_instantiate_empty_assignment_is_identity(onevar_truth):
    assert sg.instantiate(onevar_truth, sg.Assignment(())) == onevar_truth


@pytest.mark.parametrize(
    "values, fragment",
    [
        ((1, 3.5, 4.2, 2, 2), "6 holes"),
        ((1.5, 3.5, 4.2, 2, 2, 2.1), "hole 0: category index must be an integer, got 1.5"),
        ((1, 3.5, 4.2, 2, 7, 2.1), "out of range"),
        ((1, 3.5, 4.2, 2, True, 2.1), "hole 4: category index must be an integer, got True"),
    ],
)
def test_instantiate_rejects_bad_assignments(onevar_sketch, values, fragment):
    with pytest.raises(sg.SketchError) as err:
        sg.instantiate(onevar_sketch, sg.Assignment(values))
    assert fragment in str(err.value)


# Each value fills the [Real] hole 1 of `x [OP] [Real]` as the literal printed, and category index 0 as the
# token printed, or else is a SketchError with the message fragment given: a real hole takes a real number that
# is not a bool, as enumerate_discrete and TrainConfig do, with float inf and nan too (a literal may be either),
# and a category index takes an integral number that is not a bool.
@pytest.mark.parametrize(
    "value, as_real, as_index",
    [
        (np.float32(1.5), "x - 1.5", "hole 0: category index must be an integer, got np.float32(1.5)"),
        (fractions.Fraction(1, 2), "x - 0.5", "hole 0: category index must be an integer, got Fraction(1, 2)"),
        (np.int64(1), "x - 1.0", "x - 2.5"),
        (np.uint8(3), "x - 3.0", "x / 2.5"),
        (10**400, "hole 1: [Real] value is past the float range", "hole 0: category index"),
        (-(10**400), "hole 1: [Real] value is past the float range", "hole 0: category index"),
        (math.inf, "x - inf", "hole 0: category index must be an integer, got inf"),
        (-math.inf, "x - -inf", "hole 0: category index must be an integer, got -inf"),
        (math.nan, "x - nan", "hole 0: category index must be an integer, got nan"),
        (True, "hole 1: [Real] value must be a number, got True", "hole 0: category index must be an integer, got True"),
        ("a", "hole 1: [Real] value must be a number, got 'a'", "hole 0: category index must be an integer, got 'a'"),
        (None, "hole 1: [Real] value must be a number, got None", "hole 0: category index must be an integer, got None"),
    ],
    ids=["float32", "Fraction", "int64", "uint8", "10**400", "-10**400", "inf", "-inf", "nan", "bool", "str", "None"],
)
def test_instantiate_reads_hole_values_by_the_enumeration_rule(value, as_real, as_index):
    sketch = sg.parse_sketch("fn f(x: f32) -> f32 { return x [OP] [Real]; }")
    for values, expected in (((1, value), as_real), ((value, 2.5), as_index)):
        if expected.startswith("hole"):
            with pytest.raises(sg.SketchError, match=re.escape(expected)):
                sg.instantiate(sketch, sg.Assignment(values))
        else:
            assert f"    return {expected};" in sg.print_program(sg.instantiate(sketch, sg.Assignment(values)))


def test_real_hole_accepts_int_value():
    s = sg.parse_sketch("fn f(x: f32) -> f32 { return [Real]; }")
    program = sg.instantiate(s, sg.Assignment((3,)))
    assert program.ret.operands[0] == sg.Lit(3.0)


_X_OP_REAL = "fn f(x: f32) -> f32 { return x [OP] [Real]; }"

# Every entry point that is handed a number, by the rule it reads the number by: its error class, what its
# messages call the number, and a call that returns what it holds.  A finite real is a real number that is
# not a bool and not inf, nan or past the float range; a real may be inf or nan (a literal may be either);
# an integer is an integral number that is not a bool, which the entry point then bounds.
_ENTRY_POINTS = {
    "TrainConfig float field": (
        "finite", sg.ConfigError, "learning_rate", lambda v: sg.TrainConfig(learning_rate=v, iterations=1).learning_rate
    ),
    "TrainConfig int field": (
        "population",
        sg.ConfigError,
        "population",
        lambda v: sg.TrainConfig(learning_rate=0.1, iterations=1, population=v).population,
    ),
    "enumerate_discrete real": (
        "finite",
        sg.SketchError,
        "hole 1: [Real] value",
        lambda v: sg.enumerate_discrete(
            sg.parse_sketch(_X_OP_REAL), [v], sg.SpecSet.from_pairs([((1.0,), 1.0), ((2.0,), 2.0)])
        ).choices[1][0],
    ),
    "instantiate real": (
        "real",
        sg.SketchError,
        "hole 1: [Real] value",
        lambda v: sg.instantiate(sg.parse_sketch(_X_OP_REAL), sg.Assignment((0, v))).ret.operands[1].value,
    ),
    "instantiate category index": (
        "index",
        sg.SketchError,
        "hole 0: category index",
        lambda v: sg.OpHole.tokens.index(sg.instantiate(sg.parse_sketch(_X_OP_REAL), sg.Assignment((v, 1.0))).ret.ops[0]),
    ),
    "GaussianTheta": ("finite", sg.ThetaError, "mu", lambda v: sg.GaussianTheta(v, 1.0).mu),
    "CategoricalTheta": ("finite", sg.ThetaError, "logits[1]", lambda v: sg.CategoricalTheta([0.0, v]).logits[1].item()),
    "theta document": (
        "finite",
        sg.ThetaError,
        "entry 0: mu",
        lambda v: thetas_from_doc([{"kind": "real", "mu": v, "sigma": 1.0}])[0].mu,
    ),
}

_NUMBER, _INTEGER, _PAST = "must be a number, got ", "must be an integer, got ", "is past the float range"

# Each value, and what each rule makes of it: the number held, or the message after what the entry point
# calls the value.  The `population` field takes 2 .. 1 000 000, and the category index of `[OP]` 0 .. 3.
_VALUES = {
    "bool": (True, {"finite": _NUMBER + "True", "real": _NUMBER + "True", "population": _INTEGER + "True"}),
    "str": ("a", {"finite": _NUMBER + "'a'", "real": _NUMBER + "'a'", "population": _INTEGER + "'a'"}),
    "None": (None, {"finite": _NUMBER + "None", "real": _NUMBER + "None", "population": _INTEGER + "None"}),
    "float32": (np.float32(1.5), {"finite": 1.5, "real": 1.5, "population": _INTEGER + "np.float32(1.5)"}),
    "Fraction": (fractions.Fraction(1, 2), {"finite": 0.5, "real": 0.5, "population": _INTEGER + "Fraction(1, 2)"}),
    "int64": (np.int64(1), {"finite": 1.0, "real": 1.0, "population": "must be at least 2, got 1", "index": 1}),
    "10**400": (
        10**400,
        {
            "finite": _PAST,
            "real": _PAST,
            "population": f"must be at most 1000000, got {10**400}",
            "index": f"{10**400} out of range 0..3",
        },
    ),
    "-10**400": (
        -(10**400),
        {
            "finite": _PAST,
            "real": _PAST,
            "population": f"must be at least 2, got {-(10**400)}",
            "index": f"{-(10**400)} out of range 0..3",
        },
    ),
    "10**5000": (
        10**5000,
        {
            "finite": _PAST,
            "real": _PAST,
            "population": "must be at most 1000000, got ~1.000e+5000",
            "index": "~1.000e+5000 out of range 0..3",
        },
    ),
    "inf": (math.inf, {"finite": "must be finite, got inf", "real": math.inf, "population": _INTEGER + "inf"}),
    "nan": (math.nan, {"finite": "must be finite, got nan", "real": math.nan, "population": _INTEGER + "nan"}),
}


@pytest.mark.parametrize("name", list(_VALUES))
def test_every_entry_point_reads_a_number_by_one_rule(name):
    value, outcomes = _VALUES[name]
    wrong = {}
    for entry, (rule, error, what, call) in _ENTRY_POINTS.items():
        expected = outcomes.get(rule, outcomes["population"])  # a category index's type is checked as an int field's
        try:
            got = call(value)
        except error as exc:
            got = str(exc)
            expected = f"{what} {expected}" if isinstance(expected, str) else expected
        except Exception as exc:  # an error of another class, such as a bare ValueError or OverflowError
            got = exc
        if (type(got), repr(got)) != (type(expected), repr(expected)):
            wrong[entry] = (got, expected)
    assert wrong == {}


def _categorical(samples):
    return sg.categorical_gradient(sg.CategoricalTheta([0.0, 0.0]), samples, score="log_softmax_grad")


def _loss_log(tmp_path, log_every):
    records = [sg.TrainRecord(i, 1.0, 1.0, 1.0) for i in range(1, 7)]
    sg.write_loss_csv(records, tmp_path / "loss.csv", log_every=log_every)


# The arguments that a plain function reads as integers or finite numbers, each with a value that breaks its
# rule and the ValueError that names it.  Estimator samples are read one column at a time.
_ARGUMENTS = {
    "categorical index 1.5": (lambda _: _categorical([(1.5, 1.0)]), "sample 0: index must be an integer, got 1.5"),
    "categorical index True": (
        lambda _: _categorical([(0, 1.0), (True, -1.0)]),
        "sample 1: index must be an integer, got True",
    ),
    "categorical index '1'": (
        lambda _: _categorical([(1, 1.0), ("1", 1.0)]),
        "sample 1: index must be an integer, got '1'",
    ),
    "categorical fitness 10**400": (
        lambda _: _categorical([(0, 10**400)]),
        "sample 0: fitness is past the float range",
    ),
    "categorical fitness nan": (
        lambda _: _categorical([(0, 1.0), (1, math.nan)]),
        "sample 1: fitness must be finite, got nan",
    ),
    "categorical index np.True_": (
        lambda _: _categorical([(np.int64(0), 1.0), (np.True_, -1.0)]),
        "sample 1: index must be an integer, got np.True_",
    ),
    "categorical index np.float64(1.5)": (
        lambda _: _categorical([(np.int64(1), 1.0), (np.float64(1.5), 1.0)]),
        "sample 1: index must be an integer, got np.float64(1.5)",
    ),
    "categorical fitness np.False_": (
        lambda _: _categorical([(0, np.float64(1.0)), (1, np.False_)]),
        "sample 1: fitness must be a number, got np.False_",
    ),
    "categorical fitness np.float64(nan)": (
        lambda _: _categorical([(np.int64(0), np.float64(1.0)), (np.int64(1), np.float64(math.nan))]),
        "sample 1: fitness must be finite, got np.float64(nan)",
    ),
    "categorical fitness 10**400 among numpy floats": (
        lambda _: _categorical([(np.int64(0), np.float64(1.0)), (np.int64(1), 10**400)]),
        "sample 1: fitness is past the float range",
    ),
    "gaussian eps np.str_('a')": (
        lambda _: sg.gaussian_gradient(sg.GaussianTheta(0.0, 1.0), [(np.float64(0.5), 1.0), (np.str_("a"), 1.0)]),
        "sample 1: eps must be a number, got np.str_('a')",
    ),
    "gaussian fitness np.float32(inf)": (
        lambda _: sg.gaussian_gradient(sg.GaussianTheta(0.0, 1.0), [(0.5, np.float32(1.0)), (0.5, np.float32(math.inf))]),
        "sample 1: fitness must be finite, got np.float32(inf)",
    ),
    "gaussian eps 'a'": (
        lambda _: sg.gaussian_gradient(sg.GaussianTheta(0.0, 1.0), [("a", 1.0)]),
        "sample 0: eps must be a number, got 'a'",
    ),
    "gaussian fitness inf": (
        lambda _: sg.gaussian_gradient(sg.GaussianTheta(0.0, 1.0), [(0.5, 1.0), (0.5, math.inf)]),
        "sample 1: fitness must be finite, got inf",
    ),
    "sample_categorical_many n 1.5": (
        lambda _: sg.sample_categorical_many(sg.CategoricalTheta([0.0, 0.0]), 1.5, np.random.default_rng(0)),
        "n must be an integer, got 1.5",
    ),
    "sample_categorical_many n True": (
        lambda _: sg.sample_categorical_many(sg.CategoricalTheta([0.0, 0.0]), True, np.random.default_rng(0)),
        "n must be an integer, got True",
    ),
    "hole_streams seed 1.5": (lambda _: sg.hole_streams(1.5, 2), "seed must be an integer, got 1.5"),
    "hole_streams seed True": (lambda _: sg.hole_streams(True, 2), "seed must be an integer, got True"),
    "hole_streams count 2.5": (lambda _: sg.hole_streams(0, 2.5), "n_holes must be an integer, got 2.5"),
    "hole_streams count True": (lambda _: sg.hole_streams(0, True), "n_holes must be an integer, got True"),
    "hole_streams seed -1": (lambda _: sg.hole_streams(-1, 2), "seed must be non-negative, got -1"),
    "hole_streams count -1": (lambda _: sg.hole_streams(0, -1), "n_holes must be non-negative, got -1"),
    "sample_categorical_many n -1": (
        lambda _: sg.sample_categorical_many(sg.CategoricalTheta([0.0, 0.0]), -1, np.random.default_rng(0)),
        "n must be non-negative, got -1",
    ),
    "write_loss_csv log_every 1.5": (lambda tmp: _loss_log(tmp, 1.5), "log_every must be an integer, got 1.5"),
    "write_loss_csv log_every True": (lambda tmp: _loss_log(tmp, True), "log_every must be an integer, got True"),
}


@pytest.mark.parametrize("name", list(_ARGUMENTS))
def test_plain_functions_read_integers_and_samples_by_the_number_rule(name, tmp_path):
    call, message = _ARGUMENTS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(tmp_path)


def test_a_message_names_a_value_too_long_to_print():
    # Python turns at most 4300 digits of an int into text (sys.get_int_max_str_digits), so a message names a
    # longer integer by its leading digits, and a container that holds one by its type.
    with pytest.raises(sg.ThetaError, match=r"^entry 0: mu must be a number, got a list$"):
        thetas_from_doc([{"kind": "real", "mu": [10**5000], "sigma": 1.0}])
    with pytest.raises(sg.ThetaError, match=r"^entry 0: unknown kind ~-1\.000e\+5000$"):
        thetas_from_doc([{"kind": -(10**5000)}])


def test_only_sketch_names_the_number_classes():
    # `sketch.read_number` owns the rule for a number: no other module of the package tests a value against
    # `numbers.Real` or `numbers.Integral`.
    named = {}
    for path in sorted(Path(sg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("Real", "Integral"):
                named.setdefault(path.name, set()).add(node.attr)
            if isinstance(node, ast.ImportFrom) and node.module == "numbers":
                named.setdefault(path.name, set()).update(a.name for a in node.names)
    assert named == {"sketch.py": {"Real", "Integral"}}


def test_no_module_imports_a_private_name_from_another():
    # Each decision has one owning module, which keeps its private names to itself.  Engine runs the training
    # step from dists' accumulators and draws, and freezes its arrays as interp does; the CLI prints `eval`'s rows
    # from the predictions that interp took the MSE of; nothing else crosses.
    allowed = {
        ("cli.py", "interp", "_spec_predictions"),
        ("engine.py", "interp", "_read_only"),
        ("engine.py", "dists", "_categorical_accumulator"),
        ("engine.py", "dists", "_categorical_draws"),
        ("engine.py", "dists", "_gaussian_accumulator"),
    }
    imported = set()
    for path in sorted(Path(sg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("sketchgrad")):
                module = (node.module or "").removeprefix("sketchgrad").lstrip(".")
                imported |= {(path.name, module, a.name) for a in node.names if a.name.startswith("_")}
    assert imported == allowed


def test_print_is_fixed_point_after_one_pass():
    for text in (ONEVAR_SKETCH, ONEVAR_TRUTH, TWOVAR_SKETCH):
        once = sg.print_program(sg.parse_sketch(text))
        assert sg.print_program(sg.parse_sketch(once)) == once


def test_roundtrip_both_benchmark_sketches():
    for text in (ONEVAR_SKETCH, TWOVAR_SKETCH, ONEVAR_TRUTH, ONEVAR_LEARNED):
        s = sg.parse_sketch(text)
        assert sg.parse_sketch(sg.print_program(s)) == s


def test_real_literal_prints_shortest_roundtrip():
    s = sg.parse_sketch("fn f(x: f32) -> f32 { return 3.5; }")
    assert "return 3.5;" in sg.print_program(s)
    s = sg.parse_sketch("fn f(x: f32) -> f32 { return 2.2305248; }")
    assert "return 2.2305248;" in sg.print_program(s)


def test_holes_print_as_bracket_tokens(onevar_sketch):
    text = sg.print_program(onevar_sketch)
    assert "if x [COND] [Real]" in text
    assert "return [Real] [OP] x;" in text
    assert "return x [OP] [Real];" in text


def test_negative_and_nonfinite_literals_roundtrip():
    s = sg.parse_sketch("fn f(x: f32) -> f32 { return x * -3.25 - -1.5; }")
    ops = s.ret.ops
    assert ops == ("*", "-")
    assert s.ret.operands[1] == sg.Lit(-3.25)
    assert s.ret.operands[2] == sg.Lit(-1.5)
    assert sg.parse_sketch(sg.print_program(s)) == s

    s = sg.parse_sketch("fn f(x: f32) -> f32 { return inf + -inf; }")
    assert sg.print_program(s).count("inf") == 2
    nan_prog = sg.parse_sketch("fn f(x: f32) -> f32 { return nan; }")
    assert math.isnan(nan_prog.ret.operands[0].value)


def test_scientific_notation_literals():
    s = sg.parse_sketch("fn f(x: f32) -> f32 { return 1e+300 * 2.5e-3; }")
    assert s.ret.operands[0] == sg.Lit(1e300)
    assert sg.parse_sketch(sg.print_program(s)) == s


# ---------------------------------------------------------------------------
# Property: parse/print round trip over random grammar-valid sketches.

_ident = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in {"fn", "if", "return", "f32", "inf", "nan"}
)
_float = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def sketch_texts(draw, guard=None):
    """Grammar-valid sketch text.  Half the sketches have a guard, comparing
    with any of the four tokens; `guard`, a strategy for that token, gives
    every sketch a guard drawn from it."""
    params = draw(st.lists(_ident, min_size=1, max_size=3, unique=True))
    name = draw(_ident)

    def operand():
        kind = draw(st.sampled_from(["var", "lit", "hole"]))
        if kind == "var":
            return draw(st.sampled_from(params))
        if kind == "lit":
            return repr(draw(_float))
        return "[Real]"

    def chain():
        parts = [operand()]
        for _ in range(draw(st.integers(0, 3))):
            parts.append(draw(st.sampled_from(["+", "-", "*", "/", "[OP]"])))
            parts.append(operand())
        return " ".join(parts)

    lines = [f"fn {name}({', '.join(f'{p}: f32' for p in params)}) -> f32", "{"]
    if guard is not None or draw(st.booleans()):
        cmp = draw(st.sampled_from(["==", ">", "<", "[COND]"]) if guard is None else guard)
        lines += [f"    if {operand()} {cmp} {operand()}", "    {", f"        return {chain()};", "    }", ""]
    lines += [f"    return {chain()};", "}"]
    return "\n".join(lines) + "\n"


@given(sketch_texts())
@settings(max_examples=150, deadline=None)
def test_roundtrip_property(text):
    s = sg.parse_sketch(text)
    printed = sg.print_program(s)
    assert sg.parse_sketch(printed) == s
    assert sg.print_program(sg.parse_sketch(printed)) == printed


# Between two tokens: at least one whitespace character (so no two tokens merge, and no `//` swallows a
# `/`), then any mix of whitespace and `//` comments.
_separator = st.builds(
    lambda first, rest: first + "".join(rest),
    st.sampled_from(" \t\r\n"),
    st.lists(
        st.one_of(
            st.sampled_from(" \t\r\n"),
            st.text(st.characters(exclude_characters="\n", exclude_categories=["Cs"]), max_size=6).map(
                lambda body: f"//{body}\n"
            ),
        ),
        max_size=3,
    ),
)


@given(sketch_texts(), st.data())
@settings(max_examples=150, deadline=None)
def test_token_positions_point_at_their_text(text, data):
    tokens = [tok.text for tok in _tokenize(text)[:-1]]
    spaced = "".join(data.draw(_separator) + tok for tok in tokens) + data.draw(_separator)
    toks = _tokenize(spaced)
    lines = spaced.split("\n")
    assert [tok.text for tok in toks[:-1]] == tokens
    for tok in toks[:-1]:
        assert lines[tok.line - 1][tok.col - 1 :].startswith(tok.text)
    assert (toks[-1].line, toks[-1].col) == (len(lines), len(lines[-1]) + 1)
    assert sg.parse_sketch(spaced) == sg.parse_sketch(text)

import ast
import json
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import sketchgrad as sg
from sketchgrad import cli, engine, interp
from sketchgrad.cli import main

from conftest import ONEVAR_SKETCH, ONEVAR_TRUTH, TWOVAR_SKETCH


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "sketchgrad", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def workdir(tmp_path, onevar_spec):
    (tmp_path / "sketch.txt").write_text(ONEVAR_SKETCH)
    (tmp_path / "truth.txt").write_text(ONEVAR_TRUTH)
    sg.save_spec(onevar_spec, tmp_path / "spec.csv")
    (tmp_path / "config.json").write_text(
        json.dumps({"learning_rate": 0.1, "iterations": 120, "seed": 5})
    )
    return tmp_path


def test_train_writes_outputs(workdir):
    out = workdir / "run"
    code, stdout, stderr = run_cli(
        "train",
        "--sketch", str(workdir / "sketch.txt"),
        "--spec", str(workdir / "spec.csv"),
        "--config", str(workdir / "config.json"),
        "--out", str(out),
    )
    assert code == 0, stderr
    assert "best spec-MSE:" in stdout
    for name in ("loss.csv", "theta_final.json", "theta_best.json", "program_final.txt", "program_best.txt"):
        assert (out / name).exists()
    # Outputs are loadable and consistent.
    best = sg.parse_sketch((out / "program_best.txt").read_text())
    assert best.is_concrete
    thetas = sg.load_thetas(out / "theta_best.json", sg.parse_sketch(ONEVAR_SKETCH))
    assert len(thetas) == 6
    lines = (out / "loss.csv").read_text().splitlines()
    assert lines[0].startswith("iteration,")
    assert lines[-1].split(",")[0] == "120"


def test_train_is_byte_deterministic(workdir):
    args = lambda out: (
        "train",
        "--sketch", str(workdir / "sketch.txt"),
        "--spec", str(workdir / "spec.csv"),
        "--config", str(workdir / "config.json"),
        "--out", str(out),
        "--seed", "7",
    )
    code1, out1, _ = run_cli(*args(workdir / "a"))
    code2, out2, _ = run_cli(*args(workdir / "b"))
    assert code1 == code2 == 0
    assert out1 == out2
    for name in ("loss.csv", "theta_final.json", "theta_best.json", "program_final.txt", "program_best.txt"):
        assert (workdir / "a" / name).read_bytes() == (workdir / "b" / name).read_bytes()


def test_missing_spec_file_exits_2_with_spec_prefix(workdir):
    code, _, stderr = run_cli(
        "train",
        "--sketch", str(workdir / "sketch.txt"),
        "--spec", str(workdir / "nope.csv"),
        "--config", str(workdir / "config.json"),
        "--out", str(workdir / "out"),
    )
    assert code == 2
    assert stderr.startswith("SPEC:")


def test_bad_sketch_exits_2_with_parse_prefix(workdir):
    (workdir / "bad.txt").write_text("fn f() -> f32 { return 1.0; }")
    code, _, stderr = run_cli(
        "eval", "--program", str(workdir / "bad.txt"), "--spec", str(workdir / "spec.csv")
    )
    assert code == 2
    assert stderr.startswith("PARSE:")


def test_non_decimal_digit_in_sketch_exits_2_with_parse_prefix(workdir):
    (workdir / "bad.txt").write_text("fn f(x: f32) -> f32 { return x + ²; }", encoding="utf-8")
    code, stdout, stderr = run_cli(
        "enumerate", "--sketch", str(workdir / "bad.txt"), "--spec", str(workdir / "spec.csv")
    )
    assert code == 2
    assert stderr.startswith("PARSE: line 1, col 34: unexpected character")
    assert stdout == ""


def test_bad_config_exits_2_with_config_prefix(workdir):
    (workdir / "bad.json").write_text('{"learning_rate": -1, "iterations": 5}')
    code, _, stderr = run_cli(
        "train",
        "--sketch", str(workdir / "sketch.txt"),
        "--spec", str(workdir / "spec.csv"),
        "--config", str(workdir / "bad.json"),
        "--out", str(workdir / "out"),
    )
    assert code == 2
    assert stderr.startswith("CONFIG:")


def test_config_number_past_the_float_range_exits_2_with_config_prefix(workdir):
    (workdir / "huge.json").write_text('{"learning_rate": 1%s, "iterations": 5}' % ("0" * 400))
    code, stdout, stderr = run_cli(
        "train",
        "--sketch", str(workdir / "sketch.txt"),
        "--spec", str(workdir / "spec.csv"),
        "--config", str(workdir / "huge.json"),
        "--out", str(workdir / "out"),
    )
    assert code == 2
    assert stderr.startswith("CONFIG: learning_rate is past the float range")
    assert stdout == "" and not (workdir / "out").exists()


def test_config_population_past_its_bound_exits_2_with_config_prefix(workdir):
    population = 10**30
    (workdir / "huge.json").write_text(json.dumps({"learning_rate": 0.1, "iterations": 5, "population": population}))
    code, stdout, stderr = run_cli(
        "train",
        "--sketch", str(workdir / "sketch.txt"),
        "--spec", str(workdir / "spec.csv"),
        "--config", str(workdir / "huge.json"),
        "--out", str(workdir / "out"),
    )
    assert code == 2
    assert stderr == f"CONFIG: population must be at most {engine.MAX_CANDIDATES}, got {population}\n"
    assert stdout == "" and not (workdir / "out").exists()


def test_train_reports_the_last_trained_step(workdir):
    # The restart patience of this run runs out on its final iteration.
    (workdir / "long.json").write_text(json.dumps({"learning_rate": 0.1, "iterations": 4158}))
    out = workdir / "run"
    code, stdout, stderr = run_cli(
        "train",
        "--sketch", str(workdir / "sketch.txt"),
        "--spec", str(workdir / "spec.csv"),
        "--config", str(workdir / "long.json"),
        "--out", str(out),
        "--seed", "0",
    )
    assert code == 0, stderr
    assert stdout.splitlines()[-1] == "final spec-MSE: 0.028556710022490994"
    assert (out / "loss.csv").read_text().splitlines()[-1].split(",")[2] == "0.028556710022490994"
    program = sg.parse_sketch((out / "program_final.txt").read_text())
    assert sg.eval_spec_loss(program, sg.load_spec(workdir / "spec.csv")) == 0.028556710022490994


@pytest.mark.parametrize("flag, value", [("--log-every", "0"), ("--seed", "-1")])
def test_bad_train_flag_exits_2_before_training(workdir, flag, value):
    out = workdir / "run"
    code, stdout, stderr = run_cli(
        "train",
        "--sketch", str(workdir / "sketch.txt"),
        "--spec", str(workdir / "spec.csv"),
        "--config", str(workdir / "config.json"),
        "--out", str(out),
        flag, value,
    )
    assert code == 2
    assert stderr.startswith("CONFIG:") and stderr.count("\n") == 1, stderr
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("learning_rate", [1e300, 1e308])
def test_diverged_train_exits_3_with_train_prefix(workdir, learning_rate):
    # At these step sizes every argmax program scores the penalty: the run
    # must not report the penalty as its best spec-MSE and exit 0.
    (workdir / "diverge.json").write_text(json.dumps({"learning_rate": learning_rate, "iterations": 200}))
    out = workdir / "run"
    code, stdout, stderr = run_cli(
        "train",
        "--sketch", str(workdir / "sketch.txt"),
        "--spec", str(workdir / "spec.csv"),
        "--config", str(workdir / "diverge.json"),
        "--out", str(out),
    )
    assert code == 3
    assert stderr.startswith("TRAIN:")
    assert stdout == ""
    for name in ("loss.csv", "theta_final.json", "theta_best.json", "program_final.txt", "program_best.txt"):
        assert (out / name).exists()


def test_diverging_adam_run_exits_3_with_train_prefix(workdir):
    # Adam's first steps are about +-learning_rate, so the logits pass the
    # float range within a few iterations; that is a diverged run, not a bad
    # input document.
    (workdir / "adam.json").write_text(json.dumps({"learning_rate": 1e308, "optimizer": "adam", "iterations": 200}))
    code, stdout, stderr = run_cli(
        "train",
        "--sketch", str(workdir / "sketch.txt"),
        "--spec", str(workdir / "spec.csv"),
        "--config", str(workdir / "adam.json"),
        "--out", str(workdir / "run"),
    )
    assert code == 3
    assert stderr.startswith("TRAIN:") and "iteration" in stderr
    assert stdout == ""


def test_eval_ground_truth(workdir):
    code, stdout, _ = run_cli(
        "eval", "--program", str(workdir / "truth.txt"), "--spec", str(workdir / "spec.csv")
    )
    assert code == 0
    assert "MSE: 0.0" in stdout
    assert stdout.count("pred=") == 4


def test_eval_rejects_sketch_with_holes(workdir):
    code, _, stderr = run_cli(
        "eval", "--program", str(workdir / "sketch.txt"), "--spec", str(workdir / "spec.csv")
    )
    assert code == 2
    assert "holes" in stderr


def test_show_prints_argmax_and_distributions(workdir):
    thetas = [
        sg.CategoricalTheta([0.0, 4.0, 0.0]),
        sg.GaussianTheta(3.5, 0.5),
        sg.GaussianTheta(4.2, 0.5),
        sg.CategoricalTheta([0.0, 0.0, 4.0, 0.0]),
        sg.CategoricalTheta([0.0, 0.0, 4.0, 0.0]),
        sg.GaussianTheta(2.1, 0.5),
    ]
    sg.save_thetas(thetas, workdir / "theta.json")
    code, stdout, _ = run_cli(
        "show", "--sketch", str(workdir / "sketch.txt"), "--theta", str(workdir / "theta.json")
    )
    assert code == 0
    assert "if x > 3.5" in stdout
    assert "hole 1 [Real]: mu=3.5 sigma=0.5" in stdout
    # Probabilities are printed and sum to 1.000 per categorical hole.
    for line in stdout.splitlines():
        if "[COND]" in line or "[OP]" in line:
            assert "sum=1.000" in line
            probs = [float(p.rsplit("=", 1)[1]) for p in line.split() if p.startswith("p(")]
            assert abs(sum(probs) - 1.0) < 5e-6


def test_show_kind_mismatch(workdir):
    sg.save_thetas([sg.GaussianTheta(0.0, 1.0)] * 6, workdir / "theta.json")
    code, _, stderr = run_cli(
        "show", "--sketch", str(workdir / "sketch.txt"), "--theta", str(workdir / "theta.json")
    )
    assert code == 2
    assert stderr.startswith("IO:")


_GOOD_THETAS = [
    {"kind": "cat", "logits": [0.0, 4.0, 0.0]},
    {"kind": "real", "mu": 3.5, "sigma": 0.5},
    {"kind": "real", "mu": 4.2, "sigma": 0.5},
    {"kind": "cat", "logits": [0.0, 0.0, 4.0, 0.0]},
    {"kind": "cat", "logits": [0.0, 0.0, 4.0, 0.0]},
    {"kind": "real", "mu": 2.1, "sigma": 0.5},
]


@pytest.mark.parametrize(
    "entry, field, value, message",
    [
        (2, "mu", [1], "entry 2: mu must be a number, got [1]"),
        (2, "mu", None, "entry 2: mu must be a number, got None"),
        (5, "sigma", "0.5", "entry 5: sigma must be a number, got '0.5'"),
        (0, "logits", ["a", "b", "c"], "entry 0: logits[0] must be a number, got 'a'"),
        (4, "logits", "abcd", "entry 4: logits must be an array of numbers, got 'abcd'"),
        (1, "mu", True, "entry 1: mu must be a number, got True"),
        (3, "logits", [0.0, False, 4.0, 0.0], "entry 3: logits[1] must be a number, got False"),
    ],
)
def test_show_rejects_a_theta_entry_that_is_not_a_number(workdir, entry, field, value, message):
    doc = json.loads(json.dumps(_GOOD_THETAS))
    doc[entry][field] = value
    (workdir / "theta.json").write_text(json.dumps(doc))
    code, stdout, stderr = run_cli(
        "show", "--sketch", str(workdir / "sketch.txt"), "--theta", str(workdir / "theta.json")
    )
    assert (code, stdout, stderr) == (2, "", f"IO: {message}\n")


def test_enumerate_top(workdir):
    code, stdout, _ = run_cli(
        "enumerate",
        "--sketch", str(workdir / "sketch.txt"),
        "--spec", str(workdir / "spec.csv"),
        "--reals", "3.5,4.2,2.1",
    )
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 48
    assert "loss=0.0" in lines[0]
    assert "tokens=[> * *]" in lines[0]

    code, stdout, _ = run_cli(
        "enumerate",
        "--sketch", str(workdir / "sketch.txt"),
        "--spec", str(workdir / "spec.csv"),
        "--reals", "3.5,4.2,2.1",
        "--top", "1",
    )
    assert code == 0
    assert len(stdout.splitlines()) == 1


@pytest.mark.parametrize("top", ["0", "-1"])
def test_enumerate_rejects_top_below_one(workdir, top):
    code, stdout, stderr = run_cli(
        "enumerate",
        "--sketch", str(workdir / "sketch.txt"),
        "--spec", str(workdir / "spec.csv"),
        "--reals", "3.5,4.2,2.1",
        "--top", top,
    )
    assert code == 2
    assert stderr.startswith("CONFIG:") and "--top" in stderr
    assert stdout == ""


def test_enumerate_real_count_mismatch(workdir):
    code, _, stderr = run_cli(
        "enumerate",
        "--sketch", str(workdir / "sketch.txt"),
        "--spec", str(workdir / "spec.csv"),
        "--reals", "3.5",
    )
    assert code == 2
    assert stderr.startswith("CONFIG:")


@pytest.mark.parametrize("bad", ["nan", "inf", "1e400"])
def test_enumerate_rejects_a_non_finite_real(workdir, twovar_spec, bad):
    (workdir / "twovar.sketch").write_text(TWOVAR_SKETCH)
    sg.save_spec(twovar_spec, workdir / "spec2.csv")
    code, stdout, stderr = run_cli(
        "enumerate",
        "--sketch", str(workdir / "twovar.sketch"),
        "--spec", str(workdir / "spec2.csv"),
        "--reals", f"{bad},2",
    )
    value = "nan" if bad == "nan" else "inf"  # 1e400 reads as inf
    assert (code, stdout, stderr) == (2, "", f"CONFIG: hole 1: [Real] value must be finite, got {value}\n")


def test_enumerate_spec_arity_mismatch(workdir, twovar_spec):
    sg.save_spec(twovar_spec, workdir / "spec2.csv")
    code, _, stderr = run_cli(
        "enumerate",
        "--sketch", str(workdir / "sketch.txt"),
        "--spec", str(workdir / "spec2.csv"),
        "--reals", "3.5,4.2,2.1",
    )
    assert code == 2
    assert stderr.startswith("SPEC:")


@pytest.mark.parametrize(
    "command, args",
    [
        ("train", ("--sketch", "sketch.txt", "--config", "config.json", "--out", "run")),
        ("eval", ("--program", "truth.txt")),
    ],
)
def test_a_spec_that_does_not_fit_is_the_library_spec_error(workdir, twovar_spec, command, args):
    sg.save_spec(twovar_spec, workdir / "spec2.csv")
    args = [a if a.startswith("--") else str(workdir / a) for a in args]
    code, stdout, stderr = run_cli(command, *args, "--spec", str(workdir / "spec2.csv"))
    assert (code, stdout, stderr) == (2, "", "SPEC: spec arity 2 does not match sketch arity 1\n")
    assert not (workdir / "run").exists()


def test_the_cli_checks_no_arity_itself():
    # The fit of a spec to its sketch or program is interp's rule (`compile_sketch`, `eval_spec_loss`); a
    # comparison here would be a second copy of it.  Reading an arity, as `gen-spec` does, is not a comparison.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    compared = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(o, ast.Attribute) and o.attr == "arity" for o in [node.left, *node.comparators])
    ]
    assert compared == []


def test_gen_spec_roundtrip(workdir, onevar_spec):
    (workdir / "inputs.csv").write_text("in_0\n1.0\n2.0\n4.0\n5.0\n")
    out = workdir / "generated.csv"
    code, stdout, _ = run_cli(
        "gen-spec",
        "--program", str(workdir / "truth.txt"),
        "--inputs", str(workdir / "inputs.csv"),
        "--out", str(out),
    )
    assert code == 0
    assert "wrote 4 pairs" in stdout
    spec = sg.load_spec(out)
    assert spec == onevar_spec


def test_gen_spec_empty_inputs(workdir):
    (workdir / "inputs.csv").write_text("in_0\n")
    code, _, stderr = run_cli(
        "gen-spec",
        "--program", str(workdir / "truth.txt"),
        "--inputs", str(workdir / "inputs.csv"),
        "--out", str(workdir / "g.csv"),
    )
    assert code == 2
    assert stderr.startswith("SPEC:")


def test_gen_spec_reads_quoted_cells_and_skips_blank_lines(workdir, onevar_spec):
    (workdir / "inputs.csv").write_text('in_0\n"1.0"\n\n2.0\n4.0\n\n"5.0"\n')
    out = workdir / "generated.csv"
    code, stdout, _ = run_cli(
        "gen-spec",
        "--program", str(workdir / "truth.txt"),
        "--inputs", str(workdir / "inputs.csv"),
        "--out", str(out),
    )
    assert code == 0
    assert sg.load_spec(out) == onevar_spec


@pytest.mark.parametrize(
    "text, message",
    [
        # A malformed first row is not a header, so it is not dropped.
        ("1.0,abc\n2.0\n", "bad header ['1.0', 'abc']: expected in_0"),
        # Rows are named by their line in the file.
        ("in_0\n1.0\n\n2.0\nabc\n", "row 5, column 0: 'abc' is not a number"),
        ("in_0\n1.0\n\n2.0,3.0\n", "row 4: expected 1 columns, got 2"),
        ("in_0\n1.0\ninf\n", "row 3, column 0: non-finite value 'inf'"),
        ("in_0,in_1\n1.0,2.0\n", "bad header ['in_0', 'in_1']: expected in_0"),
        # The csv module's own errors name the file line too.
        pytest.param(
            "in_0\n1.0\n\n" + "1" * 200_000 + "\n",
            "row 4: field larger than field limit (131072)",
            id="oversized-field-after-a-blank-line",
        ),
    ],
)
def test_gen_spec_rejects_bad_inputs(workdir, text, message):
    (workdir / "inputs.csv").write_text(text)
    code, stdout, stderr = run_cli(
        "gen-spec",
        "--program", str(workdir / "truth.txt"),
        "--inputs", str(workdir / "inputs.csv"),
        "--out", str(workdir / "g.csv"),
    )
    assert code == 2
    assert stderr == f"SPEC: {message}\n"
    assert stdout == "" and not (workdir / "g.csv").exists()


def test_gen_spec_names_the_file_line_of_a_non_finite_output(workdir):
    (workdir / "recip.txt").write_text("fn f(x: f32) -> f32 { return 1.0 / x; }")
    (workdir / "inputs.csv").write_text("in_0\n1.0\n\n0.0\n")
    code, stdout, stderr = run_cli(
        "gen-spec",
        "--program", str(workdir / "recip.txt"),
        "--inputs", str(workdir / "inputs.csv"),
        "--out", str(workdir / "g.csv"),
    )
    assert code == 2
    assert stderr == "SPEC: program output is not a valid spec: row 4: non-finite value\n"
    assert stdout == "" and not (workdir / "g.csv").exists()


def test_main_callable_directly(workdir, capsys):
    code = main(["eval", "--program", str(workdir / "truth.txt"), "--spec", str(workdir / "spec.csv")])
    assert code == 0
    assert "MSE: 0.0" in capsys.readouterr().out


def test_eval_runs_each_row_through_the_interpreter_once(workdir, capsys, monkeypatch):
    # The rows are printed from the predictions the MSE was taken of: one `eval_program` call per spec row.
    calls = []
    scalar = interp.eval_program

    def counted(program, x):
        calls.append(x)
        return scalar(program, x)

    monkeypatch.setattr(interp, "eval_program", counted)
    monkeypatch.setattr(cli, "eval_program", counted)
    code = main(["eval", "--program", str(workdir / "truth.txt"), "--spec", str(workdir / "spec.csv")])
    assert code == 0
    assert capsys.readouterr().out.count("pred=") == 4
    assert calls == [[1.0], [2.0], [4.0], [5.0]]


def test_enumerate_top_builds_only_the_programs_it_prints(workdir, capsys, monkeypatch):
    built = []

    def counting(values):
        built.append(values)
        return sg.Assignment(values)

    monkeypatch.setattr(engine, "Assignment", counting)
    args = ["enumerate", "--sketch", str(workdir / "sketch.txt"), "--spec", str(workdir / "spec.csv")]
    code = main([*args, "--reals", "3.5,4.2,2.1", "--top", "2"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 and len(built) == 2


# ---------------------------------------------------------------------------
# Every input file is read by one reader, and every way a read can fail ends in a prefixed error.

DEMOS = Path(__file__).resolve().parents[1] / "demos" / "data"
BOM = "\ufeff".encode()
PREFIXES = ("PARSE:", "SPEC:", "CONFIG:", "IO:", "TRAIN:")

# One command per subcommand, on the files that `_inputs` writes; `_args` makes each file a path.
TRAIN = ("train", "--sketch", "sketch.txt", "--spec", "spec.csv", "--config", "config.json", "--out", "run")
SHOW = ("show", "--sketch", "sketch.txt", "--theta", "theta.json")
EVAL = ("eval", "--program", "truth.txt", "--spec", "spec.csv")
ENUMERATE = ("enumerate", "--sketch", "sketch.txt", "--spec", "spec.csv", "--reals", "3.5,4.2,2.1")
GEN_SPEC = ("gen-spec", "--program", "truth.txt", "--inputs", "inputs.csv", "--out", "g.csv")
FILE_FLAGS = {"--sketch", "--spec", "--config", "--out", "--theta", "--program", "--inputs"}


def _inputs(workdir):
    """Adds the files that `workdir` lacks for the commands above.  Its sketch, program and spec are the
    demo one-input files and the spec that `gen-spec` makes of them; its config is a short run's."""
    (workdir / "inputs.csv").write_bytes((DEMOS / "onevar_inputs.csv").read_bytes())
    (workdir / "theta.json").write_text(json.dumps(_GOOD_THETAS))


def _args(workdir, command, flag=None, name=None):
    """`command` with each file argument a path in `workdir`, and `flag`'s file replaced by `name`."""
    args = list(command)
    if flag is not None:
        args[args.index(flag) + 1] = name
    return [str(workdir / a) if before in FILE_FLAGS else a for before, a in zip([None, *args], args)]


def _run(capsys, args):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


_SKETCH = ONEVAR_SKETCH.encode()
_DEEP = b"[" * 100_000 + b"]" * 100_000
_HUGE_INT_CONFIG = b'{"learning_rate": 0.1, "iterations": ' + b"1" * 5001 + b"}"
_LONG = b"1" * 200_000  # past the csv module's field size limit
_HUGE_MU_THETA = json.dumps(_GOOD_THETAS).replace('"mu": 3.5', '"mu": ' + "1" * 5001).encode()


@pytest.mark.parametrize(
    "command, flag, data, start",
    [
        pytest.param(TRAIN, "--sketch", b"\xff" + _SKETCH, "PARSE: cannot read", id="train-sketch-utf8"),
        pytest.param(EVAL, "--program", b"\xff" + ONEVAR_TRUTH.encode(), "PARSE: cannot read", id="eval-program-utf8"),
        pytest.param(ENUMERATE, "--sketch", b"\xff" + _SKETCH, "PARSE: cannot read", id="enumerate-sketch-utf8"),
        pytest.param(TRAIN, "--spec", b"\xffin_0,out\n1,2\n", "SPEC: cannot read", id="train-spec-utf8"),
        pytest.param(GEN_SPEC, "--inputs", b"\xffin_0\n1\n", "SPEC: cannot read", id="gen-spec-inputs-utf8"),
        pytest.param(SHOW, "--theta", b"\xff[]", "IO: cannot read", id="show-theta-utf8"),
        pytest.param(TRAIN, "--config", _DEEP, "CONFIG: malformed", id="train-config-deep"),
        pytest.param(SHOW, "--theta", _DEEP, "IO: malformed", id="show-theta-deep"),
        pytest.param(TRAIN, "--config", _HUGE_INT_CONFIG, "CONFIG: malformed", id="train-config-huge-int"),
        pytest.param(SHOW, "--theta", _HUGE_MU_THETA, "IO: malformed", id="show-theta-huge-int"),
        pytest.param(TRAIN, "--spec", b"in_0,out\n" + _LONG + b",2\n", "SPEC: row 2", id="train-spec-long-field"),
        pytest.param(GEN_SPEC, "--inputs", b"in_0\n" + _LONG + b"\n", "SPEC: row 2", id="gen-spec-inputs-long-field"),
    ],
)
def test_an_unreadable_input_file_exits_2_with_its_prefix(workdir, capsys, command, flag, data, start):
    _inputs(workdir)
    (workdir / "bad").write_bytes(data)
    code, stdout, stderr = _run(capsys, _args(workdir, command, flag, "bad"))
    assert (code, stdout) == (2, "")
    assert stderr.startswith(start) and stderr.count("\n") == 1 and "Traceback" not in stderr, stderr[:300]


@pytest.mark.parametrize(
    "command, flag",
    [
        pytest.param(SHOW, "--sketch", id="sketch"),
        pytest.param(EVAL, "--spec", id="spec"),
        pytest.param(GEN_SPEC, "--inputs", id="inputs"),
        pytest.param(TRAIN, "--config", id="config"),
        pytest.param(SHOW, "--theta", id="theta"),
    ],
)
def test_a_byte_order_mark_is_skipped_on_input_and_never_written(workdir, capsys, command, flag):
    _inputs(workdir)
    plain = _args(workdir, command)
    name = plain[plain.index(flag) + 1]
    Path(name + ".bom").write_bytes(BOM + Path(name).read_bytes())
    written = lambda: {p.name: p.read_bytes() for p in [workdir / "g.csv", *workdir.glob("run/*")] if p.exists()}
    expected = _run(capsys, plain), written()
    assert expected[0][0] == 0, expected
    assert _run(capsys, _args(workdir, command, flag, name + ".bom")) == expected[0]
    assert written() == expected[1]
    assert not any(data.startswith(BOM) for data in expected[1].values())


# Every file argument of every subcommand.
_FILE_ARGS = [
    (TRAIN, "--sketch"), (TRAIN, "--spec"), (TRAIN, "--config"),
    (SHOW, "--sketch"), (SHOW, "--theta"),
    (EVAL, "--program"), (EVAL, "--spec"),
    (ENUMERATE, "--sketch"), (ENUMERATE, "--spec"),
    (GEN_SPEC, "--program"), (GEN_SPEC, "--inputs"),
]


def _insert(data, rng, piece):
    at = rng.randrange(len(data) + 1)
    return data[:at] + piece + data[at:]


def _flip(data, rng):
    data = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return bytes(data)


def _huge_numeral(data, rng):
    numerals = list(re.finditer(rb"\d+", data))
    if not numerals:
        return _insert(data, rng, b"9" * 5001)
    m = rng.choice(numerals)
    return data[: m.start()] + b"9" * rng.choice([400, 5001]) + data[m.end() :]


_MUTATIONS = {
    "truncate": lambda data, rng: data[: rng.randrange(len(data))],
    "flip": _flip,
    "invalid-utf8": lambda data, rng: _insert(data, rng, rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80"])),
    "bom": lambda data, rng: BOM + data,
    "crlf": lambda data, rng: data.replace(b"\n", b"\r\n"),
    "deep": lambda data, rng: _insert(data, rng, b"[" * 100_000),
    "huge-numeral": _huge_numeral,
    "long-line": lambda data, rng: _insert(data, rng, _LONG),
}


@pytest.mark.parametrize("command, flag", _FILE_ARGS, ids=[f"{c[0]}{f}" for c, f in _FILE_ARGS])
def test_mutated_input_files_end_in_success_or_a_prefixed_error(workdir, capsys, monkeypatch, command, flag):
    # A mutated config or sketch could ask for a long run: training stops after 5 iterations and
    # enumeration refuses more than 1 000 programs.  Neither cap changes how a file is read.
    short = lambda config: replace(config, iterations=min(config.iterations, 5))
    monkeypatch.setattr(cli, "train", lambda sketch, spec, config: engine.train(sketch, spec, short(config)))
    monkeypatch.setattr(cli, "enumerate_discrete", lambda *args: engine.enumerate_discrete(*args, cap=1000))
    _inputs(workdir)
    (workdir / "config.json").write_bytes((DEMOS / "onevar_config.json").read_bytes())
    args = _args(workdir, command)
    original = Path(args[args.index(flag) + 1]).read_bytes()
    rng = random.Random(0)
    for kind, mutate in _MUTATIONS.items():
        for trial in range(3):
            (workdir / "mutant").write_bytes(mutate(original, rng))
            code, _, stderr = _run(capsys, _args(workdir, command, flag, "mutant"))
            case = f"{kind} #{trial}: exit {code}, stderr {stderr[:300]!r}"
            assert code in (0, 2, 3) and "Traceback" not in stderr, case
            assert code == 0 or stderr.startswith(PREFIXES), case

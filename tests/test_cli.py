import json
import subprocess
import sys

import pytest

import sketchgrad as sg
from sketchgrad import engine
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
    assert stderr.startswith("CONFIG: learning_rate must be finite, got 1000")
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
        (2, "mu", None, "entry 2: mu must be a number, got null"),
        (5, "sigma", "0.5", 'entry 5: sigma must be a number, got "0.5"'),
        (0, "logits", ["a", "b", "c"], 'entry 0: logits[0] must be a number, got "a"'),
        (4, "logits", "abcd", 'entry 4: logits must be an array of numbers, got "abcd"'),
        (1, "mu", True, "entry 1: mu must be a number, got true"),
        (3, "logits", [0.0, False, 4.0, 0.0], "entry 3: logits[1] must be a number, got false"),
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
    assert (code, stdout, stderr) == (2, "", f"CONFIG: hole 1: [Real] value {value} is not finite\n")


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

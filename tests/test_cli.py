import json
import subprocess
import sys

import pytest

import sketchgrad as sg
from sketchgrad.cli import main

from conftest import ONEVAR_SKETCH, ONEVAR_TRUTH


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


def test_main_callable_directly(workdir, capsys):
    code = main(["eval", "--program", str(workdir / "truth.txt"), "--spec", str(workdir / "spec.csv")])
    assert code == 0
    assert "MSE: 0.0" in capsys.readouterr().out

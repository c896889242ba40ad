import json

import pytest

import sketchgrad as sg
from sketchgrad.io import load_config, load_spec, save_spec, write_loss_csv


# ---------------------------------------------------------------------------
# spec CSV


def _write(tmp_path, text, name="spec.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_spec_onevar(tmp_path):
    path = _write(tmp_path, "in_0,out\n1.0,2.1\n2.0,4.2\n4.0,16.8\n5.0,21.0\n")
    spec = load_spec(path)
    assert spec.arity == 1
    assert spec.inputs.tolist() == [[1.0], [2.0], [4.0], [5.0]]
    assert spec.outputs.tolist() == [2.1, 4.2, 16.8, 21.0]


def test_load_spec_twovar(tmp_path):
    path = _write(
        tmp_path,
        "in_0,in_1,out\n5.8,2.5,14.1\n5.0,6.2,-4.677419\n7.4,6.1,20.9\n5.5,9.4,-5.287234\n",
    )
    spec = load_spec(path)
    assert spec.arity == 2
    assert spec.inputs.tolist()[0] == [5.8, 2.5]
    assert spec.outputs.tolist()[1] == -4.677419


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("in_0,out\n", "no rows"),
        ("in_0,out\n1.0,2.0,3.0\n", "row 2"),
        ("in_0,out\n1.0,abc\n", "not a number"),
        ("in_0,out\n1.0,inf\n", "non-finite"),
        ("x,out\n1.0,2.0\n", "header"),
        ("out\n1.0\n", "header"),
        ("in_0,in_1,out\n1.0,2.0\n", "row 2"),
        ("in_0,out\n1,2\n\n3,x\n", "row 4, column 1"),
    ],
)
def test_load_spec_rejects_bad_files(tmp_path, text, fragment):
    path = _write(tmp_path, text)
    with pytest.raises(sg.SpecError) as err:
        load_spec(path)
    assert fragment in str(err.value)


def test_load_spec_missing_file(tmp_path):
    with pytest.raises(sg.SpecError, match="cannot read"):
        load_spec(tmp_path / "absent.csv")


def test_spec_roundtrip(tmp_path, twovar_spec):
    path = tmp_path / "spec.csv"
    save_spec(twovar_spec, path)
    again = load_spec(path)
    assert again == twovar_spec  # bit-exact via shortest round-trip decimals


# ---------------------------------------------------------------------------
# config JSON


def test_load_config_with_defaults(tmp_path):
    path = _write(tmp_path, '{"learning_rate": 0.1, "iterations": 10000, "optimizer": "sgd"}', "c.json")
    cfg = load_config(path)
    assert cfg.learning_rate == 0.1
    assert cfg.iterations == 10000
    assert cfg.population == 50
    assert cfg.sigma == 0.5


def test_load_config_minimal(tmp_path):
    path = _write(tmp_path, '{"learning_rate": 0.0995, "iterations": 20000}', "c.json")
    cfg = load_config(path)
    assert cfg.learning_rate == 0.0995
    assert cfg.iterations == 20000


@pytest.mark.parametrize(
    "text, fragment",
    [
        ('{"learning_rate": -1, "iterations": 10}', "positive"),
        ('{"learning_rate": 0.1}', "missing required"),
        ('{"learning_rate": 0.1, "iterations": 10, "learningrate": 2}', "unknown config keys"),
        ('{"learning_rate": 0.1, "iterations": 10.5}', "integer"),
        ('{"learning_rate": 0.1, "iterations": 10, "optimizer": 1}', "string"),
        ('{"learning_rate": 0.1, "iterations": 10, "parallel": true}', "unknown config keys"),
        ('{"learning_rate": "fast", "iterations": 10}', "number"),
        ("[1, 2]", "object"),
        ("{broken", "malformed"),
    ],
)
def test_load_config_rejects_bad_files(tmp_path, text, fragment):
    path = _write(tmp_path, text, "c.json")
    with pytest.raises(sg.ConfigError) as err:
        load_config(path)
    assert fragment in str(err.value)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(sg.ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# loss CSV


def test_write_loss_csv_cadence(tmp_path):
    records = [
        sg.TrainRecord(i, float(i), float(i) / 2, float(i) / 4) for i in range(1, 26)
    ]
    path = tmp_path / "loss.csv"
    write_loss_csv(records, path, log_every=10)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,mean_population_loss,argmax_loss,best_so_far_loss"
    assert [l.split(",")[0] for l in lines[1:]] == ["10", "20", "25"]
    assert lines[1] == "10,10.0,5.0,2.5"


def test_write_loss_csv_every_iteration(tmp_path):
    records = [sg.TrainRecord(1, 1.5, 0.5, 0.5), sg.TrainRecord(2, 2.5, 0.25, 0.25)]
    path = tmp_path / "loss.csv"
    write_loss_csv(records, path, log_every=1)
    assert len(path.read_text().splitlines()) == 3


def test_theta_mu_survives_roundtrip_exactly(tmp_path):
    thetas = [sg.GaussianTheta(2.2305248, 0.5)]
    path = tmp_path / "t.json"
    sg.save_thetas(thetas, path)
    assert sg.load_thetas(path)[0].mu == 2.2305248
    raw = json.loads(path.read_text())
    assert raw[0]["mu"] == 2.2305248

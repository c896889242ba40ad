"""The benchmark worker reads sketchgrad names at import time, wraps them in
spans and checks the outputs of the calls it times; a change in `src/` that
breaks any of that must fail here, not in every benchmark run."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from sketchgrad import engine

ROOT = Path(__file__).resolve().parents[1]
# No bytecode is written, so that bench/ is left as it is.
ENV = dict(os.environ, PYTHONPATH=f"{ROOT / 'bench'}{os.pathsep}{ROOT / 'src'}", PYTHONDONTWRITEBYTECODE="1")
WORKLOADS = runpy.run_path(str(ROOT / "bench" / "workloads.py"))  # run from source, also without bytecode


def test_bench_worker_imports():
    proc = subprocess.run(
        [sys.executable, "-c", "import worker"], cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS["WORKLOADS"])
def test_bench_worker_runs_a_smoke_job(workload):
    (job,) = WORKLOADS["plan"](workload, 1, 1, smoke=True)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py")],
        input=json.dumps({**job, "trace": False, "src": str(ROOT / "src")}),
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    ready, report = proc.stdout.splitlines()
    assert ready == "READY"
    assert json.loads(report)["errors"] == []


def test_a_traced_training_job_records_every_layer_span():
    # The worker wraps the names that engine calls each iteration through, and silently skips a name that is
    # gone; a refactor that stops calling through one would leave its span empty in every traced run.
    (job,) = WORKLOADS["plan"]("onevar-paper", 1, 1, smoke=True)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py")],
        input=json.dumps({**job, "trace": True, "src": str(ROOT / "src")}),
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["errors"] == []
    spans = report["trace"]["spans"]
    names = [
        "engine.sample_population",
        "engine.estimate_gradients",
        "engine.optimizer_step",
        "dists.standardize_fitness",
        "dists.softmax",
        "interp.eval_population_losses",
    ]
    assert {name: spans.get(name, {}).get("calls", 0) > 0 for name in names} == dict.fromkeys(names, True)


def test_traced_engine_names_exist():
    for name in ("train", "train_step", "sample_population", "estimate_gradients"):
        assert callable(getattr(engine, name, None)), name
    assert callable(getattr(engine.SgdOptimizer, "step", None))

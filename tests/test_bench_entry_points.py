"""The benchmark worker reads sketchgrad names at import time and wraps them
in spans; a rename in `src/` must fail here, not in every benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

from sketchgrad import engine

ROOT = Path(__file__).resolve().parents[1]


def test_bench_worker_imports():
    path = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")  # leave bench/ as it is
    proc = subprocess.run(
        [sys.executable, "-c", "import worker"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_engine_names_exist():
    for name in ("train", "train_step", "sample_population", "estimate_gradients"):
        assert callable(getattr(engine, name, None)), name
    assert callable(getattr(engine.SgdOptimizer, "step", None))

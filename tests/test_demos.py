"""The fast demos run to completion against the package as it stands.

`induce_two_input_program.py` trains for 2 x 20 000 iterations (about 24 s),
so it is left out here and run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["gradient_estimators.py", "enumeration_oracle.py", "induce_branching_scaler.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr

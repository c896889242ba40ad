"""Self-test of the benchmark harness at tiny sizes (about half a minute).

    python3 bench/selftest.py

Runs every workload with `--smoke` in both modes and checks that the last
line is the result object, that every metric BENCHMARK.json names for that
mode is printed with its unit, that every operation passed its output checks,
and that two runs of the same arguments print the same result digest.  It
also checks that the harness refuses to run, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark.  It lives outside
`tests/`, so the Tier-1 suite does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def run(cwd: Path, workload: str, trace: int, smoke: bool = True) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(cwd) / HERE.name / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + (["--smoke"] if smoke else []), cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def digest_line(stdout: str) -> str:
    return next(line for line in stdout.splitlines() if line.startswith("workload "))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workload lists differ"
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, metrics in wanted.items():
            proc = run(ROOT, workload, trace)
            where = f"{workload} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            printed = result["metrics"]
            if set(printed) != {m["name"] for m in metrics}:
                problems.append(f"{where}: metrics differ: {sorted(set(printed) ^ {m['name'] for m in metrics})}")
            for m in metrics:
                got = printed.get(m["name"], {})
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: {m['name']} printed as {got}")
                if f"metric {m['name']} = " not in proc.stdout:
                    problems.append(f"{where}: no human-readable line for {m['name']}")
            if trace == 0:
                again = run(ROOT, workload, 0)
                if again.returncode != 0 or digest_line(again.stdout) != digest_line(proc.stdout):
                    problems.append(f"{where}: digest differs between two identical runs")

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(Path(bare), workloads.WORKLOADS[0], 0, smoke=False)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append(f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}")
    if not any(scratch.iterdir()):
        scratch.rmdir()

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark harness for sketchgrad.

    python3 bench/run.py --workload onevar-paper --seed 1 --seconds 24 --trace 0

Runs one workload (see workloads.py and README.md) from the root of a
checkout: each operation of the run is a fresh, single-threaded worker
process that imports sketchgrad from this checkout's `src/`.  With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs every
operation twice, untraced and then traced, and prints the per-layer metrics
and the tracing overhead.  Every operation's outputs are checked.  Human
readable lines come first; the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "seed_s": "s",
    "iters_per_s": "1/s",
    "programs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "engine.train_step.us_p50": "us",
    "engine.train_step.us_p99": "us",
    "engine.train_step.self_us": "us",
    "engine.sample_population.us": "us",
    "engine.estimate_gradients.us": "us",
    "engine.optimizer_step.us": "us",
    "engine.argmax_program.self_us": "us",
    "engine.enumerate_discrete.self_us": "us",
    "dists.standardize_fitness.us": "us",
    "dists.softmax.us": "us",
    "dists.softmax.calls_per_iter": "calls/iter",
    "interp.eval_population_losses.us": "us",
    "interp.eval_population_losses.cells_per_s": "cells/s",
    "interp.eval_spec_loss.us": "us",
    "interp.eval_spec_loss.calls_per_iter": "calls/iter",
    "interp.penalized_frac": "ratio",
    "sketch.instantiate.us": "us",
    "sketch.instantiate.calls": "count",
    "sketch.parse_sketch.us": "us",
    "interp.SpecSet.build_ms": "ms",
    "share.engine": "ratio",
    "share.dists": "ratio",
    "share.interp": "ratio",
    "share.sketch": "ratio",
    "trace.overhead_frac": "ratio",
    "solved_frac": "ratio",
}
LAYERS = ("engine", "dists", "interp", "sketch")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment() -> str:
    """Python, numpy, CPU model, CPU count and load average, read-only."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    cpuinfo = _read("/proc/cpuinfo").splitlines()
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")), "unknown")
    loadavg = _read("/proc/loadavg").strip() or "unknown"
    return (
        f"env python={platform.python_version()} numpy={numpy_version} cpu={cpu!r} "
        f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} loadavg={loadavg!r}"
    )


def run_worker(job: dict, trace: bool, deadline: float) -> dict:
    """Run one operation in a fresh worker; its report plus setup_s (spawn to READY)."""
    payload = json.dumps({**job, "trace": trace, "src": str(SRC)})
    env = {
        **os.environ,
        "PYTHONPATH": str(SRC),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        try:
            proc.stdin.write(payload)
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the worker died early; its exit code says so below
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or code != 0 or not rest.strip():
        raise BenchError(f"worker failed (exit code {code})")
    report = json.loads(rest.strip().splitlines()[-1])
    report["setup_s"] = setup_s
    return report


def _median_and_count(values: list) -> tuple[float, int]:
    return statistics.median(values), len(values)


def end_to_end_metrics(plain: list[dict]) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count) over the untraced operations."""
    op_s = [r["op_ns"] / 1e9 for r in plain]
    iterations = sum(r["iterations"] for r in plain)
    programs = sum(r["programs"] for r in plain)
    return {
        "setup_s": _median_and_count([r["setup_s"] for r in plain]),
        "seed_s": _median_and_count(op_s),
        "iters_per_s": (iterations / sum(op_s), iterations),
        "programs_per_s": (programs / sum(op_s), programs),
        "peak_rss_mb": (max(r["rss_kb"] for r in plain) / 1024, len(plain)),
    }


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return float(sorted_values[int(rank) - 1])


def per_layer_metrics(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count) from the traced operations."""
    spans: dict[str, dict[str, int]] = {}
    for report in traced:
        for name, agg in report["trace"]["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for key in into:
                into[key] += agg[key]
    iterations = sum(r["iterations"] for r in traced)
    traced_ns = sum(r["op_ns"] for r in traced)
    counter = {key: sum(r["trace"][key] for r in traced) for key in ("scored", "penalized", "cells")}

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def mean_us(name, key="total_ns"):
        n = calls(name)
        return (spans[name][key] / n / 1e3 if n else 0.0), n

    step_ns = sorted(ns for r in traced for ns in r["trace"]["train_step_ns"])
    eval_pop_s = spans.get("interp.eval_population_losses", {}).get("total_ns", 0) / 1e9
    layer_self = {layer: 0 for layer in LAYERS}
    for name, agg in spans.items():
        layer_self[name.split(".", 1)[0]] += agg["self_ns"]
    every = plain + traced
    metrics = {
        "engine.train_step.us_p50": (_percentile(step_ns, 50) / 1e3, len(step_ns)),
        "engine.train_step.us_p99": (_percentile(step_ns, 99) / 1e3, len(step_ns)),
        "engine.train_step.self_us": mean_us("engine.train_step", "self_ns"),
        "engine.sample_population.us": mean_us("engine.sample_population"),
        "engine.estimate_gradients.us": mean_us("engine.estimate_gradients"),
        "engine.optimizer_step.us": mean_us("engine.optimizer_step"),
        "engine.argmax_program.self_us": mean_us("engine.argmax_program", "self_ns"),
        "engine.enumerate_discrete.self_us": mean_us("engine.enumerate_discrete", "self_ns"),
        "dists.standardize_fitness.us": mean_us("dists.standardize_fitness"),
        "dists.softmax.us": mean_us("dists.softmax"),
        "dists.softmax.calls_per_iter": (calls("dists.softmax") / iterations, iterations),
        "interp.eval_population_losses.us": mean_us("interp.eval_population_losses"),
        "interp.eval_population_losses.cells_per_s": (
            counter["cells"] / eval_pop_s if eval_pop_s else 0.0,
            calls("interp.eval_population_losses"),
        ),
        "interp.eval_spec_loss.us": mean_us("interp.eval_spec_loss"),
        "interp.eval_spec_loss.calls_per_iter": (calls("interp.eval_spec_loss") / iterations, iterations),
        "interp.penalized_frac": (
            counter["penalized"] / counter["scored"] if counter["scored"] else 0.0,
            counter["scored"],
        ),
        "sketch.instantiate.us": mean_us("sketch.instantiate"),
        "sketch.instantiate.calls": (calls("sketch.instantiate"), len(traced)),
        "sketch.parse_sketch.us": _median_and_count([r["parse_ns"] / 1e3 for r in every]),
        "interp.SpecSet.build_ms": _median_and_count([r["spec_ns"] / 1e6 for r in every]),
        "trace.overhead_frac": (traced_ns / sum(r["op_ns"] for r in plain) - 1.0, len(traced)),
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (layer_self[layer] / traced_ns, len(traced))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for selftest.py")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "sketchgrad" / "__init__.py").is_file():
        print(f"run.py: no sketchgrad sources under {SRC}", file=sys.stderr)
        return 2

    print(environment(), flush=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    # A traced run measures the same operations twice, so each pass gets half the time.
    jobs = workloads.plan(args.workload, args.seed, args.seconds / (2 if args.trace else 1), args.smoke)
    plain, traced = [], []
    try:
        for job in jobs:
            plain.append(run_worker(job, False, deadline))
            if args.trace:
                traced.append(run_worker(job, True, deadline))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    for p, t in zip(plain, traced):
        if p["digest"] != t["digest"]:
            t["errors"].append("traced result differs from the untraced result")
    reports = plain + traced
    failed = sum(1 for r in reports if r["errors"])
    for r in reports:
        for error in r["errors"]:
            print(f"check failed: {error}", flush=True)
    digest = hashlib.sha256("".join(r["digest"] for r in plain).encode()).hexdigest()
    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}: "
        f"{len(jobs)} operations, digest {digest}",
        flush=True,
    )
    print("operation seconds " + " ".join(f"{r['op_ns'] / 1e9:.3f}" for r in plain), flush=True)

    solved_frac = (sum(r["solved"] for r in plain) / len(plain), len(plain))
    if args.trace:
        values, units = {**per_layer_metrics(plain, traced), "solved_frac": solved_frac}, PER_LAYER
    else:
        values, units = end_to_end_metrics(plain), END_TO_END
    shown = {**values, "solved_frac": solved_frac, "error_rate": (failed / len(reports), len(reports))}
    for name, (value, count) in shown.items():
        print(f"metric {name} = {value:.6g} {units.get(name, 'ratio')} (n={count})", flush=True)
    result = {
        "correct": failed == 0,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

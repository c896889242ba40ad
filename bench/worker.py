"""One benchmark operation in a fresh process.

Reads one job (JSON, see workloads.py) on stdin, imports sketchgrad from the
checkout's `src/`, parses the sketch and builds the spec, then prints
`READY` so the parent can time set-up from process start.  It runs the
operation once (a training run or an enumeration), timing only that call,
checks the outputs against the reference interpreter and the generator's
truth, and prints one JSON report line.  With `"trace": true` the calls
between sketchgrad's modules are wrapped in spans for the operation only.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import struct
import sys
import time

import numpy as np

import sketchgrad
from sketchgrad import dists, engine
from spans import Tracer

# (module or class, attribute, span name).  Each attribute is the name that
# engine (or dists, for softmax) looks up at call time, so wrapping it there
# traces every call that crosses into the layer the span name starts with.
SPANS = [
    (engine, "train", "engine.train"),
    (engine, "train_step", "engine.train_step"),
    (engine, "sample_population", "engine.sample_population"),
    (engine, "estimate_gradients", "engine.estimate_gradients"),
    (engine, "argmax_program", "engine.argmax_program"),
    (engine, "enumerate_discrete", "engine.enumerate_discrete"),
    (engine.SgdOptimizer, "step", "engine.optimizer_step"),
    (engine, "standardize_fitness", "dists.standardize_fitness"),
    (engine, "sample_categorical_many", "dists.sample_categorical_many"),
    (engine, "_categorical_accumulator", "dists.categorical_accumulator"),
    (dists, "softmax", "dists.softmax"),
    (engine, "eval_population_losses", "interp.eval_population_losses"),
    (engine, "eval_spec_loss", "interp.eval_spec_loss"),
    (engine, "instantiate", "sketch.instantiate"),
]
KEEP_RESULTS = {"interp.eval_population_losses"}
SOLVED_MSE = 1e-2


def _f64(value: float) -> bytes:
    return struct.pack("<d", value)


def _theta_bytes(theta) -> bytes:
    if hasattr(theta, "logits"):
        return b"c" + np.asarray(theta.logits, dtype="<f8").tobytes()
    return b"g" + _f64(theta.mu) + _f64(theta.sigma)


def _theta_finite(theta) -> bool:
    if hasattr(theta, "logits"):
        return bool(np.isfinite(theta.logits).all())
    return math.isfinite(theta.mu) and math.isfinite(theta.sigma)


def check_training(result, spec, config) -> tuple[list[str], str, float]:
    """Output checks for one training run, its result digest and best loss."""
    errors = []
    if result.best_program is None:
        return ["no best program"], "", math.inf
    again = sketchgrad.eval_spec_loss(result.best_program, spec, config.penalty)
    if _f64(again) != _f64(result.best_loss):
        errors.append(f"best_loss {result.best_loss!r} != eval_spec_loss(best_program) {again!r}")
    if len(result.records) != config.iterations:
        errors.append(f"{len(result.records)} records for {config.iterations} iterations")
    elif _f64(result.records[-1].best_so_far_loss) != _f64(result.best_loss):
        errors.append("last record's best_so_far_loss differs from best_loss")
    thetas = list(result.thetas) + list(result.best_thetas)
    if not all(_theta_finite(t) for t in thetas):
        errors.append("non-finite theta")
    digest = hashlib.sha256(_f64(result.best_loss))
    for theta in thetas:
        digest.update(_theta_bytes(theta))
    return errors, digest.hexdigest(), result.best_loss


def check_enumeration(ranked, job) -> tuple[list[str], str, float]:
    """Output checks for one enumeration, its result digest and best loss."""
    errors = []
    if len(ranked) != job["programs"]:
        errors.append(f"{len(ranked)} programs ranked, expected {job['programs']}")
    losses = [loss for _, loss in ranked]
    if any(a > b for a, b in zip(losses, losses[1:])):
        errors.append("losses are not non-decreasing")
    if not losses or losses[0] != 0.0:
        errors.append(f"first loss is {losses[0] if losses else None!r}, expected 0.0")
    truth = tuple(job["truth"])
    truth_losses = [loss for assignment, loss in ranked if tuple(assignment.values) == truth]
    if truth_losses != [0.0]:
        errors.append(f"truth pattern scored {truth_losses!r}, expected [0.0]")
    flat = [float(v) for assignment, loss in ranked for v in (*assignment.values, loss)]
    digest = hashlib.sha256(np.asarray(flat, dtype="<f8").tobytes())
    return errors, digest.hexdigest(), losses[0] if losses else math.inf


def trace_report(tracer: Tracer, spec_rows: int, penalty: float) -> dict:
    kept = tracer.results.get("interp.eval_population_losses", [])
    return {
        "spans": tracer.summary(),
        "train_step_ns": tracer.durations("engine.train_step"),
        "scored": sum(int(r.size) for r in kept),
        "penalized": sum(int(np.count_nonzero(r == penalty)) for r in kept),
        "cells": sum(int(r.size) * spec_rows for r in kept),
    }


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(sketchgrad.__file__).startswith(src + os.sep):
        print(f"worker: sketchgrad imported from {sketchgrad.__file__}, not from {src}", file=sys.stderr)
        return 2

    t = time.perf_counter_ns()
    sketch = sketchgrad.parse_sketch(job["sketch"])
    parse_ns = time.perf_counter_ns() - t
    t = time.perf_counter_ns()
    spec = sketchgrad.SpecSet.from_pairs((tuple(x), y) for x, y in job["rows"])
    spec_ns = time.perf_counter_ns() - t
    training = job["kind"] == "train"
    config = sketchgrad.TrainConfig(**job["config"]) if training else None
    penalty = config.penalty if training else sketchgrad.NONFINITE_PENALTY
    print("READY", flush=True)

    tracer = Tracer() if job["trace"] else None
    if tracer:
        for owner, attr, name in SPANS:
            tracer.wrap(owner, attr, name, keep_results=name in KEEP_RESULTS)
    t = time.perf_counter_ns()
    try:
        if training:
            output = engine.train(sketch, spec, config)
        else:
            output = engine.enumerate_discrete(sketch, job["reals"], spec)
        op_ns = time.perf_counter_ns() - t
    finally:
        if tracer:
            tracer.restore()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if training:
        errors, digest, best = check_training(output, spec, config)
        iterations = config.iterations
        programs = config.iterations * (config.population + 1)  # population + the argmax program
    else:
        errors, digest, best = check_enumeration(output, job)
        iterations = programs = job["programs"]
    report = {
        "op_ns": op_ns,
        "parse_ns": parse_ns,
        "spec_ns": spec_ns,
        "rss_kb": rss_kb,
        "iterations": iterations,
        "programs": programs,
        "solved": best <= SOLVED_MSE,
        "errors": errors,
        "digest": digest,
        "trace": trace_report(tracer, len(spec), penalty) if tracer else None,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

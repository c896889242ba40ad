"""Workload generators: seeded inputs for each benchmark workload.

Everything here is plain Python and never imports sketchgrad, so the inputs
and the expected outputs are computed independently of the code under test.
`plan` turns (workload, seed, seconds) into a list of jobs; each job is one
operation (a training run or an enumeration) that a worker process sets up
and runs on exactly these inputs.  The same arguments give the same jobs.
"""

from __future__ import annotations

import random

ONEVAR_SKETCH = """\
fn synth_prog(x: f32) -> f32
{
    if x [COND] [Real]
    {
        return [Real] [OP] x;
    }

    return x [OP] [Real];
}
"""

TWOVAR_SKETCH = """\
fn synth_prog(x1: f32, x2: f32) -> f32
{
    if x1 [COND] x2
    {
        return [Real] [OP] x1 [OP] x2;
    }

    return [Real] [OP] x2 [OP] x1;
}
"""

# Eleven holes in source order: [COND], [Real], 3 x [OP], [Real], 4 x [OP],
# [Real].  The discrete space is 3 * 4**7 = 49 152 programs.
ORACLE_SKETCH = """\
fn oracle_prog(x1: f32, x2: f32) -> f32
{
    if x1 [COND] x2
    {
        return [Real] [OP] x1 [OP] x2 [OP] x1;
    }

    return [Real] [OP] x2 [OP] x1 [OP] x2 [OP] [Real];
}
"""
ORACLE_PROGRAMS = 3 * 4**7

# Wall time of one operation on a 2-vCPU Xeon (Python 3.11, numpy 2.4).  Only
# used to turn --seconds into a fixed operation count, so the work done in a
# run depends on the arguments alone, never on how fast the host is today.
NOMINAL_OP_S = {"onevar-paper": 4.0, "twovar-wide": 2.0, "enumerate-oracle": 1.8}

ONEVAR_ITERATIONS = 10_000
TWOVAR_ITERATIONS = 20
TWOVAR_ROWS = 10_000


def _onevar_truth(x: float) -> float:
    return 4.2 * x if x > 3.5 else x * 2.1


def _twovar_truth(x1: float, x2: float) -> float:
    return 2.0 * x1 + x2 if x1 > x2 else 2.0 / x2 - x1


def _apply(op: int, a: float, b: float) -> float:
    # Operands are never zero (inputs >= 1, constants >= 0.5), so "/" is safe.
    return (a + b, a - b, a * b, a / b)[op]


def _oracle_truth(values: list, x1: float, x2: float) -> float:
    """The oracle sketch with every hole filled from `values`, left to right."""
    cond, r_body, o1, o2, o3, r_ret, o4, o5, o6, o7, r_end = values
    fires = (x1 == x2, x1 > x2, x1 < x2)[cond]
    if fires:
        acc = _apply(o3, _apply(o2, _apply(o1, r_body, x1), x2), x1)
    else:
        acc = _apply(o7, _apply(o6, _apply(o5, _apply(o4, r_ret, x2), x1), x2), r_end)
    return acc


def _training_job(sketch: str, rows: list, learning_rate: float, iterations: int, seed: int) -> dict:
    config = {"learning_rate": learning_rate, "iterations": iterations, "population": 50, "sigma": 0.5, "seed": seed}
    return {"kind": "train", "sketch": sketch, "rows": rows, "config": config}


def _onevar_jobs(rng: random.Random, count: int, iterations: int) -> list[dict]:
    rows = [[[x], _onevar_truth(x)] for x in (1.0, 2.0, 4.0, 5.0)]
    return [_training_job(ONEVAR_SKETCH, rows, 0.1, iterations, rng.randrange(2**32)) for _ in range(count)]


def _twovar_jobs(rng: random.Random, count: int, iterations: int, n_rows: int) -> list[dict]:
    rows = []
    for _ in range(n_rows):
        x1, x2 = rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0)
        rows.append([[x1, x2], _twovar_truth(x1, x2)])
    return [_training_job(TWOVAR_SKETCH, rows, 0.0995, iterations, rng.randrange(2**32)) for _ in range(count)]


def _oracle_job(rng: random.Random) -> dict:
    """A random truth for the oracle sketch and 4 rows that exercise both branches.

    The guard token is '>' or '<' (never '==', which no random pair of
    inputs fires), and two rows fall on each side of it.
    """
    reals = [round(rng.uniform(0.5, 5.0), 3) for _ in range(3)]
    ops = [rng.randrange(4) for _ in range(7)]
    truth = [rng.choice((1, 2)), reals[0], *ops[:3], reals[1], *ops[3:], reals[2]]
    pairs = []
    for above in (True, True, False, False):
        a, b = rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0)
        while a == b:
            b = rng.uniform(1.0, 10.0)
        pairs.append((max(a, b), min(a, b)) if above else (min(a, b), max(a, b)))
    rng.shuffle(pairs)
    rows = [[[x1, x2], _oracle_truth(truth, x1, x2)] for x1, x2 in pairs]
    return {"kind": "enumerate", "sketch": ORACLE_SKETCH, "rows": rows, "reals": reals, "truth": truth,
            "programs": ORACLE_PROGRAMS}


WORKLOADS = ("onevar-paper", "twovar-wide", "enumerate-oracle")


def plan(workload: str, seed: int, seconds: float, smoke: bool = False) -> list[dict]:
    """The jobs of one run: enough operations to fill `seconds` at nominal speed.

    `smoke` shrinks the training workloads to a few hundred iterations and
    one operation each, for the harness self-test; enumeration keeps its
    full space because its output check depends on it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    count = 1 if smoke else max(1, round(seconds / NOMINAL_OP_S[workload]))
    if workload == "onevar-paper":
        return _onevar_jobs(rng, count, 300 if smoke else ONEVAR_ITERATIONS)
    if workload == "twovar-wide":
        return _twovar_jobs(rng, count, 3 if smoke else TWOVAR_ITERATIONS, 500 if smoke else TWOVAR_ROWS)
    return [_oracle_job(rng) for _ in range(count)]

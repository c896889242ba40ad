#!/usr/bin/env python3
"""Induce a two-input program, and watch the guard lock and the restarts.

Seven holes (one comparison, four operators, two reals) over a spec whose
guard compares the two inputs directly.  The search is run twice, each time
by driving `train_step` exactly as `train` does, and each hole's argmax token
and its probability (or its mean, for a real hole) is printed at a few
checkpoints:

1. With the printed update rule (`softmax_grad`) and no restarts.  Early on,
   while the guard is still spread over `==` (which never fires on these
   inputs) and `<`, the else chain sees the large positive targets most of
   the time and commits to operators that produce positive outputs.  The
   guard follows it to `<` and every hole locks at probability ~1, so the
   search stays in that flipped-comparison basin for the rest of the run.
2. With the defaults: the score-function weight and restarts.  The first
   start still locks into a flipped basin, but each time the argmax loss
   stops improving, the distributions are redrawn and the search starts
   again from elsewhere; the best program found so far is kept.
"""

import math
from pathlib import Path

import numpy as np

import sketchgrad as sg
from sketchgrad.engine import RESTART_MIN_GAIN, RESTART_PATIENCE, make_optimizer, restart_thetas, train_step

DATA = Path(__file__).parent / "data"
CHECKPOINTS = (1, 1_000, 3_000, 10_000, 20_000)

sketch = sg.parse_sketch((DATA / "twovar.sketch").read_text())
truth = sg.parse_sketch((DATA / "twovar_truth.prog").read_text())

inputs = [(5.8, 2.5), (5.0, 6.2), (7.4, 6.1), (5.5, 9.4)]
spec = sg.SpecSet.from_pairs((x, sg.eval_program(truth, x)) for x in inputs)
print("specification (inputs -> output):")
for x, y in zip(spec.inputs, spec.outputs):
    print(f"  {x} -> {y}")


def describe(thetas) -> str:
    cells = []
    for hole, theta in zip(sketch.holes, thetas):
        if isinstance(theta, sg.GaussianTheta):
            cells.append(f"{theta.mu:9.3f}")
        else:
            k = int(np.argmax(theta.logits))
            cells.append(f"{hole.domain[k]:>2} {theta.probs[k]:.2f}")
    return " | ".join(cells)


def search(config: sg.TrainConfig, restarts_on: bool = True):
    """The loop of `train`, one `train_step` at a time, with a printed trace;
    `restarts_on=False` drops the restarts to show the search without them."""
    print("  iter | " + " | ".join(f"{h.kind:>7}" for h in sketch.holes) + " | argmax MSE")
    thetas = sg.init_thetas(sketch, config)
    streams = sg.hole_streams(config.seed, sketch.hole_count)
    optimizer = make_optimizer(config)
    best_loss, best_thetas, best_it = math.inf, None, 0
    records, restarts = [], []
    low, stale = math.inf, 0
    for it in range(1, config.iterations + 1):
        thetas, record = train_step(
            sketch, spec, thetas, config, streams, optimizer=optimizer, iteration=it, prev_best=best_loss
        )
        if record.argmax_loss < best_loss:
            best_loss = record.argmax_loss
            best_thetas = [t.copy() for t in thetas]
            best_it = it
        records.append(record)
        if it in CHECKPOINTS:
            print(f"{it:>6} | {describe(thetas)} | {record.argmax_loss:.4f}")
        if record.argmax_loss < low * (1 - RESTART_MIN_GAIN):
            low, stale = record.argmax_loss, 0
        else:
            stale += 1
            if restarts_on and stale == RESTART_PATIENCE:
                thetas = restart_thetas(thetas, config, streams)
                optimizer = make_optimizer(config)
                low, stale = math.inf, 0
                restarts.append(it)
    print(f"restarts after iterations {restarts}" if restarts else "no restarts")
    print(f"best argmax MSE {best_loss:.4f}, at iteration {best_it}:")
    print(f"{best_it:>6} | {describe(best_thetas)} | {best_loss:.4f}")
    return best_loss, sg.argmax_program(sketch, best_thetas), best_thetas, records


hyper = dict(learning_rate=0.0995, iterations=20_000, population=50, sigma=0.5, seed=0)

print("\n1. printed update rule, no restarts:")
search(sg.TrainConfig(**hyper, categorical_score="softmax_grad"), restarts_on=False)

print("\n2. defaults (score-function weight, restarts):")
best_loss, best_program, best_thetas, records = search(sg.TrainConfig(**hyper))

print("\ninduced program (best iterate):\n")
print(sg.print_program(best_program))

print("its outputs vs the spec:")
for x, y in zip(spec.inputs, spec.outputs):
    print(f"  {x}: predicted {sg.eval_program(best_program, x):10.4f}   target {y:10.4f}")

means = [rec.mean_population_loss for rec in records]
spikes = sg.loss_spikes(means, window=101, factor=3.0, start=1000)
print(f"\ninstability: {len(spikes)} iterations after 1000 spike above 3x the local median")
print(f"first few spike iterations: {spikes[:8]}")

# How good could this token pattern ever get?  Pin the reals to the learned
# means and exhaustively rank all 768 discrete combinations.
mus = [t.mu for t in best_thetas if isinstance(t, sg.GaussianTheta)]
ranked = sg.enumerate_discrete(sketch, mus, spec)
print(f"\nenumeration oracle at the learned reals {['%.3f' % m for m in mus]}:")
cat_holes = [h for h in sketch.holes if h.domain is not None]
for i, (assignment, loss) in enumerate(ranked[:5], start=1):
    tokens = " ".join(h.domain[assignment.values[h.index]] for h in cat_holes)
    print(f"  rank {i}: loss {loss:10.4f}  tokens [{tokens}]")

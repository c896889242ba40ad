#!/usr/bin/env python3
"""Induce a two-input program, and watch the guard lock and the restarts.

Seven holes (one comparison, four operators, two reals) over a spec whose
guard compares the two inputs directly.  The search is run twice, and each
hole's argmax token and its probability (or its mean, for a real hole) is
printed at a few checkpoints:

1. With the printed update rule (`softmax_grad`) and no restarts, driving
   `train_step` one iteration at a time.  Early on, while the guard is still
   spread over `==` (which never fires on these inputs) and `<`, the else
   chain sees the large positive targets most of the time and commits to
   operators that produce positive outputs.  The guard follows it to `<` and
   every hole locks at probability ~1, so the search stays in that
   flipped-comparison basin for the rest of the run.
2. With the defaults (the score-function weight and restarts), through
   `train`, whose `on_step` hook prints the checkpoints.  The first start
   still locks into a flipped basin, but each time the argmax loss stops
   improving, the distributions are redrawn and the search starts again from
   elsewhere; the best program found so far is kept.
"""

from pathlib import Path

import numpy as np

import sketchgrad as sg

DATA = Path(__file__).parent / "data"
CHECKPOINTS = (1, 1_000, 3_000, 10_000, 20_000)

sketch = sg.parse_sketch((DATA / "twovar.sketch").read_text())
truth = sg.parse_sketch((DATA / "twovar_truth.prog").read_text())

inputs = [(5.8, 2.5), (5.0, 6.2), (7.4, 6.1), (5.5, 9.4)]
spec = sg.SpecSet.from_pairs((x, sg.eval_program(truth, x)) for x in inputs)
print("specification (inputs -> output):")
for x, y in zip(spec.inputs.tolist(), spec.outputs.tolist()):
    print(f"  {tuple(x)} -> {y}")


def describe(thetas) -> str:
    cells = []
    for hole, theta in zip(sketch.holes, thetas):
        if isinstance(theta, sg.GaussianTheta):
            cells.append(f"{theta.mu:9.3f}")
        else:
            k = int(np.argmax(theta.logits))
            cells.append(f"{hole.tokens[k]:>2} {theta.probs[k]:.2f}")
    return " | ".join(cells)


def checkpoint(record, state) -> None:
    if record.iteration in CHECKPOINTS:
        print(f"{record.iteration:>6} | {describe(state.thetas())} | {record.argmax_loss:.4f}")


def report(restarts, best_loss, best_it, best_thetas) -> None:
    print(f"restarts after iterations {restarts}" if restarts else "no restarts")
    print(f"best argmax MSE {best_loss:.4f}, at iteration {best_it}:")
    print(f"{best_it:>6} | {describe(best_thetas)} | {best_loss:.4f}")


HEADER = "  iter | " + " | ".join(f"{h.kind:>7}" for h in sketch.holes) + " | argmax MSE"
hyper = dict(learning_rate=0.0995, iterations=20_000, population=50, sigma=0.5, seed=0)

print("\n1. printed update rule, no restarts:")
print(HEADER)
config = sg.TrainConfig(**hyper, categorical_score="softmax_grad")
state = best = sg.init_state(sketch, config)
streams = sg.hole_streams(config.seed, sketch.hole_count)
plan = sg.compile_sketch(sketch, spec)
for _ in range(config.iterations):
    state, record = sg.train_step(plan, state, config, streams)
    checkpoint(record, state)
    if state.best_loss < best.best_loss:
        best = state
report([], best.best_loss, best.iteration, best.thetas())

print("\n2. defaults (score-function weight, restarts):")
print(HEADER)
result = sg.train(sketch, spec, sg.TrainConfig(**hyper), on_step=checkpoint)
best_it = next(rec.iteration for rec in result.records if rec.argmax_loss == result.best_loss)
report(result.restarts, result.best_loss, best_it, result.best_thetas)

print("\ninduced program (best iterate):\n")
print(sg.print_program(result.best_program))

print("its outputs vs the spec:")
for x, y in zip(spec.inputs.tolist(), spec.outputs.tolist()):
    print(f"  {tuple(x)}: predicted {sg.eval_program(result.best_program, x):10.4f}   target {y:10.4f}")

means = [rec.mean_population_loss for rec in result.records]
spikes = sg.loss_spikes(means, window=101, factor=3.0, start=1000)
print(f"\ninstability: {len(spikes)} iterations after 1000 spike above 3x the local median")
print(f"first few spike iterations: {spikes[:8]}")

# How good could this token pattern ever get?  Pin the reals to the learned
# means and exhaustively rank all 768 discrete combinations.
mus = [t.mu for t in result.best_thetas if isinstance(t, sg.GaussianTheta)]
ranked = sg.enumerate_discrete(sketch, mus, spec)
print(f"\nenumeration oracle at the learned reals {['%.3f' % m for m in mus]}:")
cat_holes = [h for h in sketch.holes if h.tokens is not None]
for i, (assignment, loss) in enumerate(ranked[:5], start=1):
    tokens = " ".join(h.tokens[assignment.values[h.index]] for h in cat_holes)
    print(f"  rank {i}: loss {loss:10.4f}  tokens [{tokens}]")

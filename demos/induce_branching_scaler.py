#!/usr/bin/env python3
"""Induce a one-input if/else rescaling program from four examples.

The sketch fixes the control structure and leaves six holes open: one
comparison token, two arithmetic operators, and three real constants.  The
specification is generated from a hidden ground-truth program, training
ascends standardized negated MSE, and the induced program is read off as the
argmax of the final search distributions.
"""

from pathlib import Path

import sketchgrad as sg

DATA = Path(__file__).parent / "data"

sketch = sg.parse_sketch((DATA / "onevar.sketch").read_text())
truth = sg.parse_sketch((DATA / "onevar_truth.prog").read_text())

print("sketch to fill:\n")
print(sg.print_program(sketch))
print(f"hole kinds: {sketch.hole_kinds}\n")

# Build the spec by running the hidden program on a handful of inputs.
inputs = [(1.0,), (2.0,), (4.0,), (5.0,)]
spec = sg.SpecSet.from_pairs((x, sg.eval_program(truth, x)) for x in inputs)
print("specification (input -> output):")
for x, y in zip(spec.inputs.tolist(), spec.outputs.tolist()):
    print(f"  {x[0]:4.1f} -> {y}")

config = sg.TrainConfig(learning_rate=0.1, iterations=10_000, population=50, sigma=0.5, seed=0)
result = sg.train(sketch, spec, config)

print(f"\nafter {config.iterations} iterations:")
print(f"  best argmax program MSE : {result.best_loss:.3e}")
print(f"  final argmax program MSE: {result.final_loss:.3e}")
print("\ninduced program (best iterate):\n")
print(sg.print_program(result.best_program))

# The search is free to discover a behaviourally equivalent variant, e.g.
# flipping the comparison and swapping the branch constants.
print("loss trace (every 1000 iterations):")
for rec in result.records[::1000]:
    print(
        f"  it {rec.iteration:>6}: population mean {rec.mean_population_loss:10.3f}  "
        f"argmax {rec.argmax_loss:10.5f}  best so far {rec.best_so_far_loss:.5f}"
    )

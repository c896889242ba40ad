#!/usr/bin/env python3
"""Brute-force the discrete part of a search space as a ground-truth check.

With real holes pinned, the one-input sketch has 3 * 4 * 4 = 48 discrete
token combinations, small enough to score exhaustively.  The oracle ranks
every combination by spec MSE; a correct search should land on a pattern
that ties the oracle's rank-1 loss for the same reals.
"""

from pathlib import Path

import sketchgrad as sg

DATA = Path(__file__).parent / "data"

sketch = sg.parse_sketch((DATA / "onevar.sketch").read_text())
truth = sg.parse_sketch((DATA / "onevar_truth.prog").read_text())
inputs = [(1.0,), (2.0,), (4.0,), (5.0,)]
spec = sg.SpecSet.from_pairs((x, sg.eval_program(truth, x)) for x in inputs)

# Pin the three real holes to the generating program's constants.
reals = [3.5, 4.2, 2.1]
ranked = sg.enumerate_discrete(sketch, reals, spec)
print(f"{len(ranked)} discrete programs with reals pinned to {reals}\n")

print("rank   loss          cond  op1  op2")
for rank, (assignment, loss) in enumerate(ranked[:10], start=1):
    c, o1, o2 = assignment.values[0], assignment.values[3], assignment.values[4]
    print(f"{rank:4d}   {loss:<12.6g}  {sg.CondHole.tokens[c]:>4}  {sg.OpHole.tokens[o1]:>3}  {sg.OpHole.tokens[o2]:>3}")

best_assignment, best_loss = ranked[0]
print("\nrank-1 program (loss", best_loss, "):\n")
print(sg.print_program(sg.instantiate(sketch, best_assignment)))

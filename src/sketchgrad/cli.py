"""Command-line interface: train, show, eval, enumerate, gen-spec.

Exit codes: 0 success, 2 input validation, 3 runtime failure.  Error
messages carry a category prefix (PARSE/SPEC/CONFIG/IO/TRAIN) so scripts can
match on them.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .dists import ThetaError, load_thetas, save_thetas
from .engine import (
    ConfigError,
    DivergenceError,
    EnumerationError,
    argmax_program,
    enumerate_discrete,
    train,
)
from .interp import SpecError, SpecSet, eval_program, eval_spec_loss
from .io import load_config, load_spec, read_table, save_spec, write_loss_csv
from .sketch import SketchError, format_real, parse_sketch, print_program


class _Failure(Exception):
    def __init__(self, category: str, message: str, code: int = 2):
        super().__init__(message)
        self.category = category
        self.code = code


def _read_text(path, category: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Failure(category, f"cannot read {path}: {exc}")


def _load_sketch(path):
    return parse_sketch(_read_text(path, "PARSE"))


def _load_program(path):
    program = _load_sketch(path)
    if not program.is_concrete:
        raise _Failure("PARSE", f"{path} still contains holes; expected a concrete program")
    return program


def _cmd_train(args) -> int:
    if args.log_every < 1:
        raise _Failure("CONFIG", f"--log-every must be at least 1, got {args.log_every}")
    sketch = _load_sketch(args.sketch)
    spec = load_spec(args.spec)
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if spec.arity != sketch.arity:
        raise _Failure("SPEC", f"spec arity {spec.arity} does not match sketch arity {sketch.arity}")
    try:
        result = train(sketch, spec, config)
    except DivergenceError as exc:
        raise _Failure("TRAIN", f"{exc}; no results written", code=3)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_loss_csv(result.records, out / "loss.csv", log_every=args.log_every)
        save_thetas(result.thetas, out / "theta_final.json")
        save_thetas(result.best_thetas, out / "theta_best.json")
        (out / "program_final.txt").write_text(print_program(result.final_program), encoding="utf-8")
        (out / "program_best.txt").write_text(print_program(result.best_program), encoding="utf-8")
    except OSError as exc:
        raise _Failure("IO", f"cannot write results to {out}: {exc}", code=3)
    if result.best_loss == config.penalty:  # the run diverged, or the sketch cannot fit the spec
        raise _Failure(
            "TRAIN",
            f"no argmax program scored a finite loss in {config.iterations} iterations "
            f"(best loss is the penalty, {format_real(config.penalty)}); results written to {out}",
            code=3,
        )
    print(f"best spec-MSE: {format_real(result.best_loss)}")
    print(f"final spec-MSE: {format_real(result.final_loss)}")
    return 0


def _cmd_show(args) -> int:
    sketch = _load_sketch(args.sketch)
    try:
        thetas = load_thetas(args.theta, sketch)
    except OSError as exc:
        raise _Failure("IO", f"cannot read {args.theta}: {exc}")
    print(print_program(argmax_program(sketch, thetas)))
    for hole, theta in zip(sketch.holes, thetas):
        if hole.tokens is None:
            print(f"hole {hole.index} {hole.token}: mu={format_real(theta.mu)} sigma={format_real(theta.sigma)}")
        else:
            pairs = " ".join(f"p({tok})={p:.6f}" for tok, p in zip(hole.tokens, theta.probs))
            print(f"hole {hole.index} {hole.token}: {pairs} sum={theta.probs.sum():.3f}")
    return 0


def _cmd_eval(args) -> int:
    program = _load_program(args.program)
    spec = load_spec(args.spec)
    if spec.arity != program.arity:
        raise _Failure("SPEC", f"spec arity {spec.arity} does not match program arity {program.arity}")
    for vec, target in zip(spec.inputs.tolist(), spec.outputs.tolist()):
        pred = eval_program(program, vec)
        err = (pred - target) ** 2
        ins = ", ".join(format_real(v) for v in vec)
        print(f"in=({ins}) pred={format_real(pred)} target={format_real(target)} sq_err={format_real(err)}")
    print(f"MSE: {format_real(eval_spec_loss(program, spec))}")
    return 0


def _cmd_enumerate(args) -> int:
    if args.top is not None and args.top < 1:
        raise _Failure("CONFIG", f"--top must be at least 1, got {args.top}")
    sketch = _load_sketch(args.sketch)
    spec = load_spec(args.spec)
    try:
        reals = [float(v) for v in args.reals.split(",")] if args.reals else []
    except ValueError:
        raise _Failure("CONFIG", f"--reals must be comma-separated numbers, got {args.reals!r}")
    if spec.arity != sketch.arity:
        raise _Failure("SPEC", f"spec arity {spec.arity} does not match sketch arity {sketch.arity}")
    try:
        ranked = enumerate_discrete(sketch, reals, spec)
    except (EnumerationError, SketchError) as exc:
        raise _Failure("CONFIG", str(exc))
    top = ranked if args.top is None else ranked[: args.top]
    cat_holes = [h for h in sketch.holes if h.tokens is not None]
    for rank, (assignment, loss) in enumerate(top, start=1):
        tokens = " ".join(h.tokens[assignment.values[h.index]] for h in cat_holes)
        print(f"{rank:4d} loss={format_real(loss)} tokens=[{tokens}]")
    return 0


def _cmd_gen_spec(args) -> int:
    program = _load_program(args.program)
    inputs, lines = read_table(args.inputs, program.arity)
    outputs = [eval_program(program, vec) for vec in inputs.tolist()]
    bad = [line for line, out in zip(lines, outputs) if not math.isfinite(out)]
    if bad:
        raise _Failure("SPEC", f"program output is not a valid spec: row {bad[0]}: non-finite value")
    spec = SpecSet(inputs, outputs)
    try:
        save_spec(spec, args.out)
    except OSError as exc:
        raise _Failure("IO", f"cannot write {args.out}: {exc}", code=3)
    print(f"wrote {len(spec)} pairs to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sketchgrad", description="Induce programs from input-output examples.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="optimize a sketch's search distributions against a spec")
    p.add_argument("--sketch", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config's seed")
    p.add_argument("--log-every", type=int, default=10, help="loss.csv row cadence")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("show", help="print the argmax program and distribution summaries")
    p.add_argument("--sketch", required=True)
    p.add_argument("--theta", required=True)
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("eval", help="score a concrete program against a spec")
    p.add_argument("--program", required=True)
    p.add_argument("--spec", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("enumerate", help="rank every discrete hole combination by loss")
    p.add_argument("--sketch", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--reals", default="", help="comma-separated values for the [Real] holes")
    p.add_argument("--top", type=int, default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("gen-spec", help="evaluate a program on input rows and write a spec CSV")
    p.add_argument("--program", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_spec)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failure as exc:
        print(f"{exc.category}: {exc}", file=sys.stderr)
        return exc.code
    except (SketchError, SpecError, ConfigError, ThetaError) as exc:
        # Typed errors escaping a subcommand are still input problems.
        category = {SpecError: "SPEC", ConfigError: "CONFIG", ThetaError: "IO"}.get(type(exc), "PARSE")
        print(f"{category}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"IO: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

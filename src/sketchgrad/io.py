"""File formats: specification CSV, training-config JSON, loss-log CSV.

Spec files are CSV with header ``in_0,...,in_{k-1},out`` and one row per
input-output pair.  Config files are flat JSON objects whose keys match
TrainConfig fields; unknown keys are rejected so a typo cannot silently fall
back to a default.  All floats are written with shortest round-trip
decimals.
"""

from __future__ import annotations

import csv
import json
import math

from .engine import ConfigError, TrainConfig, TrainRecord
from .interp import SpecError, SpecSet
from .sketch import format_real

__all__ = [
    "load_spec",
    "save_spec",
    "load_config",
    "write_loss_csv",
    "SpecError",
    "ConfigError",
]


def _parse_cell(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SpecError(f"{where}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise SpecError(f"{where}: non-finite value {text!r}")
    return value


def load_spec(path) -> SpecSet:
    """Read and validate a specification CSV; arity comes from the header."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    if not rows:
        raise SpecError(f"spec file {path} is empty")
    header = [cell.strip() for cell in rows[0]]
    arity = len(header) - 1
    if arity < 1 or header != [f"in_{k}" for k in range(arity)] + ["out"]:
        raise SpecError(
            f"bad header {header!r}: expected in_0,...,in_{{k-1}},out with k >= 1"
        )
    if len(rows) == 1:
        raise SpecError("spec file has a header but no rows")
    inputs, outputs = [], []
    for r, row in enumerate(rows[1:], start=2):
        cells = [cell.strip() for cell in row]
        if len(cells) != arity + 1:
            raise SpecError(f"row {r}: expected {arity + 1} columns, got {len(cells)}")
        values = [_parse_cell(cell, f"row {r}, column {c}") for c, cell in enumerate(cells)]
        inputs.append(tuple(values[:-1]))
        outputs.append(values[-1])
    return SpecSet(tuple(inputs), tuple(outputs))


def save_spec(spec: SpecSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"in_{k}" for k in range(spec.arity)] + ["out"])
        for vec, out in zip(spec.inputs, spec.outputs):
            writer.writerow([format_real(v) for v in vec] + [format_real(out)])


_REQUIRED_KEYS = ("learning_rate", "iterations")
_INT_KEYS = ("iterations", "population", "seed")
_STR_KEYS = ("optimizer", "categorical_score")


def load_config(path) -> TrainConfig:
    """Read a training config; missing optional keys take their defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    known = set(TrainConfig.__dataclass_fields__)
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    kwargs = {}
    for key, value in doc.items():
        if key in _INT_KEYS:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        elif key in _STR_KEYS:
            if not isinstance(value, str):
                raise ConfigError(f"{key} must be a string, got {value!r}")
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{key} must be a number, got {value!r}")
            value = float(value)
        kwargs[key] = value
    return TrainConfig(**kwargs)


def write_loss_csv(records: list[TrainRecord], path, log_every: int = 10) -> None:
    """Write the loss log: every log_every-th iteration plus the last one."""
    if log_every < 1:
        raise ValueError("log_every must be at least 1")
    last = records[-1].iteration if records else None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("iteration,mean_population_loss,argmax_loss,best_so_far_loss\n")
        for rec in records:
            if rec.iteration % log_every == 0 or rec.iteration == last:
                fh.write(
                    f"{rec.iteration},{format_real(rec.mean_population_loss)},"
                    f"{format_real(rec.argmax_loss)},{format_real(rec.best_so_far_loss)}\n"
                )

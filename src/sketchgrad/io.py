"""File formats (spec CSV, config JSON, theta JSON, loss log) and `read_text`, which reads every input file.

Spec files are CSV with header ``in_0,...,in_{k-1},out`` and one row per
input-output pair; the inputs files that `gen-spec` reads drop the ``out``
column.  Config files are flat JSON objects whose keys match TrainConfig
fields; unknown keys are rejected so a typo cannot silently fall back to a
default.  Theta files hold a JSON array, one entry per hole in hole-table
order: ``{"kind": "cat", "logits": [...]}`` or ``{"kind": "real", "mu": m,
"sigma": s}``; the thetas check their own numbers (`dists`).  All floats are
written with shortest round-trip decimals.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from array import array
from contextlib import contextmanager

import numpy as np

from .dists import CategoricalTheta, GaussianTheta, ThetaError, check_thetas
from .engine import ConfigError, TrainConfig, TrainRecord
from .interp import SpecError, SpecSet
from .sketch import format_real, read_number, show

@contextmanager
def read_text(path, error: type[Exception], what: str):
    """`path` open as UTF-8 text, a leading BOM skipped; failing to open or read it raises `error`."""
    try:  # universal newlines, not newline="": a lone CR ends a sketch line, and CSV numbers read the same
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_json(path, error: type[Exception], what: str):
    """The JSON document at `path`; bad syntax, a too-long integer or too-deep nesting raises `error`."""
    with read_text(path, error, what) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"malformed {what} {path}: {exc}") from exc


def _parse_cell(text: str, row: int, column: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SpecError(f"row {row}, column {column}: {text.strip()!r} is not a number") from None
    if not math.isfinite(value):
        raise SpecError(f"row {row}, column {column}: non-finite value {text.strip()!r}")
    return value


def load_spec(path) -> SpecSet:
    """Read and validate a specification CSV; arity comes from the header."""
    table, _ = read_table(path)
    return SpecSet(table[:, :-1], table[:, -1])


def read_table(path, arity: int | None = None) -> tuple[np.ndarray, array]:
    """Every data row of a CSV of finite numbers, as one (rows, columns) float64 array, and the file line
    each row ends on.

    With no `arity` it is a spec file, whose header ``in_0,...,in_{k-1},out`` gives k; with one it is an
    inputs file, whose header must be ``in_0,...,in_{arity-1}``.  Blank lines are skipped, and errors name a
    row by its line in the file, so blank lines do not shift them."""
    what = "spec file" if arity is None else "inputs file"
    values = array("d")  # every cell, row after row, as raw doubles
    lines = array("q")
    with read_text(path, SpecError, what) as fh:
        reader = csv.reader(fh)
        try:
            header = [cell.strip() for cell in next(filter(None, reader), [])]
            if not header:
                raise SpecError(f"{what} {path} is empty")
            k = len(header) - 1 if arity is None else arity
            expected = [f"in_{j}" for j in range(k)] + (["out"] if arity is None else [])
            if k < 1 or header != expected:
                hint = "in_0,...,in_{k-1},out with k >= 1" if arity is None else ",".join(expected)
                raise SpecError(f"bad header {header!r}: expected {hint}")
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise SpecError(f"row {reader.line_num}: expected {len(header)} columns, got {len(row)}")
                try:
                    cells = list(map(float, row))
                except ValueError:
                    cells = None
                # The sum of a row is finite only if every cell is; a row that fails either test is parsed
                # again cell by cell, which names the first bad cell (or finds none, for a sum that overflowed).
                if cells is None or not math.isfinite(sum(cells)):
                    cells = [_parse_cell(cell, reader.line_num, c) for c, cell in enumerate(row)]
                values.extend(cells)
                lines.append(reader.line_num)
        except csv.Error as exc:  # a field past the csv module's size limit, say
            raise SpecError(f"row {reader.line_num}: {exc}") from None
    if not values:
        raise SpecError(f"{what} has a header but no rows")
    return np.frombuffer(values, dtype=np.float64).reshape(-1, len(header)), lines


def save_spec(spec: SpecSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"in_{k}" for k in range(spec.arity)] + ["out"])
        for vec, out in zip(spec.inputs.tolist(), spec.outputs.tolist()):
            writer.writerow([format_real(v) for v in vec] + [format_real(out)])


# TrainConfig is the one config schema: fields without a default are required, and it checks the types.
_FIELDS = dataclasses.fields(TrainConfig)
_REQUIRED_KEYS = tuple(f.name for f in _FIELDS if f.default is dataclasses.MISSING)


def load_config(path) -> TrainConfig:
    """Read a training config; missing optional keys take their defaults."""
    doc = read_json(path, ConfigError, "config file")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in _FIELDS}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    return TrainConfig(**doc)


def thetas_to_doc(thetas) -> list[dict]:
    """The theta document of `thetas`, as `json` writes it; a ThetaError for anything that is not a theta."""
    doc = []
    for theta in thetas:
        if isinstance(theta, CategoricalTheta):
            doc.append({"kind": "cat", "logits": [float(v) for v in theta.logits]})
        elif isinstance(theta, GaussianTheta):
            doc.append({"kind": "real", "mu": theta.mu, "sigma": theta.sigma})
        else:
            raise ThetaError(f"not a theta: {show(theta)}")
    return doc


def thetas_from_doc(doc) -> list:
    """The thetas a parsed theta document holds; a ThetaError naming the entry at fault for anything else."""
    if not isinstance(doc, list):
        raise ThetaError("theta document must be an array of per-hole entries")
    thetas = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ThetaError(f"entry {i}: expected an object with a 'kind' field")
        kind = entry["kind"]
        keys = set(entry)
        try:
            if kind == "cat":
                if keys != {"kind", "logits"}:
                    raise ThetaError(f"'cat' entries carry exactly 'logits', got {sorted(keys)}")
                if not isinstance(entry["logits"], list):
                    raise ThetaError(f"logits must be an array of numbers, got {show(entry['logits'])}")
                thetas.append(CategoricalTheta(entry["logits"]))
            elif kind == "real":
                if keys != {"kind", "mu", "sigma"}:
                    raise ThetaError(f"'real' entries carry exactly 'mu' and 'sigma', got {sorted(keys)}")
                thetas.append(GaussianTheta(entry["mu"], entry["sigma"]))
            else:
                raise ThetaError(f"unknown kind {show(kind)}")
        except ThetaError as exc:
            raise ThetaError(f"entry {i}: {exc}") from None
    return thetas


def save_thetas(thetas, path) -> None:
    doc = thetas_to_doc(thetas)  # before the file is opened, so a bad theta leaves no empty file
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_thetas(path, sketch=None) -> list:
    """Load thetas; if a sketch is given, validate kinds and arities against it."""
    thetas = thetas_from_doc(read_json(path, ThetaError, "theta file"))
    if sketch is not None:
        check_thetas(thetas, sketch)
    return thetas


def write_loss_csv(records: list[TrainRecord], path, log_every: int = 10) -> None:
    """Write the loss log: every log_every-th iteration plus the last one.  `log_every` is an integer that is
    not a bool, else a ValueError."""
    log_every = read_number(log_every, "log_every", ValueError, int)
    if log_every < 1:
        raise ValueError(f"log_every must be at least 1, got {show(log_every)}")
    last = records[-1].iteration if records else None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("iteration,mean_population_loss,argmax_loss,best_so_far_loss\n")
        for rec in records:
            if rec.iteration % log_every == 0 or rec.iteration == last:
                fh.write(
                    f"{rec.iteration},{format_real(rec.mean_population_loss)},"
                    f"{format_real(rec.argmax_loss)},{format_real(rec.best_so_far_loss)}\n"
                )

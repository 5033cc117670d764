"""Readers and writers for the on-disk data formats.

Everything is plain decimal text. Formats:

* equilibrium pairs: CSV ``r,s,censored`` with censored in {0, 1};
* window observations: CSV ``kind,value`` with kind in
  {complete, censored, forward, empty};
* segments: CSV ``kind,length`` with kind in {pc, px, rc, rx};
* survival estimates: CSV ``t,survival,variance,lower,upper`` (optional
  columns left empty when absent) or a JSON mirror with the same names;
* EM results: JSON with atoms, masses, birth_rate, loglik, iterations,
  converged.

Readers report malformed rows with their line numbers.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .npmle import EmResult
from .product_limit import BootstrapBand, StepSurvival, step_at
from .sampling import (
    EquilibriumPair,
    Segment,
    SegmentKind,
    WindowKind,
    WindowObservation,
)

PAIRS_HEADER = ["r", "s", "censored"]
WINDOW_HEADER = ["kind", "value"]
SEGMENTS_HEADER = ["kind", "length"]
SURVIVAL_HEADER = ["t", "survival", "variance", "lower", "upper"]


def write_pairs_csv(path, pairs: list[EquilibriumPair]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PAIRS_HEADER)
        for p in pairs:
            writer.writerow([repr(p.r), repr(p.s), int(p.s_censored)])


def read_pairs_csv(path) -> list[EquilibriumPair]:
    rows = _read_rows(path, PAIRS_HEADER)
    pairs = []
    for lineno, row in rows:
        try:
            r, s, flag = float(row[0]), float(row[1]), int(row[2])
            if flag not in (0, 1):
                raise ValueError(f"censored flag must be 0 or 1, got {row[2]}")
            if not (0 <= r < math.inf and 0 <= s < math.inf):
                raise ValueError("r and s must be finite and nonnegative")
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        pairs.append(EquilibriumPair(r, s, bool(flag)))
    return pairs


def write_window_csv(path, obs: list[WindowObservation]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(WINDOW_HEADER)
        for o in obs:
            writer.writerow([o.kind.value, repr(o.value)])


def read_window_csv(path) -> list[WindowObservation]:
    rows = _read_rows(path, WINDOW_HEADER)
    out = []
    for lineno, row in rows:
        try:
            kind = WindowKind(row[0])
            value = float(row[1])
            if not 0 <= value < math.inf:
                raise ValueError("value must be finite and nonnegative")
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        out.append(WindowObservation(kind, value))
    return out


def write_segments_csv(path, segments: list[Segment]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SEGMENTS_HEADER)
        for s in segments:
            writer.writerow([s.kind.value, repr(s.length)])


def read_segments_csv(path) -> list[Segment]:
    rows = _read_rows(path, SEGMENTS_HEADER)
    out = []
    for lineno, row in rows:
        try:
            kind = SegmentKind(row[0])
            length = float(row[1])
            if not 0 < length < math.inf:
                raise ValueError("length must be finite and positive")
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        out.append(Segment(kind, length))
    return out


def _read_rows(path, header: list[str]):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from None
    reader = csv.reader(text.splitlines())
    rows = list(reader)
    if not rows or [c.strip() for c in rows[0]] != header:
        raise DataFormatError(f"{path}:1: expected header {','.join(header)}")
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataFormatError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        out.append((lineno, row))
    return out


def _survival_columns(est: StepSurvival, band: BootstrapBand | None):
    times = est.jump_times
    if band is not None:
        times = np.union1d(times, band.times)
    survival = est.survival_at(times)
    variance = None
    if est.variance_values is not None:
        variance = step_at(est.jump_times, est.variance_values, times, np.nan)
    lower = band.lower_at(times) if band is not None else None
    upper = band.upper_at(times) if band is not None else None
    return times, survival, variance, lower, upper


def write_step_survival_csv(path, est: StepSurvival, band: BootstrapBand | None = None) -> None:
    times, survival, variance, lower, upper = _survival_columns(est, band)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SURVIVAL_HEADER)
        for i, t in enumerate(times):
            row = [repr(float(t)), repr(float(survival[i]))]
            row.append("" if variance is None or np.isnan(variance[i]) else repr(float(variance[i])))
            row.append("" if lower is None else repr(float(lower[i])))
            row.append("" if upper is None else repr(float(upper[i])))
            writer.writerow(row)


def write_step_survival_json(path, est: StepSurvival, band: BootstrapBand | None = None) -> None:
    times, survival, variance, lower, upper = _survival_columns(est, band)
    payload = {
        "t": [float(t) for t in times],
        "survival": [float(s) for s in survival],
        "variance": None
        if variance is None
        else [None if np.isnan(v) else float(v) for v in variance],
        "lower": None if lower is None else [float(v) for v in lower],
        "upper": None if upper is None else [float(v) for v in upper],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_step_survival_csv(path) -> dict:
    rows = _read_rows(path, SURVIVAL_HEADER)
    out: dict = {name: [] for name in SURVIVAL_HEADER}
    for lineno, row in rows:
        try:
            out["t"].append(float(row[0]))
            out["survival"].append(float(row[1]))
            for name, cell in zip(SURVIVAL_HEADER[2:], row[2:]):
                out[name].append(float(cell) if cell else None)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    return out


def write_em_result_json(path, result: EmResult) -> None:
    Path(path).write_text(json.dumps(result.to_json_dict(), indent=2) + "\n")


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_sidecar(out_path, payload: dict) -> None:
    """Config echo written next to a data file, at <out>.meta.json."""
    write_json(str(out_path) + ".meta.json", payload)

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
from .sampling import SEGMENT_KINDS, WINDOW_KINDS, Pairs, Segments, WindowRecords

PAIRS_HEADER = ["r", "s", "censored"]
WINDOW_HEADER = ["kind", "value"]
SEGMENTS_HEADER = ["kind", "length"]
SURVIVAL_HEADER = ["t", "survival", "variance", "lower", "upper"]


def write_csv(path, header: list[str], rows) -> None:
    """Write a header line and then the rows; floats are written as repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_pairs_csv(path, pairs: Pairs) -> None:
    cols = pairs.r.tolist(), pairs.s.tolist(), pairs.censored.astype(int).tolist()
    write_csv(path, PAIRS_HEADER, zip(*cols))


def _pair_row(row):
    r, s, flag = float(row[0]), float(row[1]), int(row[2])
    if flag not in (0, 1):
        raise ValueError(f"censored flag must be 0 or 1, got {row[2]}")
    if not (0 <= r < math.inf and 0 <= s < math.inf):
        raise ValueError("r and s must be finite and nonnegative")
    return r, s, flag


def read_pairs_csv(path) -> Pairs:
    return Pairs(*_read_columns(path, PAIRS_HEADER, _pair_row))


def write_window_csv(path, obs: WindowRecords) -> None:
    write_csv(path, WINDOW_HEADER, zip(obs.kind.tolist(), obs.value.tolist()))


def _window_row(row):
    kind, value = row[0], float(row[1])
    if kind not in WINDOW_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if not 0 <= value < math.inf:
        raise ValueError("value must be finite and nonnegative")
    return kind, value


def read_window_csv(path) -> WindowRecords:
    return WindowRecords(*_read_columns(path, WINDOW_HEADER, _window_row))


def write_segments_csv(path, segments: Segments) -> None:
    write_csv(path, SEGMENTS_HEADER, zip(segments.kind.tolist(), segments.length.tolist()))


def _segment_row(row):
    kind, length = row[0], float(row[1])
    if kind not in SEGMENT_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if not 0 < length < math.inf:
        raise ValueError("length must be finite and positive")
    return kind, length


def read_segments_csv(path) -> Segments:
    return Segments(*_read_columns(path, SEGMENTS_HEADER, _segment_row))


def _read_columns(path, header: list[str], parse) -> list:
    """The data rows of a CSV file as columns. ``parse`` converts one row
    and raises ValueError on a bad one; errors carry the line number."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from None
    rows = csv.reader(text.splitlines())
    if [c.strip() for c in next(rows, [])] != header:
        raise DataFormatError(f"{path}:1: expected header {','.join(header)}")
    parsed = []
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            parsed.append(parse(row))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    return list(zip(*parsed)) or [()] * len(header)


def _survival_columns(est: StepSurvival, band: BootstrapBand | None) -> list:
    """The SURVIVAL_HEADER columns as lists: None for an absent column and
    for an undefined variance."""
    times = est.jump_times
    if band is not None:
        times = np.union1d(times, band.times)
    variance = None
    if est.variance_values is not None:
        variance = step_at(est.jump_times, est.variance_values, times, np.nan)
        variance = np.where(np.isnan(variance), None, variance).tolist()
    lower = band.lower_at(times).tolist() if band is not None else None
    upper = band.upper_at(times).tolist() if band is not None else None
    return [times.tolist(), est.survival_at(times).tolist(), variance, lower, upper]


def write_step_survival_csv(path, est: StepSurvival, band: BootstrapBand | None = None) -> None:
    cols = _survival_columns(est, band)
    blank = [None] * len(cols[0])
    write_csv(path, SURVIVAL_HEADER, zip(*(blank if col is None else col for col in cols)))


def write_step_survival_json(path, est: StepSurvival, band: BootstrapBand | None = None) -> None:
    payload = dict(zip(SURVIVAL_HEADER, _survival_columns(est, band)))
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _survival_row(row):
    return float(row[0]), float(row[1]), *(float(cell) if cell else None for cell in row[2:])


def read_step_survival_csv(path) -> dict:
    cols = _read_columns(path, SURVIVAL_HEADER, _survival_row)
    return {name: list(col) for name, col in zip(SURVIVAL_HEADER, cols)}


def write_em_result_json(path, result: EmResult) -> None:
    Path(path).write_text(json.dumps(result.to_json_dict(), indent=2) + "\n")


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_sidecar(out_path, payload: dict) -> None:
    """Config echo written next to a data file, at <out>.meta.json."""
    write_json(str(out_path) + ".meta.json", payload)

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

The data writers format each column of a chunk of rows with one ``repr``
of its list and write the file chunk by chunk. The bytes are those that
``csv.writer`` and ``json.dumps(indent=2)`` write.

Readers report malformed rows with their line numbers. The pairs, window
and segment readers parse the whole file in C (``np.loadtxt``) and check
the columns as arrays; their line-by-line loop runs only on a file that
fails this, to word the error.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

from .distributions import step_at
from .errors import DataFormatError
from .npmle import EmResult
from .product_limit import BootstrapBand, StepSurvival
from .sampling import SEGMENT_KINDS, WINDOW_KINDS, Pairs, Segments, WindowRecords

PAIRS_HEADER = ["r", "s", "censored"]
WINDOW_HEADER = ["kind", "value"]
SEGMENTS_HEADER = ["kind", "length"]
SURVIVAL_HEADER = ["t", "survival", "variance", "lower", "upper"]


# Rows built and written at a time, so that no writer holds a whole file's
# text.
WRITE_CHUNK_ROWS = 8192

# A cell of these types is its repr, except None, which is empty.
_REPR_TYPES = {float, int, type(None)}
# csv.writer's QUOTE_MINIMAL quotes a cell that holds any of these.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_cell(value) -> str:
    if value is None:
        return ""
    text = str(value)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_cells(values: list) -> list[str]:
    """The cells of a nonempty list; a list of floats, ints and None takes
    one repr, and a list of strings none of which needs quotes is its own
    cells."""
    types = {*map(type, values)}
    if types <= _REPR_TYPES:
        return repr(values)[1:-1].replace("None", "").split(", ")
    if types == {str} and not _NEEDS_QUOTES.search("".join(values)):
        return values
    return [_csv_cell(v) for v in values]


def _csv_lines(columns: list[list[str]]) -> str:
    lines = map(",".join, zip(*columns))
    if len(columns) == 1:
        lines = (line or '""' for line in lines)
    return "\r\n".join(lines) + "\r\n"


def write_csv(path, header: list[str], columns) -> None:
    """Write the header line and then the rows of ``columns``, sequences of
    equal length, WRITE_CHUNK_ROWS rows at a time. The bytes are those
    csv.writer writes: strings quoted as QUOTE_MINIMAL quotes them, None
    empty, other values as ``str``, and ``\\r\\n`` after every line."""
    n = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.write(_csv_lines([[_csv_cell(name)] for name in header]))
        for start in range(0, n, WRITE_CHUNK_ROWS):
            stop = start + WRITE_CHUNK_ROWS
            fh.write(_csv_lines([_csv_cells(list(col[start:stop])) for col in columns]))


# Printable ASCII and the newline. Outside it the C parse and the row loop
# part ways: float() reads non-ASCII digits that numpy rejects, numpy reads
# \x1f as a blank where float() fails, and numpy text fields drop a
# trailing NUL. So text with any other character goes to the row loop.
_PLAIN = bytes(range(0x20, 0x7F)) + b"\n"


def _parse_in_c(text: str, lines: list[str], dtype, columns):
    """The columns of the data ``lines`` parsed by np.loadtxt, or None where
    the row loop must run: on other than plain text, no data rows (where
    loadtxt would warn), a ValueError or a failed check. Like the loop,
    loadtxt skips empty lines."""
    if not any(lines) or not text.isascii() or text.encode("ascii").translate(None, _PLAIN):
        return None
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    return columns(*(np.ascontiguousarray(table[name]) for name in table.dtype.names))


def _nonnegative(x: np.ndarray) -> bool:
    return bool(((0 <= x) & (x < math.inf)).all())


def _kind_table(kinds: tuple) -> np.dtype:
    """A text field one character wider than the longest code, so that a
    longer cell is cut to a width no code has, then a float field."""
    return np.dtype([("kind", f"<U{max(map(len, kinds)) + 1}"), ("value", float)])


def _known_kinds(kind: np.ndarray, kinds: tuple):
    """``kind`` as np.asarray(kind.tolist(), dtype=str) would give it, or
    None if a code is not in ``kinds``."""
    if not np.isin(kind, kinds).all():
        return None
    return kind.astype(f"<U{np.char.str_len(kind).max()}")


def write_pairs_csv(path, pairs: Pairs) -> None:
    cols = [pairs.r.tolist(), pairs.s.tolist(), pairs.censored.astype(int).tolist()]
    write_csv(path, PAIRS_HEADER, cols)


def _pair_row(row):
    r, s, flag = float(row[0]), float(row[1]), int(row[2])
    if flag not in (0, 1):
        raise ValueError(f"censored flag must be 0 or 1, got {row[2]}")
    if not (0 <= r < math.inf and 0 <= s < math.inf):
        raise ValueError("r and s must be finite and nonnegative")
    return r, s, flag


def _pair_columns(r, s, flag):
    if _nonnegative(r) and _nonnegative(s) and np.isin(flag, ("0", "1")).all():
        return [r, s, flag == "1"]
    return None


# The flag is read as text, so that only the cells "0" and "1" skip the row
# loop: numpy's integer parse reads "२" as 2360 where int() reads 2.
_PAIRS_TABLE = np.dtype([("r", float), ("s", float), ("censored", "<U2")]), _pair_columns


def read_pairs_csv(path) -> Pairs:
    return Pairs(*_read_columns(path, PAIRS_HEADER, _pair_row, _PAIRS_TABLE))


def write_window_csv(path, obs: WindowRecords) -> None:
    write_csv(path, WINDOW_HEADER, [obs.kind.tolist(), obs.value.tolist()])


def _window_row(row):
    kind, value = row[0], float(row[1])
    if kind not in WINDOW_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if not 0 <= value < math.inf:
        raise ValueError("value must be finite and nonnegative")
    return kind, value


def _window_columns(kind, value):
    kind = _known_kinds(kind, WINDOW_KINDS)
    return [kind, value] if kind is not None and _nonnegative(value) else None


_WINDOW_TABLE = _kind_table(WINDOW_KINDS), _window_columns


def read_window_csv(path) -> WindowRecords:
    return WindowRecords(*_read_columns(path, WINDOW_HEADER, _window_row, _WINDOW_TABLE))


def write_segments_csv(path, segments: Segments) -> None:
    write_csv(path, SEGMENTS_HEADER, [segments.kind.tolist(), segments.length.tolist()])


def _segment_row(row):
    kind, length = row[0], float(row[1])
    if kind not in SEGMENT_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if not 0 < length < math.inf:
        raise ValueError("length must be finite and positive")
    return kind, length


def _segment_columns(kind, length):
    kind = _known_kinds(kind, SEGMENT_KINDS)
    positive = bool(((0 < length) & (length < math.inf)).all())
    return [kind, length] if kind is not None and positive else None


_SEGMENTS_TABLE = _kind_table(SEGMENT_KINDS), _segment_columns


def read_segments_csv(path) -> Segments:
    return Segments(*_read_columns(path, SEGMENTS_HEADER, _segment_row, _SEGMENTS_TABLE))


def _read_columns(path, header: list[str], parse, table=None) -> list:
    """The data rows of a CSV file as columns. ``parse`` converts one row
    and raises ValueError on a bad one; errors carry the number of the file
    line on which the bad row ends, as a quoted cell may span lines.

    ``table`` is ``(dtype, columns)``: the rows are first parsed in C into
    the fields of ``dtype``, and ``columns`` turns the fields into the
    columns the row loop would return, or None if some row would fail
    ``parse``. The row loop runs only where that fails, to word the error."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from None
    lines = text.splitlines()
    rows = csv.reader(lines)
    if [c.strip() for c in next(rows, [])] != header:
        raise DataFormatError(f"{path}:1: expected header {','.join(header)}")
    if table is not None:
        cols = _parse_in_c(text, lines[1:], *table)
        if cols is not None:
            return cols
    parsed = []
    for row in rows:
        if not row:
            continue
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            parsed.append(parse(row))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{rows.line_num}: {exc}") from None
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
    write_csv(path, SURVIVAL_HEADER, [blank if col is None else col for col in cols])


def _write_json_list(fh, values: list | None) -> None:
    """Write a list of floats and None, or None, as json.dumps(indent=2)
    writes it as the value of a top-level key."""
    if not values:
        fh.write("null" if values is None else "[]")
        return
    for start in range(0, len(values), WRITE_CHUNK_ROWS):
        text = repr(values[start:start + WRITE_CHUNK_ROWS])[1:-1].replace("None", "null")
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
        fh.write(("," if start else "[") + "\n    " + text.replace(", ", ",\n    "))
    fh.write("\n  ]")


def write_step_survival_json(path, est: StepSurvival, band: BootstrapBand | None = None) -> None:
    """Write the SURVIVAL_HEADER columns as json.dumps(indent=2) writes a
    dict of them, with ``null`` for an absent column."""
    with open(path, "w") as fh:
        opening = "{"
        for name, col in zip(SURVIVAL_HEADER, _survival_columns(est, band)):
            fh.write(f'{opening}\n  "{name}": ')
            _write_json_list(fh, col)
            opening = ","
        fh.write("\n}\n")


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

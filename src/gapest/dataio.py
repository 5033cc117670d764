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

The data writers make Python values of one chunk of rows at a time and
format each column of it with one ``repr`` of its list. The bytes are
those that ``csv.writer`` and ``json.dumps(indent=2)`` write.

Readers report malformed rows with their line numbers. The pairs, window
and segment readers check the file's bytes in blocks, then ``np.loadtxt``
reads it and the columns are checked as arrays; their line-by-line loop
runs only on a file that fails this, to word the error.
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
from .sampling import SEGMENT_KINDS, WINDOW_KINDS, Pairs, Segments, WindowRecords, _kind_codes

PAIRS_HEADER = ["r", "s", "censored"]
WINDOW_HEADER = ["kind", "value"]
SEGMENTS_HEADER = ["kind", "length"]
SURVIVAL_HEADER = ["t", "survival", "variance", "lower", "upper"]


# Rows made Python values and written at a time, so that no writer holds a
# whole file's text or a Python object per row.
WRITE_CHUNK_ROWS = 8192
_READ_BLOCK = 1 << 20  # bytes of a file checked at a time by the readers

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


def _values(part) -> list:
    """A slice of a column, or a kind container's names, as Python values."""
    part = getattr(part, "kind", part)
    return part.tolist() if isinstance(part, np.ndarray) else list(part)


def write_csv(path, header: list[str], columns) -> None:
    """Write the header line and then the rows of ``columns``, lists or
    arrays of equal length (a kind container stands for its kind names),
    made Python values WRITE_CHUNK_ROWS rows at a time. The bytes are those
    csv.writer writes: strings quoted as QUOTE_MINIMAL quotes them, None
    and masked entries empty, other values as ``str``, and ``\\r\\n``
    after every line."""
    n = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.write(_csv_lines([[_csv_cell(name)] for name in header]))
        for start in range(0, n, WRITE_CHUNK_ROWS):
            stop = start + WRITE_CHUNK_ROWS
            fh.write(_csv_lines([_csv_cells(_values(col[start:stop])) for col in columns]))


# Printable ASCII and the line ends. Outside it the C parse and the row loop
# part ways: float() reads non-ASCII digits that numpy rejects, numpy reads
# \x1f as a blank where float() fails, and numpy text fields drop a
# trailing NUL. So a file with any other byte goes to the row loop. Both
# read the file as text, so \r\n and a lone \r end a line as \n does.
_PLAIN = bytes(range(0x20, 0x7F)) + b"\n\r"


def _parse_in_c(path: Path, header: list[str], dtype, columns):
    """The columns of the file's data rows as np.loadtxt reads them from the
    file, or None where the row loop must run: on other than plain bytes
    (checked a block at a time), a header line other than ``header``, no
    data rows (where loadtxt would warn), a ValueError or a failed check."""
    with open(path, "rb") as fh:
        block = fh.read(_READ_BLOCK)
        head = re.match(rb"[^\r\n]*", block)[0]
        data, rows = block[len(head):], False
        while block:
            if block.translate(None, _PLAIN):
                return None
            rows = rows or bool(data.strip(b"\r\n"))
            block = data = fh.read(_READ_BLOCK)
    if not rows or [c.strip() for c in head.decode().split(",")] != header:
        return None  # a quoted header cell fails too: no name holds a quote
    try:  # like the loop, loadtxt skips empty lines
        table = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, skiprows=1,
                           ndmin=1, encoding="ascii")
    except ValueError:
        return None
    fields = [table[name] for name in table.dtype.names]  # text is only compared, not copied
    return columns(*(f if f.dtype.kind == "U" else np.ascontiguousarray(f) for f in fields))


def _nonnegative(x: np.ndarray) -> bool:
    return bool(((0 <= x) & (x < math.inf)).all())


def _kind_table(kinds: tuple) -> np.dtype:
    """A text field one character wider than the longest kind name, so that
    a longer cell is cut to a width no name has, then a float field."""
    return np.dtype([("kind", f"<U{max(map(len, kinds)) + 1}"), ("value", float)])


def write_pairs_csv(path, pairs: Pairs) -> None:
    write_csv(path, PAIRS_HEADER, [pairs.r, pairs.s, pairs.censored.view(np.uint8)])


def _pair_row(row):
    r, s, flag = float(row[0]), float(row[1]), int(row[2])
    if flag not in (0, 1):
        raise ValueError(f"censored flag must be 0 or 1, got {row[2]}")
    if not (0 <= r < math.inf and 0 <= s < math.inf):
        raise ValueError("r and s must be finite and nonnegative")
    return r, s, flag


def _pair_columns(r, s, flag):
    censored = flag == "1"
    if _nonnegative(r) and _nonnegative(s) and (censored | (flag == "0")).all():
        return [r, s, censored]
    return None


# The flag is read as text, so that only the cells "0" and "1" skip the row
# loop: numpy's integer parse reads "२" as 2360 where int() reads 2.
_PAIRS_TABLE = np.dtype([("r", float), ("s", float), ("censored", "<U2")]), _pair_columns


def read_pairs_csv(path) -> Pairs:
    return Pairs(*_read_columns(path, PAIRS_HEADER, _pair_row, _PAIRS_TABLE))


def write_window_csv(path, obs: WindowRecords) -> None:
    write_csv(path, WINDOW_HEADER, [obs, obs.value])


def _window_row(row):
    kind, value = row[0], float(row[1])
    if kind not in WINDOW_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if not 0 <= value < math.inf:
        raise ValueError("value must be finite and nonnegative")
    return kind, value


def _window_columns(kind, value):
    code = _kind_codes(kind, WINDOW_KINDS)
    return [code, value] if (code >= 0).all() and _nonnegative(value) else None


_WINDOW_TABLE = _kind_table(WINDOW_KINDS), _window_columns


def read_window_csv(path) -> WindowRecords:
    return WindowRecords(*_read_columns(path, WINDOW_HEADER, _window_row, _WINDOW_TABLE))


def write_segments_csv(path, segments: Segments) -> None:
    write_csv(path, SEGMENTS_HEADER, [segments, segments.length])


def _segment_row(row):
    kind, length = row[0], float(row[1])
    if kind not in SEGMENT_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if not 0 < length < math.inf:
        raise ValueError("length must be finite and positive")
    return kind, length


def _segment_columns(kind, length):
    code = _kind_codes(kind, SEGMENT_KINDS)
    positive = bool(((0 < length) & (length < math.inf)).all())
    return [code, length] if (code >= 0).all() and positive else None


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
        cols = None if table is None else _parse_in_c(path, header, *table)
        if cols is not None:
            return cols
        text = path.read_text()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from None
    rows = csv.reader(text.splitlines())
    if [c.strip() for c in next(rows, [])] != header:
        raise DataFormatError(f"{path}:1: expected header {','.join(header)}")
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
    """The SURVIVAL_HEADER columns as float arrays, None for an absent
    column; an undefined variance is masked, so its tolist() gives None."""
    times = est.jump_times
    if band is not None:
        times = np.union1d(times, band.times)
    variance = None
    if est.variance_values is not None:
        variance = step_at(est.jump_times, est.variance_values, times, np.nan)
        variance = np.ma.masked_where(np.isnan(variance), variance, copy=False)
    lower = band.lower_at(times) if band is not None else None
    upper = band.upper_at(times) if band is not None else None
    return [times, est.survival_at(times), variance, lower, upper]


def write_step_survival_csv(path, est: StepSurvival, band: BootstrapBand | None = None) -> None:
    cols = _survival_columns(est, band)
    blank = np.broadcast_to(None, len(cols[0]))  # one None, seen len(cols[0]) times
    write_csv(path, SURVIVAL_HEADER, [blank if col is None else col for col in cols])


def _write_json_list(fh, values) -> None:
    """Write a list or array of floats and None (see write_csv), or None, as
    json.dumps(indent=2) writes its list as the value of a top-level key."""
    if values is None or len(values) == 0:
        fh.write("null" if values is None else "[]")
        return
    for start in range(0, len(values), WRITE_CHUNK_ROWS):
        text = repr(_values(values[start:start + WRITE_CHUNK_ROWS]))[1:-1].replace("None", "null")
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

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

The writers format a chunk of rows at a time into numpy byte arrays, floats
as ``repr`` prints them (``_float_cells``), in the bytes that ``csv.writer``
and ``json.dumps(indent=2)`` write.

The pairs, window and segment readers take printable ASCII, line ends and no
quoting. One ``np.loadtxt`` reads a file into the container, which checks
every value. An error names its file line: on a failed load, the data lines
are halved down to the first bad row.
"""

from __future__ import annotations

import functools
import json
import re
from pathlib import Path

import numpy as np

from .distributions import step_at
from .errors import DataFormatError
from .npmle import EmResult
from .product_limit import BootstrapBand, StepSurvival
from .sampling import SEGMENT_KINDS, WINDOW_KINDS, Pairs, Segments, WindowRecords, _KindColumns

PAIRS_HEADER = ["r", "s", "censored"]
WINDOW_HEADER = ["kind", "value"]
SEGMENTS_HEADER = ["kind", "length"]
SURVIVAL_HEADER = ["t", "survival", "variance", "lower", "upper"]


# Rows formatted and written at a time, so that no writer holds a whole
# file's text.
WRITE_CHUNK_ROWS = 8192
_READ_BLOCK = 1 << 20  # bytes of a file checked at a time by the readers

# csv.writer's QUOTE_MINIMAL quotes a cell that holds any of these.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_cell(value) -> str:
    text = "" if value is None else str(value)
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


# Floats print as repr prints them: Java's DoubleToDecimal (R. Giulietti, "The Schubfach way to
# render doubles", 2020), names kept, run on a whole array at once in uint64 arithmetic, with one
# product per double where Java forms three.


@functools.cache
def _g_table() -> np.ndarray:
    """Column k + 324: g = floor(10**-k 2**(125 - floor(-k log2 10))) + 1, low 63 bits and rest."""
    e = [(k, 125 - (-k * 913124641741 >> 38)) for k in range(-324, 293)]
    g = [(10 ** max(-k, 0) << max(e, 0)) // (10 ** max(k, 0) << max(-e, 0)) + 1 for k, e in e]
    return np.array([[v & (2**63 - 1) for v in g], [v >> 63 for v in g]], dtype=np.uint64)


def _product(a, b_lo, b_hi) -> tuple:
    """The high and low 64-bit words of a * b, a < 2**63 and b = b_hi * 2**32 + b_lo < 2**60."""
    a_lo, a_hi = a & 0xFFFFFFFF, a >> 32
    lo, m, hi = a_lo * b_lo, a_lo * b_hi + a_hi * b_lo, a_hi * b_hi  # m < 2**64: no overflow
    return hi + (m >> 32) + ((lo >> 32) + (m & 0xFFFFFFFF) >> 32), lo + (m << 32)


def _scaled(bits: np.ndarray) -> tuple:
    """(vbl, vb, vbr, c, k) of each positive normal double c * 2**q: g * cp / 2**127, rounded to odd
    as Java's rop rounds it, for cp = cbl << h, cb << h and cbr << h, from one product g * cp."""
    exponent, t = (bits >> 52).astype(np.int64), bits & (2**52 - 1)
    c, q = t | 2**52, exponent - 1075  # the double is c * 2**q
    lopsided = (t == 0) & (exponent > 1)  # the double below is nearer than the one above
    k = (q * 661971961083 - lopsided * 274743187321) >> 41
    h = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint64)
    g0, g1 = _g_table().take(k + 324, axis=1)  # g = g1 * 2**63 + g0
    cp = 4 * c << h
    (x1, x0), (y1, y0) = (_product(g, cp & 0xFFFFFFFF, cp >> 32) for g in (g0, g1))
    # cbr << h is cp + (2 << h) and cbl << h is cp - (2 << h), or cp - (1 << h) on a lopsided
    # binade, so the ends' g0 * cp and g1 * cp differ by g0 << s and g1 << s: carried exactly.
    s = h + 1 - lopsided
    dx, dy = g0 << s, g1 << s
    lower = x1 - (g0 >> 64 - s) - (x0 < dx), y1 - (g1 >> 64 - s) - (y0 < dy), y0 - dy
    s = h + 1
    dx, dy = g0 << s, g1 << s
    upper = x1 + (g0 >> 64 - s) + (x0 + dx < dx), y1 + (g1 >> 64 - s) + (y0 + dy < dy), y0 + dy
    rounded = []
    for hx, hy, ly in lower, (x1, y1, y0), upper:  # high words of g0 * cp, g1 * cp; low of g1 * cp
        z = (ly >> 1) + hx
        rounded.append((hy + (z >> 63)) | (z << 1 != 0))
    return (*rounded, c, k)


def _shortest(bits: np.ndarray) -> tuple:
    """(f, k): f * 10**k, f of 16 or 17 digits, is repr's decimal of each positive normal double."""
    vbl, vb, vbr, c, k = _scaled(bits)
    vbl, vbr = vbl + (c & 1), vbr - (c & 1)  # an odd c leaves the ends of its interval out
    s, sp10 = vb >> 2, (vb >> 2) // 10 * 10
    upin, wpin = vbl <= sp10 << 2, (sp10 + 10) << 2 <= vbr
    uin, win = vbl <= s << 2, (s + 1) << 2 <= vbr
    nearer = vb + (s & 1) <= (2 * s + 1) << 1  # s is nearer than s + 1, or as near and even
    f = np.where(uin & (~win | nearer), s, s + 1)
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10), f)
    return f.view(np.int64), k  # signed, so that its digits index tables without a cast


# 0..9999 as four ASCII digits in a little-endian word, and their count up to the last nonzero.
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
_DIGITS4 = _DIGITS4.view("<u4").ravel()
_SIGNIFICANT4 = 4 - sum(np.arange(10000) % 10**j == 0 for j in range(1, 5))
# From a source row "-.0" and 17 digits, row p + 3 of _BODIES gathers a fixed form with the point
# at p, 0.00ddd or ddd.ddd, row 20 an exponent's d.ddd, and rows 21 to 41 the same after a "-".
_BODIES = [[2, 1, *[2] * -p, *range(3, 20)] if p <= 0 else [*range(3, 3 + p), 1, *range(3 + p, 20)]
           for p in range(-3, 17)] + [[3, 1, *range(4, 20)]]
_BODIES = np.array([([0] * m + row + [2] * 7)[:24] for m in (0, 1) for row in _BODIES])


def _float_cells(x: np.ndarray, text=repr) -> list:
    """Each double of a float or masked array as repr prints it, in parts for _join: the number, and
    its exponent (none, or e-324 .. e+308) if any value needs one. Subnormals, nan and inf take
    text(value), masked entries text(None), one at a time."""
    masked, x = np.ma.getmaskarray(x), np.ascontiguousarray(np.ma.getdata(x), dtype=float)
    minus, magnitude = (x.view(np.uint64) >> 63).astype(np.intp), x.view(np.uint64) & (2**63 - 1)
    normal = (magnitude >> 52) - 1 < 2046
    f, k = _shortest(np.where(normal, magnitude, 1 << 62))  # 2.0 in place of the others
    f, point = np.where(f < 10**16, f * 10, f), k + 17 - (f < 10**16)  # 0.ddd * 10**point
    src = np.empty((len(x), 5), dtype="<u4")
    head = f // 10**16
    src[:, 0] = np.where(magnitude == 0, 0, head << 24) + 0x30302E2D  # "-.0" and a digit
    n = np.ones(len(x), dtype=np.intp)  # significant digits
    for i in range(4):  # the other 16 digits, four at a time, by // alone: numpy's % is slower
        word, head = f // 10 ** (12 - 4 * i) - head * 10**4, f // 10 ** (12 - 4 * i)
        src[:, 1 + i] = _DIGITS4[word]
        n = np.where(word != 0, 1 + 4 * i + _SIGNIFICANT4[word], n)
    fixed = (-3 <= point) & (point <= 16)
    size = np.where(point > 0, np.maximum(n, point + 1) + 1, 2 - point + n)
    size, tail = minus + np.where(fixed, size, n + (n > 1)), np.where(fixed, 0, point + 324)
    odd = np.flatnonzero(masked | ~normal & (magnitude != 0))
    if odd.size:
        values = [None if m else v for v, m in zip(x[odd].tolist(), masked[odd])]
        odd_cells, size[odd] = _text_cells([*map(text, values)])
        tail[odd] = 0
    form = np.where(fixed, point + 3, 20) + 21 * minus  # its row of _BODIES
    chars, body = src.view(np.uint8), np.empty((len(x), size.max(initial=0)), np.uint8)
    for row in np.flatnonzero(np.bincount(form)):  # one column gather per form the chunk holds
        at, cols = np.flatnonzero(form == row), _BODIES[row, :body.shape[1]]
        body[at, :cols.size] = chars.take(at, axis=0)[:, cols]
    if odd.size:
        body[odd, :odd_cells.shape[1]] = odd_cells
    if not tail.any():
        return [(body, size)]
    return [(body, size), tuple(cells.take(tail, axis=0) for cells in _EXPONENTS)]


def _text_cells(texts) -> tuple:
    """Strings as (chars, lengths): a uint8 matrix of their UTF-8 bytes and their lengths."""
    data = [t.encode() for t in texts]
    chars = np.array(data, dtype=bytes)  # padded with NULs, so a trailing NUL is kept
    return chars.view(np.uint8).reshape(len(data), -1), np.array([*map(len, data)], dtype=np.intp)


_named_cells = functools.cache(_text_cells)  # of a tuple of names
# e-324 .. e+308 after "", made at import as the tables above are: made at the first write that
# needs an exponent, it stayed among that write's freed arrays, and cli-files' peak RSS rose 3 MB.
_EXPONENTS = _text_cells(["", *(f"e{e:+03}" for e in range(-324, 309))])


def _cells(part, text) -> list:
    """A slice of a column as parts for _join: floats as repr prints them,
    kinds and uint8 flags by their names, other values as text(value)."""
    if isinstance(part, np.ndarray) and part.dtype == float:
        return _float_cells(part, text)
    if isinstance(part, _KindColumns):
        return [tuple(cells.take(part.code, axis=0) for cells in _named_cells(part.KINDS))]
    if isinstance(part, np.ndarray) and part.dtype == np.uint8:
        names = _named_cells(tuple(map(str, range(256))))
        return [tuple(cells.take(part, axis=0) for cells in names)]
    return [_text_cells([*map(text, part.tolist() if isinstance(part, np.ndarray) else part)])]


def _join(parts: list, rows: int) -> np.ndarray:
    """The bytes of ``rows`` rows, each the concatenation of its cell of
    every part: a (chars, lengths) pair, or bytes that every row holds.
    The parts fill one byte matrix and its keep mask, compressed once."""
    ends = np.cumsum([len(p) if isinstance(p, bytes) else p[1].max(initial=0) for p in parts])
    chars, keep = np.empty((rows, ends[-1]), np.uint8), np.empty((rows, ends[-1]), bool)
    for part, end, width in zip(parts, ends, np.diff(ends, prepend=0)):
        at = slice(end - width, end)
        if isinstance(part, bytes):
            chars[:, at], keep[:, at] = np.frombuffer(part, np.uint8), True
        else:
            chars[:, at] = part[0][:, :width]
            keep[:, at] = (np.arange(width) < np.arange(width + 1)[:, None]).take(part[1], axis=0)
    return chars.ravel()[keep.ravel()]


def write_csv(path, header: list[str], columns) -> None:
    """Write the header line and the rows of ``columns``, arrays or lists of
    equal length (a kind container stands for its names, None for empty
    cells), WRITE_CHUNK_ROWS rows at a time, in the bytes of csv.writer:
    floats as repr prints them, None and masked entries empty."""
    sizes = [len(col) for col in columns if col is not None]
    if len(set(sizes)) > 1:
        raise ValueError(f"columns differ in length: {sizes}")
    text = _csv_cell if len(columns) != 1 else lambda v: _csv_cell(v) or '""'  # a lone empty cell

    def lines(parts, rows):
        cells = [[text(None).encode()] if part is None else _cells(part, text) for part in parts]
        return _join([part for cell in cells for part in (b",", *cell)][1:] + [b"\r\n"], rows)

    with open(path, "wb") as fh:
        fh.write(lines([[name] for name in header], 1))
        for start in range(0, sizes[0] if sizes else 0, WRITE_CHUNK_ROWS):
            parts = [col if col is None else col[start:start + WRITE_CHUNK_ROWS] for col in columns]
            fh.write(lines(parts, min(WRITE_CHUNK_ROWS, sizes[0] - start)))


# The bytes a data file may hold: printable ASCII and the line ends. \r\n
# and a lone \r end a line as \n does.
_PLAIN = bytes(range(0x20, 0x7F)) + b"\n\r"


def _kind_table(kinds: tuple):
    """table(width): a kind field one character wider than the longest kind name, so that a
    longer cell is cut to a width no name has, and a float field. The kind field is ASCII bytes
    at width 0 (a quarter of text's memory), else text at least ``width`` wide, to word an error."""
    least = max(map(len, kinds)) + 1
    return lambda width: np.dtype([("kind", f"<U{max(least, width)}" if width else f"S{least}"),
                                   ("value", float)])


def write_pairs_csv(path, pairs: Pairs) -> None:
    write_csv(path, PAIRS_HEADER, [pairs.r, pairs.s, pairs.censored.view(np.uint8)])


def _pairs(r, s, flag):
    bad = np.flatnonzero((flag != 0) & (flag != 1))
    if bad.size:
        raise ValueError(f"censored flag {flag[bad[0]]} at index {bad[0]} is not 0 or 1")
    return Pairs(r, s, flag == 1)


def read_pairs_csv(path) -> Pairs:
    dtype = np.dtype([("r", float), ("s", float), ("censored", "<i8")])
    return _read_columns(path, PAIRS_HEADER, lambda width: dtype, _pairs)


def write_window_csv(path, obs: WindowRecords) -> None:
    write_csv(path, WINDOW_HEADER, [obs, obs.value])


def read_window_csv(path) -> WindowRecords:
    return _read_columns(path, WINDOW_HEADER, _kind_table(WINDOW_KINDS), WindowRecords)


def write_segments_csv(path, segments: Segments) -> None:
    write_csv(path, SEGMENTS_HEADER, [segments, segments.length])


def read_segments_csv(path) -> Segments:
    return _read_columns(path, SEGMENTS_HEADER, _kind_table(SEGMENT_KINDS), Segments)


def _load(lines, dtype, build, skiprows=0):
    """``build(*fields)`` of the rows np.loadtxt reads into ``dtype`` from a
    path or a list of lines; an empty list gives empty fields."""
    table = np.loadtxt(lines, dtype, delimiter=",", comments=None, skiprows=skiprows, ndmin=1,
                       encoding="ascii") if lines else np.empty(0, dtype)
    fields = [table[name] for name in dtype.names]  # kinds and flags are only compared
    return build(*(np.ascontiguousarray(f) if f.dtype == float else f for f in fields))


def data_lines(path):
    """The file line numbers and the bytes of the data rows: the nonblank lines after the header."""
    lines = Path(path).read_bytes().splitlines()  # as text mode splits: on \n, \r\n and \r
    return zip(*[(n, line) for n, line in enumerate(lines[1:], 2) if line])


def _read_columns(path, header: list[str], table, build):
    """``build(*fields)`` of the data rows of a CSV file, as np.loadtxt reads them into
    ``table(0)``; ``build`` raises ValueError on a bad row. After the header, the bytes are checked
    a block at a time, and a file of _PLAIN bytes is loaded whole. An error names its file line:
    with no quoting a row is one nonblank line, and rows fail alone, so the data lines up to the
    first that is not _PLAIN are halved down to the first bad row, one _load of a slice per probe.
    What loadtxt rejects there is worded in the file's terms; ``table(width)`` reads that row's
    kind cell whole, to at most _READ_BLOCK characters over the rows up to it, memory bounded."""
    path, dtype = Path(path), table(0)
    try:
        with open(path, "rb") as fh:
            block = fh.read(_READ_BLOCK)
            head = re.match(rb"[^\r\n]*", block)[0]
            # as latin-1 and stripped of spaces alone, a header with an odd byte is no match
            if [c.strip(" ") for c in head.decode("latin-1").split(",")] != header:
                raise DataFormatError(f"{path}:1: expected header {','.join(header)}")
            data, rows = block[len(head):], False
            while block and not block.translate(None, _PLAIN):
                rows = rows or bool(data.strip(b"\r\n"))
                block = data = fh.read(_READ_BLOCK)
        try:
            if not block:  # the whole file is plain
                return _load(path if rows else [], dtype, build, skiprows=1)
        except ValueError:  # EstimationError included
            pass
        numbers, lines = data_lines(path)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from None
    end, odd = next(((i, odd) for i, x in enumerate(lines) if (odd := x.translate(None, _PLAIN))),
                    (len(lines), b""))  # the first line that is not _PLAIN, and its other bytes
    lo, hi = 0, min(end + 1, len(lines))
    while hi - lo > 1:  # lines[lo:hi] holds the first bad row
        mid = (lo + hi) // 2
        try:
            _load(lines[lo:mid], dtype, build)
            lo = mid
        except ValueError:
            hi = mid
    try:  # with the rows before it, so that a row index counts as in the whole file
        if lo == end:
            raise ValueError(f"byte {odd[0]:#04x} is not printable ASCII")
        if len(cells := lines[lo].decode().split(",")) != len(header):
            raise ValueError(f"expected {len(header)} cells, found {len(cells)}")
        for i, cell in enumerate(cells):  # one column at a time, so loadtxt decides what reads
            try:
                np.loadtxt(lines[lo:hi], dtype[i], delimiter=",", comments=None, usecols=i,
                           encoding="ascii")
            except ValueError:
                number = "an integer" if dtype[i].kind == "i" else "a number"
                raise ValueError(f"{cell!r} in column {header[i]} is not {number}") from None
        _load(lines[:hi], table(max(1, min(len(cells[0]), _READ_BLOCK // hi))), build)
    except ValueError as exc:
        raise DataFormatError(f"{path}:{numbers[lo]}: {exc}") from None
    raise AssertionError(f"{path}: the file fails to load, but no row of it fails")


def _survival_columns(est: StepSurvival, band: BootstrapBand | None) -> list:
    """The SURVIVAL_HEADER columns as float arrays, None for an absent
    column; an undefined variance is masked, so it is written empty or null.
    Without a band the estimate's own steps are the rows: its jump times
    strictly increase, so a lookup at them would give the same values."""
    times, survival, variance = est.jump_times, est.survival_values, est.variance_values
    lower = upper = None
    if band is not None:
        times = np.union1d(times, band.times)
        survival, lower, upper = est.survival_at(times), band.lower_at(times), band.upper_at(times)
        if variance is not None:
            variance = step_at(est.jump_times, variance, times, np.nan)
    if variance is not None:
        variance = np.ma.masked_where(np.isnan(variance), variance, copy=False)
    return [times, survival, variance, lower, upper]


def write_step_survival_csv(path, est: StepSurvival, band: BootstrapBand | None = None) -> None:
    write_csv(path, SURVIVAL_HEADER, _survival_columns(est, band))


def _write_json_list(fh, values) -> None:
    """Write a float array, a list of floats and None, or None, as
    json.dumps(indent=2) writes it as the value of a top-level key."""
    if values is None or len(values) == 0:
        fh.write(b"null" if values is None else b"[]")
        return
    for start in range(0, len(values), WRITE_CHUNK_ROWS):
        part = values[start:start + WRITE_CHUNK_ROWS]
        text = _join([b",\n    ", *_cells(part, json.dumps)], len(part))
        fh.write(b"[" if start == 0 else b",")
        fh.write(text[1:])
    fh.write(b"\n  ]")


def write_step_survival_json(path, est: StepSurvival, band: BootstrapBand | None = None) -> None:
    """Write the SURVIVAL_HEADER columns as json.dumps(indent=2) writes a
    dict of them, with ``null`` for an absent column."""
    with open(path, "wb") as fh:
        for i, (name, col) in enumerate(zip(SURVIVAL_HEADER, _survival_columns(est, band))):
            fh.write(f'{"," if i else "{"}\n  "{name}": '.encode())
            _write_json_list(fh, col)
        fh.write(b"\n}\n")


def write_em_result_json(path, result: EmResult) -> None:
    Path(path).write_text(json.dumps(result.to_json_dict(), indent=2) + "\n")


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_sidecar(out_path, payload: dict) -> None:
    """Config echo written next to a data file, at <out>.meta.json."""
    write_json(str(out_path) + ".meta.json", payload)

"""On-disk formats: round trips and malformed-input reporting."""

import csv
import functools
import json
import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapest import (
    DataFormatError,
    EstimationError,
    Exponential,
    Pairs,
    Segments,
    WindowRecords,
    apply_right_censoring,
    bootstrap_band,
    greenwood_variance,
    kaplan_meier,
    laslett_em,
    palmer_cox,
    sample_equilibrium,
    sample_pooled_segments,
    sample_pooled_windows,
    window_product_limit,
    winter_foldes,
)
from gapest import dataio
from gapest.distributions import step_at
from gapest.product_limit import ESTIMATORS
from gapest.sampling import SEGMENT_KINDS, WINDOW_KINDS

from test_sampling import same

# Finite nonnegative doubles, subnormals and values near 1e308 included.
FINITE = st.one_of(
    st.floats(0.0, allow_nan=False, allow_infinity=False),
    st.floats(0.0, 1e-307),
    st.floats(1e307, 1.7976931348623157e308),
)
POSITIVE = FINITE.filter(lambda x: x > 0.0)


def round_trip(tmp_path_factory, write, read, records):
    path = tmp_path_factory.mktemp("io") / "records.csv"
    write(path, records)
    back = read(path)
    same(back, records)


class TestPairsCsv:
    def test_round_trip(self, tmp_path):
        pairs = sample_equilibrium(Exponential(1.0), 50, seed=3)
        pairs.s[3], pairs.censored[3] = 0.25, True
        path = tmp_path / "pairs.csv"
        dataio.write_pairs_csv(path, pairs)
        same(dataio.read_pairs_csv(path), pairs)
        header = path.read_text().splitlines()[0]
        assert header == "r,s,censored"

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for row in ("x,2.0,0", "nan,2.0,0", "1.0,nan,0", "inf,2.0,0", "1.0,inf,0", "1.0,-inf,0"):
            path.write_text(f"r,s,censored\n1.0,2.0,0\n{row}\n")
            with pytest.raises(DataFormatError, match="bad.csv:3"):
                dataio.read_pairs_csv(path)

    def test_bad_flag_and_missing_header(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("r,s,censored\n1.0,2.0,7\n")
        with pytest.raises(DataFormatError, match=":2"):
            dataio.read_pairs_csv(path)
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataFormatError, match=":1"):
            dataio.read_pairs_csv(path)

    def test_errors_name_the_file_line_after_a_multiline_cell(self, tmp_path):
        # no quoting: line 2 is a row of one field, not the start of a cell
        path = tmp_path / "bad.csv"
        path.write_text('r,s,censored\n"1\n",2,0\nx,2,0\n')
        with pytest.raises(DataFormatError, match="bad.csv:2: expected 3 cells, found 1$"):
            dataio.read_pairs_csv(path)

    @pytest.mark.parametrize("row, error", [
        ("1,2,0,4", "expected 3 cells, found 4"),
        ("1,2", "expected 3 cells, found 2"),
        ("1,abc,0", "'abc' in column s is not a number"),
        ("1,,0", "'' in column s is not a number"),
        ("1,2,x", "'x' in column censored is not an integer"),
        ("1,2,1.0", "'1.0' in column censored is not an integer"),
    ])
    def test_rows_loadtxt_cannot_read_are_worded_in_the_file_terms(self, tmp_path, row, error):
        # no numpy row count beside the file line, and no advice on loadtxt's options
        path = tmp_path / "bad.csv"
        path.write_text(f"r,s,censored\n1,2,0\n{row}\n1,2,0\n")
        with pytest.raises(DataFormatError) as info:
            dataio.read_pairs_csv(path)
        assert str(info.value) == f"{path}:3: {error}"

    @pytest.mark.parametrize("cell", ["01", "+1", "-0", " 1", "1 "])
    def test_flags_that_int_reads_as_0_or_1(self, tmp_path, cell):
        path = tmp_path / "pairs.csv"
        path.write_text(f"r,s,censored\n1.0,2.0,{cell}\n")
        assert dataio.read_pairs_csv(path).censored.tolist() == [int(cell) == 1]

    @pytest.mark.parametrize("cell, error", [
        ("\u0968", "byte 0xe0 is not printable ASCII"),  # a Devanagari 2, which float() reads
        ("1\t", "byte 0x09 is not printable ASCII"),
        ("\x0c1", "byte 0x0c is not printable ASCII"),
        ("1\x00", "byte 0x00 is not printable ASCII"),
        ("1_0", "'1_0' in column r is not a number"),
        ('"1"', "'\"1\"' in column r is not a number"),
    ])
    def test_cells_that_float_reads_are_errors_at_their_line(self, tmp_path, cell, error):
        path = tmp_path / "bad.csv"
        path.write_bytes(f"r,s,censored\n1.0,2.0,0\n{cell},2.0,0\n1.0,2.0,0\n".encode())
        with pytest.raises(DataFormatError, match=f"^{re.escape(f'{path}:3: {error}')}"):
            dataio.read_pairs_csv(path)

    @given(st.lists(st.tuples(FINITE, FINITE, st.booleans()), min_size=1, max_size=20))
    def test_property_round_trip_is_bitwise(self, tmp_path_factory, rows):
        pairs = Pairs(*zip(*rows))
        round_trip(tmp_path_factory, dataio.write_pairs_csv, dataio.read_pairs_csv, pairs)


class TestWindowCsv:
    def test_round_trip(self, tmp_path):
        obs = WindowRecords(["forward", "complete", "censored", "empty"], [0.3, 1.25, 0.5, 2.0])
        path = tmp_path / "window.csv"
        dataio.write_window_csv(path, obs)
        same(dataio.read_window_csv(path), obs)

    @given(st.lists(st.tuples(st.sampled_from(WINDOW_KINDS), FINITE), min_size=1, max_size=20))
    def test_property_round_trip_is_bitwise(self, tmp_path_factory, rows):
        obs = WindowRecords(*zip(*rows))
        round_trip(tmp_path_factory, dataio.write_window_csv, dataio.read_window_csv, obs)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("kind,value\nnonsense,1.0\n")
        with pytest.raises(DataFormatError, match=":2"):
            dataio.read_window_csv(path)

    def test_non_finite_or_negative_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        for cell in ("nan", "inf", "-inf", "-1.0"):
            path.write_text(f"kind,value\ncomplete,1.0\ncomplete,{cell}\n")
            with pytest.raises(DataFormatError, match="bad.csv:3"):
                dataio.read_window_csv(path)


class TestSegmentsCsv:
    def test_round_trip(self, tmp_path):
        segs = Segments(["pc", "px", "rc", "rx"], [0.7, 1.0, 0.2, 2.0])
        path = tmp_path / "segments.csv"
        dataio.write_segments_csv(path, segs)
        same(dataio.read_segments_csv(path), segs)
        kinds = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
        assert kinds == ["pc", "px", "rc", "rx"]

    def test_nonpositive_length(self, tmp_path):
        path = tmp_path / "bad.csv"
        for cell in ("0.0", "nan", "inf", "-inf"):
            path.write_text(f"kind,length\npc,{cell}\n")
            with pytest.raises(DataFormatError, match=":2"):
                dataio.read_segments_csv(path)

    def test_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("kind,length\npc\n")
        with pytest.raises(DataFormatError, match=":2"):
            dataio.read_segments_csv(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("kind,length\npc,1.0\nzz,1.0\n")
        with pytest.raises(DataFormatError, match="bad.csv:3"):
            dataio.read_segments_csv(path)

    @pytest.mark.parametrize("cell", ["pcxxx", "pcx", " pc ", "complete"])
    def test_an_unknown_kind_is_named_as_the_file_holds_it(self, tmp_path, cell):
        # wider than any kind name, the cell is still named whole
        path = tmp_path / "bad.csv"
        path.write_text(f"kind,length\npc,1\n{cell},1\n")
        with pytest.raises(DataFormatError) as info:
            dataio.read_segments_csv(path)
        assert str(info.value) == f"{path}:3: segment 1 has unknown kind {cell!r}"

    @pytest.mark.parametrize("rows, line, cell", [
        ("pc,1\npcxxx,1\n" + "pc,1\n" * 200 + "x" * 100_000 + ",1\n", 3, "pcxxx"),
        ("pc,1\n" * 20_000 + "x" * 1000 + ",1\n", 20_002, "x" * (dataio._READ_BLOCK // 20_001)),
    ], ids=["long-line-after-it", "long-cell-late"])
    def test_the_kind_field_widens_only_so_far(self, tmp_path, rows, line, cell):
        # only the bad row's kind cell widens the field, to at most _READ_BLOCK
        # characters over the rows up to it: a long line after it, or a long cell
        # late in the file, does not size every row by itself
        path = tmp_path / "bad.csv"
        path.write_text("kind,length\n" + rows)

        def read():
            with pytest.raises(DataFormatError) as info:
                dataio.read_segments_csv(path)
            return str(info.value)

        error, peak = traced(read)
        assert error == f"{path}:{line}: segment {line - 2} has unknown kind {cell!r}"
        assert peak < 16 * dataio._READ_BLOCK  # 20 001 rows x 1000 characters hold 80 MB

    @given(st.lists(st.tuples(st.sampled_from(SEGMENT_KINDS), POSITIVE), min_size=1, max_size=20))
    def test_property_round_trip_is_bitwise(self, tmp_path_factory, rows):
        segs = Segments(*zip(*rows))
        round_trip(tmp_path_factory, dataio.write_segments_csv, dataio.read_segments_csv, segs)


def pair_row(row):
    r, s, flag = float(row[0]), float(row[1]), int(row[2])
    if flag not in (0, 1):
        raise ValueError(f"censored flag must be 0 or 1, got {row[2]}")
    if not (0 <= r < math.inf and 0 <= s < math.inf):
        raise ValueError("r and s must be finite and nonnegative")
    return r, s, flag


def window_row(row):
    kind, value = row[0], float(row[1])
    if kind not in WINDOW_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if not 0 <= value < math.inf:
        raise ValueError("value must be finite and nonnegative")
    return kind, value


def segment_row(row):
    kind, length = row[0], float(row[1])
    if kind not in SEGMENT_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if not 0 < length < math.inf:
        raise ValueError("length must be finite and positive")
    return kind, length


def survival_row(row):
    return float(row[0]), float(row[1]), *(float(cell) if cell else None for cell in row[2:])


def read_by_loop(path, header, parse, container):
    """The reference reader: the csv rows of the file, one ``parse`` call
    per nonblank row, and each error worded with its line number."""
    text = Path(path).read_text()
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
    return container(*(list(zip(*parsed)) or [()] * len(header)))


def read_step_survival_csv(path) -> dict:
    """The columns of a survival CSV as lists, None for an empty cell."""
    return read_by_loop(path, dataio.SURVIVAL_HEADER, survival_row,
                        lambda *cols: dict(zip(dataio.SURVIVAL_HEADER, map(list, cols))))


def identical(got, want):
    """Same container type and columns equal bit for bit, dtypes included."""
    assert type(got) is type(want)
    for col_got, col_want in zip(got._columns(), want._columns()):
        assert col_got.dtype == col_want.dtype
        assert col_got.shape == col_want.shape
        assert col_got.tobytes() == col_want.tobytes()


# Per format: writer, reader, header, the loop's row parse, container, and
# the cells of one valid row as the writer prints them.
FORMATS = {
    "pairs": (
        dataio.write_pairs_csv, dataio.read_pairs_csv, dataio.PAIRS_HEADER, pair_row, Pairs,
        st.tuples(FINITE.map(repr), FINITE.map(repr), st.sampled_from(["0", "1"])),
    ),
    "window": (
        dataio.write_window_csv, dataio.read_window_csv, dataio.WINDOW_HEADER, window_row,
        WindowRecords, st.tuples(st.sampled_from(WINDOW_KINDS), FINITE.map(repr)),
    ),
    "segments": (
        dataio.write_segments_csv, dataio.read_segments_csv, dataio.SEGMENTS_HEADER,
        segment_row, Segments, st.tuples(st.sampled_from(SEGMENT_KINDS), POSITIVE.map(repr)),
    ),
}


# A cell that the loop may read and the reader rejects: a byte other than
# printable ASCII and the line ends, an underscore in a number, or a quote.
DECIDED = re.compile(rb'[^\x20-\x7e\r\n]|[_"]')


def error_line(path, exc) -> int:
    """The file line that a ``path:line: ...`` error names."""
    return int(re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))[1])


def assert_reads_as_by_loop(fmt, path):
    """Where the reader accepts a file, the loop returns the same columns,
    bit for bit. Where it rejects one, it raises a DataFormatError naming a
    file line: the first line that holds a DECIDED cell or that the loop
    rejects, whichever comes first."""
    _, read, header, parse, container, _ = FORMATS[fmt]
    try:
        got = read(path)
    except DataFormatError as exc:
        line = error_line(path, exc)
    else:
        identical(got, read_by_loop(path, header, parse, container))
        return
    lines = path.read_bytes().splitlines()  # on \n, \r and \r\n only, as a bytes method
    decided = next((n for n, text in enumerate(lines, 1) if DECIDED.search(text)), math.inf)
    try:
        read_by_loop(path, header, parse, container)
    except DataFormatError as exc:  # a line of its own count, which agrees before `decided`
        assert line == min(decided, error_line(path, exc))
    except UnicodeDecodeError:  # not UTF-8, so some line is decided
        assert line <= decided < math.inf
    else:
        assert line == decided

# Cells and lines on which np.loadtxt, float() and int() may part ways, and
# quoted cells that span lines.
HARD_TOKENS = [
    "२", "१.५", "1_0", " 1", "+1", "1.0", "1e0", "nan", "inf", "-inf", "1e400", "-0",
    '"1"', '"1', "#x", "", " ", "\t", "\x0c", "\x1c", "\x1f1", "1\x00", "pc\x00",
    " complete", "complete ", "completeX", "pcX", "censored", "empty", "rx", "0", "1",
    "01", "-1", "0.5", "5e-324", '"1\n"', '"x\ny"',
]
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
BLANK_LINES = st.sampled_from(["", " ", "\t", "  ", ","])
# One byte outside ASCII, or a character whose UTF-8 bytes are: some end a
# line for str.splitlines(), and a lone 0xff or 0x80 is not UTF-8.
NON_ASCII = st.sampled_from([b"\xff", b"\x80", "\xe9".encode(), "\x85".encode(),
                             "\u2028".encode(), "\u0968".encode()])
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["cell", "line", "comma"]),
        st.integers(0, 99),
        st.integers(0, 2),
        st.sampled_from(HARD_TOKENS),
    ),
    max_size=3,
)


class TestCParseMatchesRowLoop:
    """The readers' one np.loadtxt parse reads what the row loop reads, bit
    for bit, and rejects what it rejects at its line, or a DECIDED cell at
    an earlier one."""

    @pytest.mark.parametrize("fmt", FORMATS)
    @given(data=st.data(), edits=EDITS, newline=st.sampled_from(["\n", "\r\n"]),
           end=st.booleans())
    def test_corrupted_files_read_as_by_the_loop(
        self, tmp_path_factory, fmt, data, edits, newline, end
    ):
        header, cells = FORMATS[fmt][2], FORMATS[fmt][5]
        rows = [list(row) for row in data.draw(st.lists(cells, max_size=8))]
        for edit, i, j, token in edits:
            if edit == "line":
                rows.insert(i % (len(rows) + 1), [token])
            elif rows and edit == "cell":
                row = rows[i % len(rows)]
                row[j % len(row)] = token
            elif rows:
                rows[i % len(rows)].append("")
        lines = [",".join(header)] + [",".join(row) for row in rows]
        path = tmp_path_factory.mktemp("io") / "records.csv"
        path.write_bytes((newline.join(lines) + newline * end).encode())
        assert_reads_as_by_loop(fmt, path)

    @pytest.mark.parametrize("fmt", FORMATS)
    @given(data=st.data(), blanks=st.lists(st.tuples(st.integers(0, 99), BLANK_LINES), max_size=3),
           final=st.booleans(), odd=st.none() | st.tuples(st.integers(0, 999), NON_ASCII),
           block=st.integers(16, 64))
    def test_line_ends_blank_lines_and_a_non_ascii_byte(
        self, tmp_path_factory, fmt, data, blanks, final, odd, block
    ):
        # The byte check lets \r through to loadtxt, which reads the file in
        # text mode; the loop reads it as text too. Blocks as short as the
        # header split a \r\n, and lines, between blocks.
        header, cells = FORMATS[fmt][2], FORMATS[fmt][5]
        lines = [",".join(header)] + [",".join(row) for row in data.draw(st.lists(cells, max_size=6))]
        for at, blank in blanks:
            lines.insert(at % (len(lines) + 1), blank)
        ends = data.draw(st.lists(LINE_ENDS, min_size=len(lines), max_size=len(lines)))
        ends[-1] *= final
        raw = "".join(line + end for line, end in zip(lines, ends)).encode()
        if odd is not None:
            at = odd[0] % (len(raw) + 1)
            raw = raw[:at] + odd[1] + raw[at:]
        path = tmp_path_factory.mktemp("io") / "records.csv"
        path.write_bytes(raw)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_READ_BLOCK", block)
            assert_reads_as_by_loop(fmt, path)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_every_hard_token_in_every_place(self, tmp_path, fmt):
        header = FORMATS[fmt][2]
        valid = {"pairs": ["0.5", "2.0", "1"], "window": ["complete", "0.5"],
                 "segments": ["pc", "0.5"]}[fmt]
        path = tmp_path / "records.csv"
        for token in HARD_TOKENS:
            for k in range(len(valid) + 1):
                # The token in column k of the middle row, or as a line of its own.
                middle = valid[:k] + [token] + valid[k + 1:] if k < len(valid) else [token]
                rows = [header, valid, middle, valid]
                path.write_text("\n".join(",".join(row) for row in rows) + "\n")
                assert_reads_as_by_loop(fmt, path)

    @pytest.mark.parametrize("fmt, dtypes", [
        ("pairs", ["float64", "float64", "bool"]),
        ("window", ["int8", "float64"]),
        ("segments", ["int8", "float64"]),
    ])
    @pytest.mark.parametrize("tail", ["", "\n", "\n\n", "\n\n\n"])
    def test_header_only_files_read_as_empty_columns(self, tmp_path, fmt, dtypes, tail):
        _, read, header, _, container, _ = FORMATS[fmt]
        path = tmp_path / "empty.csv"
        path.write_text(",".join(header) + tail)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read(path)
        identical(got, container(*[()] * len(header)))
        assert [col.dtype for col in got._columns()] == [np.dtype(d) for d in dtypes]


def write_csv_by_writer(path, header, rows):
    """The reference CSV writer: csv.writer, one cell at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def pairs_by_writer(path, pairs):
    cols = pairs.r.tolist(), pairs.s.tolist(), pairs.censored.astype(int).tolist()
    write_csv_by_writer(path, dataio.PAIRS_HEADER, zip(*cols))


def window_by_writer(path, obs):
    write_csv_by_writer(path, dataio.WINDOW_HEADER, zip(obs.kind.tolist(), obs.value.tolist()))


def segments_by_writer(path, segs):
    write_csv_by_writer(path, dataio.SEGMENTS_HEADER, zip(segs.kind.tolist(), segs.length.tolist()))


def survival_lists(est, band):
    """The columns of ``_survival_columns`` as whole lists: each array by
    tolist(), and None for a masked entry. Lists, as a test may patch in,
    are kept as they are."""
    def whole(col):
        if not isinstance(col, np.ndarray):
            return col
        values = np.ma.getdata(col).tolist()
        if np.ma.isMaskedArray(col):  # the variance, masked where undefined
            values = [None if m else v for v, m in zip(values, np.ma.getmaskarray(col).tolist())]
        return values

    return [whole(col) for col in dataio._survival_columns(est, band)]


def survival_csv_by_writer(path, est, band=None):
    cols = survival_lists(est, band)
    blank = [None] * len(cols[0])
    write_csv_by_writer(path, dataio.SURVIVAL_HEADER,
                        zip(*(blank if col is None else col for col in cols)))


def survival_json_by_dumps(path, est, band=None):
    payload = dict(zip(dataio.SURVIVAL_HEADER, survival_lists(est, band)))
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


REFERENCE_WRITERS = {"pairs": pairs_by_writer, "window": window_by_writer,
                     "segments": segments_by_writer}
SURVIVAL_WRITERS = [
    (dataio.write_step_survival_csv, survival_csv_by_writer),
    (dataio.write_step_survival_json, survival_json_by_dumps),
]

HARD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
               1e300, 1e16, 1e-5]
FLOAT_CELLS = st.one_of(st.none(), st.sampled_from(HARD_FLOATS), st.floats())
TEXT_CELLS = st.text(st.one_of(st.sampled_from(',"\r\n '),
                               st.characters(blacklist_categories=("Cs",))), max_size=5)
CELLS = {
    "float": FLOAT_CELLS,
    "int": st.integers(),
    "text": TEXT_CELLS,
    "mixed": st.one_of(FLOAT_CELLS, st.integers(), st.booleans(), TEXT_CELLS,
                       st.floats().map(np.float64)),
}


def draw_column(data, kind, n):
    """A column of n rows, a list of CELLS[kind] or a float64, masked
    float64 or uint8 array, and the Python values csv.writer and json.dumps
    are given for it."""
    if kind in CELLS:
        values = data.draw(st.lists(CELLS[kind], min_size=n, max_size=n))
        return values, values
    if kind == "flags":
        values = data.draw(st.lists(st.integers(0, 255), min_size=n, max_size=n))
        return np.array(values, dtype=np.uint8), values
    floats = st.one_of(st.sampled_from(HARD_FLOATS), st.floats())
    values = data.draw(st.lists(floats, min_size=n, max_size=n))
    if kind == "float array":
        return np.array(values, dtype=float), values
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.ma.masked_array(values, mask), [None if m else v for v, m in zip(values, mask)]


COLUMN_KINDS = [*CELLS, "float array", "masked floats", "flags"]


def assert_writes_as_reference(folder, chunk, write, reference):
    """``write``, with WRITE_CHUNK_ROWS set to ``chunk``, writes the bytes
    that ``reference`` writes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "WRITE_CHUNK_ROWS", chunk)
        write(folder / "got")
    reference(folder / "want")
    assert (folder / "got").read_bytes() == (folder / "want").read_bytes()


class TestWritersMatchReferences:
    """Every writer writes the bytes of csv.writer or json.dumps(indent=2),
    at every size around the chunk boundaries."""

    @given(data=st.data(), chunk=st.integers(1, 4))
    def test_write_csv(self, tmp_path_factory, data, chunk):
        kinds = data.draw(st.lists(st.sampled_from(COLUMN_KINDS), max_size=4))
        n = data.draw(st.integers(0, 3 * chunk + 1)) if kinds else 0
        header = data.draw(st.lists(TEXT_CELLS, min_size=len(kinds), max_size=len(kinds)))
        drawn = [draw_column(data, kind, n) for kind in kinds]
        columns, values = [column for column, _ in drawn], [values for _, values in drawn]
        assert_writes_as_reference(
            tmp_path_factory.mktemp("io"), chunk,
            lambda path: dataio.write_csv(path, header, columns),
            lambda path: write_csv_by_writer(path, header, zip(*values)),
        )

    @pytest.mark.parametrize("columns", [[[1.0, 2.0], [3.0]], [np.zeros(3), None, np.zeros(2)]])
    def test_columns_of_unequal_length_are_refused(self, tmp_path, columns):
        path = tmp_path / "out.csv"
        sizes = [len(col) for col in columns if col is not None]
        with pytest.raises(ValueError, match=re.escape(f"columns differ in length: {sizes}")):
            dataio.write_csv(path, [f"c{i}" for i in range(len(columns))], columns)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", FORMATS)
    @given(data=st.data(), chunk=st.integers(1, 4))
    def test_data_files(self, tmp_path_factory, fmt, data, chunk):
        write, _, header, _, container, cells = FORMATS[fmt]
        rows = data.draw(st.lists(cells, max_size=3 * chunk + 1))
        records = container(*(list(zip(*rows)) or [()] * len(header)))
        assert_writes_as_reference(
            tmp_path_factory.mktemp("io"), chunk,
            lambda path: write(path, records),
            lambda path: REFERENCE_WRITERS[fmt](path, records),
        )

    @pytest.mark.parametrize("fmt", ["window", "segments"])
    @pytest.mark.parametrize("odd", ["a,b", 'say "x"', "two\nlines", ""])
    def test_kinds_that_would_need_quotes_cannot_be_built(self, fmt, odd):
        # so the writers only ever write the plain kind names; test_write_csv
        # covers how write_csv quotes such cells
        container = FORMATS[fmt][4]
        kinds = (WINDOW_KINDS if fmt == "window" else SEGMENT_KINDS)[:3]
        with pytest.raises(EstimationError, match=f" 3 has unknown kind {re.escape(repr(odd))}$"):
            container([*kinds, odd, *kinds], [1.0] * 7)

    @pytest.mark.parametrize("write, reference", SURVIVAL_WRITERS)
    @given(data=st.data(), chunk=st.integers(1, 4))
    def test_survival_columns(self, tmp_path_factory, write, reference, data, chunk):
        n = data.draw(st.integers(0, 3 * chunk + 1))

        def column():  # a list of floats and None, or a float or masked array
            kind = data.draw(st.sampled_from(["float", "float array", "masked floats"]))
            return draw_column(data, kind, n)[0]

        cols = [column(), column()]
        cols += [column() if data.draw(st.booleans()) else None for _ in range(3)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_survival_columns", lambda est, band: cols)
            assert_writes_as_reference(
                tmp_path_factory.mktemp("io"), chunk,
                lambda path: write(path, None), lambda path: reference(path, None),
            )

    @pytest.mark.parametrize("write, reference", SURVIVAL_WRITERS)
    @pytest.mark.parametrize("chunk", [1, 7, 8192])
    @pytest.mark.parametrize("with_band", [False, True])
    def test_survival_estimates(self, tmp_path, write, reference, chunk, with_band):
        pairs = sample_equilibrium(Exponential(1.0), 60, seed=9)
        est = greenwood_variance(kaplan_meier(pairs.q, pairs.censored, pairs.r))
        band = bootstrap_band(pairs, "winter_foldes", B=20, seed=1) if with_band else None
        assert_writes_as_reference(
            tmp_path, chunk, lambda path: write(path, est, band),
            lambda path: reference(path, est, band),
        )


def float_boundaries() -> np.ndarray:
    """Doubles at the edges of the formatter's cases, with both signs."""
    x = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 2.0**53 - 1, 2.0**53 + 1,
         9999999999999998.0, 1e16, 1e-5, 1e-4, 0.1, 1 / 3]
    x += [2.0**e for e in range(-1074, 1024)]
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    x = np.concatenate([x, tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                        np.nextafter(2.2250738585072014e-308, [0, 1])])
    return np.concatenate([x, -x])


class TestFloatCells:
    """_float_cells prints every double as repr does, bit for bit."""

    @staticmethod
    def assert_prints_as_repr(x, text=repr):
        lines = dataio._join([*dataio._float_cells(x, text), b"\n"], len(x)).tobytes()
        assert lines.decode().splitlines() == [text(v) for v in x.tolist()]

    @given(st.lists(st.floats(), max_size=40))
    def test_any_float(self, values):
        self.assert_prints_as_repr(np.array(values, dtype=float))

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(2020).integers(0, 2**64, 10**5, dtype=np.uint64)
        self.assert_prints_as_repr(bits.view(np.float64))

    def test_boundaries(self):
        self.assert_prints_as_repr(float_boundaries())

    def test_non_finite_values_take_the_given_text(self):
        self.assert_prints_as_repr(np.array([math.nan, 1.5, math.inf, -math.inf, -0.0]), json.dumps)


def rop_oracle(g: int, cp: int) -> int:
    """Schubfach's rop in Python integers, as Java computes it: g * cp / 2**127
    for g = g1 * 2**63 + g0, from the high words of g0 * cp and g1 * cp and
    the low word of g1 * cp, rounded to odd when any bit below is set."""
    g1, g0 = divmod(g, 2**63)
    z = (g1 * cp >> 1) + (g0 * cp >> 64)
    return z >> 63 | (z % 2**63 != 0)


@functools.cache
def g_exact(k: int) -> int:
    """floor(10**-k 2**(125 - floor(-k log2 10))) + 1, from exact fractions."""
    floor_log2 = (10**-k).bit_length() - 1 if k <= 0 else -(10**k - 1).bit_length()
    return math.floor(Fraction(10) ** -k * Fraction(2) ** (125 - floor_log2)) + 1


def scaled_oracle(bits: int) -> tuple:
    """(vbl, vb, vbr) of the positive normal double with these bits: one rop
    each of cbl << h, cb << h and cbr << h, as Java's DoubleToDecimal has it."""
    exponent, t = bits >> 52, bits & (2**52 - 1)
    c, q, lopsided = t | 2**52, exponent - 1075, int(t == 0 and exponent > 1)
    k = (q * 661971961083 - lopsided * 274743187321) >> 41
    h = q + (-k * 913124641741 >> 38) + 2
    return tuple(rop_oracle(g_exact(k), cb << h) for cb in (4 * c - 2 + lopsided, 4 * c, 4 * c + 2))


class TestScaledProducts:
    """_scaled forms one product per double and derives the interval ends
    from it; each of vbl, vb and vbr must be the rop of its own product."""

    @staticmethod
    def assert_matches_oracle(bits: np.ndarray):
        got = zip(*(v.tolist() for v in dataio._scaled(bits)[:3]))
        assert list(got) == [scaled_oracle(b) for b in bits.tolist()]

    def test_random_normal_doubles(self):
        x = np.abs(np.random.default_rng(26).standard_normal(10**5))
        self.assert_matches_oracle(x[x > 0].view(np.uint64))

    def test_first_second_and_last_double_of_every_binade(self):
        # the first double of every binade but the lowest is lopsided
        starts = np.arange(1, 2047, dtype=np.uint64) << np.uint64(52)
        self.assert_matches_oracle(np.concatenate([starts, starts + 1, starts + (2**52 - 1)]))

    def test_doubles_whose_interval_ends_are_exact_decimals(self):
        # c with 4c - 2 or 4c + 2 a multiple of 5**k: there the ends' products are whole, and a
        # carry out of a low word decides the rounded result
        rng, bits = np.random.default_rng(5), []
        for exponent in range(1, 2047):
            m = 5 ** (((exponent - 1075) * 661971961083) >> 41)
            if 1 < m <= 2**50:
                for end in (-2, 2):
                    c0 = -end * pow(4, -1, m) % m
                    js = rng.integers(-(-(2**52 - c0) // m), (2**53 - c0) // m, 20).tolist()
                    bits += [exponent << 52 | c0 + j * m - 2**52 for j in js]
        self.assert_matches_oracle(np.array(bits, dtype=np.uint64))


def random_part(data, rows):
    """A _join part and the bytes each row takes from it: constant bytes,
    text cells as _text_cells makes them (inner and trailing NULs kept), or
    a random byte matrix wider than its longest cell."""
    kind = data.draw(st.sampled_from(["bytes", "text", "matrix"]))
    if kind == "bytes":
        const = data.draw(st.binary(max_size=4))
        return const, [const] * rows
    if kind == "text":
        cell = st.text(st.sampled_from(["a", ",", "\0", "\u00e9"]), max_size=4)
        texts = data.draw(st.lists(cell, min_size=rows, max_size=rows))
        return dataio._text_cells(texts), [t.encode() for t in texts]
    width = data.draw(st.integers(0, 6))
    chars = np.frombuffer(data.draw(st.binary(min_size=rows * width, max_size=rows * width)),
                          np.uint8).reshape(rows, width)
    lengths = np.array(data.draw(st.lists(st.integers(0, width), min_size=rows, max_size=rows)),
                       dtype=np.intp)
    return (chars, lengths), [row[:n].tobytes() for row, n in zip(chars, lengths)]


class TestJoin:
    @given(data=st.data(), rows=st.integers(1, 6), n_parts=st.integers(1, 6))
    def test_each_row_is_its_pieces_joined(self, data, rows, n_parts):
        parts, pieces = zip(*(random_part(data, rows) for _ in range(n_parts)))
        want = b"".join(b"".join(row) for row in zip(*pieces))
        assert dataio._join(list(parts), rows).tobytes() == want


def lookup_columns(est):
    """The survival columns as a step lookup at the estimate's own jump times gives them."""
    t = est.jump_times
    variance = None if est.variance_values is None else step_at(t, est.variance_values, t, np.nan)
    return [t, est.survival_at(t), variance]


@pytest.mark.parametrize("fit", [
    lambda p: greenwood_variance(kaplan_meier(p.q, p.censored, p.r)),
    lambda p: greenwood_variance(winter_foldes(p)),
    lambda p: ESTIMATORS["cv"].fit(Pairs(p.r, p.s, np.zeros(len(p), bool)), None),
    lambda p: window_product_limit(sample_pooled_windows(Exponential(1.0), 0.0, 3.0, 80, 4)[0]),
    lambda p: palmer_cox(sample_pooled_segments(2.0, Exponential(1.0), 0.0, 3.0, 40, 4)[0], 3.0),
], ids=["kaplan_meier", "winter_foldes", "cox_vardi", "window_pl", "palmer_cox"])
def test_survival_columns_without_a_band_are_the_lookups(fit):
    pairs = apply_right_censoring(sample_equilibrium(Exponential(1.0), 300, seed=8),
                                  Exponential(0.5), 9)
    est = fit(pairs)
    assert np.all(np.diff(est.jump_times) > 0)
    cols = dataio._survival_columns(est, None)
    for got, want in zip(cols, lookup_columns(est)):
        assert (got is None) == (want is None)
        if want is not None:
            assert np.ma.getdata(got).tobytes() == want.tobytes()
            assert np.array_equal(np.ma.getmaskarray(got), np.isnan(want))
    assert cols[3:] == [None, None]


class TestStepSurvivalFiles:
    def test_csv_with_variance_and_band(self, tmp_path):
        pairs = sample_equilibrium(Exponential(1.0), 80, seed=9)
        est = greenwood_variance(
            kaplan_meier(pairs.q, pairs.censored, pairs.r)
        )
        band = bootstrap_band(pairs, "winter_foldes", B=20, seed=1, grid=[0.5, 1.0, 2.0])
        path = tmp_path / "est.csv"
        dataio.write_step_survival_csv(path, est, band)
        data = read_step_survival_csv(path)
        assert data["t"] == sorted(data["t"])
        k = data["t"].index(1.0)
        assert data["lower"][k] == pytest.approx(band.lower_at(1.0))
        assert data["upper"][k] == pytest.approx(band.upper_at(1.0))
        j = np.searchsorted(est.jump_times, data["t"][5], side="right") - 1
        assert data["survival"][5] == pytest.approx(est.survival_values[j])

    def test_csv_without_optional_columns(self, tmp_path):
        est = kaplan_meier([1.0, 2.0])
        path = tmp_path / "plain.csv"
        dataio.write_step_survival_csv(path, est)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,survival,variance,lower,upper"
        assert lines[1].endswith(",,,")
        data = read_step_survival_csv(path)
        assert data["variance"] == [None, None]

    @given(data=st.data(), chunk=st.integers(1, 4))
    def test_files_read_back_bitwise_across_chunks(self, tmp_path_factory, data, chunk):
        n = data.draw(st.integers(0, 3 * chunk + 1))
        column = st.lists(FINITE, min_size=n, max_size=n)
        cols = [data.draw(column), data.draw(column)]
        cols += [data.draw(st.none() | st.lists(FINITE | st.none(), min_size=n, max_size=n)),
                 *(data.draw(st.none() | column) for _ in range(2))]
        folder = tmp_path_factory.mktemp("io")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_survival_columns", lambda est, band: cols)
            patch.setattr(dataio, "WRITE_CHUNK_ROWS", chunk)
            dataio.write_step_survival_csv(folder / "est.csv", None)
            dataio.write_step_survival_json(folder / "est.json", None)
        from_csv = read_step_survival_csv(folder / "est.csv")
        from_json = json.loads((folder / "est.json").read_text())
        for name, col in zip(dataio.SURVIVAL_HEADER, cols):
            # repr tells -0.0 from 0.0 and round-trips every float
            assert repr(from_csv[name]) == repr([None] * n if col is None else col)
            assert repr(from_json[name]) == repr(col)

    def test_json_mirror(self, tmp_path):
        est = greenwood_variance(kaplan_meier([1.0, 2.0, 3.0], [False, True, False]))
        path = tmp_path / "est.json"
        dataio.write_step_survival_json(path, est)
        payload = json.loads(path.read_text())
        assert set(payload) == {"t", "survival", "variance", "lower", "upper"}
        assert payload["t"] == [1.0, 3.0]
        assert payload["lower"] is None


class TestEmResultJson:
    def test_fields(self, tmp_path):
        res = laslett_em(Segments(["pc"], [1.0]), 1.0, [1.0])
        path = tmp_path / "em.json"
        dataio.write_em_result_json(path, res)
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "atoms", "masses", "birth_rate", "loglik", "iterations", "converged", "gradient_gap"
        }
        assert payload["masses"] == [1.0]
        assert payload["converged"] is True


def traced(func):
    """What ``func`` returns, and the peak of traced allocations while it
    runs, in bytes."""
    tracemalloc.start()
    try:
        return func(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    """The readers and writers hold a chunk of Python values at a time, not
    a whole file's text or a Python object per row."""

    def test_read_pairs_peaks_near_the_columns_it_returns(self, tmp_path):
        path = tmp_path / "pairs.csv"
        dataio.write_pairs_csv(path, sample_equilibrium(Exponential(1.0), 100_000, seed=5))
        pairs, peak = traced(lambda: dataio.read_pairs_csv(path))
        assert len(pairs) == 100_000
        assert peak < 2 * sum(col.nbytes for col in pairs._columns()) + 2 * 2**20

    @pytest.mark.parametrize("write", ["pairs", "survival_csv", "survival_json"])
    def test_writers_peak_the_same_at_eight_times_the_rows(self, tmp_path, write):
        def peak(n):
            rng = np.random.default_rng(n)
            if write == "pairs":
                pairs = Pairs(rng.random(n), rng.random(n), rng.random(n) < 0.3)
                return traced(lambda: dataio.write_pairs_csv(tmp_path / "out", pairs))[1]
            est = greenwood_variance(kaplan_meier(rng.random(n) + 0.5, rng.random(n) < 0.3))
            # The columns are built first: the bound is on the writing.
            cols = dataio._survival_columns(est, None)
            writer = getattr(dataio, "write_step_survival_" + write.split("_")[1])
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dataio, "_survival_columns", lambda est, band: cols)
                return traced(lambda: writer(tmp_path / "out", est))[1]

        assert abs(peak(160_000) - peak(20_000)) <= 2**20

"""On-disk formats: round trips and malformed-input reporting."""

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapest import (
    DataFormatError,
    Exponential,
    Pairs,
    Segments,
    WindowRecords,
    bootstrap_band,
    greenwood_variance,
    kaplan_meier,
    laslett_em,
    sample_equilibrium,
)
from gapest import dataio
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
        # the quoted cell on lines 2-3 is one csv record; the bad row is line 4
        path = tmp_path / "bad.csv"
        path.write_text('r,s,censored\n"1\n",2,0\nx,2,0\n')
        with pytest.raises(DataFormatError, match="bad.csv:4: could not convert"):
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

    @given(st.lists(st.tuples(st.sampled_from(SEGMENT_KINDS), POSITIVE), min_size=1, max_size=20))
    def test_property_round_trip_is_bitwise(self, tmp_path_factory, rows):
        segs = Segments(*zip(*rows))
        round_trip(tmp_path_factory, dataio.write_segments_csv, dataio.read_segments_csv, segs)


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
        dataio.write_pairs_csv, dataio.read_pairs_csv, dataio.PAIRS_HEADER, dataio._pair_row,
        Pairs, st.tuples(FINITE.map(repr), FINITE.map(repr), st.sampled_from(["0", "1"])),
    ),
    "window": (
        dataio.write_window_csv, dataio.read_window_csv, dataio.WINDOW_HEADER,
        dataio._window_row, WindowRecords,
        st.tuples(st.sampled_from(WINDOW_KINDS), FINITE.map(repr)),
    ),
    "segments": (
        dataio.write_segments_csv, dataio.read_segments_csv, dataio.SEGMENTS_HEADER,
        dataio._segment_row, Segments,
        st.tuples(st.sampled_from(SEGMENT_KINDS), POSITIVE.map(repr)),
    ),
}


def assert_reads_as_by_loop(fmt, path):
    """The reader returns what read_by_loop returns, or raises its error."""
    _, read, header, parse, container, _ = FORMATS[fmt]

    def outcome(read):
        try:
            return read(path)
        except Exception as exc:  # noqa: BLE001 - the error itself is compared
            return type(exc), str(exc)

    got, want = outcome(read), outcome(lambda p: read_by_loop(p, header, parse, container))
    if isinstance(want, tuple):
        assert got == want
    else:
        identical(got, want)

# Cells and lines on which np.loadtxt, float() and int() may part ways, and
# quoted cells that span lines.
HARD_TOKENS = [
    "२", "१.५", "1_0", " 1", "+1", "1.0", "1e0", "nan", "inf", "-inf", "1e400", "-0",
    '"1"', '"1', "#x", "", " ", "\t", "\x0c", "\x1c", "\x1f1", "1\x00", "pc\x00",
    " complete", "complete ", "completeX", "pcX", "censored", "empty", "rx", "0", "1",
    "01", "-1", "0.5", "5e-324", '"1\n"', '"x\ny"',
]
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
    """The readers parse in C and fall back to the row loop; either way
    they return what the loop alone returns, or raise its error."""

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

    @pytest.mark.parametrize("fmt", FORMATS)
    @given(data=st.data(), chunk=st.integers(1, 8))
    def test_written_files_never_enter_the_row_loop(self, tmp_path_factory, fmt, data, chunk):
        # sizes on both sides of one, two and three chunks
        write, read, _, _, container, cells = FORMATS[fmt]
        rows = data.draw(st.lists(cells, min_size=1, max_size=3 * chunk + 1))
        records = container(*zip(*rows))
        path = tmp_path_factory.mktemp("io") / "records.csv"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "WRITE_CHUNK_ROWS", chunk)
            write(path, records)
        with pytest.MonkeyPatch.context() as patch:
            for name in ("_pair_row", "_window_row", "_segment_row"):
                patch.setattr(dataio, name, entered_row_loop)
            identical(read(path), records)

    @pytest.mark.parametrize("fmt, dtypes", [
        ("pairs", ["float64", "float64", "bool"]),
        ("window", ["<U1", "float64"]),
        ("segments", ["<U1", "float64"]),
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


def entered_row_loop(row):
    raise AssertionError(f"the row loop parsed {row}")


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


def survival_csv_by_writer(path, est, band=None):
    cols = dataio._survival_columns(est, band)
    blank = [None] * len(cols[0])
    write_csv_by_writer(path, dataio.SURVIVAL_HEADER,
                        zip(*(blank if col is None else col for col in cols)))


def survival_json_by_dumps(path, est, band=None):
    payload = dict(zip(dataio.SURVIVAL_HEADER, dataio._survival_columns(est, band)))
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
        kinds = data.draw(st.lists(st.sampled_from(list(CELLS)), max_size=4))
        n = data.draw(st.integers(0, 3 * chunk + 1)) if kinds else 0
        header = data.draw(st.lists(TEXT_CELLS, min_size=len(kinds), max_size=len(kinds)))
        columns = [data.draw(st.lists(CELLS[k], min_size=n, max_size=n)) for k in kinds]
        assert_writes_as_reference(
            tmp_path_factory.mktemp("io"), chunk,
            lambda path: dataio.write_csv(path, header, columns),
            lambda path: write_csv_by_writer(path, header, zip(*columns)),
        )

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
    def test_code_built_kinds_are_quoted_as_the_writer_quotes_them(self, tmp_path, fmt, odd):
        # containers built in code do not check their kinds
        write, _, _, _, container, _ = FORMATS[fmt]
        kinds = (WINDOW_KINDS if fmt == "window" else SEGMENT_KINDS)[:3]
        records = container([*kinds, odd, *kinds], [1.0] * 7)
        for chunk in (1, 3, 4, 8):
            assert_writes_as_reference(
                tmp_path, chunk, lambda path: write(path, records),
                lambda path: REFERENCE_WRITERS[fmt](path, records),
            )

    @pytest.mark.parametrize("write, reference", SURVIVAL_WRITERS)
    @given(data=st.data(), chunk=st.integers(1, 4))
    def test_survival_columns(self, tmp_path_factory, write, reference, data, chunk):
        n = data.draw(st.integers(0, 3 * chunk + 1))
        column = st.lists(FLOAT_CELLS, min_size=n, max_size=n)
        cols = [data.draw(column), data.draw(column)]
        cols += [data.draw(st.none() | column) for _ in range(3)]
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


class TestStepSurvivalFiles:
    def test_csv_with_variance_and_band(self, tmp_path):
        pairs = sample_equilibrium(Exponential(1.0), 80, seed=9)
        est = greenwood_variance(
            kaplan_meier(pairs.q, pairs.censored, pairs.r)
        )
        band = bootstrap_band(pairs, "winter_foldes", B=20, seed=1, grid=[0.5, 1.0, 2.0])
        path = tmp_path / "est.csv"
        dataio.write_step_survival_csv(path, est, band)
        data = dataio.read_step_survival_csv(path)
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
        data = dataio.read_step_survival_csv(path)
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
        from_csv = dataio.read_step_survival_csv(folder / "est.csv")
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

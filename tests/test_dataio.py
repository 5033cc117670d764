"""On-disk formats: round trips and malformed-input reporting."""

import json

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

"""Command-line interface: subcommands, exit codes, file round trips."""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gapest
from gapest import EstimationError, Segments, dataio, laslett_em, npmle
from gapest.cli import main
from npmle_oracle import snap_complete_lengths
from test_dataio import read_step_survival_csv


def run(*argv):
    return main(list(argv))


def simulate_pairs(tmp_path, n=50, seed=7, extra=()):
    out = tmp_path / "pairs.csv"
    code = run(
        "simulate", "--scheme", "equilibrium", "--dist", "exp:1",
        "--n", str(n), "--seed", str(seed), "--out", str(out), *extra,
    )
    assert code == 0
    return out


class TestSimulate:
    def test_row_count_and_sidecar(self, tmp_path):
        out = simulate_pairs(tmp_path, n=100)
        lines = out.read_text().splitlines()
        assert lines[0] == "r,s,censored"
        assert len(lines) == 101
        meta = json.loads((tmp_path / "pairs.csv.meta.json").read_text())
        assert meta["scheme"] == "equilibrium"
        assert meta["seed"] == 7

    def test_identical_runs_identical_files(self, tmp_path):
        a = simulate_pairs(tmp_path)
        first = a.read_bytes()
        simulate_pairs(tmp_path)
        assert a.read_bytes() == first

    def test_invalid_distribution_spec_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--scheme", "equilibrium", "--dist", "exp:-1",
                "--n", "10", "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 2
        assert "exp:-1" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--scheme", "equilibrium", "--dist", "exp:1",
                "--n", "10", "--out", str(tmp_path / "x.csv"), "--bogus", "1")
        assert exc.value.code == 2

    def test_window_scheme_needs_window(self, tmp_path):
        code = run("simulate", "--scheme", "window", "--dist", "exp:1",
                   "--n", "5", "--out", str(tmp_path / "w.csv"))
        assert code == 2

    def test_window_and_segments_files(self, tmp_path):
        wout = tmp_path / "window.csv"
        assert run("simulate", "--scheme", "window", "--dist", "exp:1", "--n", "20",
                   "--window", "3", "--seed", "1", "--out", str(wout)) == 0
        assert dataio.read_window_csv(wout)
        sout = tmp_path / "segments.csv"
        assert run("simulate", "--scheme", "segments", "--dist", "exp:1", "--n", "10",
                   "--window", "2", "--rate", "2", "--seed", "1", "--out", str(sout)) == 0
        meta = json.loads((tmp_path / "segments.csv.meta.json").read_text())
        assert meta["window"] == 2.0
        assert dataio.read_segments_csv(sout)

    def test_segments_round_trip(self, tmp_path):
        # two runs with one seed write the same bytes, and the file reads
        # back as exactly what the pooled sampler returns
        files = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in files:
            assert run("simulate", "--scheme", "segments", "--dist", "weibull:0.7:1.3",
                       "--n", "50", "--window", "2.5", "--rate", "3", "--seed", "17",
                       "--out", str(out)) == 0
        assert files[0].read_bytes() == files[1].read_bytes()
        back = dataio.read_segments_csv(files[0])
        want, _ = gapest.sample_pooled_segments(
            3.0, gapest.parse_distribution("weibull:0.7:1.3"), 0.0, 2.5, 50, 17)
        assert back.kind.tolist() == want.kind.tolist()
        assert back.length.tobytes() == want.length.tobytes()
        back.check_window(2.5)

    def test_censoring_flag(self, tmp_path):
        out = simulate_pairs(tmp_path, extra=("--censor", "exp:1"))
        pairs = dataio.read_pairs_csv(out)
        assert pairs.censored.any()


class TestEstimate:
    def test_cox_vardi_hand_values(self, tmp_path):
        src = tmp_path / "pairs.csv"
        src.write_text("r,s,censored\n0.4,0.6,0\n1.5,0.5,0\n")
        out = tmp_path / "cv.csv"
        assert run("estimate", "--estimator", "cv", "--in", str(src), "--out", str(out)) == 0
        data = read_step_survival_csv(out)
        assert data["t"] == [1.0, 2.0]
        assert data["survival"][0] == pytest.approx(1 / 3)
        assert data["survival"][1] == pytest.approx(0.0)

    def test_winter_foldes_hand_values(self, tmp_path):
        src = tmp_path / "pairs.csv"
        src.write_text("r,s,censored\n0.5,1.5,0\n1.0,2.0,0\n")
        out = tmp_path / "wf.json"
        assert run("estimate", "--estimator", "wf", "--in", str(src),
                   "--out", str(out), "--format", "json") == 0
        payload = json.loads(out.read_text())
        assert payload["t"] == [2.0, 3.0]
        assert payload["survival"] == [0.5, 0.0]

    def test_em_on_tiny_instance(self, tmp_path):
        src = tmp_path / "segments.csv"
        src.write_text("kind,length\npc,0.75\npc,0.75\npc,1.25\nrx,2.0\n")
        out = tmp_path / "em.json"
        assert run("estimate", "--estimator", "em", "--in", str(src), "--out", str(out),
                   "--grid", "width=0.5", "--window", "2") == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert abs(sum(payload["masses"]) - 1.0) < 1e-9

    def test_em_snaps_complete_lengths_to_the_atom_grid(self, tmp_path):
        src = tmp_path / "segments.csv"
        assert run("simulate", "--scheme", "segments", "--dist", "exp:1", "--n", "30",
                   "--window", "3", "--rate", "2", "--seed", "4", "--out", str(src)) == 0
        atoms = np.arange(0.25, 6.0, 0.5)
        segs = dataio.read_segments_csv(src)
        with pytest.raises(EstimationError, match="does not cover"):
            laslett_em(segs, 3.0, atoms)
        out = tmp_path / "em.json"
        grid = "atoms=" + ",".join(repr(float(a)) for a in atoms)
        assert run("estimate", "--estimator", "em", "--in", str(src), "--out", str(out),
                   "--grid", grid) == 0
        nearest = atoms[np.argmin(np.abs(segs.length[:, None] - atoms), axis=1)]
        snapped = Segments(segs.kind, np.where(segs.kind == "pc", nearest, segs.length))
        assert json.loads(out.read_text()) == laslett_em(snapped, 3.0, atoms).to_json_dict()

    @pytest.mark.parametrize("grid", [
        "width=0.25",
        "atoms=" + ",".join(repr(a) for a in np.arange(0.125, 6.0, 0.3).tolist()),
    ])
    def test_em_writes_laslett_em_on_the_binned_or_snapped_segments(self, tmp_path, grid):
        # each grid mode assembled step by step: the binned lengths on their
        # default grid, or the pc lengths snapped to the atoms; then laslett_em
        src, out, want = tmp_path / "segments.csv", tmp_path / "em.json", tmp_path / "want.json"
        assert run("simulate", "--scheme", "segments", "--dist", "weibull:2:1", "--n", "60",
                   "--window", "3", "--rate", "2", "--seed", "9", "--out", str(src)) == 0
        assert run("estimate", "--estimator", "em", "--in", str(src), "--out", str(out),
                   "--grid", grid) == 0
        segs = dataio.read_segments_csv(src)
        mode, _, value = grid.partition("=")
        if mode == "width":
            segs = npmle.bin_segments(segs, float(value))
            atoms = npmle.default_grid(segs, 3.0, float(value))
        else:
            atoms = np.unique(np.array(value.split(","), dtype=float))
            segs = snap_complete_lengths(segs, atoms)
        dataio.write_em_result_json(want, laslett_em(segs, 3.0, atoms))
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize(
        "grid",
        ["width=0", "width=nan", "width=inf", "atoms=0.5,inf", "atoms=nan", "atoms=-1", "size=1"],
    )
    def test_invalid_grid_is_usage_error(self, tmp_path, grid):
        src = tmp_path / "segments.csv"
        src.write_text("kind,length\npc,0.75\n")
        with pytest.raises(SystemExit) as exc:
            run("estimate", "--estimator", "em", "--in", str(src), "--window", "2",
                "--out", str(tmp_path / "em.json"), "--grid", grid)
        assert exc.value.code == 2
        assert not (tmp_path / "em.json").exists()

    def test_em_requires_grid(self, tmp_path):
        src = tmp_path / "segments.csv"
        src.write_text("kind,length\npc,0.75\n")
        assert run("estimate", "--estimator", "em", "--in", str(src),
                   "--out", str(tmp_path / "em.json"), "--window", "2") == 2

    def test_window_read_from_sidecar(self, tmp_path):
        sout = tmp_path / "segments.csv"
        assert run("simulate", "--scheme", "segments", "--dist", "exp:1", "--n", "30",
                   "--window", "2", "--rate", "3", "--seed", "4", "--out", str(sout)) == 0
        out = tmp_path / "pc.csv"
        assert run("estimate", "--estimator", "palmer_cox", "--in", str(sout),
                   "--out", str(out)) == 0

    def test_scheme_estimator_mismatch_is_data_error(self, tmp_path):
        src = tmp_path / "segments.csv"
        src.write_text("kind,length\npc,0.75\n")
        assert run("estimate", "--estimator", "wf", "--in", str(src),
                   "--out", str(tmp_path / "x.csv")) == 1

    def test_malformed_row_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "pairs.csv"
        for cell in ("oops", "nan", "inf", "-inf"):
            src.write_text(f"r,s,censored\n1.0,2.0,0\n0.5,{cell},0\n")
            assert run("estimate", "--estimator", "wf", "--in", str(src),
                       "--out", str(tmp_path / "x.csv")) == 1
            assert "pairs.csv:3" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_bootstrap_adds_bands(self, tmp_path):
        out = simulate_pairs(tmp_path, n=60)
        est = tmp_path / "wf.csv"
        assert run("estimate", "--estimator", "wf", "--in", str(out), "--out", str(est),
                   "--bootstrap", "15", "--seed", "2") == 0
        data = read_step_survival_csv(est)
        assert all(v is not None for v in data["lower"])
        assert all(v is not None for v in data["upper"])

    def test_bootstrap_with_em_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "segments.csv"
        src.write_text("kind,length\npc,0.75\npc,1.25\n")
        out = tmp_path / "em.json"
        assert run("estimate", "--estimator", "em", "--in", str(src), "--out", str(out),
                   "--grid", "width=0.5", "--window", "2", "--bootstrap", "10") == 2
        assert "bootstrap" in capsys.readouterr().err
        assert not out.exists()

    def test_bootstrap_below_one_is_usage_error(self, tmp_path, capsys):
        src = simulate_pairs(tmp_path, n=20)
        out = tmp_path / "wf.csv"
        for b in ("0", "-5"):
            assert run("estimate", "--estimator", "wf", "--in", str(src), "--out", str(out),
                       "--bootstrap", b) == 2
            assert "--bootstrap" in capsys.readouterr().err
        assert not out.exists()

    def test_level_outside_unit_interval_is_usage_error(self, tmp_path, capsys):
        src = simulate_pairs(tmp_path, n=20)
        out = tmp_path / "wf.csv"
        for level in ("0", "1", "1.5", "-0.1"):
            assert run("estimate", "--estimator", "wf", "--in", str(src), "--out", str(out),
                       "--bootstrap", "5", "--level", level) == 2
            assert "--level" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--max-iter", "0"), ("--max-iter", "-3"),
        ("--tol", "0"), ("--tol", "-0.5"), ("--tol", "nan"), ("--tol", "inf"),
    ])
    def test_invalid_em_controls_are_usage_errors(self, tmp_path, capsys, flag, value):
        src = tmp_path / "segments.csv"
        src.write_text(SEGMENTS)
        out = tmp_path / "em.json"
        assert run("estimate", "--estimator", "em", "--in", str(src), "--out", str(out),
                   "--window", "2", "--grid", "width=0.5", flag, value) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_censored_pairs_rejected_by_cv_with_pointer(self, tmp_path, capsys):
        src = tmp_path / "pairs.csv"
        src.write_text("r,s,censored\n0.4,0.6,0\n1.5,0.5,1\n")
        assert run("estimate", "--estimator", "cv", "--in", str(src),
                   "--out", str(tmp_path / "cv.csv")) == 1
        assert "winter_foldes" in capsys.readouterr().err

    def test_round_trip_matrix(self, tmp_path):
        matrix = {
            "equilibrium": ("wf", "cv"),
            "window": ("wpl",),
            "segments": ("palmer_cox", "em"),
        }
        for scheme, estimators in matrix.items():
            src = tmp_path / f"{scheme}.csv"
            argv = ["simulate", "--scheme", scheme, "--dist", "exp:1", "--n", "40",
                    "--seed", "3", "--out", str(src)]
            if scheme in ("window", "segments"):
                argv += ["--window", "3"]
            if scheme == "segments":
                argv += ["--rate", "2"]
            assert run(*argv) == 0
            for tag in estimators:
                dst = tmp_path / f"{scheme}_{tag}.out"
                argv = ["estimate", "--estimator", tag, "--in", str(src), "--out", str(dst)]
                if tag == "em":
                    argv += ["--grid", "width=0.5"]
                assert run(*argv) == 0


SEGMENTS = "kind,length\npc,0.75\npc,1.25\npx,1.5\nrx,2.0\n"
TAILS = ("bench", "tails", "--dist-infinite", "exp:1", "--dist-finite", "weibull:2:1")


@pytest.mark.parametrize("data,argv", [
    (None, ("simulate", "--scheme", "equilibrium", "--dist", "exp:1", "--n", "0")),
    (SEGMENTS, ("estimate", "--estimator", "palmer_cox", "--window", "-1")),
    ("kind,length\npc,1.0\npx,5\n", ("estimate", "--estimator", "palmer_cox", "--window", "3")),
    (SEGMENTS, ("estimate", "--estimator", "em", "--window", "2", "--grid", "atoms=0.75,1.25")),
    (SEGMENTS, ("estimate", "--estimator", "em", "--window", "1", "--grid", "width=0.5")),
    (None, (*TAILS, "--eps", "0.1", "--n", "0")),
    (None, (*TAILS, "--eps", "0.1", "--reps", "0")),
    ("r,s,censored\n0,0,0\n", ("estimate", "--estimator", "wf")),
    ("r,s,censored\n0.5,1,0\n1,0,1\n", ("estimate", "--estimator", "wf")),
    ("kind,length\npc,1.0\npx,5\n", ("estimate", "--estimator", "em", "--window", "3",
                                    "--grid", "width=0.5")),
    ("kind,length\npc,1.0\nrx,1.0\n", ("estimate", "--estimator", "palmer_cox", "--window", "3")),
    ("kind,length\npc,1.0\nrx,1.0\n", ("estimate", "--estimator", "em", "--window", "3",
                                      "--grid", "width=0.5")),
    ("kind,length\npc,1.0\nrx,1.0\n", ("estimate", "--estimator", "em", "--window", "3",
                                      "--grid", "atoms=1.0,4.0")),
    (SEGMENTS, ("estimate", "--estimator", "palmer_cox", "--window", "nan")),
    (SEGMENTS, ("estimate", "--estimator", "em", "--window", "inf", "--grid", "width=0.5")),
    ("kind,length\npc,0.75\npc,1.3\n", ("estimate", "--estimator", "em", "--window", "2",
                                       "--grid", "atoms=0.5,1.0")),
    ("kind,length\npc,1.0\npc,1.01\n", ("estimate", "--estimator", "em", "--window", "2",
                                       "--grid", "atoms=1.0")),
    # a sidecar window that is not a number; a bool is not one, though True == 1
    *(((SEGMENTS, json.dumps({"window": window})), ("estimate", "--estimator", tag, *grid))
      for window in ("abc", [3], True)
      for tag, grid in (("palmer_cox", ()), ("em", ("--grid", "width=0.5")))),
])
def test_rejected_values_exit_1_without_output(tmp_path, capsys, data, argv):
    # data is the input CSV, or the CSV and its .meta.json sidecar
    argv = (*argv, "--out", str(tmp_path / "out"))
    csv, sidecar = data if isinstance(data, tuple) else (data, None)
    if csv is not None:
        (tmp_path / "in.csv").write_text(csv)
        argv += ("--in", str(tmp_path / "in.csv"))
    if sidecar is not None:
        (tmp_path / "in.csv.meta.json").write_text(sidecar)
    before = sorted(tmp_path.iterdir())
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sidecar is None or "in.csv.meta.json: the window must be a number" in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("row, shown", [
    (b"1.0,2.0,\xff", "byte 0xff is not printable ASCII"),
    ("\u0968,2,0".encode(), "byte 0xe0 is not printable ASCII"),  # a Devanagari 2, float() reads it
])
def test_a_byte_outside_ascii_is_one_error_line_naming_its_line(tmp_path, capsys, row, shown):
    src = tmp_path / "pairs.csv"
    src.write_bytes(b"r,s,censored\n1.0,2.0,0\n" + row + b"\n0.5,1.0,1\n")
    out = tmp_path / "wf.csv"
    assert run("estimate", "--estimator", "wf", "--in", str(src), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {src}:3: {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize("sidecar", [b'{"window": 2\xff}', b"\xff", b"window = 2", b'{"window": 2'])
def test_an_unreadable_sidecar_counts_as_absent(tmp_path, capsys, sidecar):
    # not UTF-8, or not JSON: as if there were no sidecar
    src = tmp_path / "segments.csv"
    src.write_text(SEGMENTS)
    (tmp_path / "segments.csv.meta.json").write_bytes(sidecar)
    argv = ("estimate", "--estimator", "palmer_cox", "--in", str(src))
    assert run(*argv, "--out", str(tmp_path / "pc.csv")) == 2
    assert capsys.readouterr().err == "usage error: estimator palmer_cox requires --window\n"
    assert run(*argv, "--window", "2", "--out", str(tmp_path / "pc.csv")) == 0


# A written data file, and the estimate argv that reads it.
WRITTEN_INPUTS = {
    "pairs": (dataio.write_pairs_csv, gapest.sample_equilibrium(gapest.Exponential(1.0), 12, 1),
              ("--estimator", "wf")),
    "window": (dataio.write_window_csv,
               gapest.sample_pooled_windows(gapest.Exponential(1.0), 0.0, 3.0, 6, 1)[0],
               ("--estimator", "wpl")),
    "segments": (dataio.write_segments_csv,
                 gapest.sample_pooled_segments(2.0, gapest.Exponential(1.0), 0.0, 3.0, 4, 1)[0],
                 ("--estimator", "palmer_cox", "--window", "3")),
}
# Bytes written over a stretch of a file, or into it: cells, parts of cells,
# line ends, and the bytes and cells the readers reject.
PATCHES = st.lists(st.tuples(
    st.integers(0, 600), st.integers(0, 6),
    st.sampled_from([b"", b",", b"\n", b"\r", b"\r\n", b"0", b"1", b"-", b".", b"e", b"x", b" ",
                     b"nan", b"inf", b"1e308", b"5e-324", b"1_0", b'"', b"\t", b"\x00", b"\xff",
                     "\u0968".encode(), b"pc", b"rx", b"complete", b"empty"]),
), min_size=1, max_size=4)


@pytest.mark.parametrize("fmt", WRITTEN_INPUTS)
@given(patches=PATCHES)
def test_a_corrupted_input_file_exits_0_or_1_with_one_error_line(tmp_path_factory, fmt, patches):
    # in process, so that an exception out of main fails the test with its traceback
    write, records, argv = WRITTEN_INPUTS[fmt]
    folder = tmp_path_factory.mktemp("in")
    src = folder / "in.csv"
    write(src, records)
    raw = src.read_bytes()
    for back, width, patch in patches:  # back bytes from the end, and the header less often
        at = max(len(raw) - back, 0)
        raw = raw[:at] + patch + raw[at + width:]
    src.write_bytes(raw)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be a line more
        code = main(["estimate", *argv, "--in", str(src), "--out", str(folder / "out")])
    assert code in (0, 1)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert re.fullmatch(r"error: [^\n]*\n", err.getvalue())
    try:
        getattr(dataio, f"read_{fmt}_csv")(src)
    except gapest.DataFormatError as exc:  # the file's error, naming its line
        assert re.match(rf"{re.escape(str(src))}:\d+: ", str(exc))
        assert err.getvalue() == f"error: {exc}\n"


@pytest.mark.parametrize("message, shown", [
    ("", "input too large"),
    ("Unable to allocate 7.28 TiB for an array", "Unable to allocate 7.28 TiB for an array"),
])
def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch, message, shown):
    # as `simulate --scheme window --window 1e12` runs out of memory; nothing
    # large is allocated here
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(gapest.cli.sampling, "sample_pooled_windows", exhausted)
    assert run(*WINDOW_SIMULATE, "--window", "1e12", "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: out of memory: {shown}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("estimate", "--estimator", "em", "--window", "2", "--grid", "width=1e-320", "--in", "in.csv"),
    ("bench", "compare", "--scheme", "segments", "--dist", "exp:1", "--n", "5", "--reps", "2",
     "--window", "2", "--rate", "2", "--bin-width", "1e-320"),
])
def test_too_small_bin_width_is_one_error_line(tmp_path, capsys, monkeypatch, argv):
    # (0, 2] holds more than 1.8e308 bins of width 1e-320
    monkeypatch.chdir(tmp_path)
    Path("in.csv").write_text("kind,length\npc,0.5\nrx,2.0\n")
    assert run(*argv, "--out", "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bin_width 1e-320 cuts (0, ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]


def test_oversized_window_is_refused_before_sampling(tmp_path, capsys):
    # 5 windows of length 1e12 expect 5e12 exp(1) renewals, far past the bound
    start = time.perf_counter()
    assert run(*WINDOW_SIMULATE, "--window", "1e12", "--out", str(tmp_path / "out")) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: window length 1000000000000.0 over 5 windows expects 5e+12 ")
    assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_oversized_segment_window_is_refused_before_sampling(tmp_path, capsys):
    # 5 windows of length 1e12 at rate 2 expect 1e13 exp(1) births, far past the bound
    start = time.perf_counter()
    argv = ("simulate", "--scheme", "segments", "--dist", "exp:1", "--window", "1e12",
            "--rate", "2", "--n", "5", "--out", str(tmp_path / "out"))
    assert run(*argv) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: window length 1000000000000.0 over 5 windows expects 1e+13 ")
    assert "SEGMENT_MAX_BIRTHS" in err and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_em_bins_a_subnormal_length_with_the_other_lengths_of_its_bin(tmp_path):
    # at width 3, 5e-324 and 1.0 both lie in the first bin (0, 3]
    for name, length in (("tiny", "5e-324"), ("one", "1.0")):
        (tmp_path / f"{name}.csv").write_text(f"kind,length\npc,{length}\npx,{length}\nrx,2\n")
        assert run("estimate", "--estimator", "em", "--in", str(tmp_path / f"{name}.csv"),
                   "--window", "2", "--grid", "width=3", "--out", str(tmp_path / f"{name}.json")) == 0
    tiny = json.loads((tmp_path / "tiny.json").read_text())
    assert tiny == json.loads((tmp_path / "one.json").read_text())
    assert tiny["atoms"] == [1.5, 4.5]


def test_bin_width_making_too_many_atoms_is_one_error_line(tmp_path, capsys, monkeypatch):
    # (0, 4] holds 4e300 bins of width 1e-300: refused before any is made
    monkeypatch.chdir(tmp_path)
    Path("segs.csv").write_text("kind,length\npc,0.5\nrx,2.0\n")
    argv = ("estimate", "--estimator", "em", "--in", "segs.csv", "--window", "2",
            "--grid", "width=1e-300", "--out", "out")
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bin_width 1e-300 cuts (0, ") and err.count("\n") == 1
    assert f"bins, more than EM_MAX_ATOMS = {npmle.EM_MAX_ATOMS}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["segs.csv"]


@pytest.mark.parametrize("argv", [
    ("simulate", "--scheme", "equilibrium", "--dist", "exp:1", "--n", "5"),
    ("estimate", "--estimator", "wf", "--in", "in.csv"),
    ("bench", "compare", "--scheme", "equilibrium", "--dist", "exp:1", "--n", "5", "--reps", "2"),
    (*TAILS, "--eps", "0.1"),
])
@pytest.mark.parametrize("seed", ["-3", "1.5", "x"])
def test_bad_seed_is_usage_error_naming_the_flag(tmp_path, capsys, argv, seed):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--seed", seed, "--out", str(tmp_path / "out"))
    assert exc.value.code == 2
    assert "argument --seed: expected a non-negative integer" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


COMPARE = ("bench", "compare", "--scheme", "equilibrium", "--dist", "exp:1", "--n", "20",
           "--reps", "2")
SEGMENT_COMPARE = ("bench", "compare", "--scheme", "segments", "--dist", "exp:1", "--n", "5",
                   "--reps", "2")
WINDOW_SIMULATE = ("simulate", "--scheme", "window", "--dist", "exp:1", "--n", "5")
SEGMENT_SIMULATE = ("simulate", "--scheme", "segments", "--dist", "exp:1", "--n", "3")


@pytest.mark.parametrize("data,argv,code,message", [
    (None, ("simulate", "--scheme", "segments", "--dist", "exp:1", "--n", "5", "--window", "2"),
     2, "usage error: simulate --scheme segments requires --window and --rate"),
    (None, WINDOW_SIMULATE, 2, "usage error: simulate --scheme window requires --window"),
    *((None, (*WINDOW_SIMULATE, "--window", w), 2,
       f"usage error: --window must be finite and positive, got {w}")
      for w in ("0.0", "-1.0", "nan", "inf")),
    *((None, (*SEGMENT_SIMULATE, "--window", w, "--rate", "2"), 2,
       f"usage error: --window must be finite and positive, got {w}")
      for w in ("-1.0", "nan", "inf")),
    *((None, (*SEGMENT_SIMULATE, "--window", "3", "--rate", r), 2,
       f"usage error: --rate must be finite and positive, got {r}")
      for r in ("0.0", "-1.0", "nan", "inf")),
    (SEGMENTS, ("estimate", "--estimator", "palmer_cox"),
     2, "usage error: estimator palmer_cox requires --window"),
    (None, ("estimate", "--estimator", "wf", "--in", "missing.csv"), 1, "error: cannot read"),
    (None, (*COMPARE, "--check-time", "nan"),
     2, "usage error: check_time must be finite and positive, got nan"),
    (None, (*COMPARE, "--check-time", "inf"),
     2, "usage error: check_time must be finite and positive, got inf"),
    (None, (*SEGMENT_COMPARE, "--window", "3", "--rate", "nan"),
     2, "usage error: birth_rate must be finite and positive, got nan"),
    (None, (*SEGMENT_COMPARE, "--window", "inf", "--rate", "2"),
     2, "usage error: window_length must be finite and positive, got inf"),
    (None, COMPARE, 1, "verdicts failed: mse_identity"),
])
def test_error_paths_exit_with_their_message(tmp_path, capsys, monkeypatch, data, argv, code,
                                             message):
    # no MSE decomposition holds to a negative tolerance, so a compare that
    # gets as far as its verdicts fails them
    monkeypatch.setattr("gapest.benchmark.MSE_IDENTITY_TOL", -1.0)
    monkeypatch.chdir(tmp_path)
    if data is not None:
        (tmp_path / "in.csv").write_text(data)
        argv += ("--in", "in.csv")
    assert run(*argv, "--out", "out") == code
    assert capsys.readouterr().err.startswith(message)


class TestBench:
    def test_compare_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        csv_out = tmp_path / "report.csv"
        code = run("bench", "compare", "--scheme", "equilibrium", "--dist", "exp:1",
                   "--n", "300", "--reps", "40", "--seed", "1",
                   "--out", str(out), "--csv", str(csv_out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["verdicts"]["mse_identity"] is True
        assert payload["verdicts"]["efficiency_ordering"] is True
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "estimator,t,bias,variance,mse"
        assert len(lines) > 2

    def test_missing_dist_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("bench", "compare", "--scheme", "equilibrium", "--n", "10",
                "--reps", "2", "--out", str(tmp_path / "r.json"))
        assert exc.value.code == 2

    def test_missing_window_for_window_scheme_exits_2(self, tmp_path):
        assert run("bench", "compare", "--scheme", "window", "--dist", "exp:1",
                   "--n", "10", "--reps", "2", "--out", str(tmp_path / "r.json")) == 2

    def test_invalid_dist_on_bench_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("bench", "compare", "--scheme", "equilibrium", "--dist", "exp:0",
                "--n", "10", "--reps", "2", "--out", str(tmp_path / "r.json"))
        assert exc.value.code == 2
        assert "exp:0" in capsys.readouterr().err

    def test_tails_csv_shape(self, tmp_path):
        out = tmp_path / "tails.csv"
        code = run("bench", "tails", "--dist-infinite", "exp:1",
                   "--dist-finite", "weibull:2:1", "--eps", "0.1",
                   "--n", "100", "--reps", "2", "--seed", "1", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "dist,estimator,n,sqrt_n_sup_error"
        assert len(lines) == 17

    def test_tails_quotes_a_spec_with_commas(self, tmp_path):
        out = tmp_path / "tails.csv"
        assert run("bench", "tails", "--dist-infinite", "exp:1",
                   "--dist-finite", "atoms:0.5=0.5,2.5=0.5", "--eps", "0.1",
                   "--n", "20", "--reps", "1", "--out", str(out)) == 0
        lines = out.read_bytes().split(b"\r\n")
        assert lines[-1] == b"" and len(lines) == 18
        assert sum(line.startswith(b'"atoms:0.5=0.5,2.5=0.5",') for line in lines) == 8

    def test_tails_json_matches_the_report(self, tmp_path):
        out = tmp_path / "tails.json"
        assert run(*TAILS, "--eps", "0.1", "--n", "20", "--reps", "2", "--seed", "1",
                   "--out", str(tmp_path / "tails.csv"), "--json", str(out)) == 0
        report = gapest.tail_failure_demo(
            gapest.parse_distribution("exp:1"), gapest.parse_distribution("weibull:2:1"),
            n=20, replicates=2, eps=0.1, seed=1,
        )
        assert json.loads(out.read_text()) == json.loads(json.dumps(report.to_json_dict()))

    def test_tails_accepts_a_weibull_with_shape_just_above_one(self, tmp_path):
        # E(1/X) = Gamma(1/6) is finite for weibull:1.2:1, so the two
        # diagnostics disagree
        assert run("bench", "tails", "--dist-infinite", "exp:1",
                   "--dist-finite", "weibull:1.2:1", "--eps", "0.1", "--n", "20",
                   "--reps", "1", "--out", str(tmp_path / "tails.csv")) == 0


class TestDiagnose:
    def test_stdout_json(self, capsys):
        assert run("diagnose", "--dist", "weibull:2:1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"dist": "weibull:2:1", "finite": True,
                           "value": pytest.approx(1.7724538509055159, rel=1e-12)}

    def test_divergent_value_is_null(self, capsys):
        assert run("diagnose", "--dist", "exp:1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["finite"] is False
        assert payload["value"] is None

    def test_file_output(self, tmp_path):
        out = tmp_path / "diag.json"
        assert run("diagnose", "--dist", "atoms:1=0.5,2=0.5", "--out", str(out)) == 0
        assert json.loads(out.read_text())["finite"] is True


def test_import_loads_no_scipy():
    # scipy is imported where it is used, so start-up stays fast
    code = "import sys, gapest; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    src = str(Path(gapest.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_a_submodule_when_one_of_its_names_is_first_read():
    code = ("import sys, gapest; gapest.parse_distribution('weibull:2:1'); "
            "print(sorted(m for m in sys.modules if m.startswith('gapest')))")
    src = str(Path(gapest.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    loaded = set(ast.literal_eval(out.stdout))
    assert "gapest.distributions" in loaded
    assert not loaded & {"gapest.npmle", "gapest.benchmark", "gapest.product_limit"}


def test_package_names_read_their_submodule_at_each_access(monkeypatch):
    # not cached: a patched submodule attribute is what the package gives
    assert gapest.kaplan_meier is gapest.product_limit.kaplan_meier
    monkeypatch.setattr(gapest.product_limit, "kaplan_meier", len)
    assert gapest.kaplan_meier is len
    assert {*gapest.__all__, "npmle", "sampling", "__version__"} <= set(dir(gapest))
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        gapest.nothing

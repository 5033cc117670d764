"""Monte Carlo comparison harness and the near-zero error demonstration."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapest import (
    EstimationError,
    Exponential,
    McConfig,
    Segments,
    UniformInterval,
    Weibull,
    WindowRecords,
    mc_compare,
    palmer_cox,
    sample_pooled_segments,
    sample_pooled_windows,
    tail_failure_demo,
    window_product_limit,
)
from gapest import benchmark, npmle, parse_distribution, sampling
from gapest.benchmark import TailReport, TailRow, _simulate
from gapest.cli import main
from gapest.seeding import child_seed


def small_config(**kw):
    base = dict(dist_spec="exp:1", scheme="equilibrium", n=200, replicates=30, seed=4)
    base.update(kw)
    return McConfig(**base)


def segments_config(**kw):
    base = dict(scheme="segments", n=15, replicates=8, window_length=2.0, birth_rate=3.0,
                bin_width=0.25)
    base.update(kw)
    return small_config(**base)


class TestMcCompare:
    def test_single_replicate_has_zero_variance(self):
        report = mc_compare(small_config(replicates=1))
        for summary in report.summaries.values():
            assert np.allclose(summary.variance, 0.0)

    def test_determinism(self):
        a = mc_compare(small_config())
        b = mc_compare(small_config())
        assert a.to_json_dict() == b.to_json_dict()

    def test_mse_decomposition(self):
        report = mc_compare(small_config())
        assert report.verdicts["mse_identity"]
        for s in report.summaries.values():
            assert np.max(np.abs(s.mse - (s.bias**2 + s.variance))) <= 1e-10

    def test_efficiency_verdict_present_for_equilibrium(self):
        report = mc_compare(small_config(n=500, replicates=60))
        assert "efficiency_ordering" in report.verdicts

    def test_mean_cdf_bounded_at_top(self):
        report = mc_compare(small_config())
        for s in report.summaries.values():
            assert s.bias[-1] + report.true_cdf[-1] <= 1.0 + 1e-12

    def test_grid_includes_check_time(self):
        report = mc_compare(small_config(check_time=1.0))
        assert np.any(report.grid == 1.0)

    def test_evaluations_beyond_the_last_jump_are_counted(self):
        # tiny samples end before the right end of the grid
        report = mc_compare(small_config(n=3, replicates=20))
        assert report.summaries["wf"].beyond_tail > 0

    def test_window_scheme(self):
        report = mc_compare(
            small_config(scheme="window", n=40, replicates=10, window_length=3.0)
        )
        assert set(report.summaries) == {"wpl"}

    def test_segments_scheme(self):
        report = mc_compare(
            small_config(
                scheme="segments",
                n=15,
                replicates=8,
                window_length=2.0,
                birth_rate=3.0,
                bin_width=0.25,
            )
        )
        assert set(report.summaries) == {"palmer_cox", "em"}
        for s in report.summaries.values():
            assert np.all(np.isfinite(s.mse))

    def test_numpy_integer_sizes_and_seed_run_like_ints(self):
        a = mc_compare(small_config(n=np.int64(50), replicates=np.int32(3), seed=np.uint16(4)))
        b = mc_compare(small_config(n=50, replicates=3, seed=4))
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_em_fits_are_reported(self):
        config = segments_config(replicates=6)
        report = mc_compare(config)
        fits = report.em_fits
        assert set(fits) == {
            "iterations_min", "iterations_median", "iterations_max", "certified", "max_gradient_gap"
        }
        assert 1 <= fits["iterations_min"] <= fits["iterations_median"] <= fits["iterations_max"]
        assert fits["certified"] == 6
        assert 0.0 <= fits["max_gradient_gap"] <= 1e-8
        assert report.verdicts["em_certified"] is True
        payload = report.to_json_dict()
        assert payload["em_fits"] == fits
        assert payload == mc_compare(config).to_json_dict()
        without_em = mc_compare(small_config())
        assert without_em.em_fits == {} and "em_certified" not in without_em.verdicts

    def test_an_uncertified_em_fit_fails_the_study(self, monkeypatch, tmp_path, capsys):
        fit_many = npmle.laslett_em_many
        monkeypatch.setattr(npmle, "laslett_em_many",
                            lambda problems, w, grid: fit_many(problems, w, grid, max_iter=1))
        report = mc_compare(segments_config())
        assert report.em_fits["certified"] < 8
        assert report.verdicts["em_certified"] is False and not report.all_pass
        argv = ["bench", "compare", "--scheme", "segments", "--dist", "exp:1", "--n", "15",
                "--reps", "8", "--seed", "4", "--window", "2", "--rate", "3", "--bin-width",
                "0.25", "--out", str(tmp_path / "report.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "verdicts failed: em_certified\n"

    def test_em_fits_run_in_one_batch_per_grid(self, monkeypatch):
        calls = []

        def spy(problems, window_length, grid, *args):
            calls.append((len(problems), np.asarray(grid).tobytes()))
            return fit_many(problems, window_length, grid, *args)

        fit_many = npmle.laslett_em_many
        monkeypatch.setattr(npmle, "laslett_em_many", spy)
        config = segments_config(n=3, replicates=12)  # few windows: the grids differ
        mc_compare(config)
        grids = {npmle.em_problem(
            _simulate(config, Exponential(1.0), rep), 2.0, 0.25)[0].tobytes() for rep in range(12)}
        assert len(grids) > 1
        assert sum(size for size, _ in calls) == 12
        assert sorted(grid for _, grid in calls) == sorted(grids)

    def test_em_summary_does_not_depend_on_the_other_estimators(self):
        alone = mc_compare(segments_config(estimators=("em",)))
        both = mc_compare(segments_config(estimators=("palmer_cox", "em")))
        a, b = alone.summaries["em"], both.summaries["em"]
        for field in ("bias", "variance", "mse"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.beyond_tail == b.beyond_tail
        assert alone.em_fits == both.em_fits

    def test_estimator_scheme_mismatch(self):
        with pytest.raises(EstimationError):
            small_config(estimators=("wpl",))

    def test_missing_window_length(self):
        with pytest.raises(EstimationError):
            small_config(scheme="window")

    def test_nonpositive_bin_width(self):
        for h in (0.0, -0.25, math.nan, math.inf):
            with pytest.raises(EstimationError, match="bin_width"):
                small_config(bin_width=h)

    @pytest.mark.parametrize("kw,match", [
        (dict(scheme="nonsense"), "unknown scheme 'nonsense'"),
        (dict(scheme="segments", window_length=3.0), "needs birth_rate"),
        (dict(n=0), "n and replicates must be >= 1"),
        (dict(replicates=0), "n and replicates must be >= 1"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(seed=True), "seed must be an integer, got True"),
        (dict(seed=np.float64(4.0)), "seed must be an integer, got np.float64"),
        (dict(n=2.5), "n must be an integer, got 2.5"),
        (dict(n=200.0), "n must be an integer, got 200.0"),
        (dict(n=True), "n must be an integer, got True"),
        (dict(replicates=True), "replicates must be an integer, got True"),
        (dict(replicates=3.0), "replicates must be an integer, got 3.0"),
        (dict(replicates=None), "replicates must be an integer, got None"),
        (dict(check_time=math.nan), "check_time must be finite and positive, got nan"),
        (dict(check_time=math.inf), "check_time must be finite and positive, got inf"),
        (dict(check_time=0.0), "check_time must be finite and positive, got 0.0"),
        (dict(scheme="window", window_length=math.nan),
         "window_length must be finite and positive, got nan"),
        (dict(scheme="window", window_length=math.inf),
         "window_length must be finite and positive, got inf"),
        (dict(scheme="window", window_length=-1.0),
         "window_length must be finite and positive, got -1.0"),
        (dict(scheme="segments", window_length=math.nan, birth_rate=2.0),
         "window_length must be finite and positive, got nan"),
        (dict(scheme="segments", window_length=math.inf, birth_rate=2.0),
         "window_length must be finite and positive, got inf"),
        (dict(scheme="segments", window_length=3.0, birth_rate=math.nan),
         "birth_rate must be finite and positive, got nan"),
        (dict(scheme="segments", window_length=3.0, birth_rate=math.inf),
         "birth_rate must be finite and positive, got inf"),
        (dict(scheme="segments", window_length=3.0, birth_rate=0.0),
         "birth_rate must be finite and positive, got 0.0"),
        (dict(estimators=("wf", "wf")), r"estimators \['wf', 'wf'\] repeat a tag"),
    ])
    def test_config_rejected(self, kw, match):
        with pytest.raises(EstimationError, match=match):
            small_config(**kw)

    def test_csv_rows_shape(self):
        report = mc_compare(small_config(replicates=5))
        rows = report.csv_rows()
        assert len(rows) == len(report.summaries) * report.grid.size
        assert all(len(r) == 5 for r in rows)


def arranged(config, dist, rep):
    """A replicate as the public samplers arrange it: by window, and segments by birth."""
    seed, w = child_seed(config.seed, rep), config.window_length
    if config.scheme == "window":
        return sample_pooled_windows(dist, 0.0, w, config.n, seed)[0]
    return sample_pooled_segments(config.birth_rate, dist, 0.0, w, config.n, seed)[0]


@pytest.mark.parametrize("kw", [
    dict(scheme="segments", n=15, window_length=2.0, birth_rate=3.0),
    dict(scheme="segments", n=15, window_length=3.0, birth_rate=2.0, dist_spec="weibull:2:1"),
    dict(scheme="window", n=20, window_length=3.0),
], ids=["segments-exp", "segments-weibull", "window"])
def test_a_study_in_draw_order_equals_the_study_of_the_arranged_samples(monkeypatch, kw):
    got = mc_compare(small_config(replicates=8, bin_width=0.25, **kw)).to_json_dict()
    monkeypatch.setattr(benchmark, "_simulate", arranged)
    want = mc_compare(small_config(replicates=8, bin_width=0.25, **kw)).to_json_dict()
    assert json.dumps(got) == json.dumps(want)  # repr of every float: summaries, em_fits, verdicts


def test_a_segments_study_sorts_no_births(monkeypatch):
    def refuse(window, b):
        raise AssertionError("a replicate was put in birth order")

    monkeypatch.setattr(sampling, "_birth_order", refuse)
    assert mc_compare(segments_config(replicates=2)).all_pass


# Rows of the four kinds, each length a fraction of the window: on a lattice of eighths, tied
# within and across kinds, or anywhere.
ROWS = st.lists(st.tuples(st.integers(0, 3), st.one_of(st.integers(1, 8).map(lambda k: k / 8),
                                                        st.floats(1e-3, 1.0))),
                min_size=1, max_size=40)


def outcome(call):
    """Every field of what ``call()`` returns, as bytes, or its error message."""
    try:
        got = call()
    except EstimationError as exc:
        return str(exc)
    if not isinstance(got, tuple):
        return [v if v is None else np.asarray(v).tobytes() for v in vars(got).values()]
    atoms, (distinct, counts) = got
    return [atoms.tobytes(), *(col.tobytes() for col in distinct._columns()), counts.tobytes()]


@given(st.floats(0.5, 3.0), ROWS, st.randoms(use_true_random=False),
       st.sampled_from([0.1, 0.25, 1.0]))
def test_every_replicate_reduction_ignores_row_order(w, drawn, random, h):
    # what mc_compare computes from a replicate is bitwise the same in any row order
    code = np.array([c for c, _ in drawn])
    length = np.array([w if c == 3 else min(f * w, w) for c, f in drawn])  # rx spans the window
    order = np.arange(code.size)
    random.shuffle(order)
    atoms = np.linspace(w / 16, 2 * w, 24)
    for container, fits in (
        (Segments, (lambda d: palmer_cox(d, w), lambda d: npmle.em_problem(d, w, h),
                    lambda d: npmle.em_problem(d, w, atoms))),
        (WindowRecords, (window_product_limit,)),
    ):
        data, shuffled = container(code, length), container(code[order], length[order])
        for fit in fits:
            assert outcome(lambda: fit(shuffled)) == outcome(lambda: fit(data))


# The mc-segments-em studies of the benchmark at its seed 1 and at its held-out
# seed 20101003: four study seeds from SeedSequence of each, and a relative slack
# below which a drop in an EM trace is float rounding, both as perfbench/workloads.py
# and perfbench/tracing.py take them.
BENCH_STUDY_SEEDS = [int(s) for run in (1, 20_101_003)
                     for s in np.random.SeedSequence(run).generate_state(4)]
TRACE_SLACK = 1e-12


@pytest.mark.parametrize("seed", BENCH_STUDY_SEEDS)
def test_the_benchmark_em_fits_are_certified_and_their_traces_never_drop(seed):
    # A traced benchmark run checks this only for lone laslett_em calls, and
    # mc_compare fits its replicates as one laslett_em_many batch instead.
    config = McConfig(dist_spec="exp:1", scheme="segments", n=400, replicates=10, seed=seed,
                      window_length=3.0, birth_rate=2.0, bin_width=0.25)
    report = mc_compare(config)
    em_fits = report.em_fits
    assert em_fits["certified"] == 10 and em_fits["max_gradient_gap"] <= npmle.EM_DEFAULT_TOL
    assert report.verdicts["em_certified"] is True
    dist = parse_distribution("exp:1")
    problems = [npmle.em_problem(_simulate(config, dist, rep), 3.0, 0.25) for rep in range(10)]
    atoms = problems[0][0]
    assert all(grid.tobytes() == atoms.tobytes() for grid, _ in problems)
    fits = npmle.laslett_em_many([problem for _, problem in problems], 3.0, atoms)
    for fit in fits:
        ll = fit.loglik_trace
        assert fit.converged
        assert np.all(np.diff(ll) >= -TRACE_SLACK * np.maximum(np.abs(ll[:-1]), 1.0))


class TestTailDemo:
    def test_table_shape_and_doubling(self):
        report = tail_failure_demo(
            Exponential(1.0), Weibull(2.0, 1.0), n=100, replicates=4, eps=0.1, seed=2
        )
        assert len(report.rows) == 16  # 2 dists x 2 estimators x 4 sizes
        ns = sorted({r.n for r in report.rows})
        assert ns == [100, 200, 400, 800]

    def test_requires_disagreeing_diagnostics(self):
        with pytest.raises(EstimationError):
            tail_failure_demo(Exponential(1.0), UniformInterval(0.0, 1.0), 100, 2, 0.1)

    @pytest.mark.parametrize("n,replicates,eps", [(0, 2, 0.1), (100, 0, 0.1), (100, 2, 0.0)])
    def test_rejects_empty_studies(self, n, replicates, eps):
        with pytest.raises(EstimationError):
            tail_failure_demo(Exponential(1.0), Weibull(2.0, 1.0), n, replicates, eps)

    def test_finite_inverse_moment_rows_stay_bounded(self):
        report = tail_failure_demo(
            Exponential(1.0), Weibull(2.0, 1.0), n=250, replicates=20, eps=0.1, seed=3
        )
        finite = [r.sqrt_n_sup_error for r in report.rows if r.dist == "weibull:2:1"]
        divergent = [r.sqrt_n_sup_error for r in report.rows if r.dist == "exp:1"]
        # bounded normalized error for the finite inverse moment, and a clear
        # gap to the divergent case at every size
        assert max(finite) <= 3.0 * min(finite)
        assert max(finite) < min(divergent)

    def test_report_dict_and_rows_follow_the_fields(self):
        report = TailReport(
            eps=0.1, replicates=2, seed=5, rows=[TailRow("exp:1", "wf", 100, 1.5)]
        )
        assert report.to_json_dict() == {
            "eps": 0.1,
            "replicates": 2,
            "seed": 5,
            "rows": [{"dist": "exp:1", "estimator": "wf", "n": 100, "sqrt_n_sup_error": 1.5}],
        }
        assert report.csv_rows() == [("exp:1", "wf", 100, 1.5)]

    def test_determinism(self):
        a = tail_failure_demo(Exponential(1.0), Weibull(2.0, 1.0), 100, 3, 0.1, seed=5)
        b = tail_failure_demo(Exponential(1.0), Weibull(2.0, 1.0), 100, 3, 0.1, seed=5)
        assert a.to_json_dict() == b.to_json_dict()

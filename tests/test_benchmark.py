"""Monte Carlo comparison harness and the near-zero error demonstration."""

import math

import numpy as np
import pytest

from gapest import (
    EstimationError,
    Exponential,
    McConfig,
    UniformInterval,
    Weibull,
    mc_compare,
    tail_failure_demo,
)
from gapest.benchmark import TailReport, TailRow


def small_config(**kw):
    base = dict(dist_spec="exp:1", scheme="equilibrium", n=200, replicates=30, seed=4)
    base.update(kw)
    return McConfig(**base)


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
        (dict(check_time=math.nan), "check_time must be finite and positive, got nan"),
        (dict(check_time=math.inf), "check_time must be finite and positive, got inf"),
        (dict(check_time=0.0), "check_time must be finite and positive, got 0.0"),
    ])
    def test_config_rejected(self, kw, match):
        with pytest.raises(EstimationError, match=match):
            small_config(**kw)

    def test_csv_rows_shape(self):
        report = mc_compare(small_config(replicates=5))
        rows = report.csv_rows()
        assert len(rows) == len(report.summaries) * report.grid.size
        assert all(len(r) == 5 for r in rows)


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

"""Distribution families and the equilibrium functionals.

Expected values are either closed forms worked by hand or independent
scipy quadratures computed inside the tests.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from gapest import (
    DiscreteDistribution,
    DistributionSpecError,
    Exponential,
    UniformInterval,
    Weibull,
    parse_distribution,
)

E_INV = math.exp(-1.0)
SQRT_PI = math.sqrt(math.pi)

FAMILIES = [
    Exponential(1.0),
    Weibull(2.0, 1.0),
    UniformInterval(0.0, 1.0),
]


def quad_tail(dist, t, hi):
    val, _ = integrate.quad(lambda u: float(dist.survival(u)), t, hi, limit=200)
    return val


class TestEvaluate:
    """cdf, survival, hazard and cumulative hazard at one time point."""

    def test_exponential_at_one(self):
        dist = Exponential(1.0)
        assert dist.cdf(1.0) == pytest.approx(1.0 - E_INV, abs=1e-12)
        assert dist.hazard(1.0) == pytest.approx(1.0, abs=1e-12)
        assert dist.cumulative_hazard(1.0) == pytest.approx(1.0, abs=1e-12)
        assert dist.survival(1.0) == pytest.approx(E_INV, abs=1e-12)

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_boundary_at_zero(self, dist):
        assert dist.cdf(0.0) == 0.0
        assert dist.cumulative_hazard(0.0) == 0.0

    def test_weibull_hand_hazard(self):
        # hazard of Weibull(2, 1) is 2 t, so beta(1) = 2 and F(1) = 1 - 1/e
        dist = Weibull(2.0, 1.0)
        assert dist.cdf(1.0) == pytest.approx(1.0 - E_INV, abs=1e-12)
        assert dist.hazard(1.0) == pytest.approx(2.0, abs=1e-12)

    def test_beta_undefined_past_support(self):
        dist = UniformInterval(0.0, 1.0)
        assert dist.survival(1.5) == 0.0
        assert math.isnan(dist.hazard(1.5))
        assert dist.cumulative_hazard(1.5) == math.inf


class TestMean:
    def test_exponential(self):
        assert Exponential(1.0).mean() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_symmetry(self):
        assert UniformInterval(0.0, 2.0).mean() == pytest.approx(1.0, abs=1e-12)

    def test_weibull_against_quadrature(self):
        dist = Weibull(2.0, 1.0)
        oracle = quad_tail(dist, 0.0, 40.0)
        assert oracle == pytest.approx(0.8862, abs=1e-4)
        assert dist.mean() == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_mean_cross_check(self, dist):
        # two independent quadratures: integral of u f(u) and of survival
        hi = dist.support_upper()
        m1, _ = integrate.quad(lambda u: u * float(dist.pdf(u)), 0.0, hi, limit=200)
        m2 = quad_tail(dist, 0.0, hi)
        assert abs(m1 - m2) < 1e-6
        assert dist.mean() == pytest.approx(m1, abs=1e-6)


class TestAlpha:
    def test_exponential_constant(self):
        dist = Exponential(1.0)
        for t in (0.0, 0.3, 1.0, 4.0):
            assert dist.alpha(t) == pytest.approx(1.0, rel=1e-9)

    def test_uniform_hand_value(self):
        # (1 - 0.5) / ((1 - 0.5)^2 / 2) = 4
        assert UniformInterval(0.0, 1.0).alpha(0.5) == pytest.approx(4.0, abs=1e-9)

    def test_weibull_at_zero_is_reciprocal_mean(self):
        dist = Weibull(2.0, 1.0)
        oracle = 1.0 / quad_tail(dist, 0.0, 40.0)
        assert oracle == pytest.approx(1.1284, abs=1e-4)
        assert dist.alpha(0.0) == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_alpha_is_equilibrium_hazard(self, dist):
        # the recurrence time has density survival/mu; its hazard at t is
        # (survival(t)/mu) / (1 - G(t)) with G the recurrence cdf
        hi = dist.support_upper()
        mu, _ = integrate.quad(lambda u: float(dist.survival(u)), 0.0, hi, limit=200)
        for t in np.linspace(0.05, float(dist.ppf(0.9)), 7):
            g_t, _ = integrate.quad(lambda u: float(dist.survival(u)) / mu, 0.0, t, limit=200)
            oracle = (float(dist.survival(t)) / mu) / (1.0 - g_t)
            assert dist.alpha(t) == pytest.approx(oracle, abs=1e-6)

    def test_undefined_when_tail_exhausted(self):
        assert math.isnan(UniformInterval(0.0, 1.0).alpha(1.0))


class TestOccupation:
    def test_exponential_closed_form(self):
        occ = Exponential(1.0).occupation(1.0)
        assert occ.p1 == pytest.approx(E_INV, abs=1e-9)
        assert occ.p0 == pytest.approx(E_INV, abs=1e-9)

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_boundary(self, dist):
        occ = dist.occupation(0.0)
        assert occ.p0 == pytest.approx(1.0, abs=1e-9)
        assert occ.p1 == 0.0
        assert occ.p2 == pytest.approx(0.0, abs=1e-9)

    def test_weibull_hand_formula(self):
        dist = Weibull(2.0, 1.0)
        mu = quad_tail(dist, 0.0, 40.0)
        assert dist.occupation(0.5).p1 == pytest.approx(0.5 * math.exp(-0.25) / mu, abs=1e-9)

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_components_sum_to_one(self, dist):
        top = float(dist.ppf(0.999))
        for t in np.linspace(0.0, top, 100):
            occ = dist.occupation(t)
            assert abs(occ.p0 + occ.p1 + occ.p2 - 1.0) < 1e-10
            for p in (occ.p0, occ.p1, occ.p2):
                assert -1e-12 <= p <= 1.0 + 1e-12


class TestBackwardAlpha:
    @pytest.mark.parametrize(
        "dist,t,expect,tol",
        [
            (Exponential(1.0), 2.0, 0.5, 1e-8),
            (Weibull(2.0, 1.0), 0.25, 4.0, 1e-6),
            (UniformInterval(0.0, 1.0), 0.5, 2.0, 1e-6),
        ],
    )
    def test_hand_points(self, dist, t, expect, tol):
        assert dist.backward_alpha(t) == pytest.approx(expect, abs=tol)

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_identity_on_grid(self, dist):
        ts = np.linspace(float(dist.ppf(0.02)), float(dist.ppf(0.98)), 50)
        for t in ts:
            assert abs(dist.backward_alpha(t) * t - 1.0) < 1e-6

    def test_identity_discrete(self):
        dist = DiscreteDistribution([1.0, 2.0, 5.0], [0.2, 0.5, 0.3])
        for t in np.linspace(0.1, 4.9, 25):
            assert abs(dist.backward_alpha(t) * t - 1.0) < 1e-8

    def test_undefined_where_astride_impossible(self):
        assert math.isnan(UniformInterval(0.0, 1.0).backward_alpha(2.0))


class TestIntegrabilityDiagnostic:
    def test_exponential_diverges(self):
        report = Exponential(1.0).integrability_diagnostic()
        assert not report.finite
        assert report.value == math.inf

    def test_weibull_value_is_sqrt_pi(self):
        # 1/x times the density 2 x exp(-x^2) integrates to sqrt(pi)
        report = Weibull(2.0, 1.0).integrability_diagnostic()
        assert report.finite
        assert report.value == pytest.approx(SQRT_PI, abs=1e-3)

    def test_discrete_bounded_by_smallest_atom(self):
        dist = DiscreteDistribution([0.5, 2.0], [0.4, 0.6])
        report = dist.integrability_diagnostic()
        assert report.finite
        assert report.value <= 1.0 / 0.5 + 1e-12
        assert report.value == pytest.approx(0.4 / 0.5 + 0.6 / 2.0, abs=1e-12)

    def test_uniform_from_zero_diverges(self):
        assert not UniformInterval(0.0, 1.0).integrability_diagnostic().finite

    def test_uniform_away_from_zero_value(self):
        # integral of 1/((b-a) x) over (a, b) = log(b/a)/(b-a)
        report = UniformInterval(0.5, 1.5).integrability_diagnostic()
        assert report.finite
        assert report.value == pytest.approx(math.log(3.0), abs=1e-8)

    @pytest.mark.parametrize(
        "spec,expect",
        [
            # E(1/X) = Gamma(1 - 1/k) / lam for Weibull shapes k > 1
            ("weibull:1.2:1", math.gamma(1.0 / 6.0)),
            ("weibull:3:2", math.gamma(2.0 / 3.0) / 2.0),
            ("weibull:0.9:1", math.inf),
            # log(b/a) / (b - a) for uniforms away from zero
            ("uniform:0.5:1.5", math.log(3.0)),
            ("uniform:0:1", math.inf),
        ],
    )
    def test_closed_forms(self, spec, expect):
        report = parse_distribution(spec).integrability_diagnostic()
        assert report.finite == math.isfinite(expect)
        assert report.value == pytest.approx(expect, rel=1e-12)


class TestDensityAndShape:
    @pytest.mark.parametrize("dist", FAMILIES)
    def test_density_integrates_to_one(self, dist):
        hi = dist.support_upper()
        total, _ = integrate.quad(lambda u: float(dist.pdf(u)), 0.0, hi, limit=200)
        assert abs(total - 1.0) < 1e-6

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_cdf_monotone_with_limits(self, dist):
        ts = np.linspace(0.0, float(dist.ppf(1 - 1e-9)), 200)
        values = np.asarray(dist.cdf(ts))
        assert values[0] == 0.0
        assert np.all(np.diff(values) >= -1e-15)
        assert values[-1] > 1.0 - 1e-6

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_ppf_inverts_cdf(self, dist):
        for u in (0.1, 0.5, 0.9):
            assert float(dist.cdf(dist.ppf(u))) == pytest.approx(u, abs=1e-9)


class TestDiscreteSteps:
    def test_right_continuous_cdf(self):
        dist = DiscreteDistribution([1.0, 3.0], [0.25, 0.75])
        assert float(dist.cdf(0.999)) == 0.0
        assert float(dist.cdf(1.0)) == 0.25
        assert float(dist.cdf(2.9)) == 0.25
        assert float(dist.cdf(3.0)) == 1.0
        assert dist.cdf_left(1.0) == 0.0
        assert dist.cdf_left(3.0) == 0.25

    def test_mass_and_hazard_at_atoms(self):
        dist = DiscreteDistribution([1.0, 3.0], [0.25, 0.75])
        assert float(dist.pdf(1.0)) == 0.25
        assert float(dist.pdf(2.0)) == 0.0
        assert dist.hazard(1.0) == pytest.approx(0.25, abs=1e-12)
        assert dist.hazard(3.0) == pytest.approx(1.0, abs=1e-12)
        assert dist.cumulative_hazard(3.0) == pytest.approx(0.25 + 1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DistributionSpecError):
            DiscreteDistribution([2.0, 1.0], [0.5, 0.5])
        with pytest.raises(DistributionSpecError):
            DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(DistributionSpecError):
            DiscreteDistribution([1.0, 2.0], [0.6, 0.6])


class TestSpecStrings:
    @pytest.mark.parametrize(
        "spec",
        ["exp:1", "weibull:2:1", "uniform:0:2", "atoms:1=0.5,3=0.5"],
    )
    def test_round_trip(self, spec):
        dist = parse_distribution(spec)
        again = parse_distribution(dist.spec())
        assert type(again) is type(dist)
        ts = np.linspace(0.0, 3.0, 20)
        assert np.allclose(np.asarray(dist.cdf(ts)), np.asarray(again.cdf(ts)))

    @pytest.mark.parametrize(
        "bad",
        ["exp:-1", "exp:", "weibull:2", "uniform:2:1", "atoms:1=0.5,3=0.4", "gauss:0:1", "exp:abc"],
    )
    def test_invalid_specs_name_the_token(self, bad):
        with pytest.raises(DistributionSpecError) as err:
            parse_distribution(bad)
        assert bad in str(err.value)

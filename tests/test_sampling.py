"""Samplers for the three observation frames.

Monte Carlo checks run against closed-form or quadrature oracles with
3-sigma (or distance) tolerances at fixed seeds.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special, stats

from gapest import (
    EstimationError,
    Exponential,
    Pairs,
    Segments,
    UniformInterval,
    WindowRecords,
    parse_distribution,
    sample_equilibrium,
    apply_right_censoring,
    sample_pooled_windows,
    sample_segment_replicates,
    sample_window_replicates,
)

from gapest.sampling import sample_pooled_segments
from gapest.seeding import derived_rng

EXP1 = Exponential(1.0)

# The per-birth reference simulates births back to this quantile of the
# lifetime law; earlier births reach the window with probability below 1e-9.
LOOP_TRUNCATION_QUANTILE = 1.0 - 1e-9


def same(a, b):
    """Same container type and bitwise-equal columns."""
    assert type(a) is type(b)
    for col_a, col_b in zip(a._columns(), b._columns()):
        assert col_a.dtype.kind == col_b.dtype.kind
        assert col_a.shape == col_b.shape
        assert col_a.tobytes() == col_b.astype(col_a.dtype).tobytes()


def renewal_path_by_loop(dist, w, rng):
    """The first renewal v past the window start and the gaps after it,
    drawn in chunks of eight until they carry the path past w; no gaps
    when v alone overshoots."""
    v = float(dist.sample_equilibrium_recurrence(rng, 1)[0])
    gaps = []
    if v > w:
        return v, gaps
    pos = v
    while True:
        for x in dist.sample(rng, 8):
            gaps.append(float(x))
            pos += float(x)
            if pos > w:
                return v, gaps


def windows_by_loop(dist, w, rng):
    """One window's records, classified one gap at a time from the path:
    the reference for the window sampler."""
    v, gaps = renewal_path_by_loop(dist, w, rng)
    if v > w:
        return WindowRecords(["empty"], [w])
    kinds, values, pos = ["forward"], [v], v
    for x in gaps:
        if pos + x <= w:
            kinds.append("complete")
            values.append(x)
            pos += x
        else:
            kinds.append("censored")
            values.append(w - pos)
            break
    return WindowRecords(kinds, values)


def segments_by_loop(birth_rate, dist, w, rng):
    """One window of segments, classified one birth at a time from births
    simulated back to the LOOP_TRUNCATION_QUANTILE point of the lifetime
    law: the reference for the law of the exact segment sampler."""
    lmax = float(dist.ppf(LOOP_TRUNCATION_QUANTILE))
    span = w + lmax
    count = rng.poisson(birth_rate * span)
    births = np.sort(rng.uniform(-lmax, w, size=count))
    lifetimes = dist.sample(rng, count)
    deaths = births + lifetimes
    out = []
    for b, d, x in zip(births, deaths, lifetimes):
        if d <= 0.0 or b >= w:
            continue
        if b >= 0.0:
            if d <= w:
                out.append(("pc", float(x)))
            else:
                out.append(("px", float(w - b)))
        else:
            if d <= w:
                out.append(("rc", float(d)))
            else:
                out.append(("rx", float(w)))
    out = [seg for seg in out if seg[1] > 0.0]
    return Segments([k for k, _ in out], [x for _, x in out])


def segments_by_lexsort(birth_rate, dist, t1, t2, n_windows, seed):
    """The draws of ``sample_pooled_segments``, put in window and birth
    order by one np.lexsort: the reference for its order."""
    w = t2 - t1
    rng = derived_rng(seed)
    alive, born = rng.poisson(birth_rate * np.array([dist.mean(), w]), size=(n_windows, 2)).T
    q = dist.sample_length_biased(rng, alive.sum())
    age = rng.uniform(size=q.size) * q
    position = rng.uniform(0.0, w, size=born.sum())
    window = np.repeat(np.tile(np.arange(n_windows), 2), np.append(alive, born))
    b, x = np.append(-age, position), np.append(q, dist.sample(rng, position.size))
    order = np.lexsort((b, window))
    window, b, x = window[order], b[order], x[order]
    code = 2 * (b < 0.0) + (b + x > w)
    length = np.where(code == 0, x, np.minimum(b + x, w) - np.maximum(b, 0.0))
    keep = length > 0.0
    ends = np.cumsum(np.bincount(window[keep], minlength=n_windows))
    return Segments(np.array(["pc", "px", "rc", "rx"])[code[keep]], length[keep]), ends


def censor_by_loop(pairs, cuts):
    """Right censoring one pair at a time: the reference for
    ``apply_right_censoring``."""
    rows = []
    for r, s, c in zip(pairs.r.tolist(), pairs.s.tolist(), cuts.tolist()):
        rows.append((r, c, True) if c < s else (r, s, False))
    return Pairs(*zip(*rows))


LAWS = st.sampled_from(["exp:1", "weibull:2:1", "uniform:0.2:1.5", "atoms:0.5=0.5,2.5=0.5"])


class TestEquilibriumSampling:
    def test_length_biased_mean(self):
        # size-biased exponential(1) is Gamma(2, 1): mean 2, variance 2
        n = 100_000
        pairs = sample_equilibrium(EXP1, n, seed=101)
        q = pairs.q
        se = math.sqrt(2.0 / n)
        assert abs(q.mean() - 2.0) < 3 * se

    def test_backward_marginal_is_exponential(self):
        pairs = sample_equilibrium(EXP1, 100_000, seed=102)
        assert stats.kstest(pairs.r, "expon").statistic < 0.01

    def test_forward_equals_backward_in_law(self):
        pairs = sample_equilibrium(EXP1, 100_000, seed=103)
        assert stats.ks_2samp(pairs.r, pairs.s).statistic < 0.01

    def test_determinism(self):
        same(sample_equilibrium(EXP1, 50, seed=7), sample_equilibrium(EXP1, 50, seed=7))
        same(sample_equilibrium(EXP1, 1, seed=9), sample_equilibrium(EXP1, 1, seed=9))

    @pytest.mark.parametrize("spec", ["weibull:2:1", "uniform:0.5:2"])
    def test_size_biased_law(self, spec):
        # both families draw through exact inverses (incomplete gamma for
        # the weibull, a square root for the uniform); the oracle integrates
        dist = parse_distribution(spec)
        pairs = sample_equilibrium(dist, 50_000, seed=104)
        q = pairs.q
        mu = dist.mean()

        def lb_cdf(x):
            val, _ = integrate.quad(lambda u: u * float(dist.pdf(u)) / mu, 0.0, x)
            return val

        grid = np.linspace(1e-6, float(dist.ppf(1 - 1e-9)), 400)
        cdf_vals = np.array([lb_cdf(x) for x in grid])
        assert stats.kstest(q, lambda x: np.interp(x, grid, cdf_vals)).statistic < 0.01

    def test_equilibrium_recurrence_law(self):
        # the exact incomplete-gamma inverse for a continuous family and the
        # exact piecewise linear inverse for a discrete one, against a
        # trapezoid oracle
        for spec, seed in (("weibull:2:1", 106), ("atoms:1=0.4,2.5=0.6", 107)):
            dist = parse_distribution(spec)
            draws = dist.sample_equilibrium_recurrence(
                np.random.default_rng(seed), 50_000
            )
            mu = dist.mean()
            grid = np.linspace(0.0, float(dist.support_upper()), 3000)
            surv = np.asarray(dist.survival(grid), dtype=float)
            cdf_vals = integrate.cumulative_trapezoid(surv / mu, grid, initial=0.0)
            stat = stats.kstest(draws, lambda x: np.interp(x, grid, cdf_vals)).statistic
            assert stat < 0.01, spec

    def test_discrete_gaps(self):
        dist = parse_distribution("atoms:1=0.5,3=0.5")
        pairs = sample_equilibrium(dist, 20_000, seed=105)
        q = pairs.q
        assert set(np.unique(q)) == {1.0, 3.0}
        # size-biased masses 1*0.5 : 3*0.5 -> 0.25, 0.75
        frac3 = np.mean(q == 3.0)
        assert abs(frac3 - 0.75) < 3 * math.sqrt(0.75 * 0.25 / q.size)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sample_equilibrium(EXP1, 0, seed=1)


def equilibrium_cdf(dist, x):
    return 1.0 - dist.integrated_survival(x) / dist.mean()


def size_biased_cdf(dist, x):
    if isinstance(dist, UniformInterval):
        return (x**2 - dist.a**2) / (dist.b**2 - dist.a**2)
    return special.gammainc(1.0 + 1.0 / dist.shape, (x / dist.scale) ** dist.shape)


class TestExactInverse:
    """Each inverse-cdf sampler maps the i-th uniform of its generator to a
    draw whose cdf is that uniform, and takes no other randomness."""

    @pytest.mark.parametrize("method,spec", [
        *(("sample_equilibrium_recurrence", spec) for spec in (
            "weibull:2:1", "weibull:0.7:1.3", "uniform:0:1", "uniform:0.5:2",
            "atoms:0.5=0.3,1=0.2,2.5=0.5",
        )),
        *(("sample_length_biased", spec) for spec in (
            "weibull:2:1", "weibull:0.7:1.3", "uniform:0:1", "uniform:0.5:2",
        )),
    ])
    def test_cdf_of_each_draw_is_its_uniform(self, method, spec):
        dist = parse_distribution(spec)
        rng, twin = np.random.default_rng(61), np.random.default_rng(61)
        draws = getattr(dist, method)(rng, 2000)
        u = twin.uniform(size=2000)
        if method == "sample_length_biased":
            got = size_biased_cdf(dist, draws)
        else:
            got = np.array([equilibrium_cdf(dist, x) for x in draws.tolist()])
        assert np.max(np.abs(got - u)) < 1e-12
        assert rng.bit_generator.state == twin.bit_generator.state


class TestRightCensoring:
    def test_noop_with_huge_bound(self):
        pairs = sample_equilibrium(EXP1, 200, seed=11)
        out = apply_right_censoring(pairs, parse_distribution("atoms:1e9=1"), seed=1)
        same(out, pairs)

    def test_min_rule(self):
        out = apply_right_censoring(
            Pairs([1.0], [2.0], [False]), parse_distribution("atoms:1.5=1"), seed=1
        )
        same(out, Pairs([1.0], [1.5], [True]))

    def test_censored_fraction(self):
        # independent exp(1) censoring of an exp(1) forward time: P(C < S) = 1/2
        n = 100_000
        pairs = sample_equilibrium(EXP1, n, seed=12)
        out = apply_right_censoring(pairs, EXP1, seed=13)
        frac = np.mean(out.censored)
        assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / n)

    def test_rejects_already_censored(self):
        with pytest.raises(EstimationError):
            apply_right_censoring(Pairs([1.0], [1.0], [True]), EXP1, seed=1)

    @given(st.integers(0, 2**32), LAWS, st.lists(st.integers(1, 12), min_size=1, max_size=30))
    def test_equals_the_per_pair_loop(self, seed, law, quarters):
        # forward times on the quarter lattice tie with the discrete law's atoms
        s = np.array(quarters) / 4.0
        pairs = Pairs(np.full(s.size, 0.25), s, np.zeros(s.size, dtype=bool))
        cens = parse_distribution(law)
        want = censor_by_loop(pairs, cens.sample(derived_rng(seed), s.size))
        same(apply_right_censoring(pairs, cens, seed), want)


class TestWindowSampling:
    def test_empty_window_frequency(self):
        n = 20_000
        reps = sample_window_replicates(EXP1, 0.0, 1.0, n, seed=21)
        freq = np.mean([rep.kind[0] == "empty" for rep in reps])
        p = math.exp(-1.0)
        assert abs(freq - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_renewal_count_matches_rate(self):
        # renewals in a window of length 10 at rate 1: complete + censored
        # records count them; for exponential gaps the count is Poisson(10)
        n = 10_000
        reps = sample_window_replicates(EXP1, 0.0, 10.0, n, seed=22)
        counts = np.array([np.isin(rep.kind, ("complete", "censored")).sum() for rep in reps])
        assert abs(counts.mean() - 10.0) < 3 * math.sqrt(10.0 / n)

    def test_gap_larger_than_window_never_complete(self):
        dist = parse_distribution("atoms:5=1")
        reps = sample_window_replicates(dist, 0.0, 1.0, 500, seed=23)
        assert "complete" not in WindowRecords.concat(reps).kind

    def test_record_structure(self):
        reps = sample_window_replicates(EXP1, 2.0, 5.0, 300, seed=24)
        for rep in reps:
            if rep.kind[0] == "empty":
                assert len(rep) == 1
                assert rep.value[0] == 3.0
            else:
                assert rep.kind[0] == "forward"
                assert rep.kind[-1] == "censored"
                assert np.all(rep.kind[1:-1] == "complete")
                assert rep.value.sum() == pytest.approx(3.0, abs=1e-9)

    def test_determinism_and_preconditions(self):
        same(*(sample_pooled_windows(EXP1, 0.0, 2.0, 5, seed=5)[0] for _ in range(2)))
        for sampler in (sample_window_replicates, sample_pooled_windows):
            with pytest.raises(ValueError):
                sampler(EXP1, 1.0, 1.0, 5, seed=5)
            with pytest.raises(ValueError):
                sampler(EXP1, 0.0, 1.0, 0, seed=5)

    # The sampler against the path loop, in law. Seeds, laws and sizes were
    # fixed before the first run. Each check is at level 1e-3.
    LAW_LEVEL = 1e-3

    @pytest.mark.parametrize("law, seed", [
        ("exp:1", 701), ("weibull:0.7:1.3", 702), ("uniform:0.2:1.5", 703),
    ])
    def test_law_matches_the_path_loop(self, law, seed):
        dist, w, n = parse_distribution(law), 3.0, 2_000
        got, _ = sample_pooled_windows(dist, 0.0, w, n, seed)
        ref = WindowRecords.concat([windows_by_loop(dist, w, derived_rng(seed + 1000, k))
                                    for k in range(n)])
        # An empty window needs a first renewal past w = 3, which
        # uniform:0.2:1.5 never has: that cell is empty by construction on
        # both sides and is dropped.
        kinds = [k for k in ("complete", "censored", "forward", "empty") if (ref.kind == k).any()]
        assert set(got.kind) <= set(kinds)
        if law == "uniform:0.2:1.5":
            assert kinds == ["complete", "censored", "forward"]
        table = [[int((recs.kind == k).sum()) for k in kinds] for recs in (got, ref)]
        assert stats.chi2_contingency(table).pvalue > self.LAW_LEVEL
        for k in kinds:
            a, b = got.value[got.kind == k], ref.value[ref.kind == k]
            assert stats.ks_2samp(a, b).pvalue > self.LAW_LEVEL, k

    # uniform:0.01:0.05 needs tens of rounds of gaps to fill a window.
    @given(
        st.integers(0, 2**32), st.one_of(LAWS, st.just("uniform:0.01:0.05")),
        st.floats(-2.0, 2.0), st.floats(0.05, 6.0), st.integers(1, 6),
    )
    def test_pooled_output_properties(self, seed, law, t1, width, n_windows):
        dist = parse_distribution(law)
        t2 = t1 + width
        w = t2 - t1  # the window length the sampler sees
        pooled, ends = sample_pooled_windows(dist, t1, t2, n_windows, seed)
        assert ends.size == n_windows and ends[-1] == len(pooled)
        assert np.all(np.diff(ends, prepend=0) >= 0)
        got = sample_window_replicates(dist, t1, t2, n_windows, seed)
        assert [len(recs) for recs in got] == np.diff(ends, prepend=0).tolist()
        for recs in got:
            if recs.kind[0] == "empty":
                same(recs, WindowRecords(["empty"], [w]))
                continue
            assert recs.kind[0] == "forward" and recs.kind[-1] == "censored"
            assert np.all(recs.kind[1:-1] == "complete") and len(recs) >= 2
            assert abs(recs.value.sum() - w) <= 1e-9 * w
        same(pooled, WindowRecords.concat(got))
        same(pooled, sample_pooled_windows(dist, t1, t2, n_windows, seed)[0])

    def test_stationarity_forward_from_interior_point(self):
        # with gaps in [0.2, 1] every window of length 3 contains a renewal
        # after t* = 1, so the forward time from t* is reconstructible and
        # must again follow the equilibrium recurrence law
        dist = UniformInterval(0.2, 1.0)
        n = 100_000
        t_star = 1.0
        reps = sample_window_replicates(dist, 0.0, 3.0, n, seed=25)
        fwd = np.empty(n)
        for i, rep in enumerate(reps):
            assert rep.kind[0] == "forward"
            pos = rep.value[0]
            renewals = [pos]
            for value in rep.value[1:-1]:
                pos += value
                renewals.append(pos)
            after = [u for u in renewals if u > t_star]
            fwd[i] = min(after) - t_star

        mu = dist.mean()
        grid = np.linspace(0.0, 1.0, 2001)
        surv = np.asarray(dist.survival(grid), dtype=float)
        cdf_vals = integrate.cumulative_trapezoid(surv / mu, grid, initial=0.0)
        assert stats.kstest(fwd, lambda x: np.interp(x, grid, cdf_vals)).statistic < 0.01


class TestSegmentSampling:
    def test_observed_count_mean(self):
        # expected observed count is rate * (window + mean lifetime)
        n = 2_000
        reps = sample_segment_replicates(2.0, EXP1, 0.0, 3.0, n, seed=31)
        counts = np.array([len(r) for r in reps])
        assert abs(counts.mean() - 8.0) < 3 * math.sqrt(8.0 / n)

    def test_count_is_poisson(self):
        n = 10_000
        reps = sample_segment_replicates(2.0, EXP1, 0.0, 3.0, n, seed=32)
        counts = np.array([len(r) for r in reps])
        assert abs(counts.var() / counts.mean() - 1.0) < 0.05

    def test_long_lifetime_never_proper_complete(self):
        dist = parse_distribution("atoms:5=1")
        reps = sample_segment_replicates(1.0, dist, 0.0, 1.0, 300, seed=33)
        assert "pc" not in Segments.concat(reps).kind

    def test_geometry_invariants(self):
        w = 2.0
        reps = sample_segment_replicates(3.0, EXP1, 1.0, 3.0, 400, seed=34)
        segs = Segments.concat(reps)
        assert np.all(segs.length > 0)
        rx = segs.kind == "rx"
        assert np.all(segs.length[rx] == w)
        assert np.all(segs.length[~rx] <= w + 1e-12)
        segs.check_window(w)

    def test_proper_complete_length_law(self):
        # a complete proper lifetime of length x needs its birth in a
        # sub-window of length (w - x)+, so pooled pc lengths follow the
        # density proportional to f(x) (w - x)+
        w = 2.0
        reps = sample_segment_replicates(100.0, EXP1, 0.0, w, 400, seed=35)
        segs = Segments.concat(reps)
        pc = segs.length[segs.kind == "pc"]
        assert pc.size > 20_000
        grid = np.linspace(0.0, w, 2001)
        dens = np.asarray(EXP1.pdf(grid)) * (w - grid)
        cdf_vals = integrate.cumulative_trapezoid(dens, grid, initial=0.0)
        cdf_vals /= cdf_vals[-1]
        assert stats.kstest(pc, lambda x: np.interp(x, grid, cdf_vals)).statistic < 0.015

    def test_determinism_and_preconditions(self):
        same(*(sample_pooled_segments(2.0, EXP1, 0.0, 3.0, 5, seed=36)[0] for _ in range(2)))
        for sampler in (sample_segment_replicates, sample_pooled_segments):
            for rate in (0.0, -1.0, math.nan, math.inf):
                message = f"birth_rate must be finite and positive, got {rate}"
                with pytest.raises(ValueError, match=message):
                    sampler(rate, EXP1, 0.0, 3.0, 1, seed=1)
            with pytest.raises(ValueError):
                sampler(1.0, EXP1, 3.0, 3.0, 1, seed=1)
            with pytest.raises(ValueError):
                sampler(1.0, EXP1, 0.0, 3.0, 0, seed=1)

    # The sampler against the per-birth loop, in law. Seeds, laws and sizes
    # were fixed before the first run. Each check is at level 1e-3.
    LAW_LEVEL = 1e-3

    @pytest.mark.parametrize("law, seed", [
        ("exp:1", 601), ("weibull:0.7:1.3", 602), ("uniform:0.2:1.5", 603),
    ])
    def test_law_matches_the_per_birth_loop(self, law, seed):
        dist, w, n = parse_distribution(law), 3.0, 2_000
        got, _ = sample_pooled_segments(2.0, dist, 0.0, w, n, seed)
        ref = Segments.concat([segments_by_loop(2.0, dist, w, derived_rng(seed + 1000, k))
                               for k in range(n)])
        # rx needs a lifetime above w = 3, which uniform:0.2:1.5 never has:
        # that cell is empty by construction on both sides and is dropped.
        kinds = [k for k in ("pc", "px", "rc", "rx") if (ref.kind == k).any()]
        assert set(got.kind) <= set(kinds)
        if law == "uniform:0.2:1.5":
            assert kinds == ["pc", "px", "rc"]
        table = [[int((segs.kind == k).sum()) for k in kinds] for segs in (got, ref)]
        assert stats.chi2_contingency(table).pvalue > self.LAW_LEVEL
        for k in kinds:
            a, b = got.length[got.kind == k], ref.length[ref.kind == k]
            assert stats.ks_2samp(a, b).pvalue > self.LAW_LEVEL, k

    @given(
        st.integers(0, 2**32), LAWS, st.floats(0.01, 5.0), st.floats(0.05, 6.0),
        st.integers(1, 30),
    )
    def test_order_equals_one_lexsort_of_the_draws(self, seed, law, rate, width, n_windows):
        # at low rates most windows have no births in one group or both
        dist = parse_distribution(law)
        got, ends = sample_pooled_segments(rate, dist, 1.0, 1.0 + width, n_windows, seed)
        want, want_ends = segments_by_lexsort(rate, dist, 1.0, 1.0 + width, n_windows, seed)
        same(got, want)
        assert ends.tolist() == want_ends.tolist()

    @given(
        st.integers(0, 2**32), LAWS, st.floats(0.1, 5.0), st.floats(-2.0, 2.0),
        st.floats(0.05, 6.0), st.integers(1, 6),
    )
    def test_pooled_output_properties(self, seed, law, rate, t1, width, n_windows):
        dist = parse_distribution(law)
        t2 = t1 + width
        pooled, ends = sample_pooled_segments(rate, dist, t1, t2, n_windows, seed)
        pooled.check_window(t2 - t1)
        rx = pooled.length[pooled.kind == "rx"]
        assert rx.tobytes() == np.full(rx.size, t2 - t1).tobytes()
        assert ends.size == n_windows and ends[-1] == len(pooled)
        assert np.all(np.diff(ends, prepend=0) >= 0)
        got = sample_segment_replicates(rate, dist, t1, t2, n_windows, seed)
        assert [len(segs) for segs in got] == np.diff(ends, prepend=0).tolist()
        for segs in got:
            residual = np.isin(segs.kind, ["rc", "rx"])
            assert not np.any(residual[1:] & ~residual[:-1])  # residual rows first
        same(pooled, Segments.concat(got))
        same(pooled, sample_pooled_segments(rate, dist, t1, t2, n_windows, seed)[0])


@pytest.mark.parametrize("t2", [math.nan, math.inf])
def test_window_length_must_be_finite(t2):
    # a NaN or infinite window never ends, so the path loop would not stop
    with pytest.raises(ValueError, match="finite and positive"):
        sample_window_replicates(EXP1, 0.0, t2, 3, seed=1)
    with pytest.raises(ValueError, match="finite and positive"):
        sample_pooled_windows(EXP1, 0.0, t2, 3, seed=1)
    with pytest.raises(ValueError, match="finite and positive"):
        sample_segment_replicates(1.0, EXP1, 0.0, t2, 3, seed=1)
    with pytest.raises(ValueError, match="finite and positive"):
        sample_pooled_segments(1.0, EXP1, 0.0, t2, 3, seed=1)
    with pytest.raises(ValueError, match="finite and positive"):
        Segments(["pc"], [1.0]).check_window(t2)

"""Samplers for the three observation frames.

Monte Carlo checks run against closed-form or quadrature oracles with
3-sigma (or distance) tolerances at fixed seeds.
"""

import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
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

from gapest import sampling
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
            grid = np.linspace(0.0, float(dist.ppf(1 - 1e-12)), 3000)
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

    @given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0])),
                    max_size=300))
    def test_tied_births_keep_draw_order_as_lexsort_does(self, draws):
        # the draws above never tie; a lattice with -0.0 and 0.0 makes ties
        # in every window, and over 16 rows numpy's default argsort is unstable
        window = np.array([k for k, _ in draws], dtype=np.int64)
        b = np.array([v for _, v in draws], dtype=float)
        assert sampling._birth_order(window, b).tolist() == np.lexsort((b, window)).tolist()

    def test_memory_is_linear_in_windows_and_births(self):
        # 10^5 sparse windows expect 5 * 10^4 births: about 7 MB traced, where padding
        # each window to the most births in one reads 35 MB. The bound: 12 doubles each.
        n_windows, births = 100_000, 100_000 * 0.25 * (1.0 + 1.0)
        tracemalloc.start()
        try:
            sample_pooled_segments(0.25, EXP1, 0.0, 1.0, n_windows, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * (n_windows + births)

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


def by_value_then_code(records):
    """The rows of a kind container in one canonical order: one np.lexsort of (value, code)."""
    code, value = records._columns()
    order = np.lexsort((value, code))
    return type(records)(code[order], value[order])


@given(st.integers(0, 2**32), LAWS, st.floats(0.01, 5.0), st.floats(0.05, 6.0),
       st.integers(1, 30))
def test_the_draw_cores_hold_the_rows_of_the_public_samplers(seed, law, rate, width, n_windows):
    # mc_compare reduces the cores' rows in draw order; the public samplers arrange the same rows
    dist, t2 = parse_distribution(law), 1.0 + width
    *_, code, length = sampling._segments_drawn(rate, dist, 1.0, t2, n_windows, seed)
    pooled, _ = sample_pooled_segments(rate, dist, 1.0, t2, n_windows, seed)
    same(by_value_then_code(Segments(code, length)), by_value_then_code(pooled))
    _, code, value = sampling._windows_drawn(dist, 1.0, t2, n_windows, seed)
    records, _ = sample_pooled_windows(dist, 1.0, t2, n_windows, seed)
    same(by_value_then_code(WindowRecords(code, value)), by_value_then_code(records))


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


# Valid cells of each field: any float the field's rule admits, -0.0 included.
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0)
VALID_CELLS = {
    Pairs: (NONNEGATIVE, NONNEGATIVE, st.booleans()),
    WindowRecords: (st.integers(0, 3), NONNEGATIVE),
    Segments: (st.integers(0, 3), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
}


@given(data=st.data())
def test_concat_of_items_and_containers_equals_the_joined_columns(data):
    # each run of rows goes in as one-row items, a container (maybe empty) or
    # both mixed; a list of items alone takes the one-array-per-field branch
    container = data.draw(st.sampled_from(list(VALID_CELLS)))
    n = data.draw(st.integers(0, 12))
    cols = [data.draw(st.lists(cell, min_size=n, max_size=n)) for cell in VALID_CELLS[container]]
    records = container(*cols)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=5)))
    as_items = data.draw(st.sampled_from(["all", "none", "mixed"]))
    parts = []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        if as_items == "all" or (as_items == "mixed" and data.draw(st.booleans())):
            parts += [records[i] for i in range(lo, hi)]
        else:
            parts.append(records[lo:hi])
    got = container.concat(parts)
    for col, want in zip(got._columns(), records._columns()):
        assert col.dtype == want.dtype and col.tobytes() == want.tobytes()
    for col, want in zip(container.concat([])._columns(), records[:0]._columns()):
        assert col.dtype == want.dtype and col.shape == (0,)


class TestKindCodes:
    """WindowRecords and Segments store each kind as its int8 index in
    KINDS, checked once when the container is built."""

    @given(data=st.data())
    def test_kinds_round_trip_through_items_and_concat(self, data):
        container = data.draw(st.sampled_from([WindowRecords, Segments]))
        names = container.KINDS
        codes = data.draw(st.lists(st.integers(0, len(names) - 1), max_size=12))
        want = [names[c] for c in codes]
        given_as = data.draw(st.sampled_from(["names", "int8", "int64", "uint8", "list"]))
        kind = {"names": want, "list": codes}.get(given_as)
        if kind is None:
            kind = np.array(codes, dtype=given_as)
        records = container(kind, np.arange(len(codes)) + 0.5)
        assert records.code.dtype == np.int8 and records.code.tolist() == codes
        assert records.kind.tolist() == want
        items = [records[i] for i in range(len(records))]
        assert [item.kind for item in items] == want
        assert all(type(item.kind) is str for item in items)
        assert [item.kind for item in records] == want
        for parts in (items, list(records), [records[:1], *items[1:]]):
            same(container.concat(parts), records)
        if codes:
            idx = data.draw(st.lists(st.integers(0, len(codes) - 1), max_size=8))
            assert records[np.array(idx, dtype=np.intp)].kind.tolist() == [want[i] for i in idx]

    @pytest.mark.parametrize("container, kind, message", [
        (Segments, ["pc", "zz", "PX"], "segment 1 has unknown kind 'zz'"),
        (Segments, [0, 4, 1], "segment 1 has unknown kind 4"),
        (Segments, np.array([0, 257, 1]), "segment 1 has unknown kind 257"),
        (WindowRecords, ["complete", "empty", "Empty"], "record 2 has unknown kind 'Empty'"),
        (WindowRecords, np.array([0, -1, 3], dtype=np.int8), "record 1 has unknown kind -1"),
        (WindowRecords, [0.0, 1.0, 2.0], "record 0 has unknown kind 0.0"),
    ])
    def test_unknown_kinds_fail_when_built(self, container, kind, message):
        with pytest.raises(EstimationError, match=f"^{message}$"):
            container(kind, [1.0, 1.0, 1.0])


# Per container, its float columns and whether each must be > 0 (else >= 0).
FLOAT_RULES = {Pairs: {"r": False, "s": False}, WindowRecords: {"value": False},
               Segments: {"length": True}}
# Every edge of the rules: nan, both infinities, both zeros, subnormals, the
# smallest normal and values near the largest double, and negatives.
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-310,
               2.2250738585072014e-308, 1e308, 1.7976931348623157e308, -1e308, -1.0, 1.0]
FLOATS = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from(EDGE_FLOATS) | st.floats()


def broken_rule(value, positive):
    """The words of the first rule that ``value`` breaks, or None."""
    if not math.isfinite(value):
        return "is not finite"
    if value < 0.0 or (positive and value == 0.0):
        return "is not positive" if positive else "is negative"
    return None


def expected_error(container, cols, offset=0):
    """A regex for the error that building ``container`` from ``cols``
    raises, with rows numbered from ``offset``, or None if it builds."""
    names = container.__match_args__
    if container is not Pairs:
        unknown = [k for k, v in enumerate(cols[0]) if v not in container.KINDS]
        if unknown:
            return f"^{container.ROW} {offset + unknown[0]} has unknown kind "
    if len({len(col) for col in cols}) > 1:
        return r"^columns .* differ in length: \["
    for name, col in zip(names, cols):
        if name not in FLOAT_RULES[container]:
            continue
        for k, value in enumerate(col):
            broken = broken_rule(value, FLOAT_RULES[container][name])
            if broken is None:
                continue
            if container is Segments:
                return rf"^segment {offset + k} \({cols[0][k]} \S+\) {broken}$"
            return rf"^{name} \S+ at index {offset + k} {broken}$"
    return None


def assert_in_range(records):
    for name, positive in FLOAT_RULES[type(records)].items():
        col = np.asarray(getattr(records, name))
        assert np.all(np.isfinite(col))
        assert np.all(col > 0.0) if positive else np.all(col >= 0.0)


class TestValueRules:
    """Pairs hold r and s finite and >= 0, WindowRecords values finite and
    >= 0, Segments lengths finite and > 0, all columns of one length: a
    build, a slice, an item or a concat either holds only such values or
    fails, naming the first bad row."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_every_build_holds_values_in_range_or_names_the_first_bad_row(self, data):
        container = data.draw(st.sampled_from([Pairs, WindowRecords, Segments]))
        n = data.draw(st.integers(0, 6))
        fields = len(container.__match_args__)
        sizes = [n] * fields  # now and then, columns of unequal length
        if data.draw(st.integers(0, 7)) == 0:
            sizes = data.draw(st.lists(st.integers(0, 6), min_size=fields, max_size=fields))
        cells = {"censored": st.booleans(), "r": FLOATS, "s": FLOATS, "value": FLOATS,
                 "length": FLOATS}
        if container is not Pairs:
            cells["code"] = st.sampled_from(container.KINDS)
        cols = [data.draw(st.lists(cells[name], min_size=size, max_size=size))
                for name, size in zip(container.__match_args__, sizes)]
        if container is not Pairs and cols[0] and data.draw(st.integers(0, 7)) == 0:
            cols[0][data.draw(st.integers(0, len(cols[0]) - 1))] = "zz"  # an unknown kind
        # the same rows after a valid prefix, joined by concat
        row = {Pairs: (1.0, 2.0, True), WindowRecords: ("empty", 3.0), Segments: ("rx", 3.0)}
        m = data.draw(st.integers(0, 3))
        prefix = container(*([value] * m for value in row[container]))
        raw = SimpleNamespace(**dict(zip(container.__match_args__, cols)))
        if container is not Pairs:  # concat joins codes, so the raw kinds go in as codes
            raw.code = np.array([container.KINDS.index(v) if v in container.KINDS else 9
                                 for v in cols[0]], dtype=np.int8)
        for build, offset in ((lambda: container(*cols), 0),
                              (lambda: container.concat([prefix, raw]), len(prefix))):
            want = expected_error(container, cols, offset)
            if want is None:
                records = build()
                rows = sizes[0] + offset
                assert len(records) == rows
                idx = np.array(data.draw(st.lists(st.integers(0, rows - 1), max_size=4))
                               if rows else [], dtype=np.intp)
                for part in (records, records[offset:], records[idx], *records):
                    assert_in_range(part)
            else:
                with pytest.raises(EstimationError, match=want):
                    build()

    @pytest.mark.parametrize("build, message", [
        (lambda: Pairs([1.0, 2.0], [1.0], [False, False]),
         "columns r, s, censored differ in length: [2, 1, 2]"),
        (lambda: Segments(["pc", "pc", "px"], [1.0]), "columns code, length differ in length: [3, 1]"),
        (lambda: WindowRecords(["complete"], [1.0, 2.0, 3.0]),
         "columns code, value differ in length: [1, 3]"),
        (lambda: Pairs(1.0, [2.0], False),
         "columns r, s, censored differ in length: ['scalar', 1, 'scalar']"),
    ])
    def test_columns_of_unequal_length_fail_when_built(self, build, message):
        with pytest.raises(EstimationError, match=f"^{re.escape(message)}$"):
            build()


def test_window_sampler_refuses_more_renewals_than_its_bound(monkeypatch):
    # exp(1) gaps: 5 windows of length w expect 5 w renewals
    monkeypatch.setattr(sampling, "WINDOW_MAX_RENEWALS", 10)
    assert len(sample_pooled_windows(EXP1, 0.0, 2.0, 5, seed=1)[0]) >= 5
    message = "window length 2.5 over 5 windows expects 12.5 renewals, more than"
    for sampler in (sample_pooled_windows, sample_window_replicates):
        with pytest.raises(EstimationError, match=f"^{message}"):
            sampler(EXP1, 0.0, 2.5, 5, seed=1)


def test_segment_sampler_refuses_more_births_than_its_bound(monkeypatch):
    # exp(1) lifetimes at rate 2: 5 windows of length w expect 10 (1 + w) births
    monkeypatch.setattr(sampling, "SEGMENT_MAX_BIRTHS", 30)
    assert len(sample_pooled_segments(2.0, EXP1, 0.0, 2.0, 5, seed=1)[0]) >= 1
    message = "window length 2.5 over 5 windows expects 35 births, more than SEGMENT_MAX_BIRTHS = 30"
    for sampler in (sample_pooled_segments, sample_segment_replicates):
        with pytest.raises(EstimationError, match=f"^{message}$"):
            sampler(2.0, EXP1, 0.0, 2.5, 5, seed=1)

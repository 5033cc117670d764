"""Product-limit estimators, Greenwood variance, bootstrap bands."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapest import (
    EstimationError,
    Exponential,
    Pairs,
    Segments,
    StepSurvival,
    WindowRecords,
    apply_right_censoring,
    bootstrap_band,
    cox_vardi,
    cox_vardi_from_pairs,
    greenwood_variance,
    kaplan_meier,
    palmer_cox,
    parse_distribution,
    sample_equilibrium,
    sample_pooled_windows,
    sample_segment_replicates,
    sample_window_replicates,
    winter_foldes,
    window_product_limit,
)
from gapest.product_limit import BOOTSTRAP_MAX_RETRIES, ESTIMATORS, BootstrapBand, step_at
from gapest.sampling import SEGMENT_KINDS, WINDOW_KINDS
from gapest.seeding import derived_rng

EXP1 = Exponential(1.0)
TWO_PAIRS = Pairs([0.5, 1.0], [1.5, 2.0], [False, False])


def random_pairs(rng, n, censor_prob=0.3):
    rows = []
    for _ in range(n):
        r = float(rng.uniform(0.0, 2.0))
        s = float(rng.uniform(0.05, 3.0))
        rows.append((r, s, bool(rng.uniform() < censor_prob)))
    pairs = Pairs(*zip(*rows))
    if pairs.censored.all():
        pairs.censored[0] = False
    return pairs


def brute_step(times, values, t, before):
    out = before
    for tj, vj in zip(times, values):
        if tj <= t:
            out = vj
    return out


class TestStepAt:
    @given(st.data())
    def test_matches_brute_force_loop(self, data):
        # quarter-spaced times make ties likely; queries include the jumps
        quarters = st.integers(0, 40).map(lambda k: k / 4.0)
        times = sorted(data.draw(st.lists(quarters, max_size=25)))
        values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(times), max_size=len(times)))
        pick = st.sampled_from(times) if times else quarters
        queries = data.draw(st.lists(st.one_of(pick, st.floats(-1.0, 11.0)), min_size=1))
        got = step_at(np.array(times), np.array(values), np.array(queries), 1.0)
        want = [brute_step(times, values, t, 1.0) for t in queries]
        assert got.tolist() == want
        for t in queries:
            assert step_at(np.array(times), np.array(values), t, 1.0) == brute_step(
                times, values, t, 1.0
            )

    def test_before_value_and_nan_fill(self):
        assert step_at(np.array([1.0]), np.array([0.5]), 0.5, 1.0) == 1.0
        assert math.isnan(step_at(np.array([1.0]), np.array([0.5]), 0.5, np.nan))


class TestFromMasses:
    def test_cox_vardi_survival_ends_at_exact_zero(self):
        pairs = sample_equilibrium(parse_distribution("weibull:2:1"), 500, seed=1)
        dist = cox_vardi_from_pairs(pairs)
        est = StepSurvival.from_masses(dist.atoms, dist.masses, len(pairs))
        assert est.survival_values[-1] == 0.0
        assert np.all(est.survival_values >= 0.0)
        assert np.all(np.diff(est.survival_values) <= 0.0)
        assert np.allclose(est.survival_values, 1.0 - np.cumsum(dist.masses), rtol=0, atol=1e-12)

    def test_tail_sums_by_hand(self):
        est = StepSurvival.from_masses([1.0, 2.0, 4.0], [0.5, 0.25, 0.25], 3)
        assert est.survival_values.tolist() == [0.5, 0.25, 0.0]
        assert est.n_input == 3


class TestRiskSet:
    # the risk set R(t) = {i : r_i < t <= r_i + s_i}, read off winter_foldes

    def test_hand_counts(self):
        # both pairs cover t = 2, only the second covers t = 3
        est = winter_foldes(TWO_PAIRS)
        counts = dict(zip(est.jump_times.tolist(), est.risk_counts.tolist()))
        assert counts[2.0] == 2
        assert counts[3.0] == 1

    def test_riskset_grid(self):
        est = winter_foldes(TWO_PAIRS)
        assert list(est.jump_times) == [2.0, 3.0]
        assert list(est.risk_counts) == [2, 1]


class TestWinterFoldes:
    def test_single_pair(self):
        est = winter_foldes(Pairs([1.0], [1.0], [False]))
        assert list(est.jump_times) == [2.0]
        assert list(est.survival_values) == [0.0]

    def test_two_pairs_hand_product(self):
        est = winter_foldes(TWO_PAIRS)
        # factors (1 - 1/2) at q=2 and (1 - 1/1) at q=3
        assert np.allclose(est.jump_times, [2.0, 3.0])
        assert np.allclose(est.survival_values, [0.5, 0.0])
        assert est.survival_at(2.5) == 0.5

    def test_censored_pair_feeds_risk_only(self):
        est = winter_foldes(Pairs([0.5, 1.0], [1.5, 2.0], [False, True]))
        assert np.allclose(est.jump_times, [2.0])
        assert np.allclose(est.survival_values, [0.5])
        assert est.survival_at(10.0) == 0.5
        assert est.tail_censored

    def test_errors(self):
        with pytest.raises(EstimationError):
            winter_foldes(Pairs([], [], []))
        with pytest.raises(EstimationError):
            winter_foldes(Pairs([1.0], [1.0], [True]))

    def test_equals_delayed_entry_km(self):
        rng = derived_rng(12345)
        for _ in range(200):
            pairs = random_pairs(rng, int(rng.integers(1, 60)))
            a = winter_foldes(pairs)
            b = kaplan_meier(pairs.r + pairs.s, pairs.censored, pairs.r)
            assert np.array_equal(a.jump_times, b.jump_times)
            assert np.array_equal(a.survival_values, b.survival_values)

    def test_reduces_to_empirical_when_no_truncation_bites(self):
        # entries all below the smallest event, nothing censored
        rng = derived_rng(99)
        q = rng.uniform(5.0, 9.0, size=40)
        pairs = Pairs(np.full(q.size, 0.5), q - 0.5, np.zeros(q.size, dtype=bool))
        est = winter_foldes(pairs)
        assert np.array_equal(est.jump_times, np.sort(q))
        assert np.allclose(est.survival_values, 1.0 - np.arange(1, 41) / 40.0)


class TestKaplanMeier:
    def test_uncensored_is_empirical(self):
        est = kaplan_meier([1.0, 2.0, 3.0])
        assert np.allclose(est.survival_values, [2 / 3, 1 / 3, 0.0])

    def test_censoring_hand_product(self):
        est = kaplan_meier([1.0, 2.0, 3.0], [False, True, False])
        assert np.allclose(est.jump_times, [1.0, 3.0])
        assert np.allclose(est.survival_values, [2 / 3, 0.0])

    def test_tied_events_single_factor(self):
        est = kaplan_meier([2.0, 2.0, 3.0])
        assert np.allclose(est.jump_times, [2.0, 3.0])
        assert np.allclose(est.survival_values, [1 / 3, 0.0])

    def test_censoring_tied_with_event_stays_at_risk(self):
        est = kaplan_meier([2.0, 2.0], [False, True])
        assert np.allclose(est.survival_values, [0.5])

    def test_entry_tied_with_event_is_not_yet_at_risk(self):
        # at risk on (entry, exit]: the second subject enters at 1.0
        est = kaplan_meier([1.0, 2.0], entry_times=[0.0, 1.0])
        assert est.risk_counts.tolist() == [1, 1]
        assert est.survival_values.tolist() == [0.0, 0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            kaplan_meier([1.0, 2.0], entry_times=[0.5, 2.0])
        with pytest.raises(ValueError):
            kaplan_meier([0.0, 1.0])
        with pytest.raises(EstimationError):
            kaplan_meier([])

    def test_step_convention(self):
        est = kaplan_meier([1.0, 2.0])
        assert est.survival_at(0.5) == 1.0
        assert est.survival_at(1.0) == 0.5  # value at a jump is the post-jump value
        assert est.cdf_at(1.0) == 0.5

    @given(
        st.lists(
            st.tuples(st.floats(0.01, 100.0), st.booleans(), st.floats(0.0, 0.99)),
            min_size=1,
            max_size=60,
        ).filter(lambda rows: not all(c for _, c, _ in rows))
    )
    def test_property_monotone_in_unit_interval(self, rows):
        times = np.array([t for t, _, _ in rows])
        censored = np.array([c for _, c, _ in rows])
        entries = np.array([u * t for t, _, u in rows])
        for entry_times in (None, entries):
            s = kaplan_meier(times, censored, entry_times).survival_values
            assert np.all((s >= 0.0) & (s <= 1.0))
            assert np.all(np.diff(s) <= 0.0)

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(1, 12).map(lambda k: k / 4.0), st.floats(0.01, 10.0)),
                st.booleans(),
                st.floats(0.0, 0.99),
                st.integers(0, 4),
            ),
            min_size=1,
            max_size=40,
        ).filter(lambda rows: any(not c and k > 0 for _, c, _, k in rows))
    )
    def test_property_weights_equal_the_expanded_rows(self, rows):
        times, censored, frac, weights = (np.array(col) for col in zip(*rows))
        for entry in (None, frac * times):
            got = kaplan_meier(times, censored, entry, weights)
            want = kaplan_meier(
                np.repeat(times, weights),
                np.repeat(censored, weights),
                None if entry is None else np.repeat(entry, weights),
            )
            for field in ("jump_times", "survival_values", "event_counts", "risk_counts"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
            assert (got.n_input, got.tail_censored) == (want.n_input, want.tail_censored)

    @given(
        st.lists(
            st.tuples(st.integers(1, 8).map(lambda k: k / 4.0), st.booleans(), st.integers(0, 4)),
            min_size=1,
            max_size=40,
        ).filter(lambda rows: any(not c and k > 0 for _, c, k in rows))
    )
    def test_counts_without_entry_equal_a_loop_over_the_event_times(self, rows):
        # the quarter grid ties events with events and with censorings
        times, censored, weights = (np.array(col) for col in zip(*rows))
        event_times = sorted({t for t, c, k in rows if not c and k > 0})
        d = [sum(k for s, c, k in rows if s == t and not c) for t in event_times]
        y = [sum(k for s, _, k in rows if s >= t) for t in event_times]
        survival = np.cumprod(1.0 - np.array(d) / np.array(y))
        for entry in (None, np.zeros(times.size)):
            got = kaplan_meier(times, censored, entry, weights)
            assert got.jump_times.tolist() == event_times
            assert got.event_counts.tolist() == d and got.risk_counts.tolist() == y
            assert got.survival_values.tobytes() == survival.tobytes()

    def test_weights_must_be_nonnegative_integers(self):
        with pytest.raises(EstimationError, match="integers"):
            kaplan_meier([1.0, 2.0], weights=[1.0, 2.0])
        with pytest.raises(ValueError, match="nonnegative"):
            kaplan_meier([1.0, 2.0], weights=[1, -1])
        with pytest.raises(EstimationError, match="all observations are censored"):
            kaplan_meier([1.0, 2.0], [False, True], weights=[0, 3])

    def test_monotone_in_unit_interval_on_random_data(self):
        rng = derived_rng(777)
        for _ in range(100):
            n = int(rng.integers(1, 80))
            times = rng.uniform(0.1, 5.0, size=n)
            cens = rng.uniform(size=n) < 0.4
            entries = np.minimum(rng.uniform(0.0, 2.0, size=n), times * 0.9)
            if cens.all():
                cens[0] = False
            est = kaplan_meier(times, cens, entries)
            vals = est.survival_values
            assert np.all(vals <= 1.0 + 1e-12) and np.all(vals >= -1e-12)
            assert np.all(np.diff(vals) <= 1e-12)


class TestWindowProductLimit:
    def test_hand_example(self):
        obs = WindowRecords(["forward", "complete", "censored"], [0.3, 1.0, 0.7])
        est = window_product_limit(obs)
        assert np.allclose(est.jump_times, [1.0])
        assert np.allclose(est.survival_values, [0.0])

    def test_requires_a_complete_gap(self):
        with pytest.raises(EstimationError):
            window_product_limit(WindowRecords(["empty"], [1.0]))

    def test_without_recurrence_records_matches_km(self):
        gaps = [0.4, 1.1, 0.9]
        obs = WindowRecords(["complete"] * 3, gaps)
        est = window_product_limit(obs)
        ref = kaplan_meier(gaps)
        assert np.array_equal(est.jump_times, ref.jump_times)
        assert np.array_equal(est.survival_values, ref.survival_values)

    def test_zero_length_censored_gap_is_dropped(self):
        obs = WindowRecords(["complete", "censored"], [1.0, 0.0])
        est = window_product_limit(obs)
        assert np.allclose(est.survival_values, [0.0])


@pytest.mark.parametrize("tag", ["wpl", "palmer_cox", "em"])
def test_unknown_kind_codes_rejected(tag):
    row = ESTIMATORS[tag]
    data = (
        WindowRecords(["bogus", "complete"], [1.0, 1.0])
        if row.scheme == "window"
        else Segments(["pc", "zz", "pc"], [1.0, 1.0, 0.5])
    )
    with pytest.raises(EstimationError, match="unknown kind"):
        row.fit(data, 2.0, 0.5)


@pytest.mark.parametrize("tag", ["palmer_cox", "em"])
@pytest.mark.parametrize("kind, length", [("px", -1.0), ("rc", 0.0), ("pc", 0.0)])
def test_segment_lengths_must_be_positive(tag, kind, length):
    segs = Segments(["pc", kind, "pc", "px"], [0.625, length, 1.125, 0.3])
    message = re.escape(f"segment 1 ({kind} {length}) is not positive")
    with pytest.raises(EstimationError, match=message):
        ESTIMATORS[tag].fit(segs, 3.0, 0.25)


def _pair_with_r(x):
    return Pairs([x, 1.0], [1.0, 1.0], [False, False])


@pytest.mark.parametrize("x", [math.nan, math.inf])
@pytest.mark.parametrize("call,match", [
    (lambda x: kaplan_meier([x, 1.0]), "time (nan|inf) with entry time 0.0 at index 0"),
    (lambda x: kaplan_meier([2.0, 1.0], entry_times=[x, 0.0]), "entry time (nan|inf) at index 0"),
    (lambda x: winter_foldes(_pair_with_r(x)), "at index 0 is not finite"),
    (lambda x: window_product_limit(WindowRecords(["complete", "censored"], [1.0, x])),
     "at index 1 is not finite"),
    (lambda x: bootstrap_band(_pair_with_r(x), "winter_foldes", B=5, seed=1),
     "at index 0 is not finite"),
    (lambda x: palmer_cox(Segments(["pc", "px"], [0.5, x]), 3.0), "segment 1 .* is not finite"),
    (lambda x: palmer_cox(Segments(["pc", "rx"], [0.5, x]), 3.0), "segment 1 .* is not finite"),
    (lambda x: ESTIMATORS["em"].fit(Segments(["pc", "rc"], [0.5, x]), 3.0, 0.25),
     "segment 1 .* is not finite"),
    (lambda x: cox_vardi([x, 1.0]), "observation 0 is not finite"),
], ids=["km_time", "km_entry", "winter_foldes", "window_pl", "bootstrap", "palmer_cox_px",
        "palmer_cox_rx", "em", "cox_vardi"])
def test_non_finite_observations_rejected(call, match, x):
    with pytest.raises(ValueError, match=match):
        call(x)


@pytest.mark.parametrize("call,match", [
    (lambda: kaplan_meier([1.0, 2.0], censored=[False]), "censored flags must match"),
    (lambda: kaplan_meier([1.0, 2.0], entry_times=[0.0]), "entry times must match"),
    (lambda: kaplan_meier([1.0, 2.0], entry_times=[-0.5, 0.0]), "entry times must be nonnegative"),
    (lambda: greenwood_variance(StepSurvival.from_masses([1.0], [1.0], 1)),
     "event and risk counts are required"),
    (lambda: bootstrap_band(Pairs([], [], []), "winter_foldes", B=5, seed=1),
     "no data to resample"),
])
def test_error_paths(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestPalmerCox:
    def test_hand_example(self):
        segs = Segments(["pc", "px", "rc", "rx"], [1.0, 2.0, 1.5, 3.0])
        est = palmer_cox(segs, 3.0)
        # doubled events {1, 1} against censored {2, 1.5}: risk 4, two events
        assert np.allclose(est.jump_times, [1.0])
        assert np.allclose(est.survival_values, [0.5])
        assert est.n_input == 4

    def test_only_doubly_censored_fails(self):
        with pytest.raises(EstimationError):
            palmer_cox(Segments(["rx"], [2.0]), 2.0)

    def test_complete_longer_than_window_rejected(self):
        with pytest.raises(EstimationError):
            palmer_cox(Segments(["pc"], [2.5]), 2.0)
        # a proper censored length is w - birth, a residual complete one the death time
        for kind in ("px", "rc"):
            with pytest.raises(EstimationError, match="exceeds the window"):
                palmer_cox(Segments(["pc", kind], [1.0, 2.5]), 2.0)
            assert palmer_cox(Segments(["pc", kind], [1.0, 2.0]), 2.0).survival_values.size == 1

    def test_doubly_censored_length_must_equal_the_window(self):
        for length in (1.0, 2.5):
            with pytest.raises(EstimationError, match="must equal the window"):
                palmer_cox(Segments(["pc", "rx"], [1.0, length]), 2.0)
        assert palmer_cox(Segments(["pc", "rx"], [1.0, 2.0]), 2.0).survival_values.size == 1

    def test_doubly_censored_length_allows_rounding(self):
        # the samplers store t2 - t1: here 0.30000000000000004 for w = 0.3
        segs = Segments.concat(sample_segment_replicates(2.0, EXP1, 0.1, 0.4, 20, seed=3))
        rx = segs[segs.kind == "rx"]
        assert len(rx) >= 1 and np.all(rx.length == 0.4 - 0.1) and 0.4 - 0.1 != 0.3
        segs = Segments.concat([rx, Segments(["pc"], [0.1])])
        assert palmer_cox(segs, 0.3).jump_times.tolist() == [0.1]
        with pytest.raises(EstimationError, match="must equal the window"):
            palmer_cox(Segments(["pc", "rx"], [0.1, 0.3 + 1e-9]), 0.3)

    @given(st.data())
    def test_equals_kaplan_meier_on_the_pooled_sample(self, data):
        w = 3.0
        length = st.one_of(st.integers(1, 12).map(lambda k: k / 4.0), st.floats(0.01, w))
        # a doubly censored segment spans the whole window
        segment = st.one_of(
            st.tuples(st.sampled_from(["pc", "px", "rc"]), length), st.just(("rx", w))
        )
        rows = data.draw(st.lists(segment, max_size=30))
        times, censored = [], []
        for kind, x in rows:
            if kind == "pc":
                times += [x, x]
                censored += [False, False]
            elif kind != "rx":
                times.append(x)
                censored.append(True)
        shuffled = Segments(*zip(*data.draw(st.permutations(rows)))) if rows else Segments([], [])
        if all(censored):  # no events, or nothing usable at all
            with pytest.raises(EstimationError):
                palmer_cox(shuffled, w)
            return
        got = palmer_cox(shuffled, w)
        want = kaplan_meier(times, censored)
        for field in ("jump_times", "survival_values", "event_counts", "risk_counts"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert (got.n_input, got.tail_censored) == (want.n_input, want.tail_censored)

    @given(st.data())
    def test_time_reversal_invariance(self, data):
        w = 2.0
        length = st.one_of(st.integers(1, 8).map(lambda k: k / 4.0), st.floats(0.01, w))
        segment = st.one_of(
            st.tuples(st.sampled_from(["pc", "px", "rc"]), length), st.just(("rx", w))
        )
        rows = data.draw(st.lists(segment, min_size=1, max_size=40))
        swap = {"px": "rc", "rc": "px"}
        segs = Segments(*zip(*rows))
        flipped = Segments([swap.get(k, k) for k, _ in rows], segs.length)
        if not np.any(segs.kind == "pc"):
            for s in (segs, flipped):
                with pytest.raises(EstimationError):
                    palmer_cox(s, w)
            return
        a, b = palmer_cox(segs, w), palmer_cox(flipped, w)
        for field in ("jump_times", "survival_values", "event_counts", "risk_counts"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


class TestGreenwood:
    def test_single_event_hand_value(self):
        est = kaplan_meier([1.0, 2.0], [False, True])
        out = greenwood_variance(est)
        # S = 0.5, variance 0.25 * 1/(2*1)
        assert np.allclose(out.variance_values, [0.125])

    def test_no_events_empty_variance(self):
        empty = StepSurvival(
            jump_times=np.array([]),
            survival_values=np.array([]),
            n_input=3,
            event_counts=np.array([], dtype=int),
            risk_counts=np.array([], dtype=int),
        )
        out = greenwood_variance(empty)
        assert out.variance_values.size == 0

    def test_undefined_after_exhausted_risk(self):
        est = kaplan_meier([1.0, 2.0])
        out = greenwood_variance(est)
        assert math.isnan(out.variance_values[-1])
        assert not math.isnan(out.variance_values[0])

    def test_misaligned_counts_rejected(self):
        est = dataclasses.replace(
            kaplan_meier([1.0, 2.0]), event_counts=np.array([1]), risk_counts=np.array([2])
        )
        with pytest.raises(EstimationError):
            greenwood_variance(est)


def resample_indices(seed, n, b, retry):
    """The unit indices of retry ``retry`` of replicate ``b`` of a band over n
    units: floor(u n) for uniforms u from row b of the band's one (B, n)
    matrix on stream (seed, 0, 0) at retry 0, else from stream (seed, b,
    retry). A double takes one 64-bit PCG64 output, so row b starts b n
    outputs into the stream."""
    if retry == 0:
        rng = derived_rng(seed, 0, 0)
        rng.bit_generator.advance(b * n)
    else:
        rng = derived_rng(seed, b, retry)
    return (rng.random(n) * n).astype(np.intp)


def band_by_loop(data, estimator, B, seed, level=0.95, grid=None, window_length=None):
    """The reference band: one fit per resample, redrawing a resample the
    estimator rejects, and the band read from each fit's step function."""
    row = next(r for r in ESTIMATORS.values() if r.bootstrap_name == estimator)
    n = len(data)
    curves = []
    failures = 0
    for b in range(B):
        for retry in range(BOOTSTRAP_MAX_RETRIES):
            idx = resample_indices(seed, n, b, retry)
            try:
                est = row.fit(data[idx], window_length, None)
                break
            except EstimationError:
                continue
        else:
            raise EstimationError("every resample failed")
        curves.append((est.jump_times, est.survival_values))
        failures += retry
    if grid is None:
        grid = np.unique(np.concatenate([jumps for jumps, _ in curves]))
    grid = np.asarray(grid, dtype=float)
    values = np.empty((B, grid.size), dtype=float)
    for i, (jumps, surv) in enumerate(curves):
        values[i] = step_at(jumps, surv, grid, 1.0)
    alpha = 1.0 - level
    lower = np.quantile(values, alpha / 2.0, axis=0)
    upper = np.quantile(values, 1.0 - alpha / 2.0, axis=0)
    return BootstrapBand(grid, lower, upper, level, B, failures)


def assert_same_band(got, want):
    for field in ("times", "lower", "upper"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert (got.n_resamples, got.failures) == (want.n_resamples, want.failures)


LATTICE = st.integers(0, 12).map(lambda k: k / 4.0)
POSITIVE = st.one_of(st.integers(1, 12).map(lambda k: k / 4.0), st.floats(0.01, 3.0))


@st.composite
def band_data(draw, estimator, w=3.0):
    """Valid data for ``estimator``'s band: lattice values with ties, and
    often a single event among many censored units, so that draws fail."""
    n = draw(st.integers(1, 25))
    event = draw(st.integers(0, n - 1))
    censored = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    censored[event] = False
    if estimator == "cox_vardi":
        censored = [False] * n
    if estimator in ("winter_foldes", "cox_vardi"):
        r = draw(st.lists(LATTICE, min_size=n, max_size=n))
        s = draw(st.lists(POSITIVE, min_size=n, max_size=n))
        return Pairs(r, s, censored)
    if estimator == "window_pl":
        kinds = draw(st.lists(st.sampled_from(WINDOW_KINDS), min_size=n, max_size=n))
        kinds[event] = "complete"
        values = [
            draw(POSITIVE if k == "complete" else LATTICE) for k in kinds
        ]
        return WindowRecords(kinds, values)
    kinds = draw(st.lists(st.sampled_from(SEGMENT_KINDS), min_size=n, max_size=n))
    kinds[event] = "pc"
    lengths = [w if k == "rx" else draw(POSITIVE) for k in kinds]
    return Segments(kinds, lengths)


BAND_ESTIMATORS = ["winter_foldes", "cox_vardi", "window_pl", "palmer_cox"]


class TestBootstrapBand:
    def test_single_resample_band_is_that_estimate(self):
        pairs = sample_equilibrium(EXP1, 60, seed=5)
        grid = np.array([0.5, 1.0, 1.5])
        band = bootstrap_band(pairs, "winter_foldes", B=1, seed=42, grid=grid)
        ref = winter_foldes(pairs[resample_indices(42, len(pairs), 0, 0)])
        assert np.array_equal(band.lower, band.upper)
        assert np.allclose(band.lower, ref.survival_at(grid))

    def test_determinism(self):
        pairs = sample_equilibrium(EXP1, 80, seed=6)
        a = bootstrap_band(pairs, "winter_foldes", B=40, seed=9)
        b = bootstrap_band(pairs, "winter_foldes", B=40, seed=9)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)

    def test_failed_resamples_are_redrawn(self):
        pairs = Pairs([0.2, 0.1, 0.4], [1.0, 0.5, 0.8], [False, True, True])
        band = bootstrap_band(pairs, "winter_foldes", B=60, seed=3, grid=[1.0])
        assert band.failures > 0
        assert band.n_resamples == 60

    def test_band_orders_and_brackets(self):
        pairs = sample_equilibrium(EXP1, 300, seed=7)
        grid = np.linspace(0.2, 2.0, 10)
        band = bootstrap_band(pairs, "winter_foldes", B=200, seed=11, grid=grid)
        assert np.all(band.lower <= band.upper + 1e-12)
        est = winter_foldes(pairs).survival_at(grid)
        inside = (band.lower <= est + 0.05) & (est - 0.05 <= band.upper)
        assert inside.all()

    def test_segment_band_runs(self):
        segs = sample_segment_replicates(3.0, EXP1, 0.0, 2.0, 1, seed=8)[0]
        band = bootstrap_band(
            segs, "palmer_cox", B=25, seed=4, grid=[0.5, 1.0], window_length=2.0
        )
        assert band.lower.shape == (2,)

    @pytest.mark.parametrize("estimator", ["window_pl", "palmer_cox"])
    def test_flattened_one_row_items_give_the_same_band(self, estimator):
        # the shape the benchmark harness passes: a list of the one-row items
        # that iterating each window's container yields
        if estimator == "window_pl":
            reps = sample_window_replicates(EXP1, 0.0, 3.0, 40, seed=12)
            joined = WindowRecords.concat(reps)
        else:
            reps = sample_segment_replicates(2.0, EXP1, 0.0, 3.0, 40, seed=12)
            joined = Segments.concat(reps)
        flat = [o for rep in reps for o in rep]
        a = bootstrap_band(flat, estimator, B=30, seed=5, window_length=3.0)
        b = bootstrap_band(joined, estimator, B=30, seed=5, window_length=3.0)
        for field in ("times", "lower", "upper"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert (a.n_resamples, a.failures) == (b.n_resamples, b.failures)

    def test_iterating_segments_yields_hashable_kind_length_items(self):
        # the benchmark's EM hook counts distinct (s.kind, s.length) pairs
        segs = Segments.concat(sample_segment_replicates(2.0, EXP1, 0.0, 3.0, 20, seed=3))
        items = list(segs)
        assert len(items) == len(segs)
        assert [(s.kind, s.length) for s in items] == list(zip(segs.kind, segs.length))
        distinct = {(s.kind, s.length) for s in items}
        assert len(distinct) == len(set(zip(segs.kind.tolist(), segs.length.tolist())))
        assert all(len(s) == 1 for s in items)

    def test_cox_vardi_band_stays_in_unit_interval(self):
        pairs = sample_equilibrium(parse_distribution("weibull:2:1"), 500, seed=1)
        band = bootstrap_band(pairs, "cox_vardi", B=100, seed=1)
        assert band.lower.min() >= 0.0
        assert band.upper.max() <= 1.0

    @pytest.mark.parametrize("estimator", BAND_ESTIMATORS)
    @given(data=st.data())
    def test_equals_the_loop_reference(self, estimator, data):
        records = data.draw(band_data(estimator))
        B = data.draw(st.integers(1, 30))
        seed = data.draw(st.integers(0, 2**32 - 1))
        level = data.draw(st.sampled_from([0.5, 0.9, 0.95]))
        grid = data.draw(st.none() | st.lists(st.floats(0.0, 4.0), min_size=1, max_size=6))
        got = bootstrap_band(records, estimator, B, seed, level, grid, window_length=3.0)
        want = band_by_loop(records, estimator, B, seed, level, grid, window_length=3.0)
        assert_same_band(got, want)

    @pytest.mark.parametrize("estimator", BAND_ESTIMATORS)
    def test_equals_the_loop_reference_on_sampled_data(self, estimator):
        dist, w = parse_distribution("weibull:2:1"), 3.0
        if estimator == "winter_foldes":
            data = apply_right_censoring(
                sample_equilibrium(dist, 60, seed=1), parse_distribution("exp:4"), seed=2
            )
        elif estimator == "cox_vardi":
            data = sample_equilibrium(dist, 60, seed=1)
        elif estimator == "window_pl":
            data = WindowRecords.concat(sample_window_replicates(dist, 0.0, w, 15, seed=1))
        else:
            data = Segments.concat(sample_segment_replicates(2.0, dist, 0.0, w, 8, seed=1))
        for grid in (None, [0.25, 0.5, 1.0, 2.0]):
            got = bootstrap_band(data, estimator, B=200, seed=20101003, grid=grid, window_length=w)
            want = band_by_loop(data, estimator, B=200, seed=20101003, grid=grid, window_length=w)
            assert_same_band(got, want)

    def test_redraws_match_the_loop_reference(self, monkeypatch):
        # one event among 15 pairs: about a third of the draws have none
        pairs = sample_equilibrium(EXP1, 15, seed=4)
        pairs = Pairs(pairs.r, pairs.s, np.arange(15) > 0)
        want = band_by_loop(pairs, "winter_foldes", B=100, seed=7)
        got = bootstrap_band(pairs, "winter_foldes", B=100, seed=7)
        assert got.failures > 20
        assert_same_band(got, want)
        # chunks of 7 replicates: redraws happen in chunks that start past b = 0
        monkeypatch.setattr("gapest.product_limit.BOOTSTRAP_CHUNK_BYTES", 8 * 15 * 7)
        assert_same_band(bootstrap_band(pairs, "winter_foldes", B=100, seed=7), want)

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.integers(0, 14), st.data())
    def test_equals_the_loop_reference_at_every_chunk_size(self, B, seed, event, data):
        # one event among 15 pairs: about a third of the draws have none, so
        # redraws land mid-chunk and in the last, partial chunk
        chunk = data.draw(st.integers(1, B + 1))
        pairs = sample_equilibrium(EXP1, 15, seed=4)
        pairs = Pairs(pairs.r, pairs.s, np.arange(15) != event)
        want = band_by_loop(pairs, "winter_foldes", B, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("gapest.product_limit.BOOTSTRAP_CHUNK_BYTES", 8 * 15 * chunk)
            assert_same_band(bootstrap_band(pairs, "winter_foldes", B, seed), want)

    def test_gives_up_after_the_retry_cap(self, monkeypatch):
        # one event among 15 pairs: a single try per replicate soon draws none
        monkeypatch.setattr("gapest.product_limit.BOOTSTRAP_MAX_RETRIES", 1)
        pairs = sample_equilibrium(EXP1, 15, seed=4)
        pairs = Pairs(pairs.r, pairs.s, np.arange(15) > 0)
        with pytest.raises(EstimationError, match="no event in 1 consecutive resamples"):
            bootstrap_band(pairs, "winter_foldes", B=100, seed=7)

    def test_grid_is_subsampled_above_the_cap(self, monkeypatch):
        monkeypatch.setattr("gapest.product_limit.BOOTSTRAP_MAX_GRID", 16)
        pairs = sample_equilibrium(EXP1, 80, seed=6)
        band = bootstrap_band(pairs, "winter_foldes", B=20, seed=9)
        jumps = np.unique(np.concatenate([
            winter_foldes(pairs[resample_indices(9, 80, b, 0)]).jump_times
            for b in range(20)
        ]))
        want = np.unique(np.quantile(jumps, np.linspace(0, 1, 16)))
        assert band.times.tobytes() == want.tobytes()

    def test_empty_grid_gives_an_empty_band(self):
        pairs = sample_equilibrium(EXP1, 30, seed=2)
        for estimator in ("winter_foldes", "cox_vardi"):
            band = bootstrap_band(pairs, estimator, B=25, seed=3, grid=[])
            assert band.times.shape == band.lower.shape == band.upper.shape == (0,)
            assert_same_band(band, band_by_loop(pairs, estimator, B=25, seed=3, grid=[]))

    def test_resamples_share_no_stream_with_the_window_sampler(self, monkeypatch):
        # the same seed given to a sampler and to a band must not resample
        # with the uniforms that drew the data
        streams = {"sampler": set(), "band": set()}

        def recording(side):
            def wrapped(seed, *path):
                rng = derived_rng(seed, *path)
                state = rng.bit_generator.state["state"]
                streams[side].add((state["state"], state["inc"]))
                return rng
            return wrapped

        monkeypatch.setattr("gapest.sampling.derived_rng", recording("sampler"))
        monkeypatch.setattr("gapest.product_limit.derived_rng", recording("band"))
        records, _ = sample_pooled_windows(parse_distribution("weibull:2:1"), 0.0, 3.0, 40, 5)
        # two complete gaps among 41 records: most draws have no event and
        # are redrawn, so retry streams are taken too
        sparse = WindowRecords(
            ["complete", "complete"] + ["censored"] * 39, [0.5, 1.0] + [1.0] * 39
        )
        for data in (records, sparse):
            bootstrap_band(data, "window_pl", B=30, seed=5, window_length=3.0)
        assert len(streams["sampler"]) == 1 and len(streams["band"]) > 1
        assert streams["sampler"].isdisjoint(streams["band"])

    def test_invalid_input_fails_before_drawing(self):
        # one px length above the window: palmer_cox rejects the whole data
        segs = Segments(
            ["pc"] * 30 + ["px"] * 10 + ["rc"] * 10 + ["px"], [*np.linspace(0.1, 2.5, 50), 5.0]
        )
        with pytest.raises(EstimationError, match="exceeds the window"):
            bootstrap_band(segs, "palmer_cox", B=200, seed=1, window_length=3.0)
        # cox_vardi takes no censored pairs, even when a draw misses them
        pairs = Pairs([0.5] * 20, [1.0] * 20, [True] + [False] * 19)
        with pytest.raises(EstimationError, match="censored pairs are not supported"):
            bootstrap_band(pairs, "cox_vardi", B=50, seed=1)
        with pytest.raises(EstimationError, match="unknown kind"):
            bootstrap_band(WindowRecords(["complete", "x"], [1.0, 1.0]), "window_pl", B=5, seed=1)

    def test_bad_args(self):
        pairs = sample_equilibrium(EXP1, 10, seed=1)
        # before the fit: cox_vardi would reject the censored pair
        censored = Pairs([0.5, 1.0], [1.0, 1.0], [True, False])
        for B in (0, -3, 2.5, 3.0, True, np.float64(4.0), "5", None):
            message = re.escape(f"B must be an integer >= 1, got {B!r}")
            with pytest.raises(ValueError, match=message):
                bootstrap_band(censored, "cox_vardi", B=B, seed=1)
        with pytest.raises(ValueError):
            bootstrap_band(pairs, "winter_foldes", B=5, seed=1, level=1.5)
        with pytest.raises(EstimationError):
            bootstrap_band(pairs, "nonsense", B=2, seed=1)
        for grid, message in (([math.nan, 0.5, math.inf, -1], "0 is not finite: nan"),
                              ([0.5, math.inf], "1 is not finite: inf")):
            with pytest.raises(ValueError, match=f"grid point {message}"):
                bootstrap_band(pairs, "winter_foldes", B=5, seed=1, grid=grid)
        segs = sample_segment_replicates(3.0, EXP1, 0.0, 2.0, 1, seed=8)[0]
        with pytest.raises(EstimationError, match="window_length"):
            bootstrap_band(segs, "palmer_cox", B=2, seed=1)


class TestConsistencySanity:
    def test_sup_error_small_at_n5000(self):
        pairs = sample_equilibrium(EXP1, 5000, seed=0)
        est = winter_foldes(pairs)
        ts = np.concatenate(
            [[0.05, 2.0], est.jump_times[(est.jump_times > 0.05) & (est.jump_times <= 2.0)]]
        )
        errs = np.abs(est.survival_at(ts) - np.exp(-ts))
        prev = np.abs(
            np.concatenate(([1.0], est.survival_values))[
                np.searchsorted(est.jump_times, ts, side="left")
            ]
            - np.exp(-ts)
        )
        assert max(errs.max(), prev.max()) < 0.05

"""NPMLE operations: size-biased estimator, segment likelihoods, EM, oracle.

The EM targets the count-conditional (marginal) segment log likelihood;
closed-form checks below come from maximizing that objective by hand on
one-parameter instances:

* only complete propers {1, 1, 2} on atoms {1, 2} with w = 2: the optimum
  solves 8 - 11 p1 = 0, so masses are (8/11, 3/11), and in general the
  complete-only optimum is (count_j / n) / (w + a_j) normalized;
* {complete proper 1, doubly censored} on atoms {1, 3} with w = 2: the
  optimum solves 5 - 8 p1 = 0, so masses are (5/8, 3/8).
"""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gapest import (
    DiscreteDistribution,
    EstimationError,
    Exponential,
    Pairs,
    Segments,
    StepSurvival,
    Weibull,
    bin_segments,
    cox_vardi,
    cox_vardi_from_pairs,
    default_grid,
    laslett_em,
    sample_equilibrium,
    sample_segment_replicates,
    segment_loglik,
    segment_marginal_loglik,
    npmle,
    winter_foldes,
)
from gapest.distributions import normalised
from gapest.npmle import (
    EM_DEFAULT_MAX_ITER,
    EM_DEFAULT_TOL,
    _distinct_rows,
    laslett_em_many,
)
from gapest.sampling import sample_pooled_segments
from gapest.seeding import child_seed, derived_rng

from npmle_oracle import (
    REFERENCE_GAP, atom_weights, distinct_rows_by_lexsort, lindsay_gap, npmle_oracle,
    snap_complete_lengths, textbook_em,
)

PC, PX, RC, RX = "pc", "px", "rc", "rx"

EXP1 = Exponential(1.0)


def segments(*rows):
    """Segments from (kind, length) rows."""
    return Segments(*zip(*rows)) if rows else Segments([], [])


def problem_of(segs):
    """The (distinct rows, counts) problem that ``laslett_em`` fits."""
    lengths, k = np.unique(segs.length, return_inverse=True)
    return _distinct_rows(segs.code, k, lengths)


def assert_same_problem(got, want):
    (rows, counts), (want_rows, want_counts) = got, want
    assert rows.code.tobytes() == want_rows.code.tobytes()
    assert rows.kind.tolist() == want_rows.kind.tolist()
    assert rows.length.tobytes() == want_rows.length.tobytes()
    assert counts.dtype == want_counts.dtype and counts.tolist() == want_counts.tolist()


def pairs_of(*rows):
    """Uncensored Pairs from (r, s) rows."""
    r, s = zip(*rows)
    return Pairs(r, s, [False] * len(rows))


def random_em_instance(rng, max_atoms=3, max_segments=8):
    """Feasible random instance: every atom is hit by a complete proper
    observation, so the optimum is unique and interior-friendly."""
    d = int(rng.integers(1, max_atoms + 1))
    while True:
        atoms = np.sort(rng.uniform(0.2, 3.0, size=d))
        if d == 1 or np.min(np.diff(atoms)) > 0.05:
            break
    w = float(rng.uniform(0.5, 2.5))
    segs = [(PC, float(a)) for a in atoms]
    extra = int(rng.integers(0, max_segments - d + 1))
    for _ in range(extra):
        roll = rng.uniform()
        if roll < 0.4:
            segs.append((PC, float(atoms[rng.integers(0, d)])))
        elif roll < 0.65:
            segs.append((PX, float(rng.uniform(0.01, atoms[-1] * 0.95))))
        elif roll < 0.9:
            segs.append((RC, float(rng.uniform(0.01, atoms[-1] * 0.95))))
        elif atoms[-1] > w + 0.05:
            segs.append((RX, w))
        else:
            segs.append((PX, float(rng.uniform(0.01, atoms[-1] * 0.95))))
    return segments(*segs), w, atoms


def random_sparse_instance(rng):
    """4 to 8 atoms on a quarter lattice with complete lengths at only some
    of them, so the optimum often puts no mass on an atom."""
    d = int(rng.integers(4, 9))
    atoms = np.sort(rng.choice(np.arange(1, 25), d, replace=False) / 4.0)
    w = float(rng.uniform(0.5, 4.0))
    rows = [(PC, float(atoms[rng.integers(0, d)]))]
    for _ in range(int(rng.integers(d, 3 * d))):
        roll = rng.uniform()
        if roll < 0.35:
            rows.append((PC, float(atoms[rng.integers(0, d)])))
        elif roll < 0.9:
            rows.append(((PX, RC)[roll < 0.6], float(rng.uniform(0.01, 0.99 * atoms[-1]))))
        elif atoms[-1] > w:
            rows.append((RX, w))
    return segments(*rows), w, atoms


def loglik_by_kind(dist, segments, w):
    """Per-segment factors, one kind at a time: the reference for the
    dense kernel behind ``segment_loglik``."""
    atoms, p, mu = dist.atoms, dist.masses, dist.mean()
    total = 0.0
    for kind, length in zip(segments.kind, segments.length):
        if kind == PC:
            factor = float(p[atoms == length].sum())
        elif kind == PX:
            factor = float(p[atoms > length].sum())
        elif kind == RC:
            factor = float(p[atoms > length].sum()) / mu
        else:
            factor = float(np.dot(p, np.maximum(atoms - w, 0.0))) / mu
        if factor <= 0.0:
            return -math.inf
        total += math.log(factor)
    return total


# Binned segments whose fit takes over a hundred SQUAREM steps (w = 3), and
# their default grid, which every subset of their rows can share.
SLOW = bin_segments(
    Segments.concat(sample_segment_replicates(2.0, EXP1, 0.0, 3.0, 100, seed=31)), 0.1
)
SLOW_GRID = default_grid(SLOW, 3.0, 0.1)


@st.composite
def batches(draw):
    """The slow segments plus subsets of 1 to 60 of their rows, with the
    slow fit at any position in the batch."""
    subsets = draw(st.lists(
        st.lists(st.integers(0, len(SLOW) - 1), min_size=1, max_size=60), min_size=1, max_size=4
    ))
    batch = [SLOW[np.array(rows)] for rows in subsets]
    batch.insert(draw(st.integers(0, len(batch))), SLOW)
    return batch


@st.composite
def kernel_instances(draw):
    """Atoms on a quarter lattice, integer-weight masses with exact zeros,
    and segments whose lengths often tie with an atom or the window."""
    quarters = st.integers(1, 24).map(lambda k: k / 4.0)
    atoms = np.array(sorted(draw(st.sets(quarters, min_size=1, max_size=8))))
    weights = draw(st.lists(st.integers(0, 4), min_size=atoms.size, max_size=atoms.size))
    weights[draw(st.integers(0, atoms.size - 1))] += 1
    dist = DiscreteDistribution(atoms, normalised(np.array(weights, dtype=float)))
    w = draw(st.one_of(quarters, st.floats(0.1, 6.0)))
    length = st.one_of(st.sampled_from(atoms.tolist()), quarters, st.floats(0.01, 7.0))
    rows = draw(st.lists(st.one_of(
        st.tuples(st.just(PC), st.sampled_from(atoms.tolist())),
        st.tuples(st.sampled_from([PX, RC]), length),
        st.just((RX, w)),
    ), max_size=12))
    return dist, segments(*rows), w


@st.composite
def em_instances(draw):
    """Segments every one of which some atom can produce: pc lengths are
    atoms, px and rc lengths lie below the top atom, and rx rows appear
    only when the top atom exceeds the window."""
    quarters = st.integers(1, 24).map(lambda k: k / 4.0)
    atoms = sorted(draw(st.sets(quarters, min_size=1, max_size=6)))
    w = draw(st.one_of(quarters, st.floats(0.1, 6.0)))
    rows = [
        st.tuples(st.just(PC), st.sampled_from(atoms)),
        st.tuples(st.sampled_from([PX, RC]), st.floats(0.01, 0.99 * atoms[-1])),
    ]
    if atoms[-1] > w:
        rows.append(st.just((RX, w)))
    return segments(*draw(st.lists(st.one_of(*rows), min_size=1, max_size=12))), w, atoms


class TestCoxVardi:
    def test_two_values(self):
        dist = cox_vardi([1.0, 2.0])
        assert np.allclose(dist.atoms, [1.0, 2.0])
        assert np.allclose(dist.masses, [2 / 3, 1 / 3])
        assert float(dist.cdf(1.0)) == pytest.approx(2 / 3)
        assert float(dist.cdf(2.0)) == pytest.approx(1.0)

    def test_repeated_value_is_point_mass(self):
        dist = cox_vardi([4.0, 4.0, 4.0])
        assert np.allclose(dist.atoms, [4.0])
        assert np.allclose(dist.masses, [1.0])

    def test_multiplicity_weights(self):
        dist = cox_vardi([1.0, 1.0, 2.0])
        assert np.allclose(dist.masses, [0.8, 0.2])

    def test_errors(self):
        with pytest.raises(EstimationError):
            cox_vardi([])
        with pytest.raises(EstimationError):
            cox_vardi([1.0, -2.0])

    def test_valid_distribution_and_scale_equivariance(self):
        rng = derived_rng(5)
        for _ in range(25):
            q = rng.uniform(0.1, 5.0, size=int(rng.integers(1, 30)))
            dist = cox_vardi(q)
            assert abs(dist.masses.sum() - 1.0) < 1e-10
            assert np.all(np.diff(np.asarray(dist.cdf(np.linspace(0, 6, 50)))) >= -1e-15)
            c = float(rng.uniform(0.5, 3.0))
            scaled = cox_vardi(c * q)
            assert np.allclose(scaled.atoms, c * dist.atoms)
            assert np.allclose(scaled.masses, dist.masses)


class TestCoxVardiFromPairs:
    def test_matches_sums(self):
        pairs = pairs_of((0.4, 0.6), (1.5, 0.5))
        a = cox_vardi_from_pairs(pairs)
        b = cox_vardi([1.0, 2.0])
        assert np.array_equal(a.atoms, b.atoms)
        assert np.allclose(a.masses, b.masses)

    def test_permutation_invariance(self):
        pairs = pairs_of((0.4, 0.6), (1.5, 0.5), (0.1, 2.2))
        a = cox_vardi_from_pairs(pairs)
        b = cox_vardi_from_pairs(pairs[::-1])
        assert np.array_equal(a.atoms, b.atoms)
        assert np.allclose(a.masses, b.masses)

    def test_depends_only_on_sums(self):
        a = cox_vardi_from_pairs(pairs_of((0.25, 0.75), (1.0, 1.0)))
        b = cox_vardi_from_pairs(pairs_of((0.99, 0.01), (0.5, 1.5)))
        assert np.array_equal(a.atoms, b.atoms)
        assert np.allclose(a.masses, b.masses)

    def test_censored_rejected_with_pointer(self):
        with pytest.raises(EstimationError, match="winter_foldes"):
            cox_vardi_from_pairs(Pairs([1.0], [1.0], [True]))


class TestSegmentLoglik:
    DIST = DiscreteDistribution([1.0, 3.0], [0.5, 0.5])  # mean 2

    # 257 would wrap to the valid code 1 as int8: codes are checked before the cast
    @pytest.mark.parametrize("kind", [
        ["pc", "zz", "PX"], [0, 4, 1], [0, -1, 1], np.array([0, 257, 1]),
        np.array([0, 4, 1], dtype=np.uint8),
    ])
    def test_unknown_kinds_never_reach_an_evaluator(self, kind):
        # these evaluators used to score an unknown kind as a censored one
        dist = DiscreteDistribution([0.5, 1.5, 3.5], np.full(3, 1 / 3))
        for evaluate in (
            lambda segs: segment_loglik(dist, None, segs, 3.0),
            lambda segs: segment_marginal_loglik(dist, segs, 3.0),
            lambda segs: bin_segments(segs, 0.5),
        ):
            with pytest.raises(EstimationError, match="segment 1 has unknown kind"):
                evaluate(Segments(kind, [0.5, 1.0, 1.0]))

    def test_hand_contributions(self):
        assert segment_loglik(self.DIST, None, segments((RC, 2.0)), 5.0) == pytest.approx(
            math.log(0.25)
        )
        assert segment_loglik(self.DIST, None, segments((RX, 2.0)), 2.0) == pytest.approx(
            math.log(0.25)
        )
        assert segment_loglik(self.DIST, None, segments((PC, 1.0)), 2.0) == pytest.approx(
            math.log(0.5)
        )
        assert segment_loglik(self.DIST, None, segments((PX, 2.0)), 4.0) == pytest.approx(
            math.log(0.5)
        )

    def test_censoring_exceedance_is_strict(self):
        # a censored proper of length exactly 1 excludes the atom at 1
        assert segment_loglik(self.DIST, None, segments((PX, 1.0)), 4.0) == pytest.approx(
            math.log(0.5)
        )

    def test_zero_probability_is_minus_inf(self):
        dist = DiscreteDistribution([1.0, 3.0], [1.0, 0.0])
        assert segment_loglik(dist, None, segments((PX, 2.0)), 4.0) == -math.inf
        assert segment_loglik(self.DIST, None, segments((RX, 2.0)), 3.5) == -math.inf

    def test_uncovered_complete_length_rejected(self):
        with pytest.raises(EstimationError, match="bin"):
            segment_loglik(self.DIST, None, segments((PC, 1.5)), 2.0)

    def test_poisson_factor_against_scipy(self):
        segs = segments((PC, 1.0), (RX, 2.0), (PX, 0.5))
        w, rate = 2.0, 1.7
        base = segment_loglik(self.DIST, rate, segs, w)
        full = segment_loglik(self.DIST, rate, segs, w, include_poisson_factor=True)
        mean = rate * (w + self.DIST.mean())
        assert full - base == pytest.approx(stats.poisson.logpmf(len(segs), mean), abs=1e-10)

    def test_poisson_factor_needs_rate(self):
        with pytest.raises(ValueError):
            segment_loglik(self.DIST, None, segments((PC, 1.0)), 2.0, include_poisson_factor=True)

    @pytest.mark.parametrize("rate", [None, -1.0, math.nan])
    def test_poisson_factor_checks_the_rate_before_a_zero_factor(self, rate):
        # a zero numerator used to return -inf before the rate was looked at
        dist = DiscreteDistribution([1.0, 3.0], [1.0, 0.0])
        assert segment_loglik(dist, None, segments((PX, 2.0)), 4.0) == -math.inf
        with pytest.raises(ValueError, match="birth_rate must be finite and positive, got"):
            segment_loglik(dist, rate, segments((PX, 2.0)), 4.0, include_poisson_factor=True)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_poisson_factor_needs_a_finite_positive_rate(self, rate):
        # only <= 0 rejected would let nan and inf through to a nan log likelihood
        with pytest.raises(ValueError, match="birth_rate must be finite and positive, got"):
            segment_loglik(self.DIST, rate, segments((PC, 1.0)), 2.0, include_poisson_factor=True)

    @given(kernel_instances())
    def test_matches_the_per_kind_loop(self, instance):
        dist, segs, w = instance
        got = segment_loglik(dist, None, segs, w)
        want = loglik_by_kind(dist, segs, w)
        assert got == want == -math.inf or math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)

    def test_uncovered_complete_length_rejected_after_a_zero_factor(self):
        # every row is scored, so a zero factor earlier does not hide the bad length
        segs = segments((RX, 3.5), (PC, 1.5))
        with pytest.raises(EstimationError, match="bin"):
            segment_loglik(self.DIST, None, segs, 3.5)


class TestAtomWeights:
    @given(kernel_instances())
    def test_rows_follow_their_kind(self, instance):
        dist, segs, w = instance
        atoms = dist.atoms
        rows = atom_weights(segs, atoms, w)
        assert rows.shape == (len(segs), atoms.size)
        for kind, length, row in zip(segs.kind, segs.length, rows):
            if kind == PC:
                want = (atoms == length).astype(float)
            elif kind == RX:
                want = np.maximum(atoms - w, 0.0)
            else:
                want = (atoms > length).astype(float)
            assert np.array_equal(row, want)

    def test_impossible_rows_are_kept(self):
        # the kernel leaves all-zero rows in; the EM, the oracle and the
        # marginal likelihood reject them
        rows = atom_weights(segments((RX, 1.0), (PX, 2.0)), np.array([0.5, 1.0]), 1.0)
        assert not rows.any()


def dense_logliks(dist, segs, w):
    """``segment_loglik`` and ``segment_marginal_loglik`` from the dense
    kernel; the marginal one is None when some row is impossible."""
    weights = atom_weights(segs, dist.atoms, w)
    numer, mu = weights @ dist.masses, float(dist.atoms @ dist.masses)
    if not weights.any(axis=1).all():
        return -math.inf, None
    if np.any(numer <= 0.0):
        return -math.inf, -math.inf
    logs = float(np.sum(np.log(numer)))
    m_res = int(np.count_nonzero(segs.code >= 2))
    return logs - m_res * math.log(mu), logs - len(segs) * math.log(w + mu)


def assert_close_logliks(got, want):
    assert got == want == -math.inf or math.isclose(got, want, rel_tol=1e-13, abs_tol=1e-13)


class TestStructuredKernel:
    """The interval-sum products and both likelihoods against the dense
    (rows x atoms) reference kernel."""

    @staticmethod
    def check(segs, w, atoms, q, v, possible):
        dense = atom_weights(segs, atoms, w) / (w + atoms)
        kmul, ktmul = npmle._kernel(npmle._slots(segs, atoms, w, possible)[None], atoms, w)
        np.testing.assert_allclose(kmul(q[None])[0], dense @ q, rtol=1e-13, atol=0)
        np.testing.assert_allclose(ktmul(v[None])[0], dense.T @ v, rtol=1e-13, atol=0)

    @given(em_instances(), st.data())
    def test_possible_rows(self, instance, data):
        segs, w, atoms = instance
        atoms = np.array(atoms)
        weights = np.array(data.draw(st.lists(
            st.floats(0.0, 1.0), min_size=atoms.size, max_size=atoms.size)))
        weights[data.draw(st.integers(0, atoms.size - 1))] += 1.0
        v = np.array(data.draw(st.lists(
            st.floats(1e-3, 1e3), min_size=len(segs), max_size=len(segs))))
        dist = DiscreteDistribution(atoms, normalised(weights))
        self.check(segs, w, atoms, dist.masses, v, possible=True)
        loglik, marginal = dense_logliks(dist, segs, w)
        assert_close_logliks(segment_loglik(dist, None, segs, w), loglik)
        assert_close_logliks(segment_marginal_loglik(dist, segs, w), marginal)

    @given(kernel_instances(), st.data())
    def test_rows_that_may_be_impossible(self, instance, data):
        # impossible rows read 0; zero masses make more zero numerators
        dist, segs, w = instance
        v = np.array(data.draw(st.lists(
            st.floats(1e-3, 1e3), min_size=len(segs), max_size=len(segs))))
        self.check(segs, w, dist.atoms, dist.masses, v, possible=False)
        loglik, marginal = dense_logliks(dist, segs, w)
        assert_close_logliks(segment_loglik(dist, None, segs, w), loglik)
        if marginal is None:
            with pytest.raises(EstimationError, match="zero probability under every distribution"):
                segment_marginal_loglik(dist, segs, w)
        else:
            assert_close_logliks(segment_marginal_loglik(dist, segs, w), marginal)


class TestMarginalLoglik:
    def test_relation_to_per_segment_factors(self):
        # the marginal likelihood swaps the 1/mu normalizers of the
        # residual kinds for one 1/(w + mu) per observation
        dist = DiscreteDistribution([1.0, 3.0], [0.5, 0.5])
        segs = segments((PC, 1.0), (RC, 0.5), (RX, 2.0), (PX, 0.5))
        w = 2.0
        mu = dist.mean()
        m_residual = 2
        expected = (
            segment_loglik(dist, None, segs, w)
            + m_residual * math.log(mu)
            - len(segs) * math.log(w + mu)
        )
        assert segment_marginal_loglik(dist, segs, w) == pytest.approx(expected, abs=1e-12)

    def test_impossible_observation_raises(self):
        dist = DiscreteDistribution([1.0], [1.0])
        with pytest.raises(EstimationError, match="zero"):
            segment_marginal_loglik(dist, segments((PX, 2.0)), 1.0)


class TestBinning:
    @pytest.mark.parametrize("widths, windows", [
        ([0.1, 0.25, 0.3, 1.0 / 3.0, 0.7], [0.3, 1.0, 2.9, 3.0]),
        # over 127 atoms, so that (kind code) x (grid size) overflows int8
        ([0.01, 0.02], [2.9, 3.0]),
    ], ids=["few_atoms", "over_127_atoms"])
    @given(data=st.data())
    def test_em_problem_equals_binning_then_distinct_rows(self, widths, windows, data):
        # lengths on the bin edges k h, at w and anywhere in (0, w]; rx at w
        h = data.draw(st.sampled_from(widths))
        w = data.draw(st.sampled_from(windows))
        edge = st.integers(1, max(1, int(w / h))).map(lambda k: min(k * h, w))
        length = st.one_of(edge, st.just(w), st.floats(1e-9, w))
        row = st.one_of(st.tuples(st.sampled_from([PC, PX, RC]), length), st.just((RX, w)))
        segs = segments(*data.draw(st.lists(row, min_size=1, max_size=40)))
        grid, got = npmle.em_problem(segs, w, h)
        binned = bin_segments(segs, h)
        assert grid.tobytes() == default_grid(binned, w, h).tobytes()
        assert grid.size > 127 or h >= 0.1
        assert_same_problem(got, distinct_rows_by_lexsort(binned))

    @given(data=st.data())
    def test_em_problem_on_atoms_equals_snapping_then_distinct_rows(self, data):
        # atoms on a lattice or anywhere, lengths on, between and past them
        w = data.draw(st.sampled_from([0.5, 1.0, 3.0]))
        lattice = st.integers(1, 16).map(lambda k: k * 0.25)
        atoms = data.draw(st.lists(st.one_of(lattice, st.floats(1e-3, 5.0)), min_size=1,
                                   max_size=12))
        length = st.one_of(lattice.map(lambda a: min(a, w)), st.floats(1e-9, w))
        row = st.one_of(st.tuples(st.sampled_from([PC, PX, RC]), length), st.just((RX, w)))
        segs = segments(*data.draw(st.lists(row, min_size=1, max_size=40)))
        grid, got = npmle.em_problem(segs, w, atoms)
        want_grid = np.unique(atoms)
        assert grid.tobytes() == want_grid.tobytes()
        assert_same_problem(got, distinct_rows_by_lexsort(snap_complete_lengths(segs, want_grid)))

    @given(st.lists(
        st.tuples(st.sampled_from([PC, PX, RC, RX]),
                  st.one_of(st.sampled_from([0.25, 0.5, 1.0, 3.0]), st.floats(1e-9, 3.0))),
        max_size=60,
    ))
    def test_distinct_rows_equal_the_lexsort_reference(self, rows):
        # runs of equal lengths within and across kinds, in any order
        segs = segments(*rows)
        assert_same_problem(problem_of(segs), distinct_rows_by_lexsort(segs))

    def test_same_bin(self):
        out = bin_segments(segments((PC, 0.24), (PX, 0.26)), 0.5)
        assert out.length.tolist() == [0.25, 0.25]
        assert out.kind.tolist() == [PC, PX]

    def test_boundary_goes_down(self):
        out = bin_segments(segments((PC, 1.0)), 0.5)
        assert out.length[0] == 0.75

    def test_small_width_barely_moves_the_em(self):
        segs = segments(
            (PC, 0.30003),
            (PC, 1.10004),
            (PX, 0.70007),
            (RX, 1.5),
        )
        w = 1.5
        grid_raw = np.array([0.30003, 1.10004, 1.9])
        h = 1e-4
        binned = bin_segments(segs, h)
        grid_binned = np.array(
            [(math.ceil(a / h) - 1 + 0.5) * h for a in grid_raw]
        )
        a = laslett_em(segs, w, grid_raw, tol=1e-12)
        b = laslett_em(binned, w, grid_binned, tol=1e-12)
        assert np.max(np.abs(a.distribution.masses - b.distribution.masses)) < 1e-3
        assert np.max(np.abs(a.distribution.atoms - b.distribution.atoms)) <= h / 2

    def test_default_grid_spans_past_the_window(self):
        segs = segments((PC, 0.75), (PX, 1.25))
        grid = default_grid(segs, window_length=2.0, bin_width=0.5)
        assert grid[0] == 0.25
        assert grid[-1] >= 1.25 + 2.0 - 0.5
        assert np.allclose(np.diff(grid), 0.5)


@pytest.mark.parametrize("x", [math.nan, math.inf])
@pytest.mark.parametrize("call,match", [
    (lambda x: bin_segments(segments((PC, 0.5)), x), "bin_width must be finite and positive"),
    (lambda x: default_grid(segments((PC, 0.5)), 2.0, x), "bin_width must be finite and positive"),
    (lambda x: default_grid(segments((PC, 0.5)), x, 0.5), "window length must be finite"),
    (lambda x: laslett_em(segments((PC, 0.5)), 2.0, [0.5, x]), "grid atoms must be finite"),
    (lambda x: npmle.em_problem(segments((PC, 0.5)), 2.0, np.array([0.5, x])), "grid atoms must be finite"),
], ids=["bin_segments", "default_grid_width", "default_grid_window", "laslett_em_grid",
        "em_problem_atoms"])
def test_em_inputs_must_be_finite(call, match, x):
    with pytest.raises(EstimationError, match=match):
        call(x)


@pytest.mark.parametrize("call, span", [
    (lambda h: bin_segments(segments((PC, 0.5), (RX, 2.0)), h), "2.0"),
    (lambda h: npmle.em_problem(segments((PC, 0.5), (RX, 2.0)), 2.0, h), "2.0"),
    # the binned lengths fit, but not the window that the grid adds on top
    (lambda h: default_grid(segments((PC, 1e-10)), 2.0, h), "2.0000000001"),
])
def test_a_bin_width_too_small_to_count_its_bins_is_named(call, span):
    # 2 / 1e-318 overflows to inf: no float counts the bins
    message = f"bin_width 1e-318 cuts (0, {span}] into too many bins"
    with pytest.raises(EstimationError, match=f"^{re.escape(message)}$"):
        call(1e-318)


@pytest.mark.parametrize("call, message", [
    (lambda: bin_segments(segments((PC, 1.5e308)), 1.3e308), "segment 0 (pc inf) is not finite"),
    (lambda: npmle.em_problem(segments((PC, 1.5e308)), 1.6e308, 1.3e308),
     "bin_width 1.3e+308 cuts (0, inf] into too many bins"),
], ids=["bin_segments", "em_problem"])
def test_a_midpoint_past_the_float_range_is_refused_without_a_warning(call, message):
    # bin 1's midpoint 1.5 h overflows to inf; a RuntimeWarning fails the test
    with pytest.raises(EstimationError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, top", [
    (lambda h: default_grid(segments((PC, 0.5), (RX, 2.0)), 2.0, h), "4.0"),
    # the top atom comes from the binned lengths: the bin of 2.0 has midpoint 2 - h/2
    (lambda h: npmle.em_problem(segments((PC, 0.5), (RX, 2.0)), 2.0, h)[0], "3.875"),
], ids=["default_grid", "em_problem"])
def test_a_bin_width_making_more_atoms_than_the_bound_is_named(monkeypatch, call, top):
    # (0, 4] at widths 0.5 and 0.25: 8 and 16 atoms, against a bound of 8
    monkeypatch.setattr(npmle, "EM_MAX_ATOMS", 8)
    assert call(0.5).size == 8
    message = f"bin_width 0.25 cuts (0, {top}] into 16 bins, more than EM_MAX_ATOMS = 8"
    with pytest.raises(EstimationError, match=f"^{re.escape(message)}$"):
        call(0.25)


@pytest.mark.parametrize("segs, w, h, message", [
    # a length past the window, at a width that no float counts the bins of: the window rule
    (segments((PC, 0.5), (PX, 2.5)), 2.0, 1e-318, "segment 1 (px 2.5) exceeds the window 2.0"),
    (segments((RX, 2.5), (PC, 0.5)), 2.0, 1e-318, "segment 0 (rx 2.5) must equal the window 2.0"),
    # an empty sample: a bad window, then a bad width, then no segment, before any bin count
    (segments(), math.inf, math.nan, "window length must be finite and positive, got inf"),
    (segments(), 2.0, math.nan, "bin_width must be finite and positive, got nan"),
    (segments(), 2.0, -1.0, "bin_width must be finite and positive, got -1.0"),
    (segments(), 2.0, 1e-318, "need at least one segment"),
], ids=["past-window", "rx-off-window", "bad-window", "nan-width", "negative-width",
        "tiny-width"])
def test_em_problem_names_the_first_of_two_broken_rules(segs, w, h, message):
    # in the order of the window rules, bin_width on the largest length, "need at least
    # one segment" and EM_MAX_ATOMS, as binning and then default_grid report them
    for call in (lambda: npmle.em_problem(segs, w, h),
                 lambda: default_grid(bin_segments(segs.check_window(w), h), w, h)):
        with pytest.raises(EstimationError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("rows, w_fits, top, n_bins", [
    # the lengths alone fill 1 and 3 of 8 bins: the window makes them 8 at w_fits, more at 2
    (((PC, 0.2),), 1.875, "2.125", 9), (((PC, 0.5), (PX, 0.75)), 1.375, "2.625", 11),
])
def test_lengths_that_exceed_em_max_atoms_only_with_the_window_are_named(monkeypatch, rows,
                                                                         w_fits, top, n_bins):
    monkeypatch.setattr(npmle, "EM_MAX_ATOMS", 8)
    segs = segments(*rows)
    assert npmle.em_problem(segs, w_fits, 0.25)[0].tolist() == list(np.arange(8) * 0.25 + 0.125)
    message = f"bin_width 0.25 cuts (0, {top}] into {n_bins} bins, more than EM_MAX_ATOMS = 8"
    for call in (lambda: npmle.em_problem(segs, 2.0, 0.25),
                 lambda: default_grid(bin_segments(segs, 0.25), 2.0, 0.25)):
        with pytest.raises(EstimationError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("kind", [PC, PX, RC])
def test_a_length_whose_ratio_to_the_bin_width_underflows_is_in_the_first_bin(kind):
    # 5e-324 / 3 is 0.0, so ceil(length / h) - 1 would be bin -1
    atoms, (rows, counts) = npmle.em_problem(segments((kind, 5e-324)), 2.0, 3.0)
    assert atoms.tolist() == [1.5, 4.5]
    assert rows.kind.tolist() == [kind] and rows.length.tolist() == [1.5]
    assert counts.tolist() == [1]
    assert bin_segments(segments((kind, 5e-324)), 3.0).length.tolist() == [1.5]


@pytest.mark.parametrize("atoms", [[], [0.0, 1.0], [-1.0, 2.0]])
def test_em_problem_rejects_bad_atoms_before_snapping(atoms):
    with pytest.raises(EstimationError, match="^grid atoms must be finite and positive$"):
        npmle.em_problem(segments((PC, 0.5), (RX, 2.0)), 2.0, np.array(atoms))


@pytest.mark.parametrize("call", [
    lambda segs: laslett_em(segs, 2.0, [1.0, 3.0]),
    lambda segs: segment_loglik(DiscreteDistribution([1.0, 3.0], [0.5, 0.5]), None, segs, 2.0),
    lambda segs: segment_marginal_loglik(DiscreteDistribution([1.0, 3.0], [0.5, 0.5]), segs, 2.0),
], ids=["laslett_em", "segment_loglik", "segment_marginal_loglik"])
@pytest.mark.parametrize("lengths,message", [
    ([1.0, math.nan, -5.0], "segment 1 (rx nan) is not finite"),
    ([1.0, 2.0, -5.0], "segment 2 (rx -5.0) is not positive"),
    ([1.0, math.inf, 2.0], "segment 1 (rx inf) is not finite"),
    ([0.0, 2.0, 2.0], "segment 0 (pc 0.0) is not positive"),
])
def test_segment_fits_reject_lengths_that_are_not_finite_and_positive(call, lengths, message):
    # the first row is the reproducer that laslett_em once fitted, converged, with masses
    # [0.4545, 0.5455]; the window rules are left to em_problem and palmer_cox
    with pytest.raises(EstimationError, match=re.escape(message)):
        call(Segments(["pc", "rx", "rx"], lengths))


class TestLaslettEm:
    def test_complete_only_closed_form(self):
        segs = segments((PC, 1.0), (PC, 1.0), (PC, 2.0))
        res = laslett_em(segs, 2.0, [1.0, 2.0], tol=1e-13)
        assert np.allclose(res.distribution.masses, [8 / 11, 3 / 11], atol=1e-9)
        mu_hat = res.distribution.mean()
        assert res.birth_rate == pytest.approx(3.0 / (2.0 + mu_hat), abs=1e-12)
        assert res.converged

    def test_complete_only_any_window(self):
        # optimum masses are (count/n)/(w + atom), renormalized
        segs = segments((PC, 1.0), (PC, 1.0), (PC, 2.0))
        for w in (0.5, 2.0, 7.0):
            res = laslett_em(segs, w, [1.0, 2.0], tol=1e-13)
            raw = np.array([(2 / 3) / (w + 1.0), (1 / 3) / (w + 2.0)])
            assert np.allclose(res.distribution.masses, raw / raw.sum(), atol=1e-9)

    def test_two_atom_hand_instance(self):
        segs = segments((PC, 1.0), (RX, 2.0))
        res = laslett_em(segs, 2.0, [1.0, 3.0], tol=1e-13)
        assert np.allclose(res.distribution.masses, [5 / 8, 3 / 8], atol=1e-9)

    def test_single_atom_grid(self):
        res = laslett_em(segments((PC, 0.5), (PX, 0.2)), 1.0, [0.5], max_iter=1)
        assert np.allclose(res.distribution.masses, [1.0])

    def test_birth_rate_identity_exact(self):
        rng = derived_rng(31)
        for _ in range(20):
            segs, w, atoms = random_em_instance(rng)
            res = laslett_em(segs, w, atoms)
            assert res.birth_rate == len(segs) / (w + res.distribution.mean())

    def test_trace_monotone_and_fixed_point(self):
        rng = derived_rng(32)
        for _ in range(20):
            segs, w, atoms = random_em_instance(rng)
            res = laslett_em(segs, w, atoms, tol=1e-15)
            trace = res.loglik_trace
            assert np.all(np.diff(trace) >= -1e-10)
            # one more E+M step barely moves the masses
            p = res.distribution.masses
            weights = atom_weights(segs, res.distribution.atoms, w)
            post = weights * p
            post /= post.sum(axis=1, keepdims=True)
            q = post.sum(axis=0) / len(segs)
            p_next = q / (w + res.distribution.atoms)
            p_next /= p_next.sum()
            assert np.max(np.abs(p_next - p)) < 1e-8

    @given(em_instances())
    def test_trace_never_decreases(self, instance):
        # the slack is 1e-12 relative to the log likelihood, or absolute below 1
        segs, w, atoms = instance
        trace = laslett_em(segs, w, atoms, tol=1e-15, max_iter=500).loglik_trace
        slack = 1e-12 * np.maximum(np.abs(trace[:-1]), 1.0)
        assert np.all(np.diff(trace) >= -slack)

    @given(em_instances())
    def test_certificate_and_duality_bound(self, instance):
        # the reported gap is the gap of the returned masses, and it bounds
        # how far the fit can be below the best log likelihood on the grid
        segs, w, atoms = instance
        res = laslett_em(segs, w, atoms)
        assert res.converged
        gap = lindsay_gap(res.distribution, segs, w)
        assert gap <= EM_DEFAULT_TOL + 1e-12
        assert abs(gap - res.gradient_gap) <= 1e-12
        if len(atoms) <= 3:  # the oracle's simplex scan takes seconds above three atoms
            ll_em = segment_marginal_loglik(res.distribution, segs, w)
            ll_oracle = segment_marginal_loglik(npmle_oracle(segs, w, atoms), segs, w)
            assert ll_oracle <= ll_em + len(segs) * math.log1p(res.gradient_gap) + 1e-9

    def test_matches_textbook_em(self):
        # both fits are certified, so both are within n tol of the optimum
        rng = derived_rng(34)
        cases = [random_em_instance(rng) for _ in range(20)]
        binned = bin_segments(Segments.concat(sample_segment_replicates(
            2.0, EXP1, 0.0, 3.0, 60, seed=35)), 0.25)
        cases.append((binned, 3.0, default_grid(binned, 3.0, 0.25)))
        for segs, w, atoms in cases:
            res = laslett_em(segs, w, atoms)
            assert res.converged
            ref = textbook_em(segs, w, atoms, EM_DEFAULT_TOL)
            ll_em = segment_marginal_loglik(res.distribution, segs, w)
            ll_ref = segment_marginal_loglik(ref, segs, w)
            assert abs(ll_em - ll_ref) <= len(segs) * EM_DEFAULT_TOL

    @pytest.mark.parametrize(
        "max_iter", [0, -3, 2.5, 3.0, math.inf, True, np.float64(4.0), "5", None]
    )
    def test_max_iter_must_be_an_integer_of_at_least_one(self, max_iter):
        segs = segments((PC, 1.0))
        for call in (
            lambda: laslett_em(segs, 1.0, [1.0], max_iter=max_iter),
            lambda: laslett_em_many([problem_of(segs)], 1.0, [1.0], max_iter=max_iter),
        ):
            with pytest.raises(ValueError, match="max_iter must be an integer >= 1, got"):
                call()

    @pytest.mark.parametrize("max_iter", [1, np.int64(2), np.uint8(7)])
    def test_numpy_integer_max_iter_is_accepted(self, max_iter):
        res = laslett_em(SLOW, 3.0, SLOW_GRID, max_iter=max_iter)
        assert res.iterations == max_iter

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            laslett_em(segments((PC, 1.0)), 1.0, [1.0], tol=tol)

    def test_a_tol_below_float_resolution_stops_at_the_floor(self):
        rng = derived_rng(36)
        fits = [laslett_em(*random_em_instance(rng), tol=1e-300) for _ in range(30)]
        assert all(f.iterations < 1_000 and f.gradient_gap < 1e-12 for f in fits)
        assert any(not f.converged for f in fits)  # some end on the stall rule

    def test_max_iter_bounds_the_squarem_steps(self):
        # the trace holds the start and one entry per step, however many
        # extrapolations each step retried
        segs = bin_segments(Segments.concat(sample_segment_replicates(
            2.0, EXP1, 0.0, 3.0, 100, seed=34)), 0.1)
        grid = default_grid(segs, 3.0, 0.1)
        for max_iter in range(1, 61):
            res = laslett_em(segs, 3.0, grid, max_iter=max_iter, tol=1e-300)
            assert res.iterations == res.loglik_trace.size - 1 <= max_iter
        problems = [problem_of(s) for s in (SLOW[:40], SLOW, SLOW[::3])]
        for max_iter in (1, 2, 7, 60):
            for res in laslett_em_many(problems, 3.0, SLOW_GRID, max_iter=max_iter, tol=1e-300):
                assert res.iterations == res.loglik_trace.size - 1 <= max_iter

    def test_a_small_fit_is_the_recorded_one(self):
        # Recorded from the structured products: the arithmetic of a fit on
        # its own (products, norms, sums) must not drift, not even in the
        # last bit.
        rows = [(PC, 0.25, 9), (PC, 0.75, 4), (PX, 0.25, 11), (PX, 0.75, 3), (PX, 1.25, 2),
                (RC, 0.25, 15), (RC, 0.75, 3), (RC, 1.25, 2), (RX, 1.25, 6)]
        segs = segments(*[(kind, length) for kind, length, count in rows for _ in range(count)])
        res = laslett_em(segs, 1.5, [0.25, 0.75, 1.25, 1.75, 2.25, 2.75])
        assert res.distribution.masses.tolist() == [
            0.2529255381472152, 0.365366347675018, 9.295879601510875e-14,
            0.11809532573966329, 0.12792003449103437, 0.13569275394697627,
        ]
        assert res.loglik_trace.tolist() == [
            -99.54726434231267, -96.27926402933262, -95.79300621322491, -95.67777142703001,
            -95.67041537792663, -95.66749139945016, -95.66444998979739, -95.66373569819866,
            -95.6633253515829, -95.66330646044841, -95.66329212534905, -95.66329207661619,
            -95.66329203713602, -95.66329203665654, -95.66329203627384, -95.66329203626783,
            -95.6632920362646, -95.66329203626289,
        ]
        assert (res.birth_rate, res.gradient_gap) == (20.333483050113138, 3.010547811044262e-09)

    def test_duplicate_rows_fit_like_their_counts(self):
        # the fit sees only distinct rows and their counts, so the order of
        # the segments does not matter
        segs, w, atoms = random_em_instance(derived_rng(38))
        a = laslett_em(segs, w, atoms)
        b = laslett_em(segs[::-1], w, atoms)
        assert np.array_equal(a.distribution.masses, b.distribution.masses)
        assert a.iterations == b.iterations

    @pytest.mark.parametrize("w", [math.nan, math.inf])
    def test_window_must_be_finite(self, w):
        segs, dist = segments((PC, 1.0)), DiscreteDistribution([1.0], [1.0])
        for call in (
            lambda: laslett_em(segs, w, [1.0]),
            lambda: npmle_oracle(segs, w, [1.0]),
            lambda: segment_loglik(dist, None, segs, w),
            lambda: segment_marginal_loglik(dist, segs, w),
        ):
            with pytest.raises(ValueError, match="finite and positive"):
                call()

    def test_grid_must_cover_complete_lengths(self):
        with pytest.raises(EstimationError, match="bin"):
            laslett_em(segments((PC, 0.7)), 1.0, [0.5, 1.0])

    def test_impossible_observation_detected(self):
        # doubly censored data but no atom beyond the window
        with pytest.raises(EstimationError, match="zero"):
            laslett_em(segments((PC, 0.5), (RX, 1.0)), 1.0, [0.5, 0.8])

    def test_em_result_json_fields(self):
        res = laslett_em(segments((PC, 1.0)), 1.0, [1.0])
        payload = res.to_json_dict()
        assert set(payload) == {
            "atoms", "masses", "birth_rate", "loglik", "iterations", "converged", "gradient_gap"
        }


class TestLaslettEmMany:
    @settings(max_examples=12)
    @given(batches())
    def test_batched_fits_are_certified_and_reproducible(self, batch):
        problems = [problem_of(segs) for segs in batch]
        fits = laslett_em_many(problems, 3.0, SLOW_GRID)
        again = laslett_em_many(problems, 3.0, SLOW_GRID)
        for segs, fit, rerun in zip(batch, fits, again):
            assert fit.converged and fit.gradient_gap <= EM_DEFAULT_TOL
            assert fit.iterations <= EM_DEFAULT_MAX_ITER
            trace = fit.loglik_trace
            assert np.all(np.diff(trace) >= -1e-12 * np.maximum(np.abs(trace[:-1]), 1.0))
            # every sum of a fit runs along its own row, so the batch changes no bit
            assert trace[-1] == laslett_em(segs, 3.0, SLOW_GRID).loglik_trace[-1]
            assert np.array_equal(fit.distribution.masses, rerun.distribution.masses)
            assert np.array_equal(fit.loglik_trace, rerun.loglik_trace)
            assert (fit.birth_rate, fit.gradient_gap) == (rerun.birth_rate, rerun.gradient_gap)

    def test_equal_size_problems_fit_as_they_do_alone(self):
        # The same rows with other counts need no padding, so each product of
        # a fit in the stack is the one it gets alone, and so is the fit.
        rows, counts = problem_of(SLOW)
        rng = derived_rng(40)
        problems = [(rows, rng.integers(1, 6, counts.size)) for _ in range(6)]
        fits = laslett_em_many(problems, 3.0, SLOW_GRID)
        assert len({fit.iterations for fit in fits}) > 1
        for fit, problem in zip(fits, problems):
            alone = laslett_em_many([problem], 3.0, SLOW_GRID)[0]
            assert np.array_equal(fit.loglik_trace, alone.loglik_trace)
            assert np.array_equal(fit.distribution.masses, alone.distribution.masses)

    def test_unequal_size_problems_fit_as_they_do_alone(self):
        # Padding rows add exact zeros to every sum, so a fit in a batch of
        # problems of any sizes is bitwise the fit it gets alone.
        problems = [problem_of(s) for s in (SLOW, SLOW[:40], SLOW[::3], SLOW[1::2], SLOW[:70])]
        fits = laslett_em_many(problems, 3.0, SLOW_GRID)
        assert len({len(rows) for rows, _ in problems}) == len(problems)
        assert len({fit.iterations for fit in fits}) > 1
        for fit, problem in zip(fits, problems, strict=True):
            alone = laslett_em_many([problem], 3.0, SLOW_GRID)[0]
            assert np.array_equal(fit.loglik_trace, alone.loglik_trace)
            assert np.array_equal(fit.distribution.masses, alone.distribution.masses)
            assert (fit.birth_rate, fit.gradient_gap) == (alone.birth_rate, alone.gradient_gap)

    def test_a_large_fit_holds_no_rows_by_atoms_matrix(self):
        # 3 426 distinct rows x 2 904 atoms: the dense kernel alone is 80 MB,
        # the structured products hold O(rows + atoms).
        segs, _ = sample_pooled_segments(2.0, Weibull(2.0, 1.0), 0.0, 3.0, 20_000, seed=1)
        atoms, problem = npmle.em_problem(segs, 3.0, 0.002)
        assert (len(problem[0]), atoms.size) == (3426, 2904)
        tracemalloc.start()
        try:
            laslett_em_many([problem], 3.0, atoms, max_iter=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_a_fit_is_the_same_bytes_at_any_blas_thread_count(self):
        # OpenBLAS reads its thread count at import, so each count gets its
        # own process; they run one after the other.
        code = (
            "import hashlib; from gapest import Weibull, npmle; "
            "from gapest.sampling import sample_pooled_segments; "
            "segs, _ = sample_pooled_segments(2.0, Weibull(2.0, 1.0), 0.0, 3.0, 5000, seed=1); "
            "atoms, problem = npmle.em_problem(segs, 3.0, 0.005); "
            "fit = npmle.laslett_em_many([problem], 3.0, atoms, max_iter=3)[0]; "
            "print(len(problem[0]), atoms.size, hashlib.sha256("
            "fit.distribution.masses.tobytes() + fit.loglik_trace.tobytes()).hexdigest())"
        )
        src = str(Path(npmle.__file__).parents[1])
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            outs.append(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                       text=True, check=True).stdout.split())
        assert outs[0][:2] == ["1312", "1171"]
        assert outs[0] == outs[1]

    def test_an_empty_batch_gives_no_fits(self):
        assert laslett_em_many([], 3.0, SLOW_GRID) == []

    def test_every_problem_needs_a_segment(self):
        problems = [problem_of(SLOW), problem_of(SLOW[:0])]
        with pytest.raises(EstimationError, match="need at least one segment"):
            laslett_em_many(problems, 3.0, SLOW_GRID)


class TestOracle:
    def test_complete_only_matches_closed_form(self):
        segs = segments((PC, 0.5), (PC, 0.5), (PC, 0.5), (PC, 1.5))
        w = 1.8
        est = npmle_oracle(segs, w, [0.5, 1.5])
        raw = np.array([(3 / 4) / (w + 0.5), (1 / 4) / (w + 1.5)])
        assert np.allclose(est.masses, raw / raw.sum(), atol=1e-6)

    def test_two_atom_hand_instance(self):
        est = npmle_oracle(segments((PC, 1.0), (RX, 2.0)), 2.0, [1.0, 3.0])
        assert np.allclose(est.masses, [5 / 8, 3 / 8], atol=1e-6)

    def test_matches_em_on_random_instances(self):
        rng = derived_rng(33)
        for _ in range(15):
            segs, w, atoms = random_em_instance(rng)
            em = laslett_em(segs, w, atoms, tol=1e-12)
            oracle = npmle_oracle(segs, w, atoms)
            ll_em = segment_marginal_loglik(em.distribution, segs, w)
            ll_or = segment_marginal_loglik(oracle, segs, w)
            assert ll_or >= ll_em - 1e-6
            assert abs(ll_or - ll_em) < 1e-6
            assert np.max(np.abs(oracle.masses - em.distribution.masses)) < 1e-4

    def test_em_matches_the_textbook_em_on_four_to_eight_atoms(self):
        # The reference is certified to REFERENCE_GAP and the EM to its own gap, and a
        # gap g bounds the distance to the best log likelihood by n log1p(g): so each
        # fit is at most the other's bound below the other. Most optima leave atoms empty.
        rng = derived_rng(41)
        sizes = set()
        for _ in range(40):
            segs, w, atoms = random_sparse_instance(rng)
            sizes.add(atoms.size)
            ref = textbook_em(segs, w, atoms, REFERENCE_GAP)
            em = laslett_em(segs, w, atoms)
            assert em.converged
            n = len(segs)
            diff = segment_marginal_loglik(ref, segs, w) - segment_marginal_loglik(
                em.distribution, segs, w)
            assert -n * math.log1p(REFERENCE_GAP) - 1e-12 <= diff
            assert diff <= n * math.log1p(em.gradient_gap) + 1e-12
        assert sizes == {4, 5, 6, 7, 8}

    def test_atom_cap(self):
        segs = segments((PC, 0.5))
        with pytest.raises(EstimationError):
            npmle_oracle(segs, 1.0, np.linspace(0.5, 3.0, 7))


def sup_distance(a, b):
    """Sup distance between two survival steps over their pooled jump times."""
    points = np.union1d(a.jump_times, b.jump_times)
    return float(np.max(np.abs(a.survival_at(points) - b.survival_at(points))))


def cox_vardi_step(pairs):
    dist = cox_vardi_from_pairs(pairs)
    return StepSurvival.from_masses(dist.atoms, dist.masses)


class TestGofDiscrepancy:
    def test_mixed_types(self):
        pairs = sample_equilibrium(EXP1, 400, seed=51)
        wf = winter_foldes(pairs)
        cv = cox_vardi_step(pairs)
        d = sup_distance(wf, cv)
        assert 0.0 <= d < 0.2
        assert d == sup_distance(cv, wf)

    def test_two_consistent_estimators_agree(self):
        close = 0
        for k in range(30):
            pairs = sample_equilibrium(EXP1, 5000, child_seed(900, k))
            d = sup_distance(winter_foldes(pairs), cox_vardi_step(pairs))
            close += d < 0.05
        assert close >= 27

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
    bin_segments,
    cox_vardi,
    cox_vardi_from_pairs,
    default_grid,
    gof_discrepancy,
    laslett_em,
    sample_equilibrium,
    sample_segment_replicates,
    segment_loglik,
    segment_marginal_loglik,
    npmle,
    winter_foldes,
)
from gapest.npmle import (
    EM_DEFAULT_MAX_ITER,
    EM_DEFAULT_TOL,
    _atom_weights,
    _distinct_rows,
    laslett_em_many,
)
from gapest.seeding import child_seed, derived_rng

from npmle_oracle import npmle_oracle

PC, PX, RC, RX = "pc", "px", "rc", "rx"

EXP1 = Exponential(1.0)


def segments(*rows):
    """Segments from (kind, length) rows."""
    return Segments(*zip(*rows)) if rows else Segments([], [])


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


def loglik_by_kind(dist, segments, w):
    """Per-segment factors, one kind at a time: the reference for the
    ``_atom_weights`` kernel behind ``segment_loglik``."""
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


def lindsay_gap(dist, segs, w):
    """max_j D_j - 1 of the masses of ``dist``, recomputed on every row: the
    certificate ``laslett_em`` reports."""
    kernel = _atom_weights(segs, dist.atoms, w) / (w + dist.atoms)
    q = dist.masses * (w + dist.atoms)
    q /= q.sum()
    return float(np.max(kernel.T @ (1.0 / (kernel @ q))) / len(segs) - 1.0)


def textbook_em(segs, w, atoms, tol, max_steps=200_000):
    """Plain EM in the masses p, one E-step row per segment and no
    acceleration, run until its own Lindsay gap is at most ``tol``: the
    reference for ``laslett_em``."""
    weights = _atom_weights(segs, atoms, w)
    p = np.full(atoms.size, 1.0 / atoms.size)
    for _ in range(max_steps):
        dist = DiscreteDistribution(atoms, p)
        if lindsay_gap(dist, segs, w) <= tol:
            return dist
        post = weights * p
        post /= post.sum(axis=1, keepdims=True)
        p = post.mean(axis=0) / (w + atoms)
        p /= p.sum()
    raise AssertionError(f"textbook EM not certified after {max_steps} steps")


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
    dist = DiscreteDistribution.from_weights(atoms, weights)
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
        rows = _atom_weights(segs, atoms, w)
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
        rows = _atom_weights(segments((RX, 1.0), (PX, 2.0)), np.array([0.5, 1.0]), 1.0)
        assert not rows.any()


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
    @given(st.data())
    def test_em_problem_equals_binning_then_distinct_rows(self, data):
        # lengths on the bin edges k h, at w and anywhere in (0, w]; rx at w
        h = data.draw(st.sampled_from([0.1, 0.25, 0.3, 1.0 / 3.0, 0.7]))
        w = data.draw(st.sampled_from([0.3, 1.0, 2.9, 3.0]))
        edge = st.integers(1, max(1, int(w / h))).map(lambda k: min(k * h, w))
        length = st.one_of(edge, st.just(w), st.floats(1e-9, w))
        row = st.one_of(st.tuples(st.sampled_from([PC, PX, RC]), length), st.just((RX, w)))
        segs = segments(*data.draw(st.lists(row, min_size=1, max_size=40)))
        grid, (rows, counts) = npmle.em_problem(segs, w, h)
        binned = bin_segments(segs, h)
        want_rows, want_counts = _distinct_rows(binned)
        assert grid.tobytes() == default_grid(binned, w, h).tobytes()
        assert rows.kind.tolist() == want_rows.kind.tolist()
        assert rows.length.tobytes() == want_rows.length.tobytes()
        assert counts.dtype == want_counts.dtype and counts.tolist() == want_counts.tolist()

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
], ids=["bin_segments", "default_grid_width", "default_grid_window", "laslett_em_grid"])
def test_em_inputs_must_be_finite(call, match, x):
    with pytest.raises(EstimationError, match=match):
        call(x)


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
            weights = _atom_weights(segs, res.distribution.atoms, w)
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
            lambda: laslett_em_many([_distinct_rows(segs)], 1.0, [1.0], max_iter=max_iter),
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
        problems = [_distinct_rows(s) for s in (SLOW[:40], SLOW, SLOW[::3])]
        for max_iter in (1, 2, 7, 60):
            for res in laslett_em_many(problems, 3.0, SLOW_GRID, max_iter=max_iter, tol=1e-300):
                assert res.iterations == res.loglik_trace.size - 1 <= max_iter

    def test_a_small_fit_is_the_recorded_one(self):
        # Recorded from the one-fit loop that preceded laslett_em_many: the
        # arithmetic of a fit on its own (products, norms, sums) must not
        # drift, not even in the last bit.
        rows = [(PC, 0.25, 9), (PC, 0.75, 4), (PX, 0.25, 11), (PX, 0.75, 3), (PX, 1.25, 2),
                (RC, 0.25, 15), (RC, 0.75, 3), (RC, 1.25, 2), (RX, 1.25, 6)]
        segs = segments(*[(kind, length) for kind, length, count in rows for _ in range(count)])
        res = laslett_em(segs, 1.5, [0.25, 0.75, 1.25, 1.75, 2.25, 2.75])
        assert res.distribution.masses.tolist() == [
            0.2529255381472151, 0.36536634767501774, 9.295881089193323e-14,
            0.11809532573965982, 0.1279200344910436, 0.13569275394697086,
        ]
        assert res.loglik_trace.tolist() == [
            -99.5472643423127, -96.27926402933262, -95.7930062132249, -95.67777142703,
            -95.67041537792663, -95.66749139945004, -95.66444998979756, -95.66373569819862,
            -95.663325351583, -95.66330646044844, -95.66329212534906, -95.66329207661617,
            -95.66329203713605, -95.66329203665656, -95.66329203627382, -95.66329203626785,
            -95.66329203626461, -95.66329203626287,
        ]
        assert (res.birth_rate, res.gradient_gap) == (20.333483050113138, 3.010547144910447e-09)

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
        problems = [_distinct_rows(segs) for segs in batch]
        fits = laslett_em_many(problems, 3.0, SLOW_GRID)
        again = laslett_em_many(problems, 3.0, SLOW_GRID)
        for segs, fit, rerun in zip(batch, fits, again):
            assert fit.converged and fit.gradient_gap <= EM_DEFAULT_TOL
            assert fit.iterations <= EM_DEFAULT_MAX_ITER
            trace = fit.loglik_trace
            assert np.all(np.diff(trace) >= -1e-12 * np.maximum(np.abs(trace[:-1]), 1.0))
            # both fits are certified, so both are within n log(1 + tol) of the optimum
            solo = laslett_em(segs, 3.0, SLOW_GRID)
            assert abs(trace[-1] - solo.loglik_trace[-1]) <= len(segs) * math.log1p(EM_DEFAULT_TOL)
            assert np.array_equal(fit.distribution.masses, rerun.distribution.masses)
            assert np.array_equal(fit.loglik_trace, rerun.loglik_trace)
            assert (fit.birth_rate, fit.gradient_gap) == (rerun.birth_rate, rerun.gradient_gap)

    def test_equal_size_problems_fit_as_they_do_alone(self):
        # The same rows with other counts need no padding, so each product of
        # a fit in the stack is the one it gets alone, and so is the fit.
        rows, counts = _distinct_rows(SLOW)
        rng = derived_rng(40)
        problems = [(rows, rng.integers(1, 6, counts.size)) for _ in range(6)]
        fits = laslett_em_many(problems, 3.0, SLOW_GRID)
        assert len({fit.iterations for fit in fits}) > 1
        for fit, problem in zip(fits, problems):
            alone = laslett_em_many([problem], 3.0, SLOW_GRID)[0]
            assert np.array_equal(fit.loglik_trace, alone.loglik_trace)
            assert np.array_equal(fit.distribution.masses, alone.distribution.masses)

    def test_a_batch_is_fitted_in_chunks_of_bounded_bytes(self, monkeypatch):
        # The stack holds at most EM_CHUNK_BYTES of kernel at the batch's
        # most rows, so its size does not grow with the batch; a fit is the
        # fit of its chunk.
        problems = [_distinct_rows(s) for s in (SLOW, SLOW[:40], SLOW[::3], SLOW[1::2], SLOW[:70])]
        most = max(len(rows) for rows, _ in problems)
        monkeypatch.setattr(npmle, "EM_CHUNK_BYTES", 2 * 8 * most * SLOW_GRID.size + 7)
        sizes, stack = [], npmle._squarem_stack

        def spy(chunk, *args):
            sizes.append(len(chunk))
            return stack(chunk, *args)

        monkeypatch.setattr(npmle, "_squarem_stack", spy)
        fits = laslett_em_many(problems, 3.0, SLOW_GRID)
        assert sizes == [2, 2, 1]
        chunked = [
            fit
            for lo in (0, 2, 4)
            for fit in stack(problems[lo : lo + 2], 3.0, SLOW_GRID, EM_DEFAULT_MAX_ITER, EM_DEFAULT_TOL)
        ]
        for fit, ref in zip(fits, chunked, strict=True):
            assert np.array_equal(fit.loglik_trace, ref.loglik_trace)
            assert np.array_equal(fit.distribution.masses, ref.distribution.masses)

    def test_an_empty_batch_gives_no_fits(self):
        assert laslett_em_many([], 3.0, SLOW_GRID) == []

    def test_every_problem_needs_a_segment(self):
        problems = [_distinct_rows(SLOW), _distinct_rows(SLOW[:0])]
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

    def test_atom_cap(self):
        segs = segments((PC, 0.5))
        with pytest.raises(EstimationError):
            npmle_oracle(segs, 1.0, np.linspace(0.5, 3.0, 7))


class TestGofDiscrepancy:
    def test_identical_inputs(self):
        dist = cox_vardi([1.0, 2.0, 3.0])
        assert gof_discrepancy(dist, dist) == 0.0

    def test_point_masses_apart(self):
        a = DiscreteDistribution([1.0], [1.0])
        b = DiscreteDistribution([2.0], [1.0])
        assert gof_discrepancy(a, b) == 1.0

    def test_mixed_types(self):
        pairs = sample_equilibrium(EXP1, 400, seed=51)
        wf = winter_foldes(pairs)
        cv = cox_vardi_from_pairs(pairs)
        d = gof_discrepancy(wf, cv)
        assert 0.0 <= d < 0.2
        assert d == gof_discrepancy(cv, wf)

    def test_two_consistent_estimators_agree(self):
        close = 0
        for k in range(30):
            pairs = sample_equilibrium(EXP1, 5000, child_seed(900, k))
            d = gof_discrepancy(winter_foldes(pairs), cox_vardi_from_pairs(pairs))
            close += d < 0.05
        assert close >= 27

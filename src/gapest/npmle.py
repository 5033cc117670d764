"""Nonparametric maximum likelihood estimators.

Two NPMLEs live here. For equilibrium point sampling the covering gaps
q = r + s are size-biased draws from the gap law, and the NPMLE puts mass
proportional to 1/q on each observed q (``cox_vardi``). For line-segment
data the NPMLE over a fixed atom grid is computed by an EM iteration in
the window-biased parameterization q_j ~ p_j (w + a_j), under which an
observed segment is an iid draw: pick an atom with probability q_j, then a
birth position uniform over its w + a_j observable placements
(``laslett_em``). The EM runs on the distinct (kind, length) rows with
their counts, takes SQUAREM steps that keep the plain EM point rather
than lower the likelihood, and stops on Lindsay's gradient certificate:
max_j D_j - 1 <= tol, reported as ``gradient_gap``, or after ``max_iter``
steps.

Likelihood evaluators: ``segment_loglik`` scores a discrete distribution
with the per-kind factors mass(x), S(c+), S(x+)/mu and E(X-w)+/mu plus an
optional Poisson factor for the observed count;
``segment_marginal_loglik`` is the count-conditional log likelihood
obtained by profiling the birth intensity out of the full segment
likelihood, which is the objective the EM ascends.

Binning segment lengths onto a midpoint grid before running the EM
regularizes the estimator (``bin_segments``, ``default_grid``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, atom_lookup, normalised
from .errors import EstimationError
from .product_limit import StepSurvival
from .sampling import SEGMENT_KINDS, Pairs, Segments, _check_kinds, window_length_checked

EM_DEFAULT_TOL = 1e-8
EM_DEFAULT_MAX_ITER = 20_000
# Extrapolations a SQUAREM step tries, each halfway back towards the plain
# EM point, before it keeps that point.
SQUAREM_TRIES = 3


@dataclass
class EmResult:
    """Output of the segment EM: the fitted distribution plus diagnostics."""

    distribution: DiscreteDistribution
    birth_rate: float
    loglik_trace: np.ndarray
    converged: bool
    gradient_gap: float

    @property
    def iterations(self) -> int:
        """SQUAREM steps taken: the trace holds the start and each step."""
        return len(self.loglik_trace) - 1

    def to_json_dict(self) -> dict:
        return {
            "atoms": [float(a) for a in self.distribution.atoms],
            "masses": [float(m) for m in self.distribution.masses],
            "birth_rate": float(self.birth_rate),
            "loglik": float(self.loglik_trace[-1]),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "gradient_gap": float(self.gradient_gap),
        }


def cox_vardi(q_values) -> DiscreteDistribution:
    """NPMLE of the gap law from size-biased draws q.

    Atoms at the distinct observed values, mass proportional to
    multiplicity / q.
    """
    q = np.asarray(q_values, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise EstimationError("need at least one observation")
    bad = np.flatnonzero(~np.isfinite(q))
    if bad.size:
        raise EstimationError(f"observation {bad[0]} is not finite: {q[bad[0]]}")
    if np.any(q <= 0):
        raise EstimationError("observations must be positive")
    atoms, counts = np.unique(q, return_counts=True)
    return DiscreteDistribution.from_weights(atoms, counts / atoms)


def cox_vardi_from_pairs(pairs: Pairs) -> DiscreteDistribution:
    """NPMLE from uncensored equilibrium pairs, via the sums r + s.

    The pair (r, s) carries no information about the gap law beyond its
    sum. Censored pairs are rejected; use ``winter_foldes`` for those.
    """
    if pairs.censored.any():
        raise EstimationError(
            "censored pairs are not supported here; use winter_foldes for censored data"
        )
    return cox_vardi(pairs.q)


def _match_atoms(lengths: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    idx, hit = atom_lookup(atoms, lengths)
    if not hit.all():
        raise EstimationError(
            f"atom grid does not cover the complete length {lengths[~hit][0]}; "
            "bin the data first"
        )
    return idx


def segment_loglik(
    dist: DiscreteDistribution,
    birth_rate: float | None,
    segments: Segments,
    window_length: float,
    include_poisson_factor: bool = False,
) -> float:
    """Sum of per-segment log factors, optionally with the count factor.

    Per kind, with masses p over atoms a and mu = sum(a p):
    proper complete x contributes log p(x); proper censored c contributes
    log sum_{a > c} p; residual complete x contributes
    log(sum_{a > x} p / mu); residual censored contributes
    log(sum p (a - w)+ / mu): the ``_atom_weights`` numerators, over mu for
    the residual kinds. A zero factor yields -inf, not an exception. With
    ``include_poisson_factor`` the Poisson log probability of the observed
    segment count, with mean birth_rate * (w + mu), is added.

    Atoms must cover every proper complete length exactly.
    """
    window_length_checked(window_length)
    mu = dist.mean()
    numer = _atom_weights(segments, dist.atoms, window_length) @ dist.masses
    if np.any(numer <= 0.0):
        return -math.inf
    m_res = int(np.count_nonzero((segments.kind == "rc") | (segments.kind == "rx")))
    total = float(np.sum(np.log(numer))) - m_res * math.log(mu)
    if include_poisson_factor:
        if birth_rate is None or birth_rate <= 0:
            raise ValueError("a positive birth_rate is required for the Poisson factor")
        n = len(segments)
        mean = birth_rate * (window_length + mu)
        total += n * math.log(mean) - mean - math.lgamma(n + 1)
    return total


def _atom_weights(segments: Segments, atoms: np.ndarray, w: float) -> np.ndarray:
    """The one map from a segment kind to its likelihood numerator.

    Row i, dotted with the masses, gives the numerator of observation i:
    a one-hot at the matching atom for ``pc``, 1{a > length} for the singly
    censored ``px`` and ``rc``, and (a - w)+ for the doubly censored ``rx``.
    A row may be all zero; ``_possible_weights`` rejects those.
    """
    kinds, lengths = segments.kind, segments.length
    rows = (atoms > lengths[:, None]).astype(float)
    rows[kinds == "rx"] = np.maximum(atoms - w, 0.0)
    pc = np.nonzero(kinds == "pc")[0]
    rows[pc] = 0.0
    rows[pc, _match_atoms(lengths[pc], atoms)] = 1.0
    return rows


def _possible_weights(segments: Segments, atoms: np.ndarray, w: float) -> np.ndarray:
    """``_atom_weights`` without all-zero rows: an observation that no
    distribution on the grid can produce is an error. The message names the
    observation by kind and length, since ``laslett_em`` passes its
    distinct rows, whose order is not that of the data."""
    rows = _atom_weights(segments, atoms, w)
    dead = np.nonzero(~rows.any(axis=1))[0]
    if dead.size:
        k = int(dead[0])
        raise EstimationError(
            f"a {segments.kind[k]} segment of length {segments.length[k]} has zero "
            "probability under every distribution on this grid"
        )
    return rows


def segment_marginal_loglik(
    dist: DiscreteDistribution, segments: Segments, window_length: float
) -> float:
    """Log likelihood of the segments conditional on how many were seen.

    Profiling the Poisson birth intensity out of the full segment
    likelihood leaves, up to data-only constants, the sum of the per-kind
    numerators minus n log(w + mu). This is the objective the EM ascends.
    """
    window_length_checked(window_length)
    weights = _possible_weights(segments, dist.atoms, window_length)
    numer = weights @ dist.masses
    if np.any(numer <= 0.0):
        return -math.inf
    return float(np.sum(np.log(numer)) - len(segments) * math.log(window_length + dist.mean()))


def bin_width_checked(bin_width: float) -> float:
    """bin_width itself, once checked to be finite and positive."""
    if not 0.0 < bin_width < math.inf:
        raise EstimationError(f"bin_width must be finite and positive, got {bin_width}")
    return bin_width


def bin_segments(segments: Segments, bin_width: float) -> Segments:
    """Map every length onto the midpoint of its bin ((k h, (k+1) h] -> (k+0.5) h).

    Bins are left-open, so a length exactly at k h falls in the bin below.
    Kinds are unchanged.
    """
    bin_width_checked(bin_width)
    mids = (np.ceil(segments.length / bin_width) - 1 + 0.5) * bin_width
    return Segments(segments.kind, mids)


def default_grid(segments: Segments, window_length: float, bin_width: float) -> np.ndarray:
    """Bin midpoints spanning (0, max observed length + window length].

    Extending the atoms one window length past the data leaves room for the
    lifetimes that are longer than anything observable in full.
    """
    if not segments:
        raise EstimationError("need at least one segment")
    top = float(segments.length.max()) + window_length_checked(window_length)
    n_bins = max(1, math.ceil(top / bin_width_checked(bin_width)))
    return (np.arange(n_bins) + 0.5) * bin_width


def _distinct_rows(segments: Segments) -> tuple[Segments, np.ndarray]:
    """The distinct (kind, length) rows of ``segments`` and the count of each.

    The kinds are sorted through integer codes (SEGMENT_KINDS is in
    alphabetical order), which costs a small fraction of sorting the
    strings themselves.
    """
    _check_kinds(segments.kind, SEGMENT_KINDS, "segment")
    kinds = np.asarray(SEGMENT_KINDS)
    code = np.searchsorted(kinds, segments.kind)
    order = np.lexsort((segments.length, code))
    code, length = code[order], segments.length[order]
    first = np.ones(code.size, dtype=bool)
    first[1:] = (code[1:] != code[:-1]) | (length[1:] != length[:-1])
    starts = np.flatnonzero(first)
    return Segments(kinds[code[starts]], length[starts]), np.diff(np.append(starts, code.size))


def laslett_em(
    segments: Segments,
    window_length: float,
    grid,
    max_iter: int = EM_DEFAULT_MAX_ITER,
    tol: float = EM_DEFAULT_TOL,
) -> EmResult:
    """EM for the segment NPMLE on a fixed atom grid, accelerated and certified.

    Works in the window-biased parameterization q_j ~ p_j (w + a_j), under
    which the observations are iid draws from a mixture with kernel
    K_ij = W_ij / (w + a_j) (W from ``_atom_weights``) and the marginal log
    likelihood is l(q) = sum_i c_i log (K q)_i. The segments are first
    collapsed to their distinct (kind, length) rows with counts c, so one
    EM step costs O(distinct rows x atoms), not O(segments x atoms).

    Stop rule. The EM map is q -> q D(q), where D(q) = K^T (c / K q) / n is
    also Lindsay's gradient: q maximizes l over the grid exactly when
    max_j D_j <= 1, and l(optimum) - l(q) <= n log(max_j D_j). The fit
    stops once the gap max_j D_j - 1 is at most ``tol``; ``converged``
    says that it did, and ``gradient_gap`` is the gap of the returned
    masses either way. It also stops, after taking the gap, when an
    accepted step no longer raises l, so a ``tol`` below float resolution
    cannot run to ``max_iter``. That rise is computed from K times the
    step, not as a difference of two values of l, so rises far below the
    rounding error of l still count.

    Steps. Each is SQUAREM (Varadhan and Roland 2008, scheme SqS3): from
    q1 = F(q) and q2 = F(q1), with r = q1 - q, v = q2 - q1 - r and
    alpha = min(-|r| / |v|, -1), the point q - 2 alpha r + alpha^2 v is
    projected onto the simplex (negative entries set to 0, then
    renormalized) and given one stabilizing EM step. The result replaces
    q2 only if every (K q)_i stays positive and its l is no lower than
    l(q2). Otherwise alpha moves halfway to -1 and the step is tried
    again, up to SQUAREM_TRIES times, before q2 is kept. So every
    accepted point is at least as likely as the one before, and the trace
    (l of the start and of each accepted point) is nondecreasing up to
    float slack. ``iterations`` counts the accepted steps, the length of
    the trace less one, and ``max_iter`` bounds it. A step costs three
    evaluations of the EM map, with the gap at its start, and one more
    per retry.

    The fitted birth intensity is n / (w + mu_hat), the value that matches
    the expected number of observable lifetimes to the observed count.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    window_length_checked(window_length)
    if not segments:
        raise EstimationError("need at least one segment")
    atoms = np.unique(np.asarray(grid, dtype=float))
    if atoms.size == 0 or not np.all((atoms > 0.0) & (atoms < math.inf)):
        raise EstimationError("grid atoms must be finite and positive")

    distinct, counts = _distinct_rows(segments)
    w = float(window_length)
    kernel = _possible_weights(distinct, atoms, w) / (w + atoms)
    n = len(segments)

    def em_map(q, kq):
        """F(q) and the gradient D(q), given K q > 0."""
        d = kernel.T @ (counts / kq) / n
        return normalised(q * d), d

    def rise(q_to, q_from, kq_from) -> float:
        """l(q_to) - l(q_from), from K (q_to - q_from): accurate down to
        rises far below the rounding error of l itself. The last term
        corrects for the rounding of the two totals away from 1."""
        step = q_to - q_from
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = float(counts @ np.log1p(kernel @ step / kq_from))
        return gain - n * math.log1p(math.fsum(step) / math.fsum(q_from))

    q = normalised(w + atoms)  # uniform masses p
    kq = kernel @ q
    trace = [float(counts @ np.log(kq))]
    stalled = False
    while True:
        q1, d = em_map(q, kq)
        gap = max(float(d.max()) - 1.0, 0.0)
        if gap <= tol or stalled or len(trace) > max_iter:
            break
        q2, _ = em_map(q1, kernel @ q1)
        q_new, kq_new = q2, kernel @ q2
        r, v = q1 - q, q2 - 2.0 * q1 + q
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            alpha = min(-float(np.linalg.norm(r) / np.linalg.norm(v)), -1.0)
        for _ in range(SQUAREM_TRIES):
            with np.errstate(over="ignore", invalid="ignore"):
                qx = normalised(np.maximum(q - 2.0 * alpha * r + alpha * alpha * v, 0.0))
            kqx = kernel @ qx
            if np.all(kqx > 0.0):  # false for nan too
                qs, _ = em_map(qx, kqx)
                kqs = kernel @ qs
                if np.all(kqs > 0.0) and rise(qs, q2, kq_new) >= 0.0:
                    q_new, kq_new = qs, kqs
                    break
            alpha = (alpha - 1.0) / 2.0
        stalled = not rise(q_new, q, kq) > 0.0
        q, kq = q_new, kq_new
        trace.append(float(counts @ np.log(kq)))

    fitted = DiscreteDistribution(atoms, normalised(q / (w + atoms)))
    return EmResult(
        distribution=fitted,
        birth_rate=n / (w + fitted.mean()),
        loglik_trace=np.asarray(trace),
        converged=gap <= tol,
        gradient_gap=gap,
    )


def gof_discrepancy(a, b) -> float:
    """Sup distance between two estimated cdfs over their pooled jump points.

    Accepts StepSurvival or DiscreteDistribution on either side. A purely
    descriptive statistic for comparing estimators fitted to the same data.
    """
    a, b = (
        StepSurvival.from_masses(x.atoms, x.masses, 0)
        if isinstance(x, DiscreteDistribution)
        else x
        for x in (a, b)
    )
    if a.jump_times.size == 0 or b.jump_times.size == 0:
        raise EstimationError("empty estimate")
    points = np.union1d(a.jump_times, b.jump_times)
    return float(np.max(np.abs(a.survival_at(points) - b.survival_at(points))))

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
from .sampling import SEGMENT_KINDS, Pairs, Segments, _kind_codes, window_length_checked
from .seeding import is_integer

EM_DEFAULT_TOL = 1e-8
EM_DEFAULT_MAX_ITER = 20_000
# Extrapolations a SQUAREM step tries, each halfway back towards the plain
# EM point, before it keeps that point.
SQUAREM_TRIES = 3
# Bytes of the (fits x rows x atoms) kernel stack that laslett_em_many
# steps at once; the loop's other temporaries are a few times this.
EM_CHUNK_BYTES = 2**20


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
    """The distinct (kind, length) rows of ``segments`` and the count of each,
    by kind code (the index in SEGMENT_KINDS), then length."""
    kinds = np.asarray(SEGMENT_KINDS)
    code = _kind_codes(segments.kind, SEGMENT_KINDS, "segment")
    order = np.lexsort((segments.length, code))
    code, length = code[order], segments.length[order]
    first = np.ones(code.size, dtype=bool)
    first[1:] = (code[1:] != code[:-1]) | (length[1:] != length[:-1])
    starts = np.flatnonzero(first)
    return Segments(kinds[code[starts]], length[starts]), np.diff(np.append(starts, code.size))


def em_problem(segments: Segments, window_length: float, bin_width: float):
    """The default grid of ``segments`` binned to ``bin_width``, and the
    (distinct rows, counts) problem of the binned data: what the ``em``
    estimator hands ``laslett_em_many``.

    A binned length is the grid atom (k + 1/2) h of its bin k, so each
    segment's row is the integer key (kind code) x (grid size) + k, read
    back from the midpoint, and one ``bincount`` of the keys gives the
    distinct rows in increasing key order: ``_distinct_rows`` of the binned
    data, bitwise. Lengths are positive (``Segments.check_window``), so no
    bin is negative."""
    code = segments.check_window(window_length)
    binned = bin_segments(segments, bin_width)
    grid = default_grid(binned, window_length, bin_width)
    counts = np.bincount(code * grid.size + (binned.length / bin_width).astype(np.intp))
    key = np.flatnonzero(counts)
    rows = Segments(np.asarray(SEGMENT_KINDS)[key // grid.size], grid[key % grid.size])
    return grid, (rows, counts[key])


def laslett_em(
    segments: Segments,
    window_length: float,
    grid,
    max_iter: int = EM_DEFAULT_MAX_ITER,
    tol: float = EM_DEFAULT_TOL,
) -> EmResult:
    """The segment NPMLE of ``segments`` on a fixed atom grid:
    ``laslett_em_many`` on a batch of one."""
    return laslett_em_many([_distinct_rows(segments)], window_length, grid, max_iter, tol)[0]


def laslett_em_many(
    problems,
    window_length: float,
    grid,
    max_iter: int = EM_DEFAULT_MAX_ITER,
    tol: float = EM_DEFAULT_TOL,
) -> list[EmResult]:
    """EM for the segment NPMLE on a fixed atom grid, accelerated and
    certified, run on every problem at once; one ``EmResult`` per problem.

    A problem is the distinct (kind, length) rows of one segment sample
    with the count of each, as ``em_problem`` returns it. The fit works in
    the window-biased parameterization q_j ~ p_j (w + a_j), under which the
    observations are iid draws from a mixture with kernel
    K_ij = W_ij / (w + a_j) (W from ``_atom_weights``) and the marginal log
    likelihood is l(q) = sum_i c_i log (K q)_i over the distinct rows with
    counts c, so one EM step costs O(distinct rows x atoms), not
    O(segments x atoms).

    Stop rule. The EM map is q -> q D(q), where D(q) = K^T (c / K q) / n is
    also Lindsay's gradient: q maximizes l over the grid exactly when
    max_j D_j <= 1, and l(optimum) - l(q) <= n log(max_j D_j). A fit
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
    the trace less one, and ``max_iter``, an integer >= 1, bounds it. A
    step costs three evaluations of the EM map, with the gap at its start,
    and one more per retry.

    Batch. The problems are fitted in consecutive chunks of as many as fit
    EM_CHUNK_BYTES of kernel at the batch's most rows, so memory does not
    grow with the batch. A chunk's kernels are stacked as (problems, most
    rows, atoms), padded with zero rows of count 0 whose (K q)_i reads 1,
    so each product is one ``np.matmul``. Each fit keeps its own alpha,
    retries, stall flag, steps and trace, and leaves the stack when it
    stops. In a chunk of more than one, padding can change BLAS blocking
    and so a fit's low bits; each fit is still certified, and the same
    inputs always give the same numbers.

    The fitted birth intensity is n / (w + mu_hat), the value that matches
    the expected number of observable lifetimes to the observed count.
    """
    if not is_integer(max_iter) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    w = float(window_length_checked(window_length))
    atoms = np.unique(np.asarray(grid, dtype=float))
    if atoms.size == 0 or not np.all((atoms > 0.0) & (atoms < math.inf)):
        raise EstimationError("grid atoms must be finite and positive")
    if any(counts.size == 0 for _, counts in problems):
        raise EstimationError("need at least one segment")
    most = max((len(rows) for rows, _ in problems), default=1)
    chunk = max(1, EM_CHUNK_BYTES // (8 * most * atoms.size))
    return [
        fit
        for lo in range(0, len(problems), chunk)
        for fit in _squarem_stack(problems[lo : lo + chunk], w, atoms, max_iter, tol)
    ]


# Extrapolated points may hold nan or inf; every use of one checks K q > 0 first.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _squarem_stack(problems, w: float, atoms: np.ndarray, max_iter: int, tol: float):
    """The SQUAREM loop of ``laslett_em_many`` on one stack of problems."""
    fits, height = len(problems), max(len(rows) for rows, _ in problems)
    K, c = np.zeros((fits, height, atoms.size)), np.zeros((fits, height))
    pad = np.ones((fits, height))
    for i, (rows, counts) in enumerate(problems):
        K[i, : len(rows)] = _possible_weights(rows, atoms, w) / (w + atoms)
        c[i, : len(rows)], pad[i, : len(rows)] = counts, 0.0
    n = c.sum(axis=1)

    def kmul(x):
        return np.matmul(K, x[..., None])[..., 0]

    def dot(a, b):
        return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]

    def em_map(q, kq):
        """F(q) and the gradient D(q), given K q > 0."""
        d = np.matmul(K.transpose(0, 2, 1), (c / kq)[..., None])[..., 0] / n[:, None]
        return normalised(q * d), d

    def rise(q_to, q_from, kq_from, live):
        """l(q_to) - l(q_from) of the fits indexed by ``live`` (nan elsewhere),
        from K (q_to - q_from): accurate down to rises far below the
        rounding error of l itself. The last term corrects for the rounding
        of the two totals away from 1."""
        step = q_to - q_from
        gain = dot(c, np.log1p(kmul(step) / kq_from))
        out = np.full(len(step), np.nan)
        for i in live:
            total = math.fsum(step[i].tolist()) / math.fsum(q_from[i].tolist())
            out[i] = gain[i] - n[i] * math.log1p(total)
        return out

    q = np.tile(normalised(w + atoms), (fits, 1))  # uniform masses p
    kq = kmul(q) + pad
    traces = [[ll] for ll in dot(c, np.log(kq)).tolist()]
    ids = np.arange(fits)  # the problem each row of the stack fits
    results = [None] * fits
    stalled = np.zeros(fits, dtype=bool)
    for steps in range(max_iter + 1):  # every fit has stopped by the last pass
        q1, d = em_map(q, kq)
        gap = np.maximum(d.max(axis=1) - 1.0, 0.0)
        done = (gap <= tol) | stalled | (steps == max_iter)
        for j in done.nonzero()[0]:
            fitted = DiscreteDistribution(atoms, normalised(q[j] / (w + atoms)))
            results[ids[j]] = EmResult(
                distribution=fitted,
                birth_rate=float(n[j]) / (w + fitted.mean()),
                loglik_trace=np.asarray(traces[ids[j]]),
                converged=bool(gap[j] <= tol),
                gradient_gap=float(gap[j]),
            )
        if done.all():
            return results
        if done.any():
            ids, K, c, pad, n, q, kq, q1 = (x[~done] for x in (ids, K, c, pad, n, q, kq, q1))
        q2, _ = em_map(q1, kmul(q1) + pad)
        kq2 = kmul(q2) + pad
        q_new, kq_new = q2, kq2
        r, v = q1 - q, q2 - 2.0 * q1 + q
        alpha = np.minimum(-(np.sqrt(dot(r, r)) / np.sqrt(dot(v, v))), -1.0)[:, None]
        trying = np.ones(len(ids), dtype=bool)
        for _ in range(SQUAREM_TRIES):
            # Every fit is tried, and only the ones still trying can accept.
            qx = normalised(np.maximum(q - 2.0 * alpha * r + alpha * alpha * v, 0.0))
            kqx = kmul(qx) + pad
            qs, _ = em_map(qx, kqx)
            kqs = kmul(qs) + pad
            ok = trying & (kqx > 0.0).all(axis=1) & (kqs > 0.0).all(axis=1)  # false for nan
            ok &= rise(qs, q2, kq2, ok.nonzero()[0]) >= 0.0
            q_new, kq_new = np.where(ok[:, None], qs, q_new), np.where(ok[:, None], kqs, kq_new)
            trying &= ~ok
            if not trying.any():
                break
            alpha = (alpha - 1.0) / 2.0
        stalled = ~(rise(q_new, q, kq, range(len(ids))) > 0.0)
        q, kq = q_new, kq_new
        for i, ll in zip(ids.tolist(), dot(c, np.log(kq)).tolist()):
            traces[i].append(ll)


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

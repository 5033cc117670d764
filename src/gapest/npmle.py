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

Every segment EM problem (atoms, distinct rows, counts) is built by
``em_problem``: binning the lengths onto a midpoint grid regularizes the
estimator (``bin_segments``, ``default_grid``), and given atoms take the
complete lengths snapped onto them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, atom_lookup, normalised, total
from .errors import EstimationError
from .product_limit import StepSurvival
from .sampling import Pairs, Segments, window_length_checked
from .seeding import is_integer

EM_DEFAULT_TOL = 1e-8
EM_DEFAULT_MAX_ITER = 20_000
# Extrapolations a SQUAREM step tries, each halfway back towards the plain
# EM point, before it keeps that point.
SQUAREM_TRIES = 3
# The most atoms a bin width may make: 100x the 3 000 of a 155 604-segment fit.
EM_MAX_ATOMS = 3 * 10**5


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
    log(sum p (a - w)+ / mu): the numerators ``_log_numerators`` reads off p,
    over mu for the residual kinds. A zero factor yields -inf, not an
    exception. With ``include_poisson_factor`` the Poisson log probability
    of the observed segment count, with mean birth_rate * (w + mu), is added.

    Atoms must cover every proper complete length exactly.
    """
    if include_poisson_factor and (birth_rate is None or not 0.0 < birth_rate < math.inf):
        raise ValueError(f"birth_rate must be finite and positive, got {birth_rate}")
    mu = dist.mean()
    m_res = int(np.count_nonzero(segments.code >= 2))  # rc and rx: codes 2 and 3
    ll = _log_numerators(dist, segments, window_length, possible=False) - m_res * math.log(mu)
    if include_poisson_factor:
        n = len(segments)
        mean = birth_rate * (window_length + mu)
        ll += n * math.log(mean) - mean - math.lgamma(n + 1)
    return ll


def _slots(rows: Segments, atoms: np.ndarray, w: float, possible: bool = True) -> np.ndarray:
    """The entry of ``_kernel``'s table that holds each row's numerator:
    a ``pc`` row's atom, the tail above a ``px`` or ``rc`` length, or the
    ramp sum for ``rx``. A row no distribution on the grid can produce
    reads 0; with ``possible`` it is an error naming its kind and length."""
    code, lengths, m = rows.code, rows.length, atoms.size  # code indexes SEGMENT_KINDS
    slots = m + np.searchsorted(atoms, lengths, side="right")
    slots[code == 3] = 3 * m  # rx
    pc = np.flatnonzero(code == 0)
    slots[pc], hit = atom_lookup(atoms, lengths[pc])
    if not hit.all():
        raise EstimationError(f"atom grid does not cover the complete length "
                              f"{lengths[pc][~hit][0]}; bin the data first")
    dead = np.flatnonzero((slots == 2 * m) | ((code == 3) & (atoms[-1] <= w)))
    if possible and dead.size:
        raise EstimationError(f"a {rows.kind[dead[0]]} segment of length {lengths[dead[0]]} has "
                              "zero probability under every distribution on this grid")
    return slots


def _kernel(slots: np.ndarray, atoms: np.ndarray, w: float):
    """K q and K^T v, K_ij = W_ij / (w + a_j) with W the numerators, for
    (fits, rows) ``slots`` (-1 pads), with no (rows x atoms) matrix. With
    u = q / (w + a), each fit's table [u, tail sums of u, 0, running sums
    of (a - w)+ u, 1] holds (K q)_i at row i's slot; K^T v is a
    ``bincount`` onto the slots and a ``cumsum``. Each fit's sums run in
    order along its own row: no batch or thread count changes a bit."""
    m, wa, ramp = atoms.size, w + atoms, np.maximum(atoms - w, 0.0)
    table = np.zeros((len(slots), 3 * m + 2))
    table[:, -1] = 1.0
    u, tails, ramps = table[:, :m], table[:, m : 2 * m][:, ::-1], table[:, 2 * m + 1 : 3 * m + 1]
    at = slots % table.shape[1] + table.shape[1] * np.arange(len(slots))[:, None]

    def kmul(q):
        np.divide(q, wa, out=u)
        np.add.accumulate(u[:, ::-1], 1, out=tails)
        np.add.accumulate(np.multiply(u, ramp, out=ramps), 1, out=ramps)
        return table.take(at)

    def ktmul(v):
        sums = np.bincount(at.ravel(), v.ravel(), table.size).reshape(table.shape)
        cut = np.add.accumulate(sums[:, m : 2 * m], 1, float)  # bincount of no rows is int
        return (cut + sums[:, :m] + sums[:, 3 * m, None] * ramp) / wa

    return kmul, ktmul


def _log_numerators(dist: DiscreteDistribution, segments: Segments, w: float, possible: bool):
    """The sum of the segments' log numerators under ``dist``, from K q for
    q = p (w + a); -inf if one is 0."""
    slots = _slots(segments, dist.atoms, window_length_checked(w), possible)
    numer = _kernel(slots[None], dist.atoms, w)[0](dist.masses[None] * (w + dist.atoms))
    return -math.inf if np.any(numer <= 0.0) else float(np.sum(np.log(numer)))


def segment_marginal_loglik(
    dist: DiscreteDistribution, segments: Segments, window_length: float
) -> float:
    """Log likelihood of the segments conditional on how many were seen.

    Profiling the Poisson birth intensity out of the full segment
    likelihood leaves, up to data-only constants, the sum of the per-kind
    numerators minus n log(w + mu). This is the objective the EM ascends.
    """
    ll = _log_numerators(dist, segments, window_length, possible=True)
    return ll - len(segments) * math.log(window_length + dist.mean())


def bin_width_checked(bin_width: float, span: float = 0.0) -> float:
    """bin_width itself, checked finite and positive, cutting (0, span] into finitely many bins."""
    if not 0.0 < bin_width < math.inf:
        raise EstimationError(f"bin_width must be finite and positive, got {bin_width}")
    if not float(span) / float(bin_width) < math.inf:
        raise EstimationError(f"bin_width {bin_width} cuts (0, {span}] into too many bins")
    return bin_width


def bin_segments(segments: Segments, bin_width: float) -> Segments:
    """Map every length onto the midpoint of its bin ((k h, (k+1) h] -> (k+0.5) h).

    Bins are left-open, so a length exactly at k h falls in the bin below.
    Kinds are unchanged. A length so small that length / h underflows to 0 is in bin 0.
    """
    bin_width_checked(bin_width, np.max(segments.length, initial=0.0))
    mids = (np.maximum(np.ceil(segments.length / bin_width) - 1, 0) + 0.5) * bin_width
    return Segments(segments.code, mids)


def default_grid(segments: Segments, window_length: float, bin_width: float) -> np.ndarray:
    """Bin midpoints spanning (0, max observed length + window length].

    Extending the atoms one window length past the data leaves room for the
    lifetimes that are longer than anything observable in full. At most EM_MAX_ATOMS bins.
    """
    if not segments:
        raise EstimationError("need at least one segment")
    top = float(segments.length.max()) + window_length_checked(window_length)
    n_bins = max(1, math.ceil(top / bin_width_checked(bin_width, top)))
    if n_bins > EM_MAX_ATOMS:
        raise EstimationError(f"bin_width {bin_width} cuts (0, {top}] into {n_bins:.3g} bins, "
                              f"more than EM_MAX_ATOMS = {EM_MAX_ATOMS}")
    return (np.arange(n_bins) + 0.5) * bin_width


def _distinct_rows(code: np.ndarray, k: np.ndarray, lengths: np.ndarray):
    """The distinct (kind code, lengths[k]) rows and the count of each, by
    code (the index in SEGMENT_KINDS), then k: one ``bincount`` of the keys
    code x len(lengths) + k. Increasing ``lengths`` give (kind, length) order."""
    code = code.astype(np.intp)  # int8 codes times the size stay int8
    counts = np.bincount(code * lengths.size + k)
    key = np.flatnonzero(counts)
    return Segments(key // lengths.size, lengths[key % lengths.size]), counts[key]


def _grid_atoms(grid) -> np.ndarray:
    atoms = np.unique(np.asarray(grid, dtype=float))
    if atoms.size == 0 or not np.all((atoms > 0.0) & (atoms < math.inf)):
        raise EstimationError("grid atoms must be finite and positive")
    return atoms


def em_problem(segments: Segments, window_length: float, grid):
    """The atoms and the (distinct rows, counts) problem of ``segments``
    that ``laslett_em_many`` fits; every segment EM problem is built here.

    ``grid`` is a bin width h: the lengths are binned (``bin_segments``),
    the atoms are their ``default_grid``, and a binned length (k + 1/2) h
    is keyed by its bin k. Or ``grid`` is an array of atoms: each proper
    complete length moves onto the atom whose cell (lo, hi] holds it, the
    cells ending halfway between atoms and half a spacing past the end ones
    (a one-atom cell is empty; ``laslett_em_many`` rejects a length outside
    every cell), and ``np.unique`` keys the lengths."""
    code = segments.check_window(window_length).code
    if np.ndim(grid) == 0:
        binned = bin_segments(segments, grid)
        atoms = default_grid(binned, window_length, grid)
        return atoms, _distinct_rows(code, (binned.length / grid).astype(np.intp), atoms)
    atoms = _grid_atoms(grid)
    mirrored = np.pad(atoms, 1, mode="reflect", reflect_type="odd")
    k = np.searchsorted((mirrored[1:] + mirrored[:-1]) / 2, segments.length) - 1
    snap = (code == 0) & (k >= 0) & (k < atoms.size)  # pc: SEGMENT_KINDS[0]
    snapped = np.where(snap, atoms[np.clip(k, 0, atoms.size - 1)], segments.length)
    lengths, k = np.unique(snapped, return_inverse=True)
    return atoms, _distinct_rows(code, k, lengths)


def laslett_em(
    segments: Segments,
    window_length: float,
    grid,
    max_iter: int = EM_DEFAULT_MAX_ITER,
    tol: float = EM_DEFAULT_TOL,
) -> EmResult:
    """The segment NPMLE of ``segments`` on a fixed atom grid:
    ``laslett_em_many`` on a batch of one, the lengths taken as they are
    (finite and positive, as ``Segments`` holds no others)."""
    lengths, k = np.unique(segments.length, return_inverse=True)
    problem = _distinct_rows(segments.code, k, lengths)
    return laslett_em_many([problem], window_length, grid, max_iter, tol)[0]


# Extrapolated points may hold nan or inf; every use of one checks K q > 0 first.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
    K_ij = W_ij / (w + a_j) (W the numerators of ``_kernel``) and the
    marginal log likelihood is l(q) = sum_i c_i log (K q)_i over the
    distinct rows with counts c. K q and K^T v are interval sums, as in
    Turnbull's (1976) self-consistency algorithm, so one EM step costs
    O(distinct rows + atoms).

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

    Batch. The problems are fitted together: their rows' slots and counts
    are stacked as (problems, most rows), padded with rows of count 0 that
    read 1. Each fit keeps its own alpha, retries, stall flag, steps and
    trace, and leaves the stack when it stops. Every product and sum of a
    fit runs in order along its own row of the stack, and padding adds only
    exact zeros, so a fit in any batch is bitwise its lone fit, whatever
    the thread count.

    The fitted birth intensity is n / (w + mu_hat), the value that matches
    the expected number of observable lifetimes to the observed count.
    """
    if not is_integer(max_iter) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    w = float(window_length_checked(window_length))
    atoms = _grid_atoms(grid)
    if any(counts.size == 0 for _, counts in problems):
        raise EstimationError("need at least one segment")
    if not problems:
        return []
    fits, height = len(problems), max(len(rows) for rows, _ in problems)
    slots, c = np.full((fits, height), -1), np.zeros((fits, height))
    for i, (rows, counts) in enumerate(problems):
        slots[i, : len(rows)], c[i, : len(rows)] = _slots(rows, atoms, w), counts
    n = total(c)[:, 0]
    cn = c / n[:, None]
    kmul, ktmul = _kernel(slots, atoms, w)

    def loglik(kq):
        return total(c * np.log(kq))[:, 0]

    def em_map(q, kq):
        """F(q) and the gradient D(q), given K q > 0."""
        d = ktmul(cn / kq)
        return normalised(q * d), d

    def rise(q_to, q_from, kq_from, live):
        """l(q_to) - l(q_from) of the fits indexed by ``live`` (nan elsewhere),
        from K (q_to - q_from): accurate down to rises far below the
        rounding error of l itself. The last term corrects for the rounding
        of the two totals away from 1."""
        step = q_to - q_from
        gain = total(c * np.log1p(kmul(step) / kq_from))[:, 0]
        out = np.full(len(step), np.nan)
        for i, s, f in zip(live, step[live].tolist(), q_from[live].tolist()):
            out[i] = gain[i] - n[i] * math.log1p(math.fsum(s) / math.fsum(f))
        return out

    q = np.tile(normalised(w + atoms), (fits, 1))  # uniform masses p
    kq = kmul(q)
    traces = [[ll] for ll in loglik(kq).tolist()]
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
            ids, slots, c, cn, n, q, kq, q1 = (x[~done] for x in (ids, slots, c, cn, n, q, kq, q1))
            kmul, ktmul = _kernel(slots, atoms, w)
        q2, _ = em_map(q1, kmul(q1))
        kq2 = kmul(q2)
        q_new, kq_new = q2, kq2
        r, v = q1 - q, q2 - 2.0 * q1 + q
        alpha = np.minimum(-(np.sqrt(total(r * r)) / np.sqrt(total(v * v))), -1.0)
        trying = np.ones(len(ids), dtype=bool)
        for _ in range(SQUAREM_TRIES):
            # Every fit is tried, and only the ones still trying can accept.
            qx = normalised(np.maximum(q - 2.0 * alpha * r + alpha * alpha * v, 0.0))
            kqx = kmul(qx)
            qs, _ = em_map(qx, kqx)
            kqs = kmul(qs)
            ok = trying & (kqx > 0.0).all(axis=1) & (kqs > 0.0).all(axis=1)  # false for nan
            ok &= rise(qs, q2, kq2, ok.nonzero()[0]) >= 0.0
            q_new, kq_new = np.where(ok[:, None], qs, q_new), np.where(ok[:, None], kqs, kq_new)
            trying &= ~ok
            if not trying.any():
                break
            alpha = (alpha - 1.0) / 2.0
        stalled = ~(rise(q_new, q, kq, np.arange(len(ids))) > 0.0)
        q, kq = q_new, kq_new
        for i, ll in zip(ids.tolist(), loglik(kq).tolist()):
            traces[i].append(ll)


def gof_discrepancy(a, b) -> float:
    """Sup distance between two estimated cdfs over their pooled jump points.

    Accepts StepSurvival or DiscreteDistribution on either side. A purely
    descriptive statistic for comparing estimators fitted to the same data.
    """
    a, b = (
        StepSurvival.from_masses(x.atoms, x.masses)
        if isinstance(x, DiscreteDistribution)
        else x
        for x in (a, b)
    )
    if a.jump_times.size == 0 or b.jump_times.size == 0:
        raise EstimationError("empty estimate")
    points = np.union1d(a.jump_times, b.jump_times)
    return float(np.max(np.abs(a.survival_at(points) - b.survival_at(points))))

"""Nonparametric maximum likelihood estimators.

Two NPMLEs live here. For equilibrium point sampling the covering gaps
q = r + s are size-biased draws from the gap law, and the NPMLE puts mass
proportional to 1/q on each observed q (``cox_vardi``). For line-segment
data the NPMLE over a fixed atom grid is computed by an EM iteration in
the window-biased parameterization q_j ~ p_j (w + a_j), under which an
observed segment is an iid draw: pick an atom with probability q_j, then a
birth position uniform over its w + a_j observable placements
(``laslett_em``).

Likelihood evaluators: ``segment_loglik`` scores a discrete distribution
with the per-kind factors mass(x), S(c+), S(x+)/mu and E(X-w)+/mu plus an
optional Poisson factor for the observed count;
``segment_marginal_loglik`` is the count-conditional log likelihood
obtained by profiling the birth intensity out of the full segment
likelihood, which is the objective the EM ascends and the brute-force
``npmle_oracle`` maximizes.

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
from .sampling import Pairs, Segments, window_length_checked

EM_DEFAULT_TOL = 1e-8
EM_DEFAULT_MAX_ITER = 100_000

ORACLE_MAX_ATOMS = 6
ORACLE_COARSE_CAP = 600_000  # candidate budget for the dense simplex scan
ORACLE_REFINE_STEP = 1e-7


@dataclass
class EmResult:
    """Output of the segment EM: the fitted distribution plus diagnostics."""

    distribution: DiscreteDistribution
    birth_rate: float
    loglik_trace: np.ndarray
    iterations: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "atoms": [float(a) for a in self.distribution.atoms],
            "masses": [float(m) for m in self.distribution.masses],
            "birth_rate": float(self.birth_rate),
            "loglik": float(self.loglik_trace[-1]),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
        }


def cox_vardi(q_values) -> DiscreteDistribution:
    """NPMLE of the gap law from size-biased draws q.

    Atoms at the distinct observed values, mass proportional to
    multiplicity / q.
    """
    q = np.asarray(q_values, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise EstimationError("need at least one observation")
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
    distribution on the grid can produce is an error."""
    rows = _atom_weights(segments, atoms, w)
    dead = np.nonzero(~rows.any(axis=1))[0]
    if dead.size:
        k = int(dead[0])
        raise EstimationError(
            f"observation {k} ({segments.kind[k]} {segments.length[k]}) has zero "
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


def bin_segments(segments: Segments, bin_width: float) -> Segments:
    """Map every length onto the midpoint of its bin ((k h, (k+1) h] -> (k+0.5) h).

    Bins are left-open, so a length exactly at k h falls in the bin below.
    Kinds are unchanged.
    """
    if bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    mids = (np.ceil(segments.length / bin_width) - 1 + 0.5) * bin_width
    return Segments(segments.kind, mids)


def default_grid(segments: Segments, window_length: float, bin_width: float) -> np.ndarray:
    """Bin midpoints spanning (0, max observed length + window length].

    Extending the atoms one window length past the data leaves room for the
    lifetimes that are longer than anything observable in full.
    """
    if not segments:
        raise EstimationError("need at least one segment")
    top = float(segments.length.max()) + window_length
    n_bins = max(1, math.ceil(top / bin_width))
    return (np.arange(n_bins) + 0.5) * bin_width


def laslett_em(
    segments: Segments,
    window_length: float,
    grid,
    max_iter: int = EM_DEFAULT_MAX_ITER,
    tol: float = EM_DEFAULT_TOL,
) -> EmResult:
    """EM for the segment NPMLE on a fixed atom grid.

    Iterates in the window-biased parameterization q_j ~ p_j (w + a_j),
    under which the observations are iid and the E-step posterior of atom
    j for observation i is W_ij p_j / numer_i (W from ``_atom_weights``,
    numer = W p). The M-step averages the posteriors into q, which takes
    only p_j (W^T (1/numer))_j, and maps back to p. The trace records the
    marginal log likelihood after each iteration and is nondecreasing up
    to float slack; iteration stops when one step improves it by less than
    ``tol``.

    The fitted birth intensity is n / (w + mu_hat), the value that matches
    the expected number of observable lifetimes to the observed count.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    window_length_checked(window_length)
    if not segments:
        raise EstimationError("need at least one segment")
    atoms = np.unique(np.asarray(grid, dtype=float))
    if atoms.size == 0 or np.any(atoms <= 0):
        raise EstimationError("grid atoms must be positive")

    weights = _possible_weights(segments, atoms, window_length)
    n = len(segments)
    w = float(window_length)
    p = np.full(atoms.size, 1.0 / atoms.size)
    numer = weights @ p

    trace = []
    converged = False
    iterations = 0
    prev = -math.inf
    for _ in range(max_iter):
        p = normalised(p * (weights.T @ (1.0 / numer)) / (w + atoms))
        iterations += 1
        numer = weights @ p
        ll = float(np.log(numer).sum() - n * math.log(w + float(np.dot(atoms, p))))
        trace.append(ll)
        if ll - prev < tol:
            converged = True
            break
        prev = ll

    fitted = DiscreteDistribution(atoms, p)
    return EmResult(
        distribution=fitted,
        birth_rate=n / (w + fitted.mean()),
        loglik_trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
    )


def _simplex_lattice(d: int, divisions: int) -> np.ndarray:
    """All mass vectors with entries k/divisions summing to 1, in a fixed order."""
    if d == 1:
        return np.ones((1, 1))
    if d == 2:
        i = np.arange(divisions + 1)
        return np.column_stack([i, divisions - i]) / divisions
    if d == 3:
        i = np.arange(divisions + 1)
        reps = divisions + 1 - i
        first = np.repeat(i, reps)
        second = np.concatenate([np.arange(r) for r in reps])
        return np.column_stack([first, second, divisions - first - second]) / divisions
    import itertools

    cuts = itertools.combinations(range(divisions + d - 1), d - 1)
    rows = []
    for c in cuts:
        parts = np.diff(np.concatenate(([-1], np.array(c), [divisions + d - 1]))) - 1
        rows.append(parts)
    return np.asarray(rows, dtype=float) / divisions


def _score_candidates(P: np.ndarray, weights: np.ndarray, atoms: np.ndarray, w: float, n: int):
    numer = P @ weights.T
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = np.sum(np.log(numer), axis=1) - n * np.log(w + P @ atoms)
    ll[np.any(numer <= 0.0, axis=1)] = -np.inf
    return ll


def npmle_oracle(segments: Segments, window_length: float, grid) -> DiscreteDistribution:
    """Brute-force maximizer of the marginal segment log likelihood.

    Dense scan of the probability simplex over the grid atoms (resolution
    1e-3 up to three atoms, coarser above to stay within the candidate
    budget) followed by shrinking-box refinement down to steps of 1e-7.
    Exists purely to cross-check ``laslett_em``; exponential in the number
    of atoms, hence the cap at ORACLE_MAX_ATOMS. Ties are broken by the
    first maximum in lattice order.
    """
    atoms = np.unique(np.asarray(grid, dtype=float))
    d = atoms.size
    if d > ORACLE_MAX_ATOMS:
        raise EstimationError(f"oracle supports at most {ORACLE_MAX_ATOMS} atoms, got {d}")
    if d == 0 or np.any(atoms <= 0):
        raise EstimationError("grid atoms must be positive")
    window_length_checked(window_length)
    if not segments:
        raise EstimationError("need at least one segment")
    weights = _possible_weights(segments, atoms, window_length)
    n = len(segments)
    w = float(window_length)
    if d == 1:
        return DiscreteDistribution(atoms, np.ones(1))

    divisions = 1000
    while divisions > 2 and math.comb(divisions + d - 1, d - 1) > ORACLE_COARSE_CAP:
        divisions -= 1
    P = _simplex_lattice(d, divisions)
    ll = _score_candidates(P, weights, atoms, w, n)
    best = P[int(np.argmax(ll))]

    step = 1.0 / divisions
    while step > ORACLE_REFINE_STEP:
        step /= 5.0
        offsets = np.arange(-5, 6) * step
        grids = np.meshgrid(*[best[j] + offsets for j in range(d - 1)], indexing="ij")
        free = np.column_stack([g.ravel() for g in grids])
        free = free[np.all(free >= 0.0, axis=1)]
        last = 1.0 - free.sum(axis=1)
        keep = last >= 0.0
        cand = np.column_stack([free[keep], last[keep]])
        if cand.size == 0:
            continue
        ll = _score_candidates(cand, weights, atoms, w, n)
        best = cand[int(np.argmax(ll))]

    return DiscreteDistribution.from_weights(atoms, best)


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

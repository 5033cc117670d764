"""Brute-force maximizer of the marginal segment log likelihood: the
reference that the tests hold ``laslett_em`` to on grids of a few atoms.

It scans the probability simplex over the grid atoms densely and then
refines the best point in shrinking boxes. Its cost is exponential in the
number of atoms, so it is capped at ORACLE_MAX_ATOMS.

It also holds the dense (segments x atoms) kernel of the segment
likelihood numerators, the reference for ``npmle``'s structured one, and
step-by-step references for the two steps of ``npmle.em_problem``:
distinct rows by ``np.lexsort``, and the snapping of complete lengths onto
an atom grid.
"""

import itertools
import math

import numpy as np

from gapest import DiscreteDistribution, EstimationError, Segments
from gapest.distributions import atom_lookup
from gapest.sampling import window_length_checked

ORACLE_MAX_ATOMS = 6
ORACLE_COARSE_CAP = 600_000  # candidate budget for the dense simplex scan
ORACLE_REFINE_STEP = 1e-7


def atom_weights(segments: Segments, atoms: np.ndarray, w: float) -> np.ndarray:
    """The dense kernel: row i, dotted with the masses, gives the numerator
    of observation i. A one-hot at the matching atom for ``pc``,
    1{a > length} for the singly censored ``px`` and ``rc``, and (a - w)+
    for the doubly censored ``rx``. A row may be all zero."""
    code, lengths = segments.code, segments.length  # code indexes SEGMENT_KINDS
    rows = (atoms > lengths[:, None]).astype(float)
    rows[code == 3] = np.maximum(atoms - w, 0.0)  # rx
    pc = np.nonzero(code == 0)[0]
    idx, hit = atom_lookup(atoms, lengths[pc])
    if not hit.all():
        raise EstimationError(f"atom grid does not cover the length {lengths[pc][~hit][0]}")
    rows[pc] = 0.0
    rows[pc, idx] = 1.0
    return rows


def possible_weights(segments: Segments, atoms: np.ndarray, w: float) -> np.ndarray:
    """``atom_weights``, rejecting an observation that no distribution on
    the grid can produce (an all-zero row)."""
    rows = atom_weights(segments, atoms, w)
    dead = np.nonzero(~rows.any(axis=1))[0]
    if dead.size:
        raise EstimationError(f"segment {dead[0]} has zero probability under every distribution")
    return rows


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
    weights = possible_weights(segments, atoms, window_length)
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


def distinct_rows_by_lexsort(segments: Segments):
    """The distinct (kind, length) rows of ``segments`` and the count of each,
    by kind code, then length: sort, and keep the first row of each run."""
    order = np.lexsort((segments.length, segments.code))
    code, length = segments.code[order], segments.length[order]
    first = np.ones(code.size, dtype=bool)
    first[1:] = (code[1:] != code[:-1]) | (length[1:] != length[:-1])
    starts = np.flatnonzero(first)
    return Segments(code[starts], length[starts]), np.diff(np.append(starts, code.size))


def snap_complete_lengths(segments: Segments, atoms) -> Segments:
    """Move each proper complete length onto the atom whose cell (lo, hi]
    holds it. Cells end halfway between neighbouring atoms and half a
    spacing past the end atoms; lengths outside every cell stay."""
    mirrored = np.pad(atoms, 1, mode="reflect", reflect_type="odd")
    k = np.searchsorted((mirrored[1:] + mirrored[:-1]) / 2, segments.length) - 1
    snap = (segments.code == 0) & (k >= 0) & (k < atoms.size)
    nearest = atoms[np.clip(k, 0, atoms.size - 1)]
    return Segments(segments.code, np.where(snap, nearest, segments.length))

"""Synthetic data generators for the three observation frames.

Three ways of observing a stationary renewal process are supported:

* equilibrium point sampling: the backward and forward recurrence times
  (R, S) around a fixed time point, with optional right censoring of S;
* window observation: a single realization watched on an interval
  [t1, t2], reported as forward recurrence / complete gaps / one censored
  gap, or an empty-window record;
* line segments: individuals born at Poisson times with iid lifetimes,
  of which only the intersections with [t1, t2] are seen, classified as
  proper/residual x complete/censored.

Observations come back as column containers: ``Pairs``, ``WindowRecords``
and ``Segments``. All generators are pure functions of (inputs, seed).
The window and segment samplers draw all windows of a call from the one
stream ``derived_rng(seed)``, so window k depends on n_windows too: a
prefix of windows is not a smaller call. Both are exact in law.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .distributions import GapDistribution
from .errors import EstimationError
from .seeding import derived_rng

_GAP_CHUNK = 8  # gaps drawn per round for each window still being filled
# The most renewals, n_windows * w / mean, that sample_pooled_windows may expect: 100x the tests'
# largest use. Past it a call would take gigabytes and minutes, or run until killed, not fail.
WINDOW_MAX_RENEWALS = 5 * 10**7
# The most births, n_windows * rate * (mean + w), that sample_pooled_segments may expect: 100x the
# tests' largest use. The sampler's memory is linear in births plus windows.
SEGMENT_MAX_BIRTHS = 2 * 10**7

# The kind codes of window records and segments, as written in the CSVs.
WINDOW_KINDS = ("complete", "censored", "forward", "empty")
SEGMENT_KINDS = ("pc", "px", "rc", "rx")


def window_length_checked(w: float) -> float:
    """w itself, once checked to be finite and positive."""
    if not 0.0 < w < math.inf:
        raise EstimationError(f"window length must be finite and positive, got {w}")
    return w


def _kind_codes(kind: np.ndarray, kinds: tuple) -> np.ndarray:
    """The index in ``kinds`` of each kind name (text, or ASCII bytes as the readers load
    them), or -1 for a name not in it."""
    code = np.full(kind.shape, -1, dtype=np.int8)
    for i, name in enumerate(kinds):
        code[kind == (name.encode() if kind.dtype.kind == "S" else name)] = i
    return code


class _Columns:
    """Observations stored as columns: every field is a numpy array, one
    entry per observation.

    ``len()`` counts the observations. ``records[i]`` with an int gives a
    one-row item of the same class whose fields are Python scalars; a slice
    or an index array gives a container. Iterating yields the one-row
    items, through ``__getitem__`` (the sequence protocol), and ``concat``
    joins containers and one-row items in order.
    Building one converts the fields to DTYPES, of one shape, and holds each
    to its RULES entry (finite and >= 0, or finite and > 0), so a container
    never holds a value that its frame cannot produce.
    """

    __slots__ = ()
    DTYPES: ClassVar[tuple] = ()
    RULES: ClassVar[tuple] = ()  # per field: None, or operator.ge or gt, to hold against 0

    def __post_init__(self):
        names = self.__match_args__  # the dataclass's field names, in order
        cols = [np.asarray(getattr(self, n), dtype=d) for n, d in zip(names, self.DTYPES)]
        if len({col.shape for col in cols}) > 1:
            sizes = [col.size if col.ndim else "scalar" for col in cols]
            raise EstimationError(f"columns {', '.join(names)} differ in length: {sizes}")
        for name, col, rule in zip(names, cols, self.RULES):
            object.__setattr__(self, name, col if col.ndim else col.item())
            if rule is None:
                continue
            lo, hi = col.min(initial=math.inf), col.max(initial=0.0)  # nan if any value is nan
            if not (rule(lo, 0) and hi < math.inf):  # the first bad row, in its first rule's words
                k = int(np.argmin(rule(col, 0) & (col < math.inf)))
                broken = "is not positive" if rule is operator.gt else "is negative"
                broken = broken if np.isfinite(np.ravel(col)[k]) else "is not finite"
                raise EstimationError(f"{self._row(k, name)} {broken}")

    def _row(self, k: int, name: str) -> str:
        return f"{name} {np.ravel(getattr(self, name))[k]} at index {k}"

    def _columns(self) -> list:
        return [getattr(self, name) for name in self.__match_args__]

    def __len__(self) -> int:
        return np.size(getattr(self, self.__match_args__[0]))

    def __getitem__(self, idx):
        return type(self)(*(col[idx] for col in self._columns()))

    @classmethod
    def concat(cls, parts):
        """One container holding the rows of ``parts`` in order, by ``np.hstack`` per field, or by
        ``np.array`` if all are one-row items (list input; goes with it in ROADMAP item 1)."""
        cols = [[getattr(p, name) for p in parts] for name in cls.__match_args__]
        if all(isinstance(x, (int, float)) for x in cols[0]):
            return cls(*(np.array(col, dtype) for col, dtype in zip(cols, cls.DTYPES)))
        return cls(*map(np.hstack, cols))


@dataclass(frozen=True, slots=True, eq=False)
class Pairs(_Columns):
    """Equilibrium pairs: backward times r, forward times s, and whether
    each s was cut short by censoring."""

    r: np.ndarray
    s: np.ndarray
    censored: np.ndarray
    DTYPES: ClassVar[tuple] = (float, float, bool)
    RULES: ClassVar[tuple] = (operator.ge, operator.ge, None)

    @property
    def q(self) -> np.ndarray:
        """Covering gaps r + s (the exact gap only where uncensored)."""
        return self.r + self.s


class _KindColumns(_Columns):
    """A ``code`` column, each row's kind as its int8 index in KINDS, and a
    float column. Built from kind names or codes, it rejects unknown names
    and codes out of range then, once, so it only ever holds known kinds."""

    __slots__ = ()
    DTYPES: ClassVar[tuple] = (np.int8, float)
    KINDS, ROW = (), ""  # the kind names, and what a row is called in errors

    def __post_init__(self):
        kind = np.asarray(self.code)
        code = kind if kind.dtype.kind in "iu" else _kind_codes(kind, self.KINDS)
        bad = np.flatnonzero((code < 0) | (code >= len(self.KINDS)))
        if bad.size:
            raise EstimationError(f"{self.ROW} {bad[0]} has unknown kind {kind.flat[bad[0]].item()!r}")
        object.__setattr__(self, "code", code)
        _Columns.__post_init__(self)

    @property
    def kind(self):
        """The kind name of each row: an array, or a str on a one-row item."""
        return (self.KINDS if isinstance(self.code, int) else np.asarray(self.KINDS))[self.code]


@dataclass(frozen=True, slots=True, eq=False)
class WindowRecords(_KindColumns):
    """Records of renewals watched in windows: a kind code and a value each."""

    code: np.ndarray
    value: np.ndarray
    KINDS, ROW = WINDOW_KINDS, "record"
    RULES: ClassVar[tuple] = (None, operator.ge)


@dataclass(frozen=True, slots=True, eq=False)
class Segments(_KindColumns):
    """Lifetimes seen through a window: a kind code and a length each."""

    code: np.ndarray
    length: np.ndarray
    KINDS, ROW = SEGMENT_KINDS, "segment"
    RULES: ClassVar[tuple] = (None, operator.gt)

    def _row(self, k: int, name: str = "length") -> str:
        return f"segment {k} ({np.ravel(self.kind)[k]} {np.ravel(self.length)[k]})"

    def check_window(self, w: float) -> Segments:
        """The segments, once lengths the window w cannot produce are
        rejected: ``pc``, ``px`` and ``rc`` lengths above w, and ``rx``
        lengths other than w (up to 1e-12 relative, as an ``rx`` length is
        computed as t2 - t1). The window must be finite and positive; the
        lengths are, as the container holds no others."""
        window_length_checked(w)
        rx = self.code == 3  # SEGMENT_KINDS.index("rx")
        bad = ~np.where(rx, np.abs(self.length - w) <= 1e-12 * w, self.length <= w)
        if bad.any():
            k = int(np.argmax(bad))
            broken = "must equal" if rx[k] else "exceeds"
            raise EstimationError(f"{self._row(k)} {broken} the window {w}", row=k)
        return self


def sample_equilibrium(dist: GapDistribution, n: int, seed: int) -> Pairs:
    """Draw n equilibrium pairs (R, S) for the given gap distribution.

    The covering gap Q is drawn from the size-biased law q f(q) / mu and the
    observation point is uniform inside it: R ~ U(0, Q), S = Q - R.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = derived_rng(seed)
    q = dist.sample_length_biased(rng, n)
    r = rng.uniform(size=n) * q
    return Pairs(r, q - r, np.zeros(n, dtype=bool))


def apply_right_censoring(pairs: Pairs, cens_dist: GapDistribution, seed: int) -> Pairs:
    """Censor each forward time at an independent draw from cens_dist.

    s becomes min(s, c) and the flag records whether the draw cut it short.
    Input pairs must be uncensored.
    """
    if pairs.censored.any():
        raise EstimationError("input pairs must be uncensored")
    rng = derived_rng(seed)
    cuts = np.asarray(cens_dist.sample(rng, len(pairs)), dtype=float)
    cut = cuts < pairs.s
    return Pairs(pairs.r, np.where(cut, cuts, pairs.s), cut)


def sample_window_replicates(
    dist: GapDistribution, t1: float, t2: float, n_windows: int, seed: int
) -> list[WindowRecords]:
    """Independent window realizations: ``sample_pooled_windows`` split per window."""
    return _split(*sample_pooled_windows(dist, t1, t2, n_windows, seed))


def sample_pooled_windows(
    dist: GapDistribution, t1: float, t2: float, n_windows: int, seed: int
) -> tuple[WindowRecords, np.ndarray]:
    """Stationary realizations watched on [t1, t2], one per window, in one
    container in window order, with the end row of each window.

    A window whose first renewal lands inside it gives a forward-recurrence
    record, the complete gaps and one trailing censored gap; otherwise it
    gives a single empty-window record. Only the length t2 - t1 matters.
    The one stream derived_rng(seed) draws every window's first renewal,
    then in rounds a matrix of _GAP_CHUNK gaps for each window still inside,
    until none is. So window k depends on n_windows too.
    """
    window, code, value = _windows_drawn(dist, t1, t2, n_windows, seed)
    order = np.argsort(window, kind="stable")  # each window's records in round order
    ends = np.cumsum(np.bincount(window, minlength=n_windows))
    return WindowRecords(code[order], value[order]), ends


def _windows_drawn(dist, t1, t2, n_windows, seed):
    """``sample_pooled_windows`` in draw order: the window, kind code and value of each record."""
    w = window_length_checked(t2 - t1)
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    if (renewals := n_windows * w / dist.mean()) > WINDOW_MAX_RENEWALS:
        raise EstimationError(f"window length {w} over {n_windows} windows expects {renewals:.3g} "
                              f"renewals, more than WINDOW_MAX_RENEWALS = {WINDOW_MAX_RENEWALS}")
    rng = derived_rng(seed)
    v = dist.sample_equilibrium_recurrence(rng, n_windows)
    # (window, code, value) of each record: the first entry v gives a forward record, or an empty
    # one past w; gaps ending inside are complete, the one across w is censored, the rest unseen.
    rounds = [(np.arange(n_windows), np.int8(2) + (v > w), np.minimum(v, w))]
    live, pos = np.flatnonzero(v <= w), v[v <= w]
    while live.size:  # a chunk of gaps for every window still inside
        gaps = dist.sample(rng, live.size * _GAP_CHUNK).reshape(-1, _GAP_CHUNK)
        times = gaps.copy()
        times[:, 0] += pos
        np.cumsum(times, axis=1, out=times)  # sequential sums from pos
        k = (times <= w).sum(axis=1)  # each row's complete gaps; then its censored one, if any
        row = np.flatnonzero(k < _GAP_CHUNK)
        gaps[row, k[row]] = w - np.where(k[row] > 0, times[row, k[row] - 1], pos[row])
        seen = np.arange(_GAP_CHUNK) <= k[:, None]
        rounds.append((np.repeat(live, seen.sum(axis=1)), (times > w)[seen], gaps[seen]))
        live, pos = live[k == _GAP_CHUNK], times[k == _GAP_CHUNK, -1]
        del gaps, times  # before the next round's draws, or the records' join
    return tuple(map(np.concatenate, zip(*rounds)))


def _split(pooled, ends: np.ndarray) -> list:
    """The windows of a pooled container, given the end row of each."""
    return [pooled[start:end] for start, end in zip(np.append(0, ends[:-1]), ends)]


def sample_segment_replicates(
    birth_rate: float, dist: GapDistribution, t1: float, t2: float, n_windows: int, seed: int
) -> list[Segments]:
    """Independent segment windows: ``sample_pooled_segments`` split per
    window. Exact, from the one stream derived_rng(seed), so window k
    depends on n_windows too."""
    return _split(*sample_pooled_segments(birth_rate, dist, t1, t2, n_windows, seed))


def _birth_order(window, b):
    """``np.lexsort((b, window))`` in O(n + windows) memory: one sort of the distinct keys
    window * n + rank of b, alike on any kernel. Equal b (-0.0, 0.0 too) rank in draw order."""
    by_b = np.argsort(b)
    if (b[by_b[1:]] == b[by_b[:-1]]).any():
        by_b = np.argsort(b, kind="stable")
    rank = np.empty_like(by_b)
    rank[by_b] = np.arange(b.size)
    return np.argsort(window * b.size + rank)


def sample_pooled_segments(
    birth_rate: float, dist: GapDistribution, t1: float, t2: float, n_windows: int, seed: int
) -> tuple[Segments, np.ndarray]:
    """Observed lifetime intersections with [t1, t2], for n_windows
    independent windows, in one container in window order (and each window
    in birth order), with the end row of each window. The law is exact, with
    no truncation quantile: of the births at the given Poisson rate, those alive
    at t1 are Poisson(rate * mu) equilibrium pairs (a length-biased lifetime
    split at a uniform age; Cox 1962), and those inside are Poisson(rate * w)
    at uniform positions. In array passes over all windows, the one stream
    derived_rng(seed) draws both counts, lifetimes and ages, then positions
    and lifetimes, so window k depends on n_windows too.
    """
    counts, keep, b, code, length = _segments_drawn(birth_rate, dist, t1, t2, n_windows, seed)
    window = np.repeat(np.tile(np.arange(n_windows), 2), counts)[keep]
    order = _birth_order(window, b)
    ends = np.cumsum(np.bincount(window, minlength=n_windows))
    return Segments(code[order], length[order]), ends


def _segments_drawn(birth_rate, dist, t1, t2, n_windows, seed):
    """``sample_pooled_segments`` in draw order: the births of each window, alive at t1 then
    inside, which rows are kept, and each kept row's birth time b relative to t1, code and length."""
    w = window_length_checked(t2 - t1)
    if not 0.0 < birth_rate < math.inf:
        raise ValueError(f"birth_rate must be finite and positive, got {birth_rate}")
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    if (births := n_windows * birth_rate * (dist.mean() + w)) > SEGMENT_MAX_BIRTHS:
        raise EstimationError(f"window length {w} over {n_windows} windows expects {births:.3g} "
                              f"births, more than SEGMENT_MAX_BIRTHS = {SEGMENT_MAX_BIRTHS}")
    rng = derived_rng(seed)
    alive, born = rng.poisson(birth_rate * np.array([dist.mean(), w]), size=(n_windows, 2)).T
    q = dist.sample_length_biased(rng, alive.sum())
    age = rng.uniform(size=q.size) * q
    position = rng.uniform(0.0, w, size=born.sum())
    # Birth times b relative to t1 and lifetimes x, in (group, window) blocks
    b, x = np.append(-age, position), np.append(q, dist.sample(rng, position.size))
    d = b + x
    # 0 pc, 1 px, 2 rc, 3 rx: born before the window start (residual),
    # dying after its end (censored). A pc length is the lifetime itself.
    code = 2 * (b < 0.0) + (d > w)
    length = np.where(code == 0, x, np.minimum(d, w) - np.maximum(b, 0.0))
    keep = length > 0.0
    return np.append(alive, born), keep, b[keep], code[keep], length[keep]

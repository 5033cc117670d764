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
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .distributions import GapDistribution
from .errors import EstimationError
from .seeding import derived_rng

_GAP_CHUNK = 8  # gaps drawn per round for each window still being filled

# The kind codes of window records and segments, as written in the CSVs.
WINDOW_KINDS = ("complete", "censored", "forward", "empty")
SEGMENT_KINDS = ("pc", "px", "rc", "rx")


def window_length_checked(w: float) -> float:
    """w itself, once checked to be finite and positive."""
    if not 0.0 < w < math.inf:
        raise EstimationError(f"window length must be finite and positive, got {w}")
    return w


def _kind_codes(kind: np.ndarray, codes: tuple, what: str) -> np.ndarray:
    """The index in ``codes`` of each kind, once kinds outside ``codes`` are
    rejected. Containers do not check their codes on construction, which
    every ``records[idx]`` runs."""
    order = np.argsort(codes)
    table = np.asarray(codes)[order]
    pos = np.searchsorted(table, kind).clip(max=len(codes) - 1)
    unknown = table[pos] != kind
    if unknown.any():
        k = int(np.argmax(unknown))
        raise EstimationError(f"{what} {k} has unknown kind {str(kind[k])!r}")
    return order[pos]


class _Columns:
    """Observations stored as columns: every field is a numpy array, one
    entry per observation.

    ``len()`` counts the observations. ``records[i]`` with an int gives a
    one-row item of the same class whose fields are Python scalars; a slice
    or an index array gives a container. Iterating yields the one-row
    items, and ``concat`` joins containers and one-row items in order.
    """

    __slots__ = ()
    DTYPES: ClassVar[tuple] = ()

    def __post_init__(self):
        # __match_args__ is the dataclass's tuple of field names, in order.
        for name, dtype in zip(self.__match_args__, self.DTYPES):
            col = np.asarray(getattr(self, name), dtype=dtype)
            object.__setattr__(self, name, col if col.ndim else col.item())

    def _columns(self) -> list:
        return [getattr(self, name) for name in self.__match_args__]

    def __len__(self) -> int:
        return np.size(getattr(self, self.__match_args__[0]))

    def __getitem__(self, idx):
        return type(self)(*(col[idx] for col in self._columns()))

    def __iter__(self):
        # The items are built without __init__: the fields come from
        # tolist() as Python scalars already, and this is five times faster.
        cls, names = type(self), self.__match_args__
        for values in zip(*(col.tolist() for col in self._columns())):
            item = object.__new__(cls)
            for name, value in zip(names, values):
                object.__setattr__(item, name, value)
            yield item

    @classmethod
    def concat(cls, parts):
        """One container holding the rows of ``parts`` in order."""
        # hstack, unlike concatenate, also takes the scalar fields of one-row items.
        return cls(*(
            np.hstack([getattr(p, name) for p in parts] or [np.empty(0, dtype)])
            for name, dtype in zip(cls.__match_args__, cls.DTYPES)
        ))


@dataclass(frozen=True, slots=True, eq=False)
class Pairs(_Columns):
    """Equilibrium pairs: backward times r, forward times s, and whether
    each s was cut short by censoring."""

    r: np.ndarray
    s: np.ndarray
    censored: np.ndarray
    DTYPES: ClassVar[tuple] = (float, float, bool)

    @property
    def q(self) -> np.ndarray:
        """Covering gaps r + s (the exact gap only where uncensored)."""
        return self.r + self.s


@dataclass(frozen=True, slots=True, eq=False)
class WindowRecords(_Columns):
    """Records from watching a renewal process in windows: one kind code
    from WINDOW_KINDS and one value per record."""

    kind: np.ndarray
    value: np.ndarray
    DTYPES: ClassVar[tuple] = (str, float)


@dataclass(frozen=True, slots=True, eq=False)
class Segments(_Columns):
    """Observed intersections of lifetimes with a window: one kind code
    from SEGMENT_KINDS and one length per segment."""

    kind: np.ndarray
    length: np.ndarray
    DTYPES: ClassVar[tuple] = (str, float)

    def check_window(self, w: float) -> np.ndarray:
        """The index of each kind in SEGMENT_KINDS, once kind codes outside
        it and lengths the window geometry cannot produce are rejected:
        lengths that are not finite and positive, ``pc``, ``px`` and ``rc``
        lengths above w, and ``rx`` lengths other than w. An ``rx`` length
        is computed as t2 - t1, so it may differ from w by rounding: 1e-12
        relative is allowed. The window itself must be finite and
        positive."""
        window_length_checked(w)
        code = _kind_codes(self.kind, SEGMENT_KINDS, "segment")
        rx = code == 3  # SEGMENT_KINDS.index("rx")
        fits = np.where(rx, np.abs(self.length - w) <= 1e-12 * w, self.length <= w)
        bad = ~(fits & (self.length > 0.0))  # also true where the length is nan or inf
        if bad.any():
            k = int(np.argmax(bad))
            broken = f"{'must equal' if rx[k] else 'exceeds'} the window {w}"
            if not np.isfinite(self.length[k]):
                broken = "is not finite"
            elif self.length[k] <= 0.0:
                broken = "is not positive"
            raise EstimationError(f"segment {k} ({self.kind[k]} {self.length[k]}) {broken}")
        return code


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
    w = window_length_checked(t2 - t1)
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    rng = derived_rng(seed)
    v = dist.sample_equilibrium_recurrence(rng, n_windows)
    rounds = [(np.arange(n_windows), v, v)]  # (window, value, time) of each draw
    live, pos = np.flatnonzero(v <= w), v[v <= w]
    while live.size:  # a chunk of gaps for every window still inside
        gaps = dist.sample(rng, live.size * _GAP_CHUNK).reshape(-1, _GAP_CHUNK)
        times = np.cumsum(np.column_stack([pos, gaps]), axis=1)[:, 1:]  # sequential sums
        rounds.append((np.repeat(live, _GAP_CHUNK), gaps.ravel(), times.ravel()))
        inside = times[:, -1] <= w
        live, pos = live[inside], times[inside, -1]
    window, value, time = map(np.concatenate, zip(*rounds))
    order = np.argsort(window, kind="stable")  # each window's draws in round order
    window, value, time = window[order], value[order], time[order]
    # A window's first entry v gives a forward record, or an empty one past w.
    # Gaps ending inside are complete, the one across w is censored, the rest go.
    head = np.append(True, window[1:] != window[:-1])
    before = np.append(np.inf, time[:-1])
    inside = time <= w
    keep = head | (before <= w)
    code = 2 * head + ~inside  # index into WINDOW_KINDS
    value = np.where(inside, value, np.where(head, w, w - before))
    ends = np.cumsum(np.bincount(window[keep], minlength=n_windows))
    return WindowRecords(np.array(WINDOW_KINDS)[code[keep]], value[keep]), ends


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
    and lifetimes, so window k depends on n_windows too. One stable sort of
    each (group, window) block puts the births in order.
    """
    w = window_length_checked(t2 - t1)
    if not 0.0 < birth_rate < math.inf:
        raise ValueError(f"birth_rate must be finite and positive, got {birth_rate}")
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    rng = derived_rng(seed)
    alive, born = rng.poisson(birth_rate * np.array([dist.mean(), w]), size=(n_windows, 2)).T
    q = dist.sample_length_biased(rng, alive.sum())
    age = rng.uniform(size=q.size) * q
    position = rng.uniform(0.0, w, size=born.sum())
    # Birth times b relative to t1 and lifetimes x, in (group, window) blocks;
    # each block's b, nan-padded, is a matrix row. Its alive row, then its born
    # row, give np.lexsort((b, window)) of a window, as alive b <= 0 <= born b.
    b, x = np.append(-age, position), np.append(q, dist.sample(rng, position.size))
    count = np.append(alive, born)
    start = np.cumsum(count) - count
    width = count.max()
    keys = np.full(count.size * width, np.nan)
    keys[np.arange(b.size) + np.repeat(np.arange(count.size) * width - start, count)] = b
    col = np.argsort(keys.reshape(count.size, width), axis=1, kind="stable")
    first = (start[:, None] + col).reshape(2, n_windows, width).transpose(1, 0, 2)
    real = (np.arange(width) < count[:, None]).reshape(2, n_windows, width).transpose(1, 0, 2)
    order = first[real]
    window, b, x = np.repeat(np.arange(n_windows), alive + born), b[order], x[order]
    d = b + x
    # 0 pc, 1 px, 2 rc, 3 rx: born before the window start (residual),
    # dying after its end (censored). A pc length is the lifetime itself.
    code = 2 * (b < 0.0) + (d > w)
    length = np.where(code == 0, x, np.minimum(d, w) - np.maximum(b, 0.0))
    keep = length > 0.0
    ends = np.cumsum(np.bincount(window[keep], minlength=n_windows))
    return Segments(np.array(SEGMENT_KINDS)[code[keep]], length[keep]), ends

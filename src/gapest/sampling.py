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
and ``Segments``. All generators are pure functions of (inputs, seed);
replicate k of a multi-window run uses the derived stream
``derived_rng(seed, k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .distributions import GapDistribution
from .errors import EstimationError
from .seeding import derived_rng, derived_rngs

# Births earlier than this quantile of the lifetime law cannot reach the
# window except with probability below the Monte Carlo test tolerances.
SEGMENT_TRUNCATION_QUANTILE = 1.0 - 1e-9

_GAP_CHUNK = 8  # gaps drawn per batch while filling a window

# The kind codes of window records and segments, as written in the CSVs.
WINDOW_KINDS = ("complete", "censored", "forward", "empty")
SEGMENT_KINDS = ("pc", "px", "rc", "rx")


def window_length_checked(w: float) -> float:
    """w itself, once checked to be finite and positive."""
    if not 0.0 < w < math.inf:
        raise EstimationError(f"window length must be finite and positive, got {w}")
    return w


def _check_kinds(kind: np.ndarray, codes: tuple, what: str) -> None:
    """Reject kind codes outside ``codes``. Containers do not check their
    codes on construction, which every ``records[idx]`` runs."""
    unknown = ~np.isin(kind, codes)
    if unknown.any():
        k = int(np.argmax(unknown))
        raise EstimationError(f"{what} {k} has unknown kind {str(kind[k])!r}")


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

    def check_window(self, w: float) -> None:
        """Reject kind codes outside SEGMENT_KINDS and lengths the window
        geometry cannot produce: non-finite lengths, ``pc``, ``px`` and
        ``rc`` lengths above w, and ``rx`` lengths other than w. An ``rx``
        length is computed as t2 - t1, so it may differ from w by rounding:
        1e-12 relative is allowed. The window itself must be finite and
        positive."""
        window_length_checked(w)
        _check_kinds(self.kind, SEGMENT_KINDS, "segment")
        rx = self.kind == "rx"
        fits = np.where(rx, np.abs(self.length - w) <= 1e-12 * w, self.length <= w)
        bad = ~(fits & np.isfinite(self.length))
        if bad.any():
            k = int(np.argmax(bad))
            broken = f"{'must equal' if rx[k] else 'exceeds'} the window {w}"
            if not np.isfinite(self.length[k]):
                broken = "is not finite"
            raise EstimationError(f"segment {k} ({self.kind[k]} {self.length[k]}) {broken}")


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
    """Independent window realizations; window k uses derived_rng(seed, k)."""
    return _split(*sample_pooled_windows(dist, t1, t2, n_windows, seed))


def sample_pooled_windows(
    dist: GapDistribution, t1: float, t2: float, n_windows: int, seed: int
) -> tuple[WindowRecords, np.ndarray]:
    """Stationary realizations watched on [t1, t2], one per window, in one
    container in window order, with the end row of each window.

    A window whose first renewal lands inside it gives a forward-recurrence
    record, the complete gaps and one trailing censored gap; otherwise it
    gives a single empty-window record. Only the length t2 - t1 matters.
    Window k draws its first renewal and then its gaps, _GAP_CHUNK at a
    time, from derived_rng(seed, k).
    """
    w = window_length_checked(t2 - t1)
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    first = np.empty((n_windows, 1 + _GAP_CHUNK))  # v, then the first chunk
    for row, rng in zip(first, derived_rngs(seed, np.arange(n_windows)[:, None])):
        row[0] = dist.sample_equilibrium_recurrence(rng, 1)[0]
        row[1:] = dist.sample(rng, _GAP_CHUNK)
    times = np.cumsum(first, axis=1)  # sequential sums, as a running position adds
    # A window still inside after its first chunk takes its stream again,
    # repeats the draws above and draws on, a chunk at a time.
    longer = np.flatnonzero(times[:, -1] <= w)
    draws, times = list(first), list(times)
    for k, rng in zip(longer, derived_rngs(seed, longer[:, None])):
        path = np.append(dist.sample_equilibrium_recurrence(rng, 1), dist.sample(rng, _GAP_CHUNK))
        while np.cumsum(path)[-1] <= w:
            path = np.append(path, dist.sample(rng, _GAP_CHUNK))
        draws[k], times[k] = path, np.cumsum(path)
    window = np.repeat(np.arange(n_windows), [d.size for d in draws])
    value, time = np.concatenate(draws), np.concatenate(times)
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
    """Independent segment windows; window k uses derived_rng(seed, k)."""
    return _split(*sample_pooled_segments(birth_rate, dist, t1, t2, n_windows, seed))


def sample_pooled_segments(
    birth_rate: float, dist: GapDistribution, t1: float, t2: float, n_windows: int, seed: int
) -> tuple[Segments, np.ndarray]:
    """Observed lifetime intersections with [t1, t2], for n_windows
    independent windows, in one container in window order, with the end
    row of each window. Window k uses derived_rng(seed, k).

    Births form a Poisson process of the given rate; the simulation covers
    births back to t1 - L where L is the SEGMENT_TRUNCATION_QUANTILE point
    of the lifetime law, so earlier births are observable only with
    negligible probability. Each window's segments are in birth order,
    and all windows are classified in one array pass.
    """
    w = window_length_checked(t2 - t1)
    if birth_rate <= 0:
        raise ValueError(f"birth_rate must be positive, got {birth_rate}")
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    lmax = float(dist.ppf(SEGMENT_TRUNCATION_QUANTILE))
    span = w + lmax
    births, lifetimes = [], []
    for rng in derived_rngs(seed, np.arange(n_windows)[:, None]):
        count = rng.poisson(birth_rate * span)
        births.append(np.sort(rng.uniform(-lmax, w, size=count)))
        lifetimes.append(dist.sample(rng, count))
    window = np.repeat(np.arange(n_windows), [b.size for b in births])
    b, x = np.concatenate(births), np.concatenate(lifetimes)
    d = b + x
    # 0 pc, 1 px, 2 rc, 3 rx: born before the window start (residual),
    # dying after its end (censored). A pc length is the lifetime itself.
    code = 2 * (b < 0.0) + (d > w)
    length = np.where(code == 0, x, np.minimum(d, w) - np.maximum(b, 0.0))
    keep = (d > 0.0) & (b < w) & (length > 0.0)
    ends = np.cumsum(np.bincount(window[keep], minlength=n_windows))
    return Segments(np.array(SEGMENT_KINDS)[code[keep]], length[keep]), ends

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
from .seeding import derived_rng

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
        geometry cannot produce: ``pc``, ``px`` and ``rc`` lengths above w,
        and ``rx`` lengths other than w. An ``rx`` length is computed as
        t2 - t1, so it may differ from w by rounding: 1e-12 relative is
        allowed. The window itself must be finite and positive."""
        window_length_checked(w)
        _check_kinds(self.kind, SEGMENT_KINDS, "segment")
        rx = self.kind == "rx"
        bad = np.where(rx, np.abs(self.length - w) > 1e-12 * w, self.length > w)
        if bad.any():
            k = int(np.argmax(bad))
            broken = "must equal" if rx[k] else "exceeds"
            raise EstimationError(
                f"segment {k} ({self.kind[k]} {self.length[k]}) {broken} the window {w}"
            )


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


def sample_renewal_path(
    dist: GapDistribution, window_length: float, seed: int
) -> tuple[float, list[float]]:
    """One stationary realization on a window of the given length.

    Returns (v, gaps): v is the offset of the first renewal past the window
    start (equilibrium recurrence draw), gaps the subsequent interarrival
    times, generated until they carry the path past the window end. gaps is
    empty when v alone overshoots the window.
    """
    return _renewal_path(dist, window_length_checked(window_length), derived_rng(seed))


def _renewal_path(dist: GapDistribution, w: float, rng) -> tuple[float, list[float]]:
    v = float(dist.sample_equilibrium_recurrence(rng, 1)[0])
    gaps: list[float] = []
    if v > w:
        return v, gaps
    pos = v
    while True:
        for x in dist.sample(rng, _GAP_CHUNK):
            gaps.append(float(x))
            pos += float(x)
            if pos > w:
                return v, gaps


def _classify_path(v: float, gaps: list[float], w: float) -> WindowRecords:
    if v > w:
        return WindowRecords(["empty"], [w])
    kinds, values, pos = ["forward"], [v], v
    for x in gaps:
        if pos + x <= w:
            kinds.append("complete")
            values.append(x)
            pos += x
        else:
            kinds.append("censored")
            values.append(w - pos)
            break
    return WindowRecords(kinds, values)


def sample_window(dist: GapDistribution, t1: float, t2: float, seed: int) -> WindowRecords:
    """Observe one stationary realization on [t1, t2].

    Emits a forward-recurrence record when a renewal lands in the window
    (followed by the complete gaps and one trailing censored gap), or a
    single empty-window record. Only the length t2 - t1 matters.
    """
    w = window_length_checked(t2 - t1)
    v, gaps = sample_renewal_path(dist, w, seed)
    return _classify_path(v, gaps, w)


def sample_window_replicates(
    dist: GapDistribution, t1: float, t2: float, n_windows: int, seed: int
) -> list[WindowRecords]:
    """Independent window realizations; window k uses derived_rng(seed, k)."""
    w = window_length_checked(t2 - t1)
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    out = []
    for k in range(n_windows):
        v, gaps = _renewal_path(dist, w, derived_rng(seed, k))
        out.append(_classify_path(v, gaps, w))
    return out


def sample_segments(
    birth_rate: float, dist: GapDistribution, t1: float, t2: float, seed: int
) -> Segments:
    """Observed lifetime intersections with [t1, t2] for one window.

    Births form a Poisson process of the given rate; the simulation covers
    births back to t1 - L where L is the SEGMENT_TRUNCATION_QUANTILE point
    of the lifetime law, so earlier births are observable only with
    negligible probability. Segments are returned in birth order.
    """
    w = window_length_checked(t2 - t1)
    if birth_rate <= 0:
        raise ValueError(f"birth_rate must be positive, got {birth_rate}")
    return _segment_windows(birth_rate, dist, w, [derived_rng(seed)])[0]


def sample_segment_replicates(
    birth_rate: float, dist: GapDistribution, t1: float, t2: float, n_windows: int, seed: int
) -> list[Segments]:
    """Independent segment windows; window k uses derived_rng(seed, k)."""
    w = window_length_checked(t2 - t1)
    if birth_rate <= 0:
        raise ValueError(f"birth_rate must be positive, got {birth_rate}")
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    rngs = (derived_rng(seed, k) for k in range(n_windows))
    return _segment_windows(birth_rate, dist, w, rngs)


def _segment_windows(
    birth_rate: float, dist: GapDistribution, w: float, rngs
) -> list[Segments]:
    """The segments of one window per generator, classified in one pass."""
    lmax = float(dist.ppf(SEGMENT_TRUNCATION_QUANTILE))
    span = w + lmax
    births, lifetimes = [], []
    for rng in rngs:
        count = rng.poisson(birth_rate * span)
        births.append(np.sort(rng.uniform(-lmax, w, size=count)))
        lifetimes.append(dist.sample(rng, count))
    window = np.repeat(np.arange(len(births)), [b.size for b in births])
    b, x = np.concatenate(births), np.concatenate(lifetimes)
    d = b + x
    # 0 pc, 1 px, 2 rc, 3 rx: born before the window start (residual),
    # dying after its end (censored). A pc length is the lifetime itself.
    code = 2 * (b < 0.0) + (d > w)
    length = np.where(code == 0, x, np.minimum(d, w) - np.maximum(b, 0.0))
    keep = (d > 0.0) & (b < w) & (length > 0.0)
    ends = np.cumsum(np.bincount(window[keep], minlength=len(births)))
    segs = Segments(np.array(SEGMENT_KINDS)[code[keep]], length[keep])
    return [segs[start:end] for start, end in zip(np.append(0, ends[:-1]), ends)]

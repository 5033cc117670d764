"""Product-limit estimators of the gap-time survival function.

The workhorse is a Kaplan-Meier routine with optional delayed entry (left
truncation). On equilibrium pairs, running it on the covering gaps
q = r + s with entry times r gives the delayed-entry estimator for
length-biased point sampling; on window data it uses the complete and
censored gaps; on line segments it implements the forward-backward
combination that enters every fully observed lifetime twice, every singly
censored one once, and drops the doubly censored ones.

Pointwise uncertainty comes from the Greenwood formula or from a
nonparametric bootstrap over observation units.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import npmle
from .distributions import normalised, step_at
from .errors import EstimationError
from .sampling import Pairs, Segments, WindowRecords
from .seeding import derived_rng, is_integer

BOOTSTRAP_MAX_RETRIES = 100
BOOTSTRAP_MAX_GRID = 4096
# Bytes of one (replicates x units) integer matrix of a band chunk; the
# chunk's other temporaries are a few times this.
BOOTSTRAP_CHUNK_BYTES = 2**18


@dataclass
class StepSurvival:
    """Right-continuous step estimate of a survival function.

    The value is 1 before the first jump time and ``survival_values[i]``
    on [jump_times[i], jump_times[i+1]).
    """

    jump_times: np.ndarray
    survival_values: np.ndarray
    variance_values: np.ndarray | None = None
    event_counts: np.ndarray | None = None
    risk_counts: np.ndarray | None = None

    def __post_init__(self):
        self.jump_times = np.asarray(self.jump_times, dtype=float)
        self.survival_values = np.asarray(self.survival_values, dtype=float)
        if self.variance_values is not None:
            self.variance_values = np.asarray(self.variance_values, dtype=float)

    @classmethod
    def from_masses(cls, atoms, masses) -> "StepSurvival":
        """Survival of a discrete law with ``masses`` at increasing ``atoms``.

        The value at atom i is the tail sum of the masses above it, so it
        never goes below zero and ends at exactly 0.
        """
        return cls(jump_times=atoms, survival_values=_tail_sums(masses, np.empty(np.shape(masses))))

    def survival_at(self, t):
        """Evaluate the step function right-continuously (vectorized)."""
        return step_at(self.jump_times, self.survival_values, t, 1.0)

    def cdf_at(self, t):
        return 1.0 - self.survival_at(t)


def _tail_sums(masses, out):
    """``out``, holding down its first axis the sum of the masses after each
    one, summed from the last mass down, so exact zeros leave every sum unchanged."""
    out[-1:] = 0.0
    np.cumsum(np.asarray(masses, dtype=float)[:0:-1], axis=0, out=out[-2::-1])
    return out


class _Pooled(NamedTuple):
    """The rows a product-limit fit counts, their weights (None: one each) and data units."""

    times: np.ndarray
    censored: np.ndarray
    entry: np.ndarray
    weights: np.ndarray | None
    unit: np.ndarray


def _counter(times, censored, entry, weighted=True):
    """Distinct event times T of weighted rows, the rows' exit order (events
    first at a tie), and a function that maps weights in that order along
    axis 0 -- a vector, a (rows, c) matrix, or None for one per row -- to the
    event counts D and risk counts Y at T. The events at T[k] are the events[k]
    rows from exited[k] on, so one cumsum gives D = cum[exited + events] -
    cum[exited] and Y = w{entry < T} - cum[exited]; entered[k] rows enter before
    T[k]. One per row, cum[k] is k; unless ``weighted``, only one per row counts."""
    order = np.argsort(times)
    exits = times[order]
    if np.any(exits[1:] == exits[:-1]):  # events first at a tie; exits stay as they are
        order = order[np.lexsort((censored[order], exits))]
    ev = np.flatnonzero(~censored[order])
    exits = exits[ev]
    starts = np.flatnonzero(np.append(True, exits[1:] != exits[:-1]))
    event_times = exits[starts]
    del exits  # each n-long array goes as soon as it is used up
    exited, events = ev[starts], np.append(starts[1:], ev.size)
    events -= starts
    del ev, starts
    late = entry.any()
    entered = np.searchsorted(np.sort(entry), event_times) if late else order.size
    by_entry = np.argsort(entry[order]) if late and weighted else None

    def counts(w=None):
        if w is None:
            return events, entered - exited
        # w{entry < T} first, so its temporaries are gone before cum is made
        at_risk = np.cumsum(w[by_entry], axis=0)[entered - 1] if late else w.sum(axis=0)
        cum = np.zeros((w.shape[0] + 1,) + w.shape[1:], dtype=w.dtype)
        np.cumsum(w, axis=0, out=cum[1:])
        before, d = cum[exited], cum[exited + events]
        d -= before
        return d, np.subtract(at_risk, before, out=before)

    return event_times, order, counts


def kaplan_meier(times, censored=None, entry_times=None, weights=None) -> StepSurvival:
    """Product-limit estimator with optional right censoring and delayed entry.

    Parameters
    ----------
    times : observation exit times, positive.
    censored : boolean flags, True where the exit is a censoring time.
        Defaults to all events.
    entry_times : left-truncation entry times; a subject is at risk on
        (entry, exit]. Defaults to zero (classical estimator).
    weights : nonnegative integers; a row of weight k counts as k identical
        observations, and the estimate equals the one on the expanded rows
        bitwise. Defaults to one per row.

    Ties: events at the same time form a single factor 1 - d/Y; a censoring
    tied with an event is processed after it (the censored subject still
    counts as at risk there).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise EstimationError("need at least one observation time")
    if censored is None:
        censored = np.zeros(times.shape, dtype=bool)
    censored = np.asarray(censored, dtype=bool)
    if censored.shape != times.shape:
        raise EstimationError("censored flags must match times")
    if entry_times is None:
        entry_times = np.zeros(times.shape, dtype=float)
    entry_times = np.asarray(entry_times, dtype=float)
    if entry_times.shape != times.shape:
        raise EstimationError("entry times must match times")
    weights = None if weights is None else np.asarray(weights)
    if weights is not None and (weights.shape != times.shape or weights.dtype.kind not in "iu"
                                or np.any(weights < 0)):
        raise EstimationError("weights must be nonnegative integers matching times")
    bad = np.flatnonzero(~np.isfinite(times) | ~np.isfinite(entry_times))
    if bad.size:
        k = bad[0]
        raise EstimationError(
            f"time {times[k]} with entry time {entry_times[k]} at index {k} is not finite", row=k
        )
    if np.any(times <= 0):
        raise EstimationError("observation times must be positive", row=np.argmax(times <= 0))
    if np.any(entry_times < 0):
        raise EstimationError("entry times must be nonnegative", row=np.argmax(entry_times < 0))
    bad = np.nonzero(times <= entry_times)[0]
    if bad.size:
        raise EstimationError(f"time <= entry time at index {bad[0]}", row=bad[0])
    return _product_limit(times, censored, entry_times, weights)


def _product_limit(times, censored, entry_times, weights) -> StepSurvival:
    """``kaplan_meier`` of rows that already pass its argument checks."""
    if weights is not None and not (live := weights > 0).all():  # drop zero-weight rows
        times, censored, entry_times = times[live], censored[live], entry_times[live]
        weights = weights[live]
    if censored.all():
        raise EstimationError("all observations are censored")

    event_times, order, counts = _counter(times, censored, entry_times, weights is not None)
    d, y = counts(None if weights is None else weights[order].astype(np.int64, copy=False))
    del order, counts  # the counting arrays go before the survival is formed
    return StepSurvival(event_times, np.cumprod(1.0 - d / y), event_counts=d, risk_counts=y)


def _fit_rows(rows: _Pooled) -> StepSurvival:
    """``kaplan_meier`` of the rows; a row it names in an error is named by its data unit."""
    try:
        return kaplan_meier(*rows[:4])
    except EstimationError as exc:
        exc.row = exc.row if exc.row is None else rows.unit[exc.row]
        raise


def _pair_rows(pairs: Pairs) -> _Pooled:
    return _Pooled(pairs.q, pairs.censored, pairs.r, None, np.arange(len(pairs)))


def winter_foldes(pairs: Pairs) -> StepSurvival:
    """Delayed-entry product-limit estimator from equilibrium pairs.

    Treats the covering gaps q = r + s as survival times left-truncated at
    the backward times r; censored pairs feed the risk sets but contribute
    no factor. Identical by construction to ``kaplan_meier(q, censored, r)``.
    """
    if not pairs:
        raise EstimationError("need at least one pair")
    if pairs.censored.all():
        raise EstimationError("all pairs are censored")
    return _fit_rows(_pair_rows(pairs))


def _window_rows(obs: WindowRecords) -> _Pooled:
    complete = obs.code == 0  # ``code`` indexes WINDOW_KINDS: 0 complete, 1 censored
    unit = np.flatnonzero(complete | ((obs.code == 1) & ~(obs.value <= 0)))
    return _Pooled(obs.value[unit], ~complete[unit], np.zeros(unit.size), None, unit)


def window_product_limit(obs: WindowRecords) -> StepSurvival:
    """Product-limit estimator from the gap records of window data.

    Uses complete gaps as events and the trailing censored gaps as censored
    observations; forward-recurrence and empty-window records are ignored.
    """
    rows = _window_rows(obs)
    if rows.censored.all():
        raise EstimationError("no complete gaps among the observations")
    return _fit_rows(rows)


def _segment_rows(segments: Segments) -> _Pooled:
    unit = np.flatnonzero(segments.code < 3)  # pc, px and rc: ``code`` indexes SEGMENT_KINDS
    pc = segments.code[unit] == 0
    return _Pooled(segments.length[unit], ~pc, np.zeros(unit.size), np.where(pc, 2, 1), unit)


def palmer_cox(segments: Segments, window_length: float) -> StepSurvival:
    """Forward-backward combined product-limit estimator for segment data.

    Builds one pooled sample: every proper complete length enters twice as
    an event (one row of weight 2), every singly censored length once as a
    censored observation, and residual censored segments are dropped. A
    proper censored segment is right-censored in forward time (birth seen,
    death not). A residual complete segment is the mirror image: reversing
    the time axis swaps births with deaths and maps it to a segment whose
    "birth" (the death) is seen and whose end is cut off at the window
    edge, so its observed length enters as right-censored too. The combined
    sample is therefore invariant under time reversal, which just swaps the
    two singly censored kinds.

    Lengths that the window cannot produce are rejected as malformed input
    (``Segments.check_window``, which also needs a finite, positive window
    length), as are lengths that are not finite and positive (``Segments``).
    """
    rows = _segment_rows(segments.check_window(window_length))
    if rows.times.size == 0:
        raise EstimationError("no usable segments after discarding doubly censored ones")
    return _product_limit(*rows[:4])  # Segments rows pass every check of kaplan_meier


def greenwood_variance(est: StepSurvival) -> StepSurvival:
    """Attach the Greenwood pointwise variance to a product-limit estimate.

    variance(t) = S(t)^2 * sum_{q <= t} d / (Y (Y - d)), from the estimate's
    event and risk counts. At a jump where Y == d the survival hits zero and
    the variance is reported as NaN from there on.
    """
    if est.event_counts is None or est.risk_counts is None:
        raise EstimationError("event and risk counts are required")
    d = np.asarray(est.event_counts)  # read as floats by each operation
    y = np.array(est.risk_counts, dtype=float)  # a copy, turned into the terms in place
    if d.shape != est.jump_times.shape or y.shape != est.jump_times.shape:
        raise EstimationError("counts do not align with the jump times")
    exhausted = y <= d
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.divide(d, np.multiply(y, y - d, out=y), out=y)
    terms[exhausted] = np.nan
    variance = est.survival_values**2
    variance *= np.cumsum(terms, out=terms)
    return dataclasses.replace(est, variance_values=variance)


@dataclass
class BootstrapBand:
    """Pointwise bootstrap quantile band for a survival estimate."""

    times: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_resamples: int
    failures: int = 0

    def lower_at(self, t):
        return step_at(self.times, self.lower, t, 1.0)

    def upper_at(self, t):
        return step_at(self.times, self.upper, t, 1.0)


@dataclass(frozen=True)
class Estimator:
    """One registered estimator.

    ``scheme`` names the observation scheme whose records it reads,
    ``bootstrap_name`` is its name in ``bootstrap_band`` (None when it has
    no band), ``fit(data, window_length)`` returns its survival estimate
    (None for ``em``, whose problem ``npmle.em_problem`` builds), and
    ``rows(data)`` gives the pooled rows its band resamples (None when it
    has no band).
    """

    scheme: str
    bootstrap_name: str | None
    fit: Callable[..., StepSurvival] | None
    rows: Callable[..., _Pooled] | None


# The fits look the estimators up by name when called, never holding the
# function objects, so a caller that rebinds a module attribute (a tracer,
# a test double) is seen on every path.
def _fit_cox_vardi(data, window_length) -> StepSurvival:
    dist = npmle.cox_vardi_from_pairs(data)
    return StepSurvival.from_masses(dist.atoms, dist.masses)


# Keyed by CLI tag; the order within a scheme is the default order of
# ``McConfig.estimators``.
ESTIMATORS = {
    "wf": Estimator("equilibrium", "winter_foldes", lambda d, w: winter_foldes(d), _pair_rows),
    "cv": Estimator("equilibrium", "cox_vardi", _fit_cox_vardi, _pair_rows),
    "wpl": Estimator("window", "window_pl", lambda d, w: window_product_limit(d), _window_rows),
    "palmer_cox": Estimator("segments", "palmer_cox", lambda d, w: palmer_cox(d, w), _segment_rows),
    "em": Estimator("segments", None, None, None),
}


def _mass_survival(atoms, counts, out):
    """Into ``out``, survival columns of ``cox_vardi``'s masses count/atom, one
    per column of (atoms, replicates) counts. Masses and tails are running sums
    down a column, which the zero counts of undrawn atoms leave unchanged, so a
    column equals the fit on its resample bitwise; before its first drawn atom it is 1."""
    _tail_sums(normalised(np.divide(counts, atoms[:, None], order="C"), axis=0), out)
    np.copyto(out, 1.0, where=np.arange(atoms.size)[:, None] < np.argmax(counts > 0, axis=0))


def _sorted_quantile(values, q):
    """``np.quantile(values, q, axis=1)`` for rows already sorted, bitwise:
    numpy's linear-method lerp of the order statistics around (B - 1) q."""
    last = values.shape[1] - 1
    v = last * q
    j = int(v)
    g = v - j
    a, b = values[:, j], values[:, min(j + 1, last)]
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


def bootstrap_band(
    data,
    estimator: str,
    B: int,
    seed: int,
    level: float = 0.95,
    grid=None,
    window_length: float | None = None,
) -> BootstrapBand:
    """Pointwise bootstrap quantile bands for one of the survival estimators.

    ``estimator`` is a ``bootstrap_name`` from ESTIMATORS. ``data`` is a
    ``Pairs``, ``WindowRecords`` or ``Segments`` container, or a list of
    them (for example the one-row items that iterating one yields), which
    is joined with ``concat`` first. The estimator is fitted to the whole
    data first, so input it rejects fails at once with its own message.

    Observation units are resampled with replacement B times. Retry 0 of
    replicate b is row b of one (B, n) matrix of uniforms u from the stream
    derived from (seed, 0, 0), drawn a chunk of rows at a time, and its
    indices are floor(u n); a draw with no event is redrawn from the stream
    (seed, b, retry), retry = 1, 2, ..., up to BOOTSTRAP_MAX_RETRIES times,
    and ``failures`` counts the redraws. A chunk of replicates (sized by
    BOOTSTRAP_CHUNK_BYTES) is one index matrix; one ``bincount`` of its
    units' slots gives each replicate's counts in a row. A slot is the place
    of the unit's row in ``_counter``'s exit order, counted by one ``cumsum``
    at the event times of the whole data (a factor 1 - d/max(Y, 1) is 1 where
    d = 0), or for ``cox_vardi``, whose rows are all events entered at 0, its
    atom (``_mass_survival``). Each replicate equals its resample's fit, bitwise.

    The band is evaluated on ``grid`` if given (its points must be
    finite), otherwise on the pooled jump times of all replicates
    (subsampled to BOOTSTRAP_MAX_GRID quantile-spaced points when larger).
    Its bounds are ``np.quantile``'s default quantiles of the replicates,
    read from the sorted replicates at each grid point (in place when the
    grid is every event time).
    """
    if not is_integer(B) or B < 1:
        raise ValueError(f"B must be an integer >= 1, got {B!r}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if grid is not None:
        grid = np.array(grid, dtype=float, ndmin=1)
        bad = np.flatnonzero(~np.isfinite(grid))
        if bad.size:
            raise ValueError(f"grid point {bad[0]} is not finite: {grid[bad[0]]}")
    row = next((r for r in ESTIMATORS.values() if r.bootstrap_name == estimator), None)
    if row is None:
        raise EstimationError(f"unknown bootstrap estimator {estimator!r}")
    if row.scheme == "segments" and window_length is None:
        raise EstimationError(f"{estimator} bootstrap needs window_length")
    if not data:
        raise EstimationError("no data to resample")
    if isinstance(data, list):
        data = type(data[0]).concat(data)
    row.fit(data, window_length)  # rejects invalid input before any draw
    rows = row.rows(data)
    n = len(data)
    if mass := estimator == "cox_vardi":  # a row's slot: its atom, or its place in exit order
        event_times, place = np.unique(rows.times, return_inverse=True)
    else:
        event_times, order, counts = _counter(rows.times, rows.censored, rows.entry)
        place = np.argsort(order)
        weights = None if rows.weights is None else rows.weights[order, None]
    slots = place.max() + 2  # units without a row share a spare last slot
    slot = np.full(n, slots - 1)
    slot[rows.unit] = place

    def tally(idx):
        # one bincount of slot + slots * replicate: replicate-major rows, read as (slots, m)
        m = len(idx)
        keys = slot[idx]
        keys += slots * np.arange(m)[:, None]
        w = np.bincount(keys.ravel(), minlength=slots * m).reshape(m, slots).T[:-1]
        return (w, None) if mass else counts(w if weights is None else w * weights)

    survival = np.empty((event_times.size + 1, B))
    survival[0] = 1.0  # the value before the first event time
    jumped = np.zeros(event_times.size, dtype=bool)
    chunk = max(1, min(B, BOOTSTRAP_CHUNK_BYTES // (8 * n)))
    rng = derived_rng(seed, 0, 0)
    failures = 0
    for lo in range(0, B, chunk):
        m = min(chunk, B - lo)
        # One 64-bit output per index, so the rows do not depend on the chunk
        # size; u <= 1 - 2**-53 keeps u * n below n for any n < 2**53.
        idx = (rng.random((m, n)) * n).astype(np.intp)
        d, y = tally(idx)
        redraw = np.flatnonzero(~d.any(axis=0))  # replicates with no event
        for i in redraw:
            for retry in range(1, BOOTSTRAP_MAX_RETRIES):
                idx[i] = (derived_rng(seed, lo + i, retry).random(n) * n).astype(np.intp)
                if tally(idx[i, None])[0].any():
                    break
            else:
                raise EstimationError(f"no event in {BOOTSTRAP_MAX_RETRIES} consecutive resamples")
            failures += retry
        if redraw.size:
            d, y = tally(idx)
        jumped |= d.any(axis=1)
        if mass:
            _mass_survival(event_times, d, survival[1:, lo:lo + m])
        else:
            np.cumprod(1.0 - d / np.maximum(y, 1), axis=0, out=survival[1:, lo:lo + m])

    if grid is None:
        grid = event_times[jumped]
        if grid.size > BOOTSTRAP_MAX_GRID:
            grid = np.unique(np.quantile(grid, np.linspace(0.0, 1.0, BOOTSTRAP_MAX_GRID)))

    at = np.searchsorted(event_times, grid, side="right")
    values = survival[1:] if np.array_equal(at, np.arange(1, len(survival))) else survival[at]
    values.sort(axis=1)
    alpha = 1.0 - level
    lower, upper = (_sorted_quantile(values, q) for q in (alpha / 2.0, 1.0 - alpha / 2.0))
    return BootstrapBand(times=grid, lower=lower, upper=upper, n_resamples=B, failures=failures)

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

import numpy as np

from .errors import EstimationError
from .sampling import Pairs, Segments, WindowRecords
from .seeding import derived_rng

BOOTSTRAP_MAX_RETRIES = 100
BOOTSTRAP_MAX_GRID = 4096


def step_at(times, values, t, before):
    """Right-continuous step function at t: ``before`` left of times[0] and
    ``values[i]`` on [times[i], times[i+1]). A scalar t gives a float."""
    idx = np.searchsorted(times, t, side="right")
    out = np.concatenate(([before], values))[idx]
    return out if out.ndim else float(out)


@dataclass
class StepSurvival:
    """Right-continuous step estimate of a survival function.

    The value is 1 before the first jump time and ``survival_values[i]``
    on [jump_times[i], jump_times[i+1]). ``tail_censored`` flags that the
    largest observation was censored, so the terminal level is not a real
    zero of the survival function.
    """

    jump_times: np.ndarray
    survival_values: np.ndarray
    n_input: int
    variance_values: np.ndarray | None = None
    event_counts: np.ndarray | None = None
    risk_counts: np.ndarray | None = None
    tail_censored: bool = False

    def __post_init__(self):
        self.jump_times = np.asarray(self.jump_times, dtype=float)
        self.survival_values = np.asarray(self.survival_values, dtype=float)
        if self.variance_values is not None:
            self.variance_values = np.asarray(self.variance_values, dtype=float)

    @classmethod
    def from_masses(cls, atoms, masses, n_input: int) -> "StepSurvival":
        """Survival of a discrete law with ``masses`` at increasing ``atoms``.

        The value at atom i is the tail sum of the masses above it, so it
        never goes below zero and ends at exactly 0.
        """
        masses = np.asarray(masses, dtype=float)
        tails = np.append(np.cumsum(masses[:0:-1])[::-1], 0.0)
        return cls(jump_times=atoms, survival_values=tails, n_input=n_input)

    def survival_at(self, t):
        """Evaluate the step function right-continuously (vectorized)."""
        return step_at(self.jump_times, self.survival_values, t, 1.0)

    def cdf_at(self, t):
        return 1.0 - self.survival_at(t)


def kaplan_meier(times, censored=None, entry_times=None) -> StepSurvival:
    """Product-limit estimator with optional right censoring and delayed entry.

    Parameters
    ----------
    times : observation exit times, positive.
    censored : boolean flags, True where the exit is a censoring time.
        Defaults to all events.
    entry_times : left-truncation entry times; a subject is at risk on
        (entry, exit]. Defaults to zero (classical estimator).

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
    if np.any(times <= 0):
        raise ValueError("observation times must be positive")
    if np.any(entry_times < 0):
        raise ValueError("entry times must be nonnegative")
    bad = np.nonzero(times <= entry_times)[0]
    if bad.size:
        raise ValueError(f"time <= entry time at index {bad[0]}")

    events = ~censored
    if not events.any():
        raise EstimationError("all observations are censored")

    event_times, d = np.unique(times[events], return_counts=True)
    sorted_entries = np.sort(entry_times)
    sorted_times = np.sort(times)
    # Y(q) = #{entry < q} - #{exit < q} = #{entry < q <= exit}
    y = np.searchsorted(sorted_entries, event_times, side="left") - np.searchsorted(
        sorted_times, event_times, side="left"
    )
    survival = np.cumprod(1.0 - d / y)

    t_max = times.max()
    tail_censored = bool(np.any(censored & (times == t_max))) and not bool(
        np.any(events & (times == t_max))
    )
    return StepSurvival(
        jump_times=event_times,
        survival_values=survival,
        n_input=int(times.size),
        event_counts=d.astype(int),
        risk_counts=y.astype(int),
        tail_censored=tail_censored,
    )


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
    return kaplan_meier(pairs.q, pairs.censored, pairs.r)


def window_product_limit(obs: WindowRecords) -> StepSurvival:
    """Product-limit estimator from the gap records of window data.

    Uses complete gaps as events and the trailing censored gaps as censored
    observations; forward-recurrence and empty-window records are ignored.
    """
    events = obs.value[obs.kind == "complete"]
    if not events.size:
        raise EstimationError("no complete gaps among the observations")
    times = np.concatenate((events, obs.value[(obs.kind == "censored") & (obs.value > 0)]))
    return kaplan_meier(times, np.arange(times.size) >= events.size)


def palmer_cox(segments: Segments, window_length: float) -> StepSurvival:
    """Forward-backward combined product-limit estimator for segment data.

    Builds one pooled sample: every proper complete length enters twice as
    an event, every singly censored length once as a censored observation,
    and residual censored segments are dropped. A proper censored segment
    is right-censored in forward time (birth seen, death not). A residual
    complete segment is the mirror image: reversing the time axis swaps
    births with deaths and maps it to a segment whose "birth" (the death)
    is seen and whose end is cut off at the window edge, so its observed
    length enters as right-censored too. The combined sample is therefore
    invariant under time reversal, which just swaps the two singly
    censored kinds.

    Lengths the window geometry cannot produce are rejected as malformed
    input (``Segments.check_window``).
    """
    if window_length <= 0:
        raise ValueError(f"window_length must be positive, got {window_length}")
    segments.check_window(window_length)
    kinds, lengths = segments.kind, segments.length
    complete = lengths[kinds == "pc"]
    times = np.concatenate((complete, complete, lengths[(kinds == "px") | (kinds == "rc")]))
    if times.size == 0:
        raise EstimationError("no usable segments after discarding doubly censored ones")
    return kaplan_meier(times, np.arange(times.size) >= 2 * complete.size)


def greenwood_variance(
    est: StepSurvival, event_counts=None, risk_counts=None
) -> StepSurvival:
    """Attach the Greenwood pointwise variance to a product-limit estimate.

    variance(t) = S(t)^2 * sum_{q <= t} d / (Y (Y - d)). At a jump where
    Y == d the survival hits zero and the variance is reported as NaN from
    there on.
    """
    d = est.event_counts if event_counts is None else np.asarray(event_counts)
    y = est.risk_counts if risk_counts is None else np.asarray(risk_counts)
    if d is None or y is None:
        raise EstimationError("event and risk counts are required")
    d = np.asarray(d, dtype=float)
    y = np.asarray(y, dtype=float)
    if d.shape != est.jump_times.shape or y.shape != est.jump_times.shape:
        raise EstimationError("counts do not align with the jump times")
    exhausted = y <= d
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(exhausted, np.nan, d / (y * (y - d)))
    variance = est.survival_values**2 * np.cumsum(terms)
    return dataclasses.replace(est, variance_values=variance)


@dataclass
class BootstrapBand:
    """Pointwise bootstrap quantile band for a survival estimate."""

    times: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
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
    no band), and ``fit(data, window_length, bin_width)`` returns its
    survival estimate.
    """

    scheme: str
    bootstrap_name: str | None
    fit: Callable[..., StepSurvival]


# The fits look the estimators up by name when called, never holding the
# function objects, so a caller that rebinds a module attribute (a tracer,
# a test double) is seen on every path.
def _fit_cox_vardi(data, window_length, bin_width) -> StepSurvival:
    from . import npmle

    dist = npmle.cox_vardi_from_pairs(data)
    return StepSurvival.from_masses(dist.atoms, dist.masses, len(data))


def _fit_laslett_em(data, window_length, bin_width) -> StepSurvival:
    from . import npmle

    data.check_window(window_length)
    binned = npmle.bin_segments(data, bin_width)
    grid = npmle.default_grid(binned, window_length, bin_width)
    dist = npmle.laslett_em(binned, window_length, grid).distribution
    return StepSurvival.from_masses(dist.atoms, dist.masses, len(data))


# Keyed by CLI tag; the order within a scheme is the default order of
# ``McConfig.estimators``.
ESTIMATORS = {
    "wf": Estimator("equilibrium", "winter_foldes", lambda data, w, h: winter_foldes(data)),
    "cv": Estimator("equilibrium", "cox_vardi", _fit_cox_vardi),
    "wpl": Estimator("window", "window_pl", lambda data, w, h: window_product_limit(data)),
    "palmer_cox": Estimator("segments", "palmer_cox", lambda data, w, h: palmer_cox(data, w)),
    "em": Estimator("segments", None, _fit_laslett_em),
}


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
    is joined with ``concat`` first. Observation units are resampled with
    replacement B times and the estimator is rerun on each resample;
    for palmer_cox the doubling of complete lifetimes happens after
    resampling. A resample the estimator rejects (for example an
    all-censored draw) is redrawn from a fresh substream, up to
    BOOTSTRAP_MAX_RETRIES times. Replicate b always uses the streams
    derived from (seed, b, retry).

    The band is evaluated on ``grid`` if given, otherwise on the pooled
    jump times of all replicates (subsampled to BOOTSTRAP_MAX_GRID
    quantile-spaced points when larger).
    """
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    row = next((r for r in ESTIMATORS.values() if r.bootstrap_name == estimator), None)
    if row is None:
        raise EstimationError(f"unknown bootstrap estimator {estimator!r}")
    if row.scheme == "segments" and window_length is None:
        raise EstimationError(f"{estimator} bootstrap needs window_length")
    if not data:
        raise EstimationError("no data to resample")
    if isinstance(data, list):
        data = type(data[0]).concat(data)
    n = len(data)

    curves = []
    failures = 0
    for b in range(B):
        for retry in range(BOOTSTRAP_MAX_RETRIES):
            idx = derived_rng(seed, b, retry).integers(0, n, size=n)
            try:
                est = row.fit(data[idx], window_length, None)
                break
            except EstimationError:
                continue
        else:
            raise EstimationError(
                f"estimator failed on {BOOTSTRAP_MAX_RETRIES} consecutive resamples"
            )
        curves.append((est.jump_times, est.survival_values))
        failures += retry

    if grid is None:
        pooled = np.unique(np.concatenate([jumps for jumps, _ in curves]))
        if pooled.size > BOOTSTRAP_MAX_GRID:
            qs = np.linspace(0.0, 1.0, BOOTSTRAP_MAX_GRID)
            pooled = np.unique(np.quantile(pooled, qs))
        grid = pooled
    grid = np.asarray(grid, dtype=float)

    values = np.empty((B, grid.size), dtype=float)
    for i, (jumps, surv) in enumerate(curves):
        values[i] = step_at(jumps, surv, grid, 1.0)
    alpha = 1.0 - level
    lower = np.quantile(values, alpha / 2.0, axis=0)
    upper = np.quantile(values, 1.0 - alpha / 2.0, axis=0)
    return BootstrapBand(
        times=grid, lower=lower, upper=upper, level=level, n_resamples=B, failures=failures
    )

"""Monte Carlo harness comparing the estimators against the truth.

``mc_compare`` runs seeded replicates of one sampling scheme, applies the
requested estimators, and aggregates pointwise bias, variance and MSE of
the estimated cdf on a grid, with pass/fail verdicts (MSE decomposition,
the variance ordering between the size-biased NPMLE and the delayed-entry
product-limit estimator when both are present, and every EM fit certified).

``tail_failure_demo`` contrasts a gap law with infinite inverse moment
against one with a finite inverse moment: it tabulates sqrt(n) times the
sup error near zero across growing n for both estimators, the regime where
root-n convergence needs E(1/X) to be finite. It demonstrates rather than
tests.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field

import numpy as np

from . import npmle
from .distributions import GapDistribution, parse_distribution
from .errors import EstimationError
from .product_limit import ESTIMATORS, StepSurvival
from .sampling import Segments, WindowRecords, _segments_drawn, _windows_drawn, sample_equilibrium
from .seeding import child_seed, is_integer

MSE_IDENTITY_TOL = 1e-10
MC_GRID_SIZE = 40  # evenly spaced cdf points between the 5% and 95% quantiles
TAIL_DOUBLINGS = 3  # tail_failure_demo runs n, 2n, ..., 2**TAIL_DOUBLINGS n


@dataclass
class McConfig:
    """Configuration for one Monte Carlo comparison run."""

    dist_spec: str
    scheme: str
    n: int
    replicates: int
    seed: int
    estimators: tuple[str, ...] = ()
    window_length: float | None = None
    birth_rate: float | None = None
    bin_width: float = 0.1
    check_time: float = 1.0

    def __post_init__(self):
        allowed = tuple(tag for tag, row in ESTIMATORS.items() if row.scheme == self.scheme)
        if not allowed:
            raise EstimationError(f"unknown scheme {self.scheme!r}")
        if not self.estimators:
            self.estimators = allowed
        bad = [e for e in self.estimators if e not in allowed]
        if bad:
            raise EstimationError(
                f"estimator {bad[0]!r} does not apply to scheme {self.scheme!r}"
            )
        if len(set(self.estimators)) < len(self.estimators):
            raise EstimationError(f"estimators {list(self.estimators)} repeat a tag")
        needs = {"window": ("window_length",), "segments": ("window_length", "birth_rate")}
        needed = needs.get(self.scheme, ())
        for name in needed:
            if getattr(self, name) is None:
                raise EstimationError(f"scheme {self.scheme!r} needs {name}")
        for name in ("seed", "n", "replicates"):
            if not is_integer(getattr(self, name)):
                raise EstimationError(f"{name} must be an integer, got {getattr(self, name)!r}")
            setattr(self, name, int(getattr(self, name)))  # numpy integers echo as JSON ints
        if self.n < 1 or self.replicates < 1:
            raise EstimationError("n and replicates must be >= 1")
        npmle.bin_width_checked(self.bin_width)
        for name in (*needed, "check_time"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise EstimationError(f"{name} must be finite and positive, got {value}")

    def echo(self) -> dict:
        """Every field, ``dist_spec`` as ``dist``, plus the cdf grid's size."""
        echo = asdict(self)
        echo["dist"] = echo.pop("dist_spec")
        return {**echo, "estimators": list(self.estimators), "grid_size": MC_GRID_SIZE}


@dataclass
class EstimatorSummary:
    """Pointwise accuracy of one estimator across the replicates."""

    bias: np.ndarray
    variance: np.ndarray
    mse: np.ndarray
    beyond_tail: int


@dataclass
class McReport:
    config: dict
    grid: np.ndarray
    true_cdf: np.ndarray
    summaries: dict[str, EstimatorSummary]
    verdicts: dict[str, bool] = field(default_factory=dict)
    em_fits: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "grid": self.grid.tolist(),
            "true_cdf": self.true_cdf.tolist(),
            "estimators": {
                name: {
                    "bias": s.bias.tolist(),
                    "variance": s.variance.tolist(),
                    "mse": s.mse.tolist(),
                    "beyond_tail": s.beyond_tail,
                }
                for name, s in self.summaries.items()
            },
            "verdicts": self.verdicts,
            "em_fits": self.em_fits,
        }

    def csv_rows(self) -> list[tuple]:
        rows = []
        for name, s in self.summaries.items():
            for t, b, v, m in zip(self.grid, s.bias, s.variance, s.mse):
                rows.append((name, float(t), float(b), float(v), float(m)))
        return rows


def _simulate(config: McConfig, dist: GapDistribution, rep: int):
    seed = child_seed(config.seed, rep)
    if config.scheme == "equilibrium":
        return sample_equilibrium(dist, config.n, seed)
    if config.scheme == "window":
        return WindowRecords(*_windows_drawn(dist, 0.0, config.window_length, config.n, seed)[1:])
    drawn = _segments_drawn(config.birth_rate, dist, 0.0, config.window_length, config.n, seed)
    return Segments(*drawn[3:])


def mc_compare(config: McConfig) -> McReport:
    """Run the replicated comparison described by ``config``.

    A replicate is reduced as soon as it is sampled, to each estimator's
    cdf on the grid or, for ``em``, to ``npmle.em_problem``; a window or segment
    replicate stays in its sampler core's draw order, as no reduction reads row
    order. The EM problems that share a grid are fitted in one
    ``npmle.laslett_em_many`` batch, each fit bitwise its lone fit. ``em_fits``
    has the fits' steps (min, median, max), how many were certified and the largest gap."""
    dist = parse_distribution(config.dist_spec)
    base = np.linspace(dist.ppf(0.05), dist.ppf(0.95), MC_GRID_SIZE)
    grid = np.unique(np.append(base, config.check_time))
    true_cdf = np.asarray(dist.cdf(grid), dtype=float)
    curves = {tag: [] for tag in config.estimators}
    tails = dict.fromkeys(config.estimators, 0)
    batches = {}  # grid bytes -> (grid, [replicate], [problem])

    def record(tag, est):
        curves[tag].append(est.cdf_at(grid))
        tails[tag] += int(np.sum(grid > est.jump_times[-1]))

    for rep in range(config.replicates):
        data = _simulate(config, dist, rep)
        for tag in config.estimators:
            if tag != "em":
                record(tag, ESTIMATORS[tag].fit(data, config.window_length))
                continue
            atoms, problem = npmle.em_problem(data, config.window_length, config.bin_width)
            batch = batches.setdefault(atoms.tobytes(), (atoms, [], []))
            batch[1].append(rep)
            batch[2].append(problem)
    fits = {}
    for atoms, reps, problems in batches.values():
        fits.update(zip(reps, npmle.laslett_em_many(problems, config.window_length, atoms)))
    for _, fit in sorted(fits.items()):
        record("em", StepSurvival.from_masses(fit.distribution.atoms, fit.distribution.masses))
    steps = [fit.iterations for fit in fits.values()]
    em_fits = {
        "iterations_min": min(steps), "iterations_median": float(np.median(steps)),
        "iterations_max": max(steps), "certified": sum(f.converged for f in fits.values()),
        "max_gradient_gap": max(f.gradient_gap for f in fits.values()),
    } if fits else {}

    summaries = {}
    for tag in config.estimators:
        stack = np.vstack(curves[tag])
        mean_hat = stack.mean(axis=0)
        bias = mean_hat - true_cdf
        variance = np.mean((stack - mean_hat) ** 2, axis=0)
        mse = np.mean((stack - true_cdf) ** 2, axis=0)
        summaries[tag] = EstimatorSummary(bias, variance, mse, beyond_tail=tails[tag])

    verdicts = {
        "mse_identity": bool(
            all(
                np.max(np.abs(s.mse - (s.bias**2 + s.variance))) <= MSE_IDENTITY_TOL
                for s in summaries.values()
            )
        )
    }
    if "wf" in summaries and "cv" in summaries:
        k = int(np.argmin(np.abs(grid - config.check_time)))
        verdicts["efficiency_ordering"] = bool(
            summaries["cv"].variance[k] <= summaries["wf"].variance[k]
        )
    if fits:
        verdicts["em_certified"] = em_fits["certified"] == len(fits)
    return McReport(
        config=config.echo(),
        grid=grid,
        true_cdf=true_cdf,
        summaries=summaries,
        verdicts=verdicts,
        em_fits=em_fits,
    )


@dataclass
class TailRow:
    dist: str
    estimator: str
    n: int
    sqrt_n_sup_error: float


@dataclass
class TailReport:
    eps: float
    replicates: int
    seed: int
    rows: list[TailRow]

    def to_json_dict(self) -> dict:
        return asdict(self)

    def csv_rows(self) -> list[tuple]:
        return [astuple(r) for r in self.rows]


def sup_cdf_error(est: StepSurvival, dist: GapDistribution, eps: float) -> float:
    """Exact sup over [0, eps] of |step cdf - true cdf|.

    The step function is constant between jumps and the truth is monotone,
    so the sup is attained at a jump (from either side) or at eps. The
    left limit at a jump is the value one float below it.
    """
    pts = est.jump_times[est.jump_times <= eps]
    truth = np.asarray(dist.cdf(pts), dtype=float)
    right = np.abs(est.cdf_at(pts) - truth)
    left = np.abs(est.cdf_at(np.nextafter(pts, -np.inf)) - truth)
    at_eps = abs(est.cdf_at(eps) - float(dist.cdf(eps)))
    return float(max(np.max(right, initial=0.0), np.max(left, initial=0.0), at_eps))


def tail_failure_demo(
    dist_infinite: GapDistribution,
    dist_finite: GapDistribution,
    n: int,
    replicates: int,
    eps: float,
    seed: int = 0,
) -> TailReport:
    """Tabulate sqrt(n) * sup_{t <= eps} |F_hat - F| across doubling n.

    Requires the inverse-moment diagnostic to disagree between the two
    distributions (that disagreement is what the table illustrates).
    """
    if n < 1 or replicates < 1 or not eps > 0:
        raise EstimationError(f"need n, replicates >= 1 and eps > 0, got {n}, {replicates}, {eps}")
    diag_inf = dist_infinite.integrability_diagnostic()
    diag_fin = dist_finite.integrability_diagnostic()
    if diag_inf.finite == diag_fin.finite:
        raise EstimationError(
            "the two distributions must disagree on the inverse-moment diagnostic"
        )
    ns = [n * 2**k for k in range(TAIL_DOUBLINGS + 1)]
    rows = []
    for di, dist in enumerate((dist_infinite, dist_finite)):
        label = dist.spec()
        for nn in ns:
            sups = {"wf": [], "cv": []}
            for rep in range(replicates):
                pairs = sample_equilibrium(dist, nn, child_seed(seed, di, nn, rep))
                for tag in sups:
                    est = ESTIMATORS[tag].fit(pairs, None)
                    sups[tag].append(sup_cdf_error(est, dist, eps))
            for tag in ("wf", "cv"):
                rows.append(
                    TailRow(
                        dist=label,
                        estimator=tag,
                        n=nn,
                        sqrt_n_sup_error=float(np.sqrt(nn) * np.mean(sups[tag])),
                    )
                )
    return TailReport(eps=eps, replicates=replicates, seed=seed, rows=rows)

"""The benchmark's workloads.

Each workload builds its inputs from the seed alone and splits its timed
body into steps: calls into gapest's public API of 0.3-3 s each, which the
runner times one by one.  Steps look the program up through module
attributes at call time (``gapest.cli.main``,
``gapest.product_limit.bootstrap_band``, ...) so that the tracer's wrappers
are the ones called in a traced run.

``digest`` hashes the numbers the steps return (or write) so that traced
and untraced bodies, and repeated bodies, can be compared; ``check``
returns the named pass/fail checks plus the ``units`` of work of one body
and the ``quality`` figures (accuracy against the true law).
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gapest
import gapest.benchmark
import gapest.cli
import gapest.product_limit

CHECK_TOL = 1e-12


def sub_seeds(seed: int, k: int) -> list[int]:
    """k independent integer seeds for the program, derived from the run seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def weibull2_cdf(t):
    """True cdf of weibull:2:1, the gap law of cli-files and bootstrap-bands."""
    return -np.expm1(-np.asarray(t, dtype=float) ** 2)


def weibull2_survival(t):
    return np.exp(-np.asarray(t, dtype=float) ** 2)


def sup_step_error(t, cdf, truth) -> float:
    """sup_t |F_hat(t) - F(t)| for a right-continuous step cdf with jumps at t."""
    t = np.asarray(t, dtype=float)
    cdf = np.asarray(cdf, dtype=float)
    true = truth(t)
    left = np.concatenate(([0.0], cdf[:-1]))
    return float(max(np.max(np.abs(cdf - true)), np.max(np.abs(left - true))))


def _close(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.allclose(a, b, rtol=0.0, atol=CHECK_TOL, equal_nan=True)
    )


@dataclass
class Outcome:
    checks: dict[str, bool]
    units: int
    quality: dict[str, float] = field(default_factory=dict)


class Workload:
    name: str
    why: str
    unit: str
    sizes: dict
    stresses: list[str]
    bypasses: list[str]
    specs: tuple[str, ...]  # distributions parsed in set-up

    def prepare(self, seed: int, workdir: Path):
        raise NotImplementedError

    def steps(self, inputs) -> list:
        """Zero-argument callables; one body runs them in order."""
        raise NotImplementedError

    def digest(self, inputs, outs) -> str:
        raise NotImplementedError

    def check(self, inputs, outs) -> Outcome:
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "why": self.why,
            "unit": self.unit,
            "sizes": self.sizes,
            "stresses": self.stresses,
            "bypasses": self.bypasses,
        }


# ---------------------------------------------------------------- cli-files


def _read_survival_csv(path: Path):
    """t, survival, variance columns of a survival CSV (empty cells -> nan)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    cols = list(zip(*rows)) if rows else [(), (), ()]
    return tuple(np.array([float(c) if c else np.nan for c in col]) for col in cols[:3])


def _greenwood(km):
    d = km.event_counts.astype(float)
    y = km.risk_counts.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(y <= d, np.nan, d / (y * (y - d)))
    return km.survival_values**2 * np.cumsum(terms)


class CliFiles(Workload):
    name = "cli-files"
    why = (
        "the analyst's file path: simulate, estimate wf/cv/wpl through the CLI; "
        "dataio and sampling dominate, bootstrap and EM absent"
    )
    unit = "records written plus records read"
    sizes = {"pairs": 200_000, "windows": 20_000, "window": 3.0, "dist": "weibull:2:1"}
    stresses = ["dataio", "sampling", "seeding.derived_rng", "cli"]
    bypasses = ["product_limit.bootstrap_band", "npmle.laslett_em"]
    specs = ("weibull:2:1",)

    FILES = ("pairs.csv", "pairs.csv.meta.json", "wf.csv", "cv.json",
             "window.csv", "window.csv.meta.json", "wpl.csv")

    def prepare(self, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        s_pairs, s_window = sub_seeds(seed, 2)
        f = {name: str(workdir / name) for name in self.FILES}
        n, nw = str(self.sizes["pairs"]), str(self.sizes["windows"])
        commands = [
            ["simulate", "--scheme", "equilibrium", "--dist", "weibull:2:1", "--n", n,
             "--seed", str(s_pairs), "--out", f["pairs.csv"]],
            ["estimate", "--estimator", "wf", "--in", f["pairs.csv"], "--out", f["wf.csv"]],
            ["estimate", "--estimator", "cv", "--in", f["pairs.csv"], "--out", f["cv.json"],
             "--format", "json"],
            ["simulate", "--scheme", "window", "--dist", "weibull:2:1", "--n", nw,
             "--window", "3", "--seed", str(s_window), "--out", f["window.csv"]],
            ["estimate", "--estimator", "wpl", "--in", f["window.csv"], "--out", f["wpl.csv"]],
        ]
        return {"commands": commands, "files": f}

    def steps(self, inputs):
        return [lambda argv=argv: gapest.cli.main(argv) for argv in inputs["commands"]]

    def digest(self, inputs, outs) -> str:
        h = hashlib.sha256(repr(outs).encode())
        for name in self.FILES:
            path = Path(inputs["files"][name])
            h.update(path.read_bytes() if path.exists() else b"missing")
        return h.hexdigest()

    def check(self, inputs, outs) -> Outcome:
        f = {k: Path(v) for k, v in inputs["files"].items()}
        checks = {f"exit_{i}": code == 0 for i, code in enumerate(outs)}
        checks["sidecars"] = f["pairs.csv.meta.json"].is_file() and f["window.csv.meta.json"].is_file()
        if not all(checks.values()):
            return Outcome(checks, units=1)

        r, s, cens = np.loadtxt(f["pairs.csv"], delimiter=",", skiprows=1, ndmin=2).T
        q = r + s
        cens = cens.astype(bool)
        km = gapest.kaplan_meier(q, cens, r)
        t, surv, var = _read_survival_csv(f["wf.csv"])
        checks["wf_matches_kaplan_meier"] = (
            _close(t, km.jump_times) and _close(surv, km.survival_values)
            and _close(var, _greenwood(km))
        )

        cv = json.loads(f["cv.json"].read_text())
        dist = gapest.cox_vardi(q)
        checks["cv_matches_cox_vardi"] = _close(cv["t"], dist.atoms) and _close(
            cv["survival"], 1.0 - np.cumsum(dist.masses)
        )

        with open(f["window.csv"], newline="") as fh:
            window_rows = list(csv.reader(fh))[1:]
        events = [float(v) for k, v in window_rows if k == "complete"]
        cut = [float(v) for k, v in window_rows if k == "censored" and float(v) > 0]
        wkm = gapest.kaplan_meier(
            np.array(events + cut), np.array([False] * len(events) + [True] * len(cut))
        )
        wt, wsurv, wvar = _read_survival_csv(f["wpl.csv"])
        checks["wpl_matches_kaplan_meier"] = (
            _close(wt, wkm.jump_times) and _close(wsurv, wkm.survival_values)
            and _close(wvar, _greenwood(wkm))
        )

        sup_err = max(
            sup_step_error(t, 1.0 - surv, weibull2_cdf),
            sup_step_error(cv["t"], 1.0 - np.asarray(cv["survival"]), weibull2_cdf),
            sup_step_error(wt, 1.0 - wsurv, weibull2_cdf),
        )
        # pairs: written once, read by wf and by cv; window records: written
        # once, read by wpl; every estimate row is written once.
        units = 3 * q.size + 2 * len(window_rows) + t.size + len(cv["t"]) + wt.size
        return Outcome(checks, units=units, quality={"sup_err": sup_err})


# ---------------------------------------------------------- bootstrap-bands


class BootstrapBands(Workload):
    name = "bootstrap-bands"
    why = (
        "bootstrap_band B=1000 on cox_vardi, winter_foldes, window_pl, palmer_cox: "
        "many small product-limit fits; no dataio, no EM"
    )
    unit = "bootstrap resamples"
    sizes = {
        "datasets": 3, "B": 1000, "pairs": 500, "censor": "exp:0.5",
        "windows": 200, "segment_windows": 100, "window": 3.0, "rate": 2.0,
        "dist": "weibull:2:1",
    }
    stresses = ["product_limit", "npmle.cox_vardi_from_pairs", "seeding.derived_rng"]
    bypasses = ["dataio", "npmle.laslett_em"]
    specs = ("weibull:2:1", "exp:0.5")

    def prepare(self, seed, workdir):
        """Sample the datasets; the timed steps are the bands alone."""
        sz = self.sizes
        dist = gapest.parse_distribution(sz["dist"])
        censor = gapest.parse_distribution(sz["censor"])
        w = sz["window"]
        jobs = []
        for s in sub_seeds(seed, sz["datasets"]):
            s = sub_seeds(s, 8)
            pairs = gapest.sample_equilibrium(dist, sz["pairs"], s[0])
            censored = gapest.apply_right_censoring(pairs, censor, s[1])
            windows = gapest.sample_window_replicates(dist, 0.0, w, sz["windows"], s[2])
            segments = gapest.sample_segment_replicates(
                sz["rate"], dist, 0.0, w, sz["segment_windows"], s[3])
            jobs += [
                (pairs, "cox_vardi", s[4]),
                (censored, "winter_foldes", s[5]),
                ([o for rep in windows for o in rep], "window_pl", s[6]),
                ([x for rep in segments for x in rep], "palmer_cox", s[7]),
            ]
        return jobs

    def steps(self, inputs):
        B, w = self.sizes["B"], self.sizes["window"]
        return [
            lambda data=data, est=est, seed=seed: gapest.product_limit.bootstrap_band(
                data, est, B=B, seed=seed, window_length=w)
            for data, est, seed in inputs
        ]

    def digest(self, inputs, outs) -> str:
        h = hashlib.sha256()
        for band in outs:
            for arr in (band.times, band.lower, band.upper):
                h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
            h.update(f"{band.n_resamples},{band.failures}".encode())
        return h.hexdigest()

    def check(self, inputs, outs) -> Outcome:
        checks = {}
        misses = points = 0
        for i, band in enumerate(outs):
            lo, up = np.asarray(band.lower), np.asarray(band.upper)
            # 1 - cumsum(masses) can end a hair below 0, so allow CHECK_TOL.
            checks[f"band_{i}_ordered"] = bool(
                np.all(lo >= -CHECK_TOL) and np.all(lo <= up) and np.all(up <= 1.0 + CHECK_TOL)
            )
            checks[f"band_{i}_resamples"] = band.n_resamples == self.sizes["B"]
            true = weibull2_survival(band.times)
            misses += int(np.sum((true < lo) | (true > up)))
            points += true.size
        units = len(outs) * self.sizes["B"]
        return Outcome(checks, units=units, quality={"band_miss": misses / max(points, 1)})


# ----------------------------------------------------------- mc-segments-em


class McSegmentsEm(Workload):
    name = "mc-segments-em"
    why = (
        "mc_compare on segment windows (exp:1, w=3, rate 2, bin 0.25): laslett_em "
        "dominates; dataio and bootstrap absent"
    )
    unit = "Monte Carlo replicates"
    sizes = {"dist": "exp:1", "windows": 400, "studies": 4, "replicates": 10,
             "window": 3.0, "rate": 2.0, "bin_width": 0.25}
    stresses = ["npmle.laslett_em", "npmle.bin_segments", "benchmark.mc_compare"]
    bypasses = ["dataio", "product_limit.bootstrap_band"]
    specs = ("exp:1",)

    def prepare(self, seed, workdir):
        sz = self.sizes
        return [
            gapest.McConfig(
                dist_spec=sz["dist"], scheme="segments", n=sz["windows"],
                replicates=sz["replicates"], seed=s, window_length=sz["window"],
                birth_rate=sz["rate"], bin_width=sz["bin_width"],
            )
            for s in sub_seeds(seed, sz["studies"])
        ]

    def steps(self, inputs):
        return [lambda config=config: gapest.benchmark.mc_compare(config) for config in inputs]

    def digest(self, inputs, outs) -> str:
        h = hashlib.sha256()
        for report in outs:
            h.update(np.ascontiguousarray(report.grid).tobytes())
            for name in sorted(report.summaries):
                s = report.summaries[name]
                for arr in (s.bias, s.variance, s.mse):
                    h.update(np.ascontiguousarray(arr).tobytes())
                h.update(str(s.beyond_tail).encode())
        return h.hexdigest()

    def check(self, inputs, outs) -> Outcome:
        checks = {}
        for i, report in enumerate(outs):
            checks.update({f"study_{i}_{k}": bool(v) for k, v in report.verdicts.items()})
            checks[f"study_{i}_has_em"] = "em" in report.summaries
        if not all(checks.values()):
            return Outcome(checks, units=1)
        # Every study shares one grid, so the mean MSE is the MSE over all replicates.
        mse = np.mean([report.summaries["em"].mse for report in outs], axis=0)
        units = self.sizes["studies"] * self.sizes["replicates"]
        return Outcome(checks, units=units, quality={"sup_err": float(np.max(np.sqrt(mse)))})


WORKLOADS = {w.name: w for w in (CliFiles(), BootstrapBands(), McSegmentsEm())}

"""Command-line front end.

Subcommands:

* ``simulate``  write synthetic data for one observation scheme;
* ``estimate``  fit an estimator to a data file;
* ``bench compare`` / ``bench tails``  Monte Carlo studies;
* ``diagnose``  run the inverse-moment diagnostic on a distribution.

No EM numerics live here: ``estimate em`` builds its problem from
``--grid`` (a bin width or atoms) with ``npmle.em_problem`` and fits it
with ``npmle.laslett_em_many``.

Every command is deterministic given its flags; all randomness flows from
``--seed`` (default 1, not entropy). Exit codes: 0 success, 1 runtime or
data error (one ``error:`` line) or failed bench verdict, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import benchmark, dataio, npmle, product_limit, sampling
from .distributions import parse_distribution
from .errors import DistributionSpecError, EstimationError
from .product_limit import ESTIMATORS
from .seeding import child_seed

DEFAULT_SEED = 1
SCHEMES = tuple(dict.fromkeys(row.scheme for row in ESTIMATORS.values()))


def _dist_arg(text: str):
    try:
        return parse_distribution(text)
    except DistributionSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed_arg(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _grid_arg(text: str):
    """The ``grid`` of ``npmle.em_problem``: a bin width or an atom array."""
    key, _, value = text.partition("=")
    try:
        if key == "width":
            width = float(value)
            if not 0 < width < math.inf:
                raise ValueError("width must be positive and finite")
            return width
        if key == "atoms":
            atoms = np.array([float(v) for v in value.split(",")], dtype=float)
            if atoms.size == 0 or not np.all((atoms > 0) & (atoms < math.inf)):
                raise ValueError("atoms must be positive and finite")
            return atoms
        raise ValueError("expected width=<h> or atoms=<a1,a2,...>")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid grid spec {text!r}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapest",
        description="Simulate renewal-process observation schemes and estimate the gap-time distribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write synthetic data for one scheme")
    sim.add_argument("--scheme", required=True, choices=SCHEMES)
    sim.add_argument("--dist", required=True, type=_dist_arg, help="gap distribution spec")
    sim.add_argument("--n", required=True, type=int, help="pairs or replicate windows")
    sim.add_argument("--seed", type=_seed_arg, default=DEFAULT_SEED)
    sim.add_argument("--out", required=True)
    sim.add_argument("--window", type=float, help="window length (window/segments schemes)")
    sim.add_argument("--rate", type=float, help="birth intensity (segments scheme)")
    sim.add_argument("--censor", type=_dist_arg, help="right-censoring distribution (equilibrium)")
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="fit an estimator to a data file")
    est.add_argument("--estimator", required=True, choices=sorted(ESTIMATORS))
    est.add_argument("--in", dest="infile", required=True)
    est.add_argument("--out", required=True)
    est.add_argument("--format", choices=("csv", "json"), default="csv")
    est.add_argument("--window", type=float, help="window length (palmer_cox/em)")
    est.add_argument("--grid", type=_grid_arg, help="width=<h> or atoms=<a1,a2,...> (em)")
    est.add_argument("--bootstrap", type=int, metavar="B", help="add pointwise bootstrap bands")
    est.add_argument("--level", type=float, default=0.95)
    est.add_argument("--seed", type=_seed_arg, default=DEFAULT_SEED)
    est.add_argument("--max-iter", type=int, default=npmle.EM_DEFAULT_MAX_ITER,
                     help="most SQUAREM steps (em)")
    est.add_argument("--tol", type=float, default=npmle.EM_DEFAULT_TOL,
                     help="stop once the gradient gap max_j D_j - 1 is at most this (em)")
    est.set_defaults(func=cmd_estimate)

    bench = sub.add_parser("bench", help="Monte Carlo studies")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    cmp_p = bench_sub.add_parser("compare", help="bias/variance/MSE comparison")
    cmp_p.add_argument("--scheme", required=True, choices=SCHEMES)
    cmp_p.add_argument("--dist", required=True, type=_dist_arg)
    cmp_p.add_argument("--n", required=True, type=int)
    cmp_p.add_argument("--reps", required=True, type=int)
    cmp_p.add_argument("--seed", type=_seed_arg, default=DEFAULT_SEED)
    cmp_p.add_argument("--estimators", type=lambda s: tuple(s.split(",")), default=())
    cmp_p.add_argument("--window", type=float)
    cmp_p.add_argument("--rate", type=float)
    cmp_p.add_argument("--bin-width", type=float, default=0.1)
    cmp_p.add_argument("--check-time", type=float, default=1.0)
    cmp_p.add_argument("--out", required=True, help="JSON report path")
    cmp_p.add_argument("--csv", help="also write tidy CSV rows here")
    cmp_p.set_defaults(func=cmd_bench_compare)

    tails = bench_sub.add_parser("tails", help="near-zero error growth demonstration")
    tails.add_argument("--dist-infinite", required=True, type=_dist_arg)
    tails.add_argument("--dist-finite", required=True, type=_dist_arg)
    tails.add_argument("--eps", required=True, type=float)
    tails.add_argument("--n", type=int, default=500, help="smallest sample size")
    tails.add_argument("--reps", type=int, default=20)
    tails.add_argument("--seed", type=_seed_arg, default=DEFAULT_SEED)
    tails.add_argument("--out", required=True, help="CSV table path")
    tails.add_argument("--json", dest="json_out", help="also write the report as JSON")
    tails.set_defaults(func=cmd_bench_tails)

    diag = sub.add_parser("diagnose", help="inverse-moment diagnostic for a distribution")
    diag.add_argument("--dist", required=True, type=_dist_arg)
    diag.add_argument("--out", help="write JSON here instead of stdout")
    diag.set_defaults(func=cmd_diagnose)

    return parser


def cmd_simulate(args) -> int:
    meta = {
        "command": "simulate",
        "scheme": args.scheme,
        "dist": args.dist.spec(),
        "n": args.n,
        "seed": args.seed,
    }
    needed = {"window": ("window",), "segments": ("window", "rate")}.get(args.scheme, ())
    if any(getattr(args, flag) is None for flag in needed):
        flags = " and ".join(f"--{flag}" for flag in needed)
        return _usage(f"simulate --scheme {args.scheme} requires {flags}")
    for flag in needed:
        if not 0.0 < getattr(args, flag) < math.inf:
            return _usage(f"--{flag} must be finite and positive, got {getattr(args, flag)}")
    if args.scheme == "equilibrium":
        pairs = sampling.sample_equilibrium(args.dist, args.n, args.seed)
        if args.censor is not None:
            pairs = sampling.apply_right_censoring(pairs, args.censor, child_seed(args.seed, 1))
            meta["censor"] = args.censor.spec()
        dataio.write_pairs_csv(args.out, pairs)
    elif args.scheme == "window":
        records, _ = sampling.sample_pooled_windows(
            args.dist, 0.0, args.window, args.n, args.seed
        )
        dataio.write_window_csv(args.out, records)
        meta["window"] = args.window
    else:
        segments, _ = sampling.sample_pooled_segments(
            args.rate, args.dist, 0.0, args.window, args.n, args.seed
        )
        dataio.write_segments_csv(args.out, segments)
        meta["window"] = args.window
        meta["rate"] = args.rate
    dataio.write_sidecar(args.out, meta)
    return 0


def _window_from_sidecar(infile: str) -> float | None:
    """The numeric ``window`` of ``<infile>.meta.json``, or None without a readable one."""
    path = str(infile) + ".meta.json"
    try:
        with open(path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, ValueError):  # not UTF-8 JSON: JSONDecodeError, UnicodeDecodeError
        return None
    window = meta.get("window") if isinstance(meta, dict) else None
    if window is None or type(window) in (int, float):  # not bool, a subclass of int
        return window
    raise ValueError(f"{path}: the window must be a number, got {json.dumps(window)}")


def cmd_estimate(args) -> int:
    row = ESTIMATORS[args.estimator]
    if args.bootstrap is not None:
        if row.bootstrap_name is None:
            return _usage(f"estimator {args.estimator} has no bootstrap band")
        if args.bootstrap < 1:
            return _usage(f"--bootstrap must be >= 1, got {args.bootstrap}")
    if not 0.0 < args.level < 1.0:
        return _usage(f"--level must be in (0, 1), got {args.level}")
    if args.max_iter < 1:
        return _usage(f"--max-iter must be >= 1, got {args.max_iter}")
    if not 0.0 < args.tol < math.inf:
        return _usage(f"--tol must be finite and positive, got {args.tol}")
    if args.estimator == "em" and args.grid is None:
        return _usage("estimator em requires --grid width=<h> or atoms=<a1,...>")
    window = args.window
    if row.scheme == "segments" and window is None:
        window = _window_from_sidecar(args.infile)
        if window is None:
            return _usage(f"estimator {args.estimator} requires --window")

    if row.scheme == "equilibrium":
        data = dataio.read_pairs_csv(args.infile)
    elif row.scheme == "window":
        data = dataio.read_window_csv(args.infile)
    else:
        data = dataio.read_segments_csv(args.infile)

    if args.estimator == "em":
        grid, problem = npmle.em_problem(data, window, args.grid)
        result = npmle.laslett_em_many([problem], window, grid, args.max_iter, args.tol)[0]
        dataio.write_em_result_json(args.out, result)
        return 0

    est = row.fit(data, window)
    if est.event_counts is not None:
        est = product_limit.greenwood_variance(est)
    band = None
    if args.bootstrap is not None:
        band = product_limit.bootstrap_band(
            data,
            row.bootstrap_name,
            B=args.bootstrap,
            seed=args.seed,
            level=args.level,
            window_length=window,
        )
    if args.format == "json":
        dataio.write_step_survival_json(args.out, est, band)
    else:
        dataio.write_step_survival_csv(args.out, est, band)
    return 0


def cmd_bench_compare(args) -> int:
    try:
        config = benchmark.McConfig(
            dist_spec=args.dist.spec(),
            scheme=args.scheme,
            n=args.n,
            replicates=args.reps,
            seed=args.seed,
            estimators=args.estimators,
            window_length=args.window,
            birth_rate=args.rate,
            bin_width=args.bin_width,
            check_time=args.check_time,
        )
    except EstimationError as exc:
        return _usage(str(exc))
    report = benchmark.mc_compare(config)
    dataio.write_json(args.out, report.to_json_dict())
    if args.csv:
        header = ["estimator", "t", "bias", "variance", "mse"]
        dataio.write_csv(args.csv, header, list(zip(*report.csv_rows())))
    if not report.all_pass:
        failed = [k for k, v in report.verdicts.items() if not v]
        print(f"verdicts failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_bench_tails(args) -> int:
    report = benchmark.tail_failure_demo(
        args.dist_infinite,
        args.dist_finite,
        n=args.n,
        replicates=args.reps,
        eps=args.eps,
        seed=args.seed,
    )
    header = ["dist", "estimator", "n", "sqrt_n_sup_error"]
    dataio.write_csv(args.out, header, list(zip(*report.csv_rows())))
    if args.json_out:
        dataio.write_json(args.json_out, report.to_json_dict())
    return 0


def cmd_diagnose(args) -> int:
    report = args.dist.integrability_diagnostic()
    payload = {
        "dist": args.dist.spec(),
        "finite": report.finite,
        "value": None if math.isinf(report.value) else report.value,
    }
    if args.out:
        dataio.write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _usage(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'input too large'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

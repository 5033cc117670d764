#!/usr/bin/env python3
"""Alternated parent/change pairs of the perfbench end-to-end runs.

    python3 tools/perfpairs.py PARENT CHANGE --pairs 10 --seeds 1 20101003

PARENT and CHANGE are two checkouts of the repository. For each seed,
workload and pair, the script runs ``perfbench/run.py --trace 0`` in both,
one after the other, parent first in even pairs and change first in odd
ones, so neither side always runs on the warmer or the cooler host. Runs
go one at a time, each for the ``run_seconds`` of the change's
BENCHMARK.json, over every workload it lists. For each workload and seed
the script then prints, per end-to-end metric, each side's median and
quartiles, the median change, and in how many pairs the change read
better. A run that exits non-zero is kept as a failed run, with its exit
code and the end of its stderr, and its pair is left out of the summary;
the script then exits 1. ``--json PATH`` also writes every run and the
summary, rewritten after each pair so that an interrupted sweep keeps the
runs it made.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics, correctness and digest of one untraced perfbench run, or
    the exit code and the end of the stderr of a run that failed."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    out = proc.stdout.splitlines()
    meta, result = json.loads(out[-2])["meta"], json.loads(out[-1])
    return {
        "returncode": 0,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "failed": result["failed"],
        "digest": meta.get("digest"),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: each side's quartiles, the median change in percent and
    the pairs the change won. ``parent[i]`` and ``change[i]`` are the two
    runs of pair i; a pair counts only if both runs hold ``metrics``, and a
    tie is no win. Empty if no pair counts."""
    both = [(a, b) for a, b in zip(parent, change) if "metrics" in a and "metrics" in b]
    if not both:
        return {}
    summary = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        p = [a["metrics"][name] for a, _ in both]
        c = [b["metrics"][name] for _, b in both]
        qp, qc = quartiles(p), quartiles(c)
        summary[name] = {
            "parent": qp,
            "change": qc,
            "change_pct": 100.0 * (qc[1] - qp[1]) / qp[1] if qp[1] else float("nan"),
            "won": sum((b < a) if lower else (b > a) for a, b in zip(p, c)),
            "pairs": len(p),
            "bound_pct": 100.0 * spec["bound"],
        }
    return summary


def report_lines(title: str, summary: dict) -> list[str]:
    lines = [title, f"  {'metric':<12} {'parent median [q1, q3]':>32} "
                    f"{'change median [q1, q3]':>32} {'change':>8} {'won':>7} {'bound':>6}"]
    for name, s in summary.items():
        sides = ["{1:.7g} [{0:.7g}, {2:.7g}]".format(*s[side]) for side in ("parent", "change")]
        lines.append(f"  {name:<12} {sides[0]:>32} {sides[1]:>32} {s['change_pct']:>+7.1f}% "
                     f"{s['won']:>3}/{s['pairs']:<3} {s['bound_pct']:>5.0f}%")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path, help="also write every run and the summary here")
    args = parser.parse_args(argv)
    args.parent, args.change = args.parent.resolve(), args.change.resolve()  # runs cd into them

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    record, failed = {}, 0
    for seed in args.seeds:
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"parent": [], "change": []}
            key = f"{workload} seed {seed}"
            for i in range(args.pairs):
                for side in ("parent", "change")[:: 1 if i % 2 == 0 else -1]:
                    checkout = args.parent if side == "parent" else args.change
                    runs[side].append(run_once(checkout, workload, seed, spec["run_seconds"]))
                summary = summarise(runs["parent"], runs["change"], spec["end_to_end"])
                record[key] = {**runs, "summary": summary}
                if args.json:
                    args.json.write_text(json.dumps(record, indent=1) + "\n")
            every = runs["parent"] + runs["change"]
            bad = sum(run["returncode"] != 0 for run in every)
            failed += bad
            title = (f"{key}: {args.pairs} pairs, {bad} runs failed, "
                     f"{'all correct' if all(r.get('correct') for r in every) else 'NOT ALL CORRECT'}, "
                     f"digests {sorted({str(r.get('digest')) for r in every})}")
            print("\n".join(report_lines(title, summary)), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

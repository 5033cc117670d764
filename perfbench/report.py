#!/usr/bin/env python3
"""Run every workload and print all of its metrics with their units.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--out .bench_out/report.json]

For each workload, in its own fresh process each: one untraced run for the
end-to-end metrics, then two traced runs on the same seed for the per-layer
metrics.  The report checks that the traced runs reproduce the untraced
run's output digest and each other's exact counts, prints the tracing
overhead and the layer shares the workloads were designed around, and
writes everything, with the run metadata, to ``--out``.  Exit status 0
means every run was correct and every self-check passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, HELD_OUT_SEED  # noqa: E402

# workload -> (layer share it is built around, minimum share); every other
# workload bypasses that layer and must keep its share at most BYPASS_MAX.
DESIGN = {
    "cli-files": ("share.dataio", 0.70),
    "bootstrap-bands": ("share.product_limit.bootstrap_band", 0.90),
    "mc-segments-em": ("share.npmle.laslett_em", 0.80),
}
BYPASS_MAX = 0.10
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def show(title: str, metrics: dict) -> None:
    print(f"  {title}:")
    for name, m in metrics.items():
        print(f"    {name:<46} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (held-out seed: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "report.json")
    args = parser.parse_args(argv)

    ok = True
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    shares = {}
    for w in spec["workloads"]:
        name = w["name"]
        meta, e2e = run_once(name, args.seed, args.seconds, 0)
        traced = [run_once(name, args.seed, args.seconds, 1) for _ in range(2)]
        (tmeta, layers), (tmeta2, layers2) = traced
        checks = {
            "correct": e2e["correct"] and layers["correct"] and layers2["correct"],
            "digest_traced_equals_untraced": meta["digest"] == tmeta["digest"] == tmeta2["digest"],
            "exact_counts_repeat": tmeta["exact_counts"] == tmeta2["exact_counts"],
        }
        ok &= all(checks.values())
        shares[name] = {k: layers["metrics"][k]["value"] for k, _ in DESIGN.values()}
        print(f"== {name} (seed {args.seed}) ==")
        print(f"  {meta['workload_info']['why']}")
        print(f"  unit: {meta['workload_info']['unit']}; sizes: {meta['workload_info']['sizes']}")
        show("end-to-end (untraced)", e2e["metrics"])
        print(f"    {'fail_ratio':<46} {e2e['failed'] / e2e['attempted']:>16.6g} "
              f"({e2e['failed']} of {e2e['attempted']})")
        show("per-layer (traced)", layers["metrics"])
        print(f"  tracing overhead: {layers['metrics']['trace.overhead_ratio']['value']:+.1%}")
        for check, passed in checks.items():
            print(f"  check {check}: {'ok' if passed else 'FAILED'}")
        report["workloads"][name] = {
            "meta": meta, "end_to_end": e2e, "per_layer": layers, "per_layer_repeat": layers2,
            "checks": checks,
        }

    print("== design: share of body wall time per layer ==")
    for name, (share, minimum) in DESIGN.items():
        value = shares.get(name, {}).get(share)
        verdict = "ok" if value is not None and value >= minimum else "NOT MET"
        print(f"  {name}: {share} = {value:.3f} (>= {minimum}) {verdict}")
        for other, values in shares.items():
            if other != name:
                verdict = "ok" if values[share] <= BYPASS_MAX else "NOT MET"
                print(f"    {other}: {share} = {values[share]:.3f} (<= {BYPASS_MAX}) {verdict}")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"report written to {args.out}; self-checks {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one gapest benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli-files --seed 1 --seconds 20 --trace 0

Run from anywhere; the repository root is this file's parent directory and
the program is imported from its ``src/``.  ``--trace 0`` measures the
end-to-end metrics of BENCHMARK.json with nothing patched.  ``--trace 1``
times one untraced body, then repeats the body with gapest's public
functions wrapped by ``tracing.Tracer`` and reports the per-layer metrics,
including the tracing overhead against the untraced body.  Each mode
repeats the body on the same inputs until ``--seconds`` have passed (at
least three times, twice when traced).  A body is a workload's sequence of
steps, each timed on its own; the body time reported is the sum over steps
of each step's median over the repeats, which keeps a few seconds of a
slower host out of the figure.

The host's speed drifts by a third or more over minutes on a shared
machine.  The runner therefore pins itself to one CPU and, before each
step and each set-up launch, times a fixed pure-Python loop on it; the
reported ``setup_s``, ``wall_s`` and ``units_per_s`` are scaled by
CALIBRATION_REF_S over the run's median loop time, to a host on which the
loop takes CALIBRATION_REF_S.  The program cannot change the loop, so a
change to the program moves the scaled figures as it moves the raw ones;
the raw times are in the meta line.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is ``{"meta": ...}`` with the run's metadata, the digest
of the outputs and the exact counts that repeated runs must reproduce.
Spans of the traced bodies are written to ``.bench_out/``.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Seed used while the benchmark was tuned, and a second seed kept out of
# tuning for checking a claimed gain on inputs it was not developed on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20_101_003

SETUP_LAUNCHES = 7
MIN_BODIES = 3
LAUNCH_TIMEOUT_S = 60

# Counts that two traced bodies on the same seed must reproduce exactly.
EXACT_COUNTS = (
    "seeding.derived_rng.calls",
    "product_limit.kaplan_meier.calls",
    "product_limit.bootstrap_band.resamples",
    "product_limit.bootstrap_band.retries",
    "npmle.laslett_em.iterations",
    "npmle.laslett_em.distinct_rows",
    "dataio.bytes_read",
    "dataio.bytes_written",
)

# Layers the workloads are built around: ``share.<layer>`` is the summed
# ``total_ms`` of the traced functions under ``<layer>.`` over the body's
# wall time, as a median over the traced bodies.
SHARED_LAYERS = ("dataio", "product_limit.bootstrap_band", "npmle.laslett_em")

CALIBRATION_REF_S = 0.007
CALIBRATION_SAMPLES = 3

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import gapest
for spec in sys.argv[1:]:
    gapest.parse_distribution(spec)
print(json.dumps({"setup_s": time.perf_counter() - t0}))
"""


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop: the host-speed probe."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def pin_to_current_cpu() -> None:
    """Keep this process and the set-up interpreters it starts on one CPU,
    the one the calibration loop probes."""
    with contextlib.suppress(AttributeError, OSError, ValueError, IndexError):
        stat = Path("/proc/self/stat").read_text()
        cpu = int(stat.rsplit(")", 1)[1].split()[36])  # field 39, "processor"
        os.sched_setaffinity(0, {cpu})


class HostProbe:
    """Calibration loop times taken through a run."""

    def __init__(self):
        self.loops: list[float] = []

    def sample(self) -> None:
        self.loops += [calibration_loop() for _ in range(CALIBRATION_SAMPLES)]

    def scale(self) -> float:
        """Factor that maps this run's times to the reference host."""
        return CALIBRATION_REF_S / statistics.median(self.loops)


class Tally:
    """Operations and checks attempted, and the names of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def launch_setup(specs, importtime: bool) -> dict:
    """One fresh interpreter: import gapest and parse the workload's laws."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += ["-c", SETUP_CODE, *specs]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=LAUNCH_TIMEOUT_S,
        check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if importtime:
        out.update(parse_importtime(proc.stderr))
    return out


def parse_importtime(stderr: str) -> dict:
    """gapest's cumulative import time and the summed self time of scipy modules."""
    gapest_us = scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        module = fields[2].strip()
        if module == "gapest":
            gapest_us = cumulative_us
        elif module == "scipy" or module.startswith("scipy."):
            scipy_us += self_us
    return {"import.gapest_ms": gapest_us / 1e3, "import.scipy_ms": scipy_us / 1e3}


def run_bodies(workload, inputs, seconds, tally, probe, tracer=None, min_bodies=1):
    """Repeat the body until ``seconds`` have passed; one record per body."""
    steps = workload.steps(inputs)
    records = []
    start = time.perf_counter()
    installed = tracer.installed() if tracer else contextlib.nullcontext()
    with installed:
        while True:
            if tracer:
                tracer.reset()
            times, outs = [], []
            try:
                for step in steps:
                    probe.sample()
                    t0 = time.perf_counter()
                    outs.append(step())
                    times.append(time.perf_counter() - t0)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                tally.record("body", False)
                break
            tally.record("body", True)
            rec = {"times": times, "out": outs, "digest": workload.digest(inputs, outs)}
            if tracer:
                rec["layers"] = tracer.summary()
                rec["spans"] = list(tracer.spans)
            records.append(rec)
            if len(records) >= min_bodies and time.perf_counter() - start >= seconds:
                break
    return records


def body_time(records) -> float:
    """Sum over steps of the step's median time over the repeated bodies."""
    return sum(statistics.median(step) for step in zip(*(r["times"] for r in records)))


def setup_times(specs, importtime: bool, probe) -> list[dict]:
    launches = []
    for _ in range(SETUP_LAUNCHES):
        probe.sample()
        launches.append(launch_setup(specs, importtime))
    return launches


def check_outputs(workload, inputs, records, reference_digest, tally):
    """Check the first body's outputs; every body must reproduce its digest."""
    outcome = workload.check(inputs, records[0]["out"])
    for name, ok in outcome.checks.items():
        tally.record(name, ok)
    for rec in records:
        tally.record("digest", rec["digest"] == reference_digest)
    return outcome


def end_to_end(workload, inputs, seconds, tally) -> tuple[dict, dict]:
    probe = HostProbe()
    launches = setup_times(workload.specs, False, probe)
    records = run_bodies(workload, inputs, seconds, tally, probe, min_bodies=MIN_BODIES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not records:
        return {}, {}
    digest = records[0]["digest"]
    outcome = check_outputs(workload, inputs, records, digest, tally)
    raw_wall = body_time(records)
    raw_setup = statistics.median(x["setup_s"] for x in launches)
    scale = probe.scale()
    metrics = {
        "setup_s": raw_setup * scale,
        "wall_s": raw_wall * scale,
        "units_per_s": outcome.units / (raw_wall * scale),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "digest": digest,
        "units": outcome.units,
        "host_scale": scale,
        "raw_wall_s": raw_wall,
        "raw_setup_s": raw_setup,
        "raw_walls": [sum(r["times"]) for r in records],
    }
    return metrics, extra


def per_layer(workload, inputs, seconds, tally, spans_path) -> tuple[dict, dict]:
    from tracing import Tracer

    probe = HostProbe()
    launches = setup_times(workload.specs, True, probe)
    plain = run_bodies(workload, inputs, 0.0, tally, probe)
    if not plain:
        return {}, {}
    digest = plain[0]["digest"]
    outcome = check_outputs(workload, inputs, plain, digest, tally)
    traced = run_bodies(workload, inputs, seconds, tally, probe, Tracer(), min_bodies=2)
    if not traced:
        return {}, {}
    for rec in traced:
        tally.record("traced_digest", rec["digest"] == digest)
    first = traced[0]["layers"]
    exact = {key: first[key] for key in EXACT_COUNTS}
    for rec in traced[1:]:
        for key in EXACT_COUNTS:
            tally.record(f"repeat_{key}", rec["layers"][key] == exact[key])

    em_calls = first["npmle.laslett_em.calls"]
    if em_calls:
        tally.record("em_converged", first["npmle.laslett_em.converged"] == em_calls)
        tally.record("em_trace_nondecreasing", first["npmle.laslett_em.trace_decreases"] == 0)

    metrics = dict(first)
    for key in first:
        if key.endswith("_ms"):
            metrics[key] = statistics.median(r["layers"][key] for r in traced)
    resamples = metrics["product_limit.bootstrap_band.resamples"]
    tries = resamples + metrics["product_limit.bootstrap_band.retries"]
    metrics["product_limit.bootstrap_band.accept_ratio"] = resamples / tries if tries else 0.0
    iterations = metrics["npmle.laslett_em.iterations"]
    metrics["npmle.laslett_em.us_per_iter"] = (
        metrics["npmle.laslett_em.total_ms"] * 1e3 / iterations if iterations else 0.0
    )
    metrics["npmle.laslett_em.converged_ratio"] = (
        first["npmle.laslett_em.converged"] / em_calls if em_calls else 0.0
    )

    for layer in SHARED_LAYERS:
        metrics[f"share.{layer}"] = statistics.median(
            sum(v for k, v in r["layers"].items()
                if k.startswith(layer + ".") and k.endswith(".total_ms"))
            / (sum(r["times"]) * 1e3)
            for r in traced
        )
    metrics["trace.overhead_ratio"] = body_time(traced) / body_time(plain) - 1.0
    metrics["host.calibration_ms"] = statistics.median(probe.loops) * 1e3
    metrics["trace.spans"] = len(traced[0]["spans"])
    metrics["import.gapest_ms"] = statistics.median(x["import.gapest_ms"] for x in launches)
    metrics["import.scipy_ms"] = statistics.median(x["import.scipy_ms"] for x in launches)
    metrics["quality.sup_err"] = outcome.quality.get("sup_err", 0.0)
    metrics["quality.band_miss"] = outcome.quality.get("band_miss", 0.0)

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent"],
        "bodies": [r["spans"] for r in traced],
    }))
    extra = {"digest": digest, "exact_counts": exact, "spans": str(spans_path.relative_to(ROOT)),
             "raw_walls_untraced": [sum(plain[0]["times"])],
             "raw_walls_traced": [sum(r["times"]) for r in traced]}
    return metrics, extra


def run_metadata(args, workload) -> dict:
    import numpy
    import scipy

    import gapest

    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():  # never report the commit of an enclosing repository
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
    return {
        "workload": workload.name,
        "workload_info": workload.describe(),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gapest": gapest.__version__,
        "commit": commit,
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gapest" / "__init__.py").is_file():
        print(f"error: no gapest package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    pin_to_current_cpu()
    meta = run_metadata(args, workload)
    tally = Tally()
    workdir = OUT_DIR / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        inputs = workload.prepare(args.seed, workdir)
        if args.trace:
            spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
            metrics, extra = per_layer(workload, inputs, args.seconds, tally, spans_path)
            metrics["quality.fail_ratio"] = len(tally.failures) / max(tally.attempted, 1)
        else:
            metrics, extra = end_to_end(workload, inputs, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not metrics:
        print(f"error: {workload.name} produced no result: {tally.failures}", file=sys.stderr)
        return 1
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    meta.update(extra, failures=tally.failures)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

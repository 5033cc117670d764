"""In-memory span tracer that wraps gapest's public functions from outside.

Each traced function is replaced, at every ``gapest`` module attribute bound
to it, by a wrapper that records a span ``[name, start, end, parent]``.
Callers inside the package look functions up through those attributes
(``product_limit.kaplan_meier`` inside ``winter_foldes``,
``benchmark.laslett_em`` inside ``mc_compare``, ...), so the spans nest the
way the calls do.  Hooks record exact counts at the same boundaries.  No
file of the program is edited, and ``Tracer.installed`` restores every
attribute when it exits.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter

import numpy as np

# Span names are ``<module>.<function>`` for the module that defines the
# function; every one is wrapped wherever a gapest module binds it.
TRACED = (
    "cli.main",
    "dataio.read_pairs_csv",
    "dataio.write_pairs_csv",
    "dataio.read_window_csv",
    "dataio.write_window_csv",
    "dataio.write_step_survival_csv",
    "dataio.write_step_survival_json",
    "sampling.sample_equilibrium",
    "sampling.sample_window_replicates",
    "sampling.sample_segment_replicates",
    "seeding.derived_rng",
    "product_limit.bootstrap_band",
    "product_limit.winter_foldes",
    "product_limit.kaplan_meier",
    "product_limit.palmer_cox",
    "product_limit.window_product_limit",
    "product_limit.greenwood_variance",
    "npmle.cox_vardi_from_pairs",
    "npmle.laslett_em",
    "npmle.bin_segments",
    "npmle.default_grid",
    "benchmark.mc_compare",
)

# Relative slack below which a drop in the EM log-likelihood trace counts
# as float rounding rather than a decrease.
TRACE_SLACK = 1e-12


def _file_bytes(key):
    def hook(counts, args, kwargs, result):
        counts[key] += os.path.getsize(args[0])

    return hook


def _bootstrap(counts, args, kwargs, result):
    counts["product_limit.bootstrap_band.resamples"] += result.n_resamples
    counts["product_limit.bootstrap_band.retries"] += result.failures


def _laslett_em(counts, args, kwargs, result):
    segments = args[0]
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    counts["npmle.laslett_em.rows"] += len(segments)
    counts["npmle.laslett_em.distinct_rows"] += len({(s.kind, s.length) for s in segments})
    counts["npmle.laslett_em.atoms"] += int(np.unique(np.asarray(grid, dtype=float)).size)
    counts["npmle.laslett_em.iterations"] += result.iterations
    key = "npmle.laslett_em.iterations_max"
    counts[key] = max(counts[key], result.iterations)
    counts["npmle.laslett_em.converged"] += bool(result.converged)
    ll = np.asarray(result.loglik_trace, dtype=float)
    slack = TRACE_SLACK * np.maximum(np.abs(ll[:-1]), 1.0)
    counts["npmle.laslett_em.trace_decreases"] += int(np.any(np.diff(ll) < -slack))


# Counters the hooks keep; every one is reported, 0 where nothing counted.
COUNTS = (
    "dataio.bytes_read",
    "dataio.bytes_written",
    "product_limit.bootstrap_band.resamples",
    "product_limit.bootstrap_band.retries",
    "npmle.laslett_em.rows",
    "npmle.laslett_em.distinct_rows",
    "npmle.laslett_em.atoms",
    "npmle.laslett_em.iterations",
    "npmle.laslett_em.iterations_max",
    "npmle.laslett_em.converged",
    "npmle.laslett_em.trace_decreases",
)

HOOKS = {
    "dataio.read_pairs_csv": _file_bytes("dataio.bytes_read"),
    "dataio.read_window_csv": _file_bytes("dataio.bytes_read"),
    "dataio.write_pairs_csv": _file_bytes("dataio.bytes_written"),
    "dataio.write_window_csv": _file_bytes("dataio.bytes_written"),
    "dataio.write_step_survival_csv": _file_bytes("dataio.bytes_written"),
    "dataio.write_step_survival_json": _file_bytes("dataio.bytes_written"),
    "product_limit.bootstrap_band": _bootstrap,
    "npmle.laslett_em": _laslett_em,
}


class Tracer:
    """Spans and counts of one traced body; ``reset`` starts the next one."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED function at each gapest attribute bound to it."""
        wrappers = {}
        for name in TRACED:
            module, _, attr = name.rpartition(".")
            fn = getattr(sys.modules[f"gapest.{module}"], attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        undo = []
        for modname, module in list(sys.modules.items()):
            if modname != "gapest" and not modname.startswith("gapest."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    undo.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in reversed(undo):
                setattr(module, attr, value)

    def summary(self) -> dict[str, float]:
        """Per-name ``calls``, ``total_ms`` and ``self_ms`` of the recorded
        spans, plus the COUNTS.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.calls"] = 0
            out[f"{name}.total_ms"] = 0.0
            out[f"{name}.self_ms"] = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_ms"] += (end - start) * 1e3
            out[f"{name}.self_ms"] += (end - start - child[i]) * 1e3
        out.update({key: self.counts[key] for key in COUNTS})
        return out

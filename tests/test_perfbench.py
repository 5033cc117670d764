"""The names the benchmark in ``perfbench/`` takes from gapest still exist.

The benchmark is kept unchanged across releases, so a change that deletes
or renames a function it traces or calls would break it without failing
any other test.
"""

import ast
import copy
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import gapest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def dotted(node):
    """``a.b.c`` for a chain of attribute lookups on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def gapest_names(path):
    """Each outermost ``gapest.…`` name in a source file, and whether it is called."""
    tree = ast.parse(path.read_text())
    called = {dotted(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names = {
        dotted(node) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and id(node) not in inner
    }
    return {name: name in called for name in names if name and name.startswith("gapest.")}


@pytest.mark.parametrize("name", load("tracing").TRACED)
def test_every_traced_name_is_a_function_of_its_module(name):
    module, _, attr = name.rpartition(".")
    fn = getattr(importlib.import_module(f"gapest.{module}"), attr, None)
    assert inspect.isfunction(fn), name
    assert fn.__module__ == f"gapest.{module}", name


@pytest.mark.parametrize("source", ["workloads.py", "run.py"])
def test_every_gapest_name_the_benchmark_uses_resolves(source):
    names = gapest_names(PERFBENCH / source)
    assert names
    for name, is_called in names.items():
        value = gapest
        for part in name.split(".")[1:]:
            if not hasattr(value, part):
                importlib.import_module(f"{value.__name__}.{part}")
            value = getattr(value, part)
        assert callable(value) or not is_called, name


def test_em_hook_counts_the_distinct_rows_of_a_fit():
    # the hook reads (s.kind, s.length) from the segments' one-row items
    from collections import Counter

    from gapest import npmle

    reps = gapest.sample_segment_replicates(2.0, gapest.Exponential(1.0), 0.0, 3.0, 20, seed=3)
    raw = gapest.Segments.concat(reps)
    segs = npmle.bin_segments(raw, 0.25)
    grid = npmle.default_grid(segs, 3.0, 0.25)
    result = npmle.laslett_em(segs, 3.0, grid)
    counts = Counter()
    load("tracing")._laslett_em(counts, (segs, 3.0, grid), {}, result)
    assert counts["npmle.laslett_em.rows"] == len(segs)
    rows, _ = npmle.em_problem(raw, 3.0, 0.25)[1]
    assert counts["npmle.laslett_em.distinct_rows"] == len(rows)
    assert counts["npmle.laslett_em.distinct_rows"] < len(segs)


# Each workload at a few seconds' worth of its sizes: every step runs and every check passes.
SMOKE_SIZES = {
    "cli-files": {"pairs": 2_000, "windows": 200},
    "bootstrap-bands": {"B": 40},
    "mc-segments-em": {"studies": 2, "replicates": 3, "windows": 40},
}


@pytest.mark.parametrize("name", sorted(SMOKE_SIZES))
def test_every_workload_runs_and_passes_its_checks_at_reduced_sizes(name, tmp_path):
    workload = copy.copy(load("workloads").WORKLOADS[name])
    workload.sizes = {**workload.sizes, **SMOKE_SIZES[name]}
    inputs = workload.prepare(1, tmp_path / name)
    outs = [step() for step in workload.steps(inputs)]
    assert len(workload.digest(inputs, outs)) == 64
    outcome = workload.check(inputs, outs)
    assert outcome.checks and all(outcome.checks.values()), outcome.checks
    assert outcome.units > 1

"""Deterministic random streams.

Every sampler and Monte Carlo driver in this package takes an integer seed
and produces bitwise-reproducible output. Independent substreams (one per
replicate, bootstrap retry, ...) are derived with
``derived_rng(seed, *path)``: the base seed becomes the SeedSequence
entropy and the index path its spawn key, so replicate ``i`` of a run
seeded with ``s`` always uses ``derived_rng(s, i)`` regardless of how the
replicates are scheduled. The window and segment samplers draw all windows
of a call from ``derived_rng(seed)``, so their window k depends on
n_windows. ``bootstrap_band`` draws every first resample of a band from
``derived_rng(seed, 0, 0)`` and retry r >= 1 of replicate b from
``derived_rng(seed, b, r)``. Nothing else takes the path (0, 0) (the
samplers take the empty path), so a band never resamples with the uniforms
that drew data sampled with the same seed.
"""

from __future__ import annotations

import numpy as np


def is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """PCG64 generator for the substream identified by ``(seed, *path)``,
    all integers: a float or a bool is a ValueError, never truncated."""
    bad = [x for x in (seed, *path) if not is_integer(x)]
    if bad:
        raise ValueError(f"seed and path elements must be integers, got {bad[0]!r}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)


def child_seed(seed: int, *path: int) -> int:
    """Integer seed for handing a derived substream to a seed-taking function."""
    return int(derived_rng(seed, *path).integers(0, 2**63 - 1))

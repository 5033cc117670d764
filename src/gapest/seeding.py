"""Deterministic random streams.

Every sampler and Monte Carlo driver in this package takes an integer seed
and produces bitwise-reproducible output. Independent substreams (one per
replicate, bootstrap resample, retry, ...) are derived with
``derived_rng(seed, *path)``: the base seed becomes the SeedSequence
entropy and the index path its spawn key, so replicate ``i`` of a run
seeded with ``s`` always uses ``derived_rng(s, i)`` regardless of how the
replicates are scheduled. ``derived_rngs(seed, paths)`` yields the same
streams, derived in a batch: SeedSequence's mixing runs once over all the
paths as uint32 columns, and each PCG64 state is set on one reused
generator, which is therefore valid only until the next one is taken; only
``bootstrap_band`` uses it. The window and segment samplers draw all windows
of a call from ``derived_rng(seed)``, so their window k depends on n_windows.
"""

from __future__ import annotations

import numpy as np

_MASK32, _MASK128, _POOL = 2**32 - 1, 2**128 - 1, 4
# numpy's SeedSequence hash and mix constants, and PCG64's LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """PCG64 generator for the substream identified by ``(seed, *path)``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays, stepping its constant h."""
    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = (h * mult) & _MASK32
        value = value * h
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def derived_rngs(seed: int, paths):
    """Yield, in order, the generator ``derived_rng(seed, *path)`` gives for
    each row of ``paths``, an (n, m) array-like of ints below 2**32. It is
    one generator, re-seeded for each path: valid until the next is taken."""
    seed, keys = int(seed), np.asarray(paths)
    if seed < 0 or (keys.size and keys.min() < 0):
        raise ValueError("expected non-negative integer")
    if keys.size and keys.max() > _MASK32:
        raise ValueError(f"spawn key {keys.max()} is not below 2**32")
    n, _ = keys.shape
    words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))  # zeros fill the pool before any spawn key
    entropy = [np.full(n, x, dtype=np.uint32) for x in words] + list(keys.T.astype(np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(x) for x in entropy[:_POOL]]
    for src, dst in ((s, d) for s in range(_POOL) for d in range(_POOL) if s != d):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for x in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(x))
    hashmix = _hasher(_INIT_B, _MULT_B)  # generate_state(4, np.uint64)
    out = [hashmix(pool[i % _POOL]).astype(np.uint64) for i in range(8)]
    # Little-endian word pairs: high and low halves of PCG64's seed and increment.
    halves = [(out[j] | out[j + 1] << np.uint64(32)).tolist() for j in range(0, 8, 2)]
    rng = np.random.Generator(np.random.PCG64())
    for s_hi, s_lo, i_hi, i_lo in zip(*halves):
        # pcg64_set_seed: two LCG steps, the seed added between them.
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
        yield rng


def child_seed(seed: int, *path: int) -> int:
    """Integer seed for handing a derived substream to a seed-taking function."""
    return int(derived_rng(seed, *path).integers(0, 2**63 - 1))

"""Traced memory of the heaviest steps of the file path, at its sizes.

A run's peak resident memory shows only its largest step, so a step that
is no longer the largest could grow back unseen there. These bounds hold
each step's own peak, as tracemalloc counts it (numpy's arrays included),
at the sizes of ``gapest simulate``/``estimate`` on 200 000 pairs and on
20 000 windows of length 3.
"""

import tracemalloc

import pytest

from gapest import (
    greenwood_variance,
    parse_distribution,
    sample_equilibrium,
    sample_pooled_windows,
    winter_foldes,
)

WEIBULL = parse_distribution("weibull:2:1")
MB = 2**20


def traced_peak(call) -> float:
    """MB of the traced peak over what was held before ``call()``."""
    call()  # loads what the call loads lazily, outside the count
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / MB


@pytest.mark.parametrize("seed", [1, 2])
def test_window_sampler_keeps_only_the_seen_draws(seed):
    # about 88 000 records of 9 bytes; each round's gaps are 20 000 x 8 floats
    assert traced_peak(lambda: sample_pooled_windows(WEIBULL, 0.0, 3.0, 20_000, seed)) < 5.5


def test_product_limit_fit_and_greenwood_hold_few_rows_long_arrays():
    # 200 000 rows: one float or int64 array of them is 1.5 MB
    pairs = sample_equilibrium(WEIBULL, 200_000, 1)
    assert traced_peak(lambda: greenwood_variance(winter_foldes(pairs))) < 12.3

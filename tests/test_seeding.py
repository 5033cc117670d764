"""Batched stream derivation: ``derived_rngs`` yields exactly the streams of
``derived_rng``, so it pins numpy's SeedSequence and PCG64 seeding."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapest import Exponential, Pairs, bootstrap_band, sample_pooled_windows
from gapest.sampling import sample_pooled_segments
from gapest.seeding import derived_rng, derived_rngs

SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1, 2**128, 2**160 + 3]),
    st.integers(0, 2**64),
    st.integers(2**128, 2**200),
)
KEYS = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1))


@given(SEEDS, st.integers(1, 3).flatmap(
    lambda m: st.lists(st.lists(KEYS, min_size=m, max_size=m), min_size=1, max_size=6)
))
def test_each_stream_equals_derived_rng(seed, paths):
    for path, rng in zip(paths, derived_rngs(seed, paths), strict=True):
        ref = derived_rng(seed, *path)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.integers(0, 2**62, size=3).tolist() == ref.integers(0, 2**62, size=3).tolist()
        assert rng.random(3).tolist() == ref.random(3).tolist()


def test_unkeyed_streams_equal_derived_rng():
    for seed in (0, 7, 2**32, 2**130):
        (rng,) = derived_rngs(seed, np.empty((1, 0), dtype=int))
        assert rng.bit_generator.state == derived_rng(seed).bit_generator.state


def test_one_generator_reseeded_in_turn():
    rngs = list(derived_rngs(5, [[0], [1], [2]]))
    assert rngs[0] is rngs[1] is rngs[2]


@pytest.mark.parametrize("seed,paths", [(-1, [[0]]), (3, [[0], [-2]]), (-(2**40), [[1, 2]])])
def test_negative_seed_or_key_fails_like_seedsequence(seed, paths):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        next(derived_rngs(seed, paths))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        derived_rng(seed, *paths[-1])


@pytest.mark.parametrize("key", [2**32, 2**40, 2**64])
def test_key_of_two_words_is_rejected_by_name(key):
    with pytest.raises(ValueError, match=f"spawn key {key} is not below 2\\*\\*32"):
        next(derived_rngs(1, [[0, 0], [3, key]]))


def test_callers_reject_a_negative_seed():
    pairs = Pairs([0.5, 1.0], [0.5, 0.25], [False, False])
    for call in (
        lambda: bootstrap_band(pairs, "cox_vardi", B=5, seed=-1),
        lambda: sample_pooled_windows(Exponential(1.0), 0.0, 2.0, 3, seed=-1),
        lambda: sample_pooled_segments(1.0, Exponential(1.0), 0.0, 2.0, 3, seed=-1),
    ):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            call()

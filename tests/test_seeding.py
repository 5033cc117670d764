"""Stream derivation: ``derived_rng(seed, *path)`` is the stream numpy's
SeedSequence spawn tree gives that path, so a replicate's stream does not
depend on how the replicates are scheduled. And no BLAS call, whose
summation order follows the thread count, is left in the package."""

import ast
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gapest
from gapest import Exponential, Pairs, bootstrap_band, sample_pooled_windows
from gapest.sampling import sample_pooled_segments
from gapest.seeding import child_seed, derived_rng

SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1, 2**128, 2**160 + 3]),
    st.integers(0, 2**64),
    st.integers(2**128, 2**200),
)


def spawned(seed, path):
    """The stream reached by spawning children down ``path`` from ``seed``."""
    ss = np.random.SeedSequence(seed)
    for key in path:
        ss = ss.spawn(key + 1)[key]
    return np.random.default_rng(ss)


@given(SEEDS, st.integers(1, 3).flatmap(
    lambda m: st.lists(st.lists(st.integers(0, 4), min_size=m, max_size=m), min_size=1, max_size=6)
))
def test_each_stream_equals_derived_rng(seed, paths):
    for path in paths:
        rng, ref = spawned(seed, path), derived_rng(seed, *path)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.integers(0, 2**62, size=3).tolist() == ref.integers(0, 2**62, size=3).tolist()
        assert rng.random(3).tolist() == ref.random(3).tolist()


def test_unkeyed_streams_equal_derived_rng():
    for seed in (0, 7, 2**32, 2**130):
        assert derived_rng(seed).bit_generator.state == np.random.default_rng(seed).bit_generator.state


def test_distinct_paths_give_distinct_streams():
    paths = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (0, 0, 0)]
    states = [derived_rng(9, *p).bit_generator.state["state"]["state"] for p in paths]
    assert len(set(states)) == len(paths)


@pytest.mark.parametrize("seed,paths", [(-1, [[0]]), (3, [[0], [-2]]), (-(2**40), [[1, 2]])])
def test_negative_seed_or_key_fails_like_seedsequence(seed, paths):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence(seed, spawn_key=paths[-1])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        derived_rng(seed, *paths[-1])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        child_seed(seed, *paths[-1])


@pytest.mark.parametrize("seed,path,bad", [
    (1.5, (), "1.5"),
    (1.0, (), "1.0"),
    (True, (), "True"),
    (np.float64(2.0), (), "np.float64(2.0)"),
    ("3", (), "'3'"),
    (None, (), "None"),
    (1, (0.5,), "0.5"),
    (1, (2, False), "False"),
    (1, (np.bool_(True),), "np.True_"),
])
def test_a_seed_or_key_that_is_not_an_integer_is_rejected(seed, path, bad):
    with pytest.raises(ValueError, match=f"must be integers, got {re.escape(bad)}$"):
        derived_rng(seed, *path)
    with pytest.raises(ValueError, match="must be integers"):
        child_seed(seed, *path)


def test_numpy_integer_seeds_and_keys_are_their_values():
    state = derived_rng(5, 2, 7).bit_generator.state
    assert derived_rng(np.int64(5), np.uint32(2), np.int8(7)).bit_generator.state == state


@pytest.mark.parametrize("key", [2**32, 2**40, 2**64])
def test_key_of_two_words_is_the_path_of_its_words(key):
    words = [(key >> s) & (2**32 - 1) for s in range(0, key.bit_length(), 32)]
    assert len(words) > 1
    state = derived_rng(1, 3, key).bit_generator.state
    assert state == derived_rng(1, 3, *words).bit_generator.state
    assert state != derived_rng(1, 3, words[0]).bit_generator.state


def test_child_seeds_are_reproducible_and_distinct():
    paths = list(itertools.product(range(20), range(10)))
    seeds = [child_seed(11, *p) for p in paths]
    assert seeds == [child_seed(11, *p) for p in paths]
    assert all(0 <= s < 2**63 - 1 for s in seeds)
    assert len(set(seeds)) == len(paths)


def test_callers_reject_a_negative_seed():
    pairs = Pairs([0.5, 1.0], [0.5, 0.25], [False, False])
    for call in (
        lambda: bootstrap_band(pairs, "cox_vardi", B=5, seed=-1),
        lambda: sample_pooled_windows(Exponential(1.0), 0.0, 2.0, 3, seed=-1),
        lambda: sample_pooled_segments(1.0, Exponential(1.0), 0.0, 2.0, 3, seed=-1),
    ):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            call()


BLAS_NAMES = {"matmul", "dot", "inner", "vdot", "tensordot", "linalg"}


def blas_uses(source: str):
    """Line and text of each BLAS-backed numpy name or ``@`` in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            yield node.lineno, f".{node.attr}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            for alias in node.names:
                if alias.name in BLAS_NAMES or node.module.startswith("numpy.linalg"):
                    yield node.lineno, f"from {node.module} import {alias.name}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"


def test_the_scan_sees_each_blas_form():
    forms = ["np.dot(a, b)", "a.dot(b)", "np.linalg.norm(a)", "a @ b", "a @= b",
             "from numpy import inner", "from numpy.linalg import solve", "numpy.tensordot(a, b)",
             "np.vdot(a, b)", "np.matmul(a, b)"]
    for form in forms:
        assert list(blas_uses(form)), form
    assert not list(blas_uses("np.cumsum(a * b)[-1]; from numpy import cumsum"))
    assert "npmle.py" in {path.name for path in PACKAGE_FILES}


PACKAGE_FILES = sorted(Path(gapest.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_the_package_makes_no_blas_call(path):
    # OpenBLAS picks a product's summation order by its thread count
    assert list(blas_uses(path.read_text())) == []

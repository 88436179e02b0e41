"""Both elimination backends against a brute-force nullspace count, and
the pivot columns against the rank of every column prefix."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushfwd.linalg import (
    HAVE_NUMBA,
    active_backend,
    kernel_dim_mod_p,
    pivot_columns_mod_p,
    rank_mod_p_numba,
    rank_mod_p_numpy,
)

BACKENDS = [rank_mod_p_numpy] + ([rank_mod_p_numba] if HAVE_NUMBA else [])


def brute_force_nullity(mat, p):
    nrows, ncols = mat.shape
    count = 0
    for vec in itertools.product(range(p), repeat=ncols):
        if all(sum(mat[i, j] * vec[j] for j in range(ncols)) % p == 0
               for i in range(nrows)):
            count += 1
    dim = 0
    while p ** dim < count:
        dim += 1
    assert p ** dim == count
    return dim


@pytest.mark.parametrize("rank_fn", BACKENDS)
def test_rank_known_matrices(rank_fn):
    p = 7
    assert rank_fn(np.array([[1, 2], [2, 4]], dtype=np.int64), p) == 1
    assert rank_fn(np.array([[1, 0], [0, 1]], dtype=np.int64), p) == 2
    assert rank_fn(np.zeros((3, 3), dtype=np.int64), p) == 0
    # 7 = 0 mod 7: a matrix invertible over the integers can drop rank
    assert rank_fn(np.array([[7, 1], [14, 2]], dtype=np.int64), p) == 1


@pytest.mark.parametrize("rank_fn", BACKENDS)
def test_rank_matches_brute_force(rank_fn):
    rng = random.Random(5)
    for p in (3, 5):
        for _ in range(25):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 4)
            mat = np.array(
                [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)],
                dtype=np.int64,
            )
            assert ncols - rank_fn(mat, p) == brute_force_nullity(mat, p)


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba unavailable")
def test_backends_agree_on_random_matrices():
    rng = random.Random(17)
    for p in (5, 10007):
        for _ in range(20):
            nrows = rng.randint(1, 12)
            ncols = rng.randint(1, 12)
            mat = np.array(
                [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)],
                dtype=np.int64,
            )
            assert rank_mod_p_numpy(mat, p) == rank_mod_p_numba(mat, p)


@st.composite
def matrices_mod_p(draw):
    p = draw(st.sampled_from((3, 5, 7, 10007)))
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    all_zero = draw(st.integers(0, 3)) == 0  # about one matrix in four
    entry = st.just(0) if all_zero else st.integers(-2 * p, 2 * p)
    cells = draw(st.lists(entry, min_size=nrows * ncols, max_size=nrows * ncols))
    return np.array(cells, dtype=np.int64).reshape(nrows, ncols), p


@given(matrices_mod_p())
@settings(max_examples=300, deadline=None)
def test_pivots_count_the_rank_of_every_column_prefix(case):
    mat, p = case
    pivots = pivot_columns_mod_p(mat, p)
    assert pivots == sorted(set(pivots))
    for t in range(mat.shape[1] + 1):
        assert sum(c < t for c in pivots) == rank_mod_p_numpy(mat[:, :t], p)


def test_kernel_dim_edges():
    p = 5
    assert kernel_dim_mod_p(np.zeros((0, 4), dtype=np.int64), p) == 4
    assert kernel_dim_mod_p(np.zeros((3, 0), dtype=np.int64), p) == 0
    with pytest.raises(ValueError):
        kernel_dim_mod_p(np.zeros((1, 1), dtype=np.int64), 2)


def test_active_backend_name():
    assert active_backend() in ("numba", "numpy")


@pytest.mark.parametrize("env_value,expected", [("numpy", "numpy"), ("numba", "numba")])
def test_env_flag_selects_backend(env_value, expected):
    if env_value == "numba" and not HAVE_NUMBA:
        pytest.skip("numba unavailable")
    import os
    import subprocess
    import sys

    env = dict(os.environ, PUSHFWD_BACKEND=env_value)
    out = subprocess.run(
        [sys.executable, "-c",
         "from pushfwd.linalg import active_backend; print(active_backend())"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == expected

"""The reference route's elimination kernel (tests/reference_oracle.py):
the nullity against a brute-force nullspace count, and the pivots against
a plain elimination of every column prefix and of every block of leading
rows and columns."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushfwd.linalg import HAVE_NUMBA, active_backend
from reference_oracle import kernel_dim_mod_p, pivot_columns_mod_p


def rank(mat, p):
    return mat.shape[1] - kernel_dim_mod_p(mat, p)


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


def test_rank_known_matrices():
    p = 7
    assert rank(np.array([[1, 2], [2, 4]], dtype=np.int64), p) == 1
    assert rank(np.array([[1, 0], [0, 1]], dtype=np.int64), p) == 2
    assert rank(np.zeros((3, 3), dtype=np.int64), p) == 0
    # 7 = 0 mod 7: a matrix invertible over the integers can drop rank
    assert rank(np.array([[7, 1], [14, 2]], dtype=np.int64), p) == 1


def test_rank_matches_brute_force():
    rng = random.Random(5)
    for p in (3, 5):
        for _ in range(25):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 4)
            mat = np.array(
                [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)],
                dtype=np.int64,
            )
            assert kernel_dim_mod_p(mat, p) == brute_force_nullity(mat, p)


def reference_prefix_ranks(rows, p, ncols):
    """Ranks over F_p of the first t columns, t = 0 .. ncols, by textbook
    Gaussian elimination on Python integers (rows swapped freely)."""
    rows = [[c % p for c in row] for row in rows]
    ranks = [0]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is not None:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][c], p - 2, p)
            rows[rank] = [v * inv % p for v in rows[rank]]
            for i in range(len(rows)):
                if i != rank and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[rank])]
            rank += 1
        ranks.append(rank)
    return ranks


def reference_rank(rows, p):
    """Rank over F_p by textbook Gaussian elimination on Python integers."""
    return reference_prefix_ranks(rows, p, len(rows[0]) if rows else 0)[-1]


# 65537 and 1073741789 reduce the trailing block after many steps or a
# few (bound + (p - 1)^2 passing 2**62), 2**31 - 1 after every step, the
# small primes never.
PRIMES = (3, 5, 7, 10007, 65537, 1073741789, 2**31 - 1)


@st.composite
def matrices_mod_p(draw):
    # Entries come from a drawn Random: hypothesis favours small integers,
    # which would never make the unreduced block grow near 2**62.
    p = draw(st.sampled_from(PRIMES))
    nrows = draw(st.integers(0, 12))
    ncols = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(("dense", "zero", "low rank")))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "zero":
        rows = [[0] * ncols for _ in range(nrows)]
    elif kind == "dense":
        rows = [[rng.randint(-2 * p, 2 * p) for _ in range(ncols)] for _ in range(nrows)]
    else:
        # A product through k < min(shape) inner columns, plus multiples of
        # p: eliminating it must cancel rows exactly after the block has
        # grown unreduced.
        k = rng.randint(0, max(0, min(nrows, ncols) - 1))
        left = [[rng.randrange(p) for _ in range(k)] for _ in range(nrows)]
        right = [[rng.randrange(p) for _ in range(k)] for _ in range(ncols)]
        rows = [[sum(a * b for a, b in zip(lrow, rcol)) % p + p * rng.randint(-1, 1)
                 for rcol in right] for lrow in left]
    return np.array(rows, dtype=np.int64).reshape(nrows, ncols), p


@given(matrices_mod_p())
@settings(max_examples=400, deadline=None)
def test_pivots_count_the_rank_of_every_column_prefix(case):
    mat, p = case
    before = mat.copy()
    pivots = [c for c, _ in pivot_columns_mod_p(mat, p)]
    assert np.array_equal(mat, before)
    assert pivots == sorted(set(pivots))
    rows = mat.tolist()
    for t in range(mat.shape[1] + 1):
        assert sum(c < t for c in pivots) == reference_rank([row[:t] for row in rows], p)


@given(matrices_mod_p())
@settings(max_examples=300, deadline=None)
def test_leads_give_the_rank_of_every_block(case):
    # rank(mat[:s, :t]) counts the pivots (c, r) with c < t and r < s, for
    # every s and t: the leads are the rows of the rank profile matrix.
    mat, p = case
    nrows, ncols = mat.shape
    pivots = pivot_columns_mod_p(mat, p)
    leads = [r for _, r in pivots]
    assert len(set(leads)) == len(leads) and all(0 <= r < nrows for r in leads)
    rows = mat.tolist()
    for s in range(nrows + 1):
        ranks = reference_prefix_ranks(rows[:s], p, ncols)
        assert [sum(c < t and r < s for c, r in pivots) for t in range(ncols + 1)] == ranks


def test_kernel_dim_edges():
    p = 5
    assert kernel_dim_mod_p(np.zeros((0, 4), dtype=np.int64), p) == 4
    assert kernel_dim_mod_p(np.zeros((3, 0), dtype=np.int64), p) == 0
    with pytest.raises(ValueError):
        kernel_dim_mod_p(np.zeros((1, 1), dtype=np.int64), 2)


def test_active_backend_name():
    assert active_backend() == "python"
    assert HAVE_NUMBA is False

"""Dense linear algebra over a prime field: pivots, rank, nullity.

The Riemann-Roch oracle in ``hyperelliptic`` calls nothing here: a
remainder sequence, not an elimination, gives its dimensions.
``pivot_columns_mod_p`` is a numpy column reduction that reports each
pivot column with its lead, the first row where the reduced column is
nonzero; ``rank_mod_p_numpy`` and the condition-matrix reference route
of the test suite (tests/reference_oracle.py) use it.  Rows are never
moved, so the pivots give the rank of every block ``mat[:s, :t]`` at once
(the rank profile matrix of J.-G. Dumas, C. Pernet, Z. Sultan, *Computing
the rank profile matrix*, ISSAC 2015).  It defers reduction: each step reduces
mod p only the pivot column (to find the lead) and the factors, and
takes factor * column off the later columns unreduced.  Entries there
grow by at most (p - 1)^2 per step from at most p - 1, and the block is
reduced only when the tracked bound would pass 2**62, so int64 never
overflows: at p = 10007 that never happens, near 2**31 it happens at
every step.
``rank_mod_p``, behind ``kernel_dim_mod_p``, has two
interchangeable implementations: a numba-compiled elimination (the
default when numba imports) and the same numpy reduction.  Set

    PUSHFWD_BACKEND=numpy

to force the numpy one; ``numba`` selects the compiled kernel explicitly.
All of them require p to be prime and below 2**31 so products of
residues stay inside int64.
"""

from __future__ import annotations

import os

import numpy as np

MAX_PRIME = 2**31


def pivot_columns_mod_p(mat: np.ndarray, p: int) -> list[tuple[int, int]]:
    """Pivots of ``mat`` over F_p as (column, lead) pairs, in column order.

    Column c is a pivot exactly when it is independent of the columns
    before it.  Each later column is reduced against it to vanish at its
    lead, the first row where column c, itself so reduced, is nonzero.
    No row is moved, so the leads are distinct and, for every s and t,

        rank(mat[:s, :t]) = #{(c, r) in pivots : c < t and r < s}.

    ``mat`` is left as it is.  Reduction of the later columns is deferred
    (see the module docstring).
    """
    nrows, ncols = mat.shape
    if nrows == 0:
        return []
    # One row of ``a`` per column of ``mat``: the columns are what each
    # step updates.
    a = np.remainder(np.asarray(mat, dtype=np.int64).T, p, order="C")
    step = (p - 1) ** 2
    bound = p - 1  # largest |entry| left in the columns after the last pivot
    pivots: list[tuple[int, int]] = []
    for c in range(ncols):
        col = a[c] % p
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        lead = int(nz[0])
        pivots.append((c, lead))
        if len(pivots) == nrows or c + 1 == ncols:
            break  # no later column can be a pivot
        factors = a[c + 1 :, lead] % p * pow(int(col[lead]), p - 2, p) % p
        if bound + step > 2**62:
            a[c + 1 :] %= p
            bound = p - 1
        a[c + 1 :] -= factors[:, None] * col
        bound += step
    return pivots


def rank_mod_p_numpy(mat: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p, vectorized row reduction."""
    return len(pivot_columns_mod_p(mat, p))


try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is the optional 'numba' extra
    HAVE_NUMBA = False

if HAVE_NUMBA:

    @njit(cache=True)
    def _rank_mod_p_jit(a, p):  # pragma: no cover - exercised via wrapper
        nrows, ncols = a.shape
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            piv = -1
            for i in range(r, nrows):
                if a[i, c] != 0:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != r:
                for j in range(c, ncols):
                    tmp = a[r, j]
                    a[r, j] = a[piv, j]
                    a[piv, j] = tmp
            # modular inverse by Fermat: a^(p-2) mod p
            base = a[r, c]
            exp = p - 2
            inv = 1
            while exp > 0:
                if exp & 1:
                    inv = inv * base % p
                base = base * base % p
                exp >>= 1
            for j in range(c, ncols):
                a[r, j] = a[r, j] * inv % p
            for i in range(r + 1, nrows):
                f = a[i, c]
                if f != 0:
                    for j in range(c, ncols):
                        a[i, j] = (a[i, j] - f * a[r, j]) % p
            r += 1
        return r

    def rank_mod_p_numba(mat: np.ndarray, p: int) -> int:
        """Rank of an integer matrix over F_p, compiled elimination."""
        a = np.array(mat, dtype=np.int64) % p
        if a.size == 0:
            return 0
        return int(_rank_mod_p_jit(a, p))

else:  # pragma: no cover
    rank_mod_p_numba = rank_mod_p_numpy


def _pick_backend() -> str:
    choice = os.environ.get("PUSHFWD_BACKEND", "").strip().lower()
    if choice not in ("", "numba", "numpy"):
        raise ValueError(
            f"PUSHFWD_BACKEND must be 'numba' or 'numpy', got {choice!r}"
        )
    if choice == "numpy" or (choice == "" and not HAVE_NUMBA):
        return "numpy"
    if choice == "numba" and not HAVE_NUMBA:
        raise ValueError("PUSHFWD_BACKEND=numba but numba is not importable")
    return "numba"


_BACKEND = _pick_backend()
rank_mod_p = rank_mod_p_numba if _BACKEND == "numba" else rank_mod_p_numpy


def active_backend() -> str:
    """Name of the elimination backend selected at import time."""
    return _BACKEND


def kernel_dim_mod_p(mat: np.ndarray, p: int) -> int:
    """Dimension of the nullspace of ``mat`` over F_p."""
    if not 2 < p < MAX_PRIME:
        raise ValueError(f"modulus must be an odd prime below 2**31, got {p}")
    nrows, ncols = mat.shape
    if ncols == 0:
        return 0
    if nrows == 0:
        return ncols
    return ncols - rank_mod_p(mat, p)

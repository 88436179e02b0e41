"""Dense linear algebra over a prime field: pivots and nullity.

The Riemann-Roch oracle in ``hyperelliptic`` calls nothing here: a
remainder sequence, not an elimination, gives its dimensions.
``pivot_columns_mod_p`` is the one elimination kernel, a numpy column
reduction that reports each pivot column with its lead, the first row
where the reduced column is nonzero.  The condition-matrix reference
route of the test suite (tests/reference_oracle.py) uses it, and
``kernel_dim_mod_p`` counts the columns it leaves without a pivot.
Rows are never moved, so the pivots give the rank of every block
``mat[:s, :t]`` at once (the rank profile matrix of J.-G. Dumas,
C. Pernet, Z. Sultan, *Computing the rank profile matrix*, ISSAC 2015).
It defers reduction: each step reduces mod p only the pivot column (to
find the lead) and the factors, and takes factor * column off the later
columns unreduced.  Entries there grow by at most (p - 1)^2 per step from
at most p - 1, and the block is reduced only when the tracked bound would
pass 2**62, so int64 never overflows: at p = 10007 that never happens,
near 2**31 it happens at every step.  p must be prime and below 2**31 so
products of residues stay inside int64.
"""

from __future__ import annotations

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


# e2ebench/worker.py reads these two facts on every run; they go with
# the benchmark's name patching (ROADMAP item 2).
HAVE_NUMBA = False


def active_backend() -> str:
    """Name of the elimination kernel: always ``"numpy"``."""
    return "numpy"


def kernel_dim_mod_p(mat: np.ndarray, p: int) -> int:
    """Dimension of the nullspace of ``mat`` over F_p."""
    if not 2 < p < MAX_PRIME:
        raise ValueError(f"modulus must be an odd prime below 2**31, got {p}")
    return mat.shape[1] - len(pivot_columns_mod_p(mat, p))

"""Direct images under degree-n self-maps of the projective line.

The image of O(m) depends only on n: writing m = q*n + i with 0 <= i < n,
it is (i+1) copies of O(q) and (n-i-1) copies of O(q-1).  Floor division
makes the remainder convention unconditional for negative m.
"""

from __future__ import annotations

from .errors import InvalidDegree
from .splitting import (
    CohSequence,
    SplittingType,
    h0_sequence_from_callable,
)


def direct_image_g0(n: int, m: int) -> SplittingType:
    """Direct image of O(m) under any degree-n self-map of the line."""
    if n < 1:
        raise InvalidDegree(f"map degree must be at least 1, got {n}")
    q, i = divmod(m, n)
    return SplittingType.from_pairs(((q, i + 1), (q - 1, n - i - 1)))


def direct_image_g0_bundle(n: int, bundle: SplittingType) -> SplittingType:
    """Direct image of an arbitrary split bundle, summand by summand."""
    if n < 1:
        raise InvalidDegree(f"map degree must be at least 1, got {n}")
    pairs: list[tuple[int, int]] = []
    for t, mult in bundle.pairs():
        pairs += [(q, k * mult) for q, k in direct_image_g0(n, t).pairs()]
    return SplittingType.from_pairs(pairs)


def g0_oracle_sequence(n: int, m: int) -> CohSequence:
    """The h0 sequence of the direct image of O(m), from the line's own
    cohomology table: pulling back O(-l) twists the source by -l*n, so the
    value at l is max(0, m - l*n + 1).  Extracting a splitting from this
    sequence must reproduce :func:`direct_image_g0`.  The walk starts
    inside the window, at l = m // n.
    """
    if n < 1:
        raise InvalidDegree(f"map degree must be at least 1, got {n}")
    return h0_sequence_from_callable(lambda l: max(0, m - l * n + 1), n, start=m // n)

"""Exact calculus of split vector bundles on the projective line.

Every bundle on the line is a direct sum of twists O(n_1) + ... + O(n_r),
so a bundle is just the multiset of its twists.  This module provides the
cohomology table, twisting, the Serre dual, and the reconstruction of a
splitting type from the integer sequence l -> h0(B(-l)): the multiplicity
of the twist j is the second difference a_j - 2*a_{j+1} + a_{j+2}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import (
    InvalidSequence,
    NegativeSecondDifference,
    RankMismatch,
)


@dataclass(frozen=True)
class SplittingType:
    """A direct sum of line bundles on the line, as a multiset of twists.

    Stored canonically as a descending tuple, so two values are equal
    exactly when the multisets agree.
    """

    twists: tuple[int, ...]

    def __post_init__(self) -> None:
        ts = tuple(sorted((int(t) for t in self.twists), reverse=True))
        if not ts:
            raise ValueError("a splitting type needs at least one summand")
        object.__setattr__(self, "twists", ts)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "SplittingType":
        """Build from (twist, multiplicity) pairs."""
        twists: list[int] = []
        for t, mult in pairs:
            if mult < 0:
                raise ValueError(f"multiplicity of twist {t} cannot be negative")
            twists.extend([t] * mult)
        return cls(tuple(twists))

    @property
    def rank(self) -> int:
        return len(self.twists)

    @property
    def degree(self) -> int:
        return sum(self.twists)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """(twist, multiplicity) pairs in descending twist order."""
        out: list[tuple[int, int]] = []
        for t in self.twists:
            if out and out[-1][0] == t:
                out[-1] = (t, out[-1][1] + 1)
            else:
                out.append((t, 1))
        return tuple(out)

    def __add__(self, other: "SplittingType") -> "SplittingType":
        """Direct sum."""
        if not isinstance(other, SplittingType):
            return NotImplemented
        return SplittingType(self.twists + other.twists)

    def __iter__(self):
        return iter(self.twists)

    def __repr__(self) -> str:
        return f"SplittingType({', '.join(str(t) for t in self.twists)})"


def h0(bundle: SplittingType) -> int:
    """dim of global sections: sum of max(0, n_j + 1)."""
    return sum(max(0, t + 1) for t in bundle.twists)


def h1(bundle: SplittingType) -> int:
    """dim of first cohomology: sum of max(0, -n_j - 1)."""
    return sum(max(0, -t - 1) for t in bundle.twists)


def twist(bundle: SplittingType, amount: int) -> SplittingType:
    """Tensor with O(amount): shift every twist."""
    return SplittingType(tuple(t + amount for t in bundle.twists))


def serre_dual(bundle: SplittingType) -> SplittingType:
    """O(-2) tensor the dual: n_j -> -n_j - 2.  An involution swapping h0 and h1."""
    return SplittingType(tuple(-t - 2 for t in bundle.twists))


def spread(bundle: SplittingType) -> int:
    """Largest gap between twist degrees, max n_j - min n_j."""
    return bundle.twists[0] - bundle.twists[-1]


@dataclass(frozen=True)
class CohSequence:
    """A window of cohomology dimensions indexed by the twisting degree.

    ``values[k]`` is the dimension at degree ``lo + k``.  In ``h0`` mode the
    window must end with two zeros (it clears the top summand); in ``h1``
    mode it must start with two zeros.  Either way the second differences
    are the candidate multiplicities and must be nonnegative and sum to
    ``rank_hint``.  Violations raise at construction so that extraction can
    never produce garbage multiplicities.
    """

    lo: int
    values: tuple[int, ...]
    rank_hint: int
    mode: str = "h0"

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if self.mode not in ("h0", "h1"):
            raise ValueError(f"mode must be 'h0' or 'h1', not {self.mode!r}")
        if self.rank_hint < 1:
            raise InvalidSequence("rank hint must be a positive integer")
        if len(self.values) < 3:
            raise InvalidSequence("window must contain at least three values")
        if any(v < 0 for v in self.values):
            raise InvalidSequence("cohomology dimensions cannot be negative")
        if self.mode == "h0":
            if self.values[-1] != 0 or self.values[-2] != 0:
                raise InvalidSequence(
                    "an h0 window must end with two zero values; extend the top"
                )
        elif self.values[0] != 0 or self.values[1] != 0:
            raise InvalidSequence(
                "an h1 window must start with two zero values; extend the bottom"
            )
        total = 0
        for j, d in zip(range(self.lo, self.hi - 1), self.second_differences()):
            if d < 0:
                raise NegativeSecondDifference(
                    f"second difference {d} at degree {j}: "
                    "not the cohomology sequence of any split bundle"
                )
            total += d
        if total != self.rank_hint:
            raise RankMismatch(
                f"second differences sum to {total}, expected rank {self.rank_hint}"
                " (window too small at one end)"
            )

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def value_at(self, degree: int) -> int:
        if not self.lo <= degree <= self.hi:
            raise IndexError(f"degree {degree} outside window [{self.lo}, {self.hi}]")
        return self.values[degree - self.lo]

    def second_differences(self) -> tuple[int, ...]:
        v = self.values
        return tuple(v[k] - 2 * v[k + 1] + v[k + 2] for k in range(len(v) - 2))


def _from_second_differences(seq: CohSequence) -> SplittingType:
    twists: list[int] = []
    for j, mult in zip(range(seq.lo, seq.hi - 1), seq.second_differences()):
        twists.extend([j] * mult)
    return SplittingType(tuple(twists))


def splitting_from_h0_sequence(seq: CohSequence) -> SplittingType:
    """Recover the splitting type whose h0 sequence is ``seq``."""
    if seq.mode != "h0":
        raise ValueError("expected an h0-mode sequence")
    return _from_second_differences(seq)


def splitting_from_h1_sequence(seq: CohSequence) -> SplittingType:
    """Recover the splitting type from an h1 sequence (same second differences)."""
    if seq.mode != "h1":
        raise ValueError("expected an h1-mode sequence")
    return _from_second_differences(seq)


def h0_sequence_of(bundle: SplittingType) -> CohSequence:
    """The h0 sequence of a known bundle over its minimal valid window.

    Inverse of :func:`splitting_from_h0_sequence`.
    """
    lo = bundle.twists[-1]
    hi = bundle.twists[0] + 2
    values = tuple(h0(twist(bundle, -l)) for l in range(lo, hi + 1))
    return CohSequence(lo, values, bundle.rank)


def h0_sequence_from_callable(
    h0_of: Callable[[int], int],
    rank_hint: int,
    max_steps: int = 10_000,
    start: int = 0,
) -> CohSequence:
    """Discover the minimal window of ``l -> h0_of(l)`` and package it.

    Walking from ``start``, the top of the window sits two steps above the
    largest degree with a positive value; the bottom is found by walking
    down until the accumulated second differences reach ``rank_hint``.  The
    callable is queried once per degree, and only inside the window when
    ``start`` is; ``max_steps`` bounds the walk otherwise.
    """
    if rank_hint < 1:
        raise InvalidSequence("rank hint must be a positive integer")
    cache: dict[int, int] = {}

    def a(l: int) -> int:
        if l not in cache:
            v = int(h0_of(l))
            if v < 0:
                raise InvalidSequence(f"negative dimension {v} reported at degree {l}")
            cache[l] = v
        return cache[l]

    steps = 0
    l = start
    if a(l) > 0:
        while a(l) > 0:
            l += 1
            steps += 1
            if steps > max_steps:
                raise InvalidSequence("sequence never vanishes above; giving up")
        top = l - 1
    else:
        while a(l) == 0:
            l -= 1
            steps += 1
            if steps > max_steps:
                raise InvalidSequence("sequence has no positive values; giving up")
        top = l
    hi = top + 2

    total = 0
    j = top
    while True:
        d = a(j) - 2 * a(j + 1) + a(j + 2)
        if d < 0:
            raise NegativeSecondDifference(
                f"second difference {d} at degree {j}: "
                "not the cohomology sequence of any split bundle"
            )
        total += d
        if total >= rank_hint:
            break
        j -= 1
        steps += 1
        if steps > max_steps:
            raise RankMismatch(
                f"accumulated multiplicity {total} never reached rank {rank_hint}"
            )
    lo = j
    values = tuple(a(l) for l in range(lo, hi + 1))
    return CohSequence(lo, values, rank_hint)

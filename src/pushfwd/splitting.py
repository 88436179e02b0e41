"""Exact calculus of split vector bundles on the projective line.

Every bundle on the line is a direct sum of twists O(n_1) + ... + O(n_r),
so a bundle is just the multiset of its twists.  This module provides the
cohomology table, twisting, the Serre dual, and the reconstruction of a
splitting type from the integer sequence l -> h0(B(-l)): the multiplicity
of the twist j is the second difference a_j - 2*a_{j+1} + a_{j+2}.

The multiset is stored in run-length form, as (twist, multiplicity)
pairs.  Every producer in the package yields a few runs however large the
rank, so every operation here costs O(runs), not O(rank); only
:attr:`SplittingType.twists` and :func:`splitting_text` list the summands
one by one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import (
    InvalidSequence,
    NegativeSecondDifference,
    RankMismatch,
)

# splitting_text lists at most this many summands; the run-length pairs
# describe a bundle of any rank.
MAX_LISTED_SUMMANDS = 10**6
# h0_sequence_from_callable gives up on a walk longer than this.
MAX_WALK_STEPS = 10_000


def _integer(value, field: str) -> int:
    """``operator.index(value)``, or a ValueError naming the field.  An
    exact ``int`` is returned as it is, before the call."""
    if type(value) is int:
        return value
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{field} must be an integer, got {value!r}") from None


def _canonical(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Sort (twist, multiplicity) pairs by descending twist and merge equal
    twists; zero multiplicities are dropped, negative ones rejected."""
    pairs = [(_integer(t, "twist"), _integer(mult, "multiplicity")) for t, mult in pairs]
    pairs.sort(reverse=True)
    out: list[tuple[int, int]] = []
    for t, mult in pairs:
        if mult < 0:
            raise ValueError(f"multiplicity of twist {t} cannot be negative")
        if mult == 0:
            continue
        if out and out[-1][0] == t:
            out[-1] = (t, out[-1][1] + mult)
        else:
            out.append((t, mult))
    if not out:
        raise ValueError("a splitting type needs at least one summand")
    return tuple(out)


class SplittingType:
    """A direct sum of line bundles on the line, as a multiset of twists.

    Stored canonically as (twist, multiplicity) pairs with strictly
    descending twists and positive multiplicities, so two values are equal
    exactly when the multisets agree.
    """

    __slots__ = ("_pairs",)

    def __init__(self, twists: Iterable[int]) -> None:
        self._pairs = _canonical((t, 1) for t in twists)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "SplittingType":
        """Build from (twist, multiplicity) pairs, in any order."""
        bundle = cls.__new__(cls)
        bundle._pairs = _canonical(pairs)
        return bundle

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """(twist, multiplicity) pairs in descending twist order."""
        return self._pairs

    @property
    def twists(self) -> tuple[int, ...]:
        """Every summand's twist, descending: rank many ints."""
        return tuple(t for t, mult in self._pairs for _ in range(mult))

    @property
    def rank(self) -> int:
        return sum(mult for _, mult in self._pairs)

    @property
    def degree(self) -> int:
        return sum(t * mult for t, mult in self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SplittingType):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __add__(self, other: "SplittingType") -> "SplittingType":
        """Direct sum."""
        if not isinstance(other, SplittingType):
            return NotImplemented
        return SplittingType.from_pairs(self._pairs + other._pairs)

    def __repr__(self) -> str:
        return f"SplittingType.from_pairs({self._pairs!r})"


def splitting_text(bundle: SplittingType) -> str:
    """The twists, descending and space-separated, one per summand."""
    if bundle.rank > MAX_LISTED_SUMMANDS:
        raise ValueError(
            f"rank {bundle.rank} has too many summands to list (at most "
            f"{MAX_LISTED_SUMMANDS}); use --format json for the (twist, mult) pairs"
        )
    return "".join([f"{t} " * mult for t, mult in bundle.pairs()])[:-1]


def h0(bundle: SplittingType) -> int:
    """dim of global sections: sum of max(0, n_j + 1)."""
    return sum((t + 1) * mult for t, mult in bundle.pairs() if t >= 0)


def h1(bundle: SplittingType) -> int:
    """dim of first cohomology: sum of max(0, -n_j - 1)."""
    return sum((-t - 1) * mult for t, mult in bundle.pairs() if t < -1)


def twist(bundle: SplittingType, amount: int) -> SplittingType:
    """Tensor with O(amount): shift every twist."""
    return SplittingType.from_pairs([(t + amount, mult) for t, mult in bundle.pairs()])


def serre_dual(bundle: SplittingType) -> SplittingType:
    """O(-2) tensor the dual: n_j -> -n_j - 2.  An involution swapping h0 and h1."""
    return SplittingType.from_pairs([(-t - 2, mult) for t, mult in bundle.pairs()])


def spread(bundle: SplittingType) -> int:
    """Largest gap between twist degrees, max n_j - min n_j."""
    pairs = bundle.pairs()
    return pairs[0][0] - pairs[-1][0]


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
        object.__setattr__(self, "lo", _integer(self.lo, "lo"))
        object.__setattr__(self, "values", tuple(_integer(v, "window value") for v in self.values))
        object.__setattr__(self, "rank_hint", _integer(self.rank_hint, "rank_hint"))
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
    return SplittingType.from_pairs(zip(range(seq.lo, seq.hi - 1), seq.second_differences()))


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

    Inverse of :func:`splitting_from_h0_sequence`.  Walking down from the
    top, h0(B(-l)) - h0(B(-l-1)) is the number of summands of twist >= l.
    """
    pairs = bundle.pairs()
    mults = dict(pairs)
    above = value = 0
    values = [0, 0]  # at max twist + 2 and + 1
    for l in range(pairs[0][0], pairs[-1][0] - 1, -1):
        above += mults.get(l, 0)
        value += above
        values.append(value)
    return CohSequence(pairs[-1][0], tuple(reversed(values)), bundle.rank)


def h0_sequence_from_callable(
    h0_of: Callable[[int], int],
    rank_hint: int,
    *,
    start: int = 0,
) -> CohSequence:
    """Discover the minimal window of ``l -> h0_of(l)`` and package it.

    Walking from ``start``, the top of the window sits two steps above the
    largest degree with a positive value; the bottom is found by walking
    down until the accumulated second differences reach ``rank_hint``.  The
    callable is queried once per degree, and only inside the window when
    ``start`` is; ``MAX_WALK_STEPS`` bounds the walk otherwise.
    """
    if _integer(rank_hint, "rank_hint") < 1:
        raise InvalidSequence("rank hint must be a positive integer")
    cache: dict[int, int] = {}

    def a(l: int) -> int:
        if l not in cache:
            v = _integer(h0_of(l), "window value")
            if v < 0:
                raise InvalidSequence(f"negative dimension {v} reported at degree {l}")
            cache[l] = v
        return cache[l]

    steps = 0
    l = _integer(start, "start")
    if a(l) > 0:
        while a(l) > 0:
            l += 1
            steps += 1
            if steps > MAX_WALK_STEPS:
                raise InvalidSequence("sequence never vanishes above; giving up")
        top = l - 1
    else:
        while a(l) == 0:
            l -= 1
            steps += 1
            if steps > MAX_WALK_STEPS:
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
        if steps > MAX_WALK_STEPS:
            raise RankMismatch(
                f"accumulated multiplicity {total} never reached rank {rank_hint}"
            )
    lo = j
    values = tuple(a(l) for l in range(lo, hi + 1))
    return CohSequence(lo, values, rank_hint)

"""Stabilization machinery for direct images from curves of any genus.

Tools around the duality f_*(K (x) E^dual) = O(-2) (x) (f_*E)^dual and the
concentration of summand degrees as the map degree grows: the Euler
characteristic defect linking h0 and h1 windows, the stable shape of
images under high-degree maps, and exact rational bounds on the spread of
summand degrees, case by case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .errors import NegativeH1, OutOfScope, Overfull, RankMismatch
from .splitting import CohSequence, SplittingType, serre_dual

SPREAD_MODES = ("any", "generic", "degree")


@dataclass(frozen=True)
class CurveMapContext:
    """Genus, map degree, and bundle rank/degree for one pushforward."""

    genus: int
    map_degree: int
    rank: int = 1
    bundle_degree: int = 0

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValueError(f"genus must be nonnegative, got {self.genus}")
        if self.map_degree < 1:
            raise ValueError(f"map degree must be at least 1, got {self.map_degree}")
        if self.rank < 1:
            raise ValueError(f"rank must be at least 1, got {self.rank}")


@dataclass(frozen=True)
class SpreadBound:
    """An exact rational bound on the spread, with the case that produced it."""

    bound: Fraction
    case_tag: str
    equality_condition: str | None = None

    def floor(self) -> int:
        """Integer form of the bound; spreads are integers."""
        return floor(self.bound)


def riemann_roch_defect(ctx: CurveMapContext, l: int) -> int:
    """h0 minus h1 of the bundle twisted down by l: (d - r*n*l) + r*(1 - g)."""
    return (ctx.bundle_degree - ctx.rank * ctx.map_degree * l) + ctx.rank * (1 - ctx.genus)


def h1_sequence_from_h0(seq: CohSequence, ctx: CurveMapContext) -> CohSequence:
    """Convert an h0 window to the matching h1 window by subtracting the
    Euler characteristic at each degree.  The same window stays valid; a
    negative value means the context does not describe the sequence.
    """
    if seq.mode != "h0":
        raise ValueError("expected an h0-mode sequence")
    values = []
    for l in range(seq.lo, seq.hi + 1):
        b = seq.value_at(l) - riemann_roch_defect(ctx, l)
        if b < 0:
            raise NegativeH1(
                f"h1 value {b} at degree {l}: context (g={ctx.genus}, n={ctx.map_degree}, "
                f"r={ctx.rank}, d={ctx.bundle_degree}) is inconsistent with the sequence"
            )
        values.append(b)
    return CohSequence(seq.lo, tuple(values), seq.rank_hint, mode="h1")


def verify_duality(push_bundle: SplittingType, push_canonical_dual: SplittingType) -> bool:
    """True when the image of the canonical-dual bundle is the Serre dual
    of the image of the bundle itself."""
    if push_bundle.rank != push_canonical_dual.rank:
        raise RankMismatch(
            f"ranks differ ({push_bundle.rank} vs {push_canonical_dual.rank}); "
            "the two sides must come from the same map"
        )
    return push_canonical_dual == serre_dual(push_bundle)


def stable_form(n: int, h0: int, h1: int, q: int) -> SplittingType:
    """The stable image shape: h0 copies of O(q), h1 of O(q-2), the rest O(q-1)."""
    if h0 < 0 or h1 < 0:
        raise ValueError("cohomology dimensions cannot be negative")
    if h0 + h1 > n:
        raise Overfull(
            f"h0 + h1 = {h0 + h1} exceeds the map degree {n}: "
            "the hypothesis n > 2g - 2 must fail for this bundle"
        )
    return SplittingType.from_pairs(((q, h0), (q - 1, n - h0 - h1), (q - 2, h1)))


def spread_bound(ctx: CurveMapContext, mode: str = "any") -> SpreadBound:
    """The sharpest applicable bound on the spread of summand degrees.

    ``any`` uses only genus and map degree; ``generic`` additionally assumes
    the line bundle is general; ``degree`` applies the d in {g-2, g-1, g}
    trichotomy (the two outer cases carry an equality condition).  All
    bounds are exact rationals; genus 0 and 1 are out of scope because the
    image is known there in closed form.
    """
    g, n, d = ctx.genus, ctx.map_degree, ctx.bundle_degree
    if g <= 1:
        raise OutOfScope(
            f"spread bounds assume genus >= 2 (got {g}); "
            "use the exact genus-0/1 direct images instead"
        )
    if mode not in SPREAD_MODES:
        raise ValueError(f"mode must be one of {SPREAD_MODES}, got {mode!r}")

    # the most specific cases come first: ties in min() keep their tags
    candidates: list[SpreadBound] = []
    if mode == "degree" and n > g - 1:
        if d == g - 1:
            candidates.append(SpreadBound(Fraction(2), "d = g-1"))
        elif d == g - 2:
            candidates.append(
                SpreadBound(
                    Fraction(3),
                    "d = g-2",
                    "equality only when L = f^*O(-1) (x) K (forcing n = g)",
                )
            )
        elif d == g:
            candidates.append(
                SpreadBound(
                    Fraction(3),
                    "d = g",
                    "equality only when L = f^*O(1) (forcing n = g)",
                )
            )
    if mode == "generic" and n > g - 1:
        candidates.append(SpreadBound(Fraction(1), "generic line bundle, n > g-1"))
    if n > 2 * g - 2:
        candidates.append(SpreadBound(Fraction(2), "n > 2g-2"))
    if n == 2:
        # The even-n formula gives g + 3/2 here; spreads are integral, so g + 1.
        candidates.append(SpreadBound(Fraction(g + 1), "n = 2"))
    elif n % 2 == 1:
        candidates.append(SpreadBound(Fraction(4 * g - 5, 2 * n) + Fraction(5, 2), "odd n"))
    else:
        candidates.append(SpreadBound(Fraction(2 * g - 2, n) + Fraction(5, 2), "even n"))
    return min(candidates, key=lambda sb: sb.bound)

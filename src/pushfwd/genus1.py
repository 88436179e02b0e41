"""Direct images of indecomposable bundles on an elliptic curve.

Indecomposable bundles are classified by rank and degree up to a
translation parameter; their cohomology depends only on the degree except
in one degree-zero class (the unique one with a section), which we track
with an explicit flag rather than moduli data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ExcessFlag, InvalidDegree, MissingFlag
from .splitting import SplittingType


@dataclass(frozen=True)
class AtiyahBundleSpec:
    """An indecomposable bundle on an elliptic curve, up to translation.

    ``exceptional`` states whether the degree-zero twist of the bundle is
    the unique self-extension class with a nonzero section.  It must be
    set exactly when the consuming operation reduces the degree to zero,
    and left ``None`` otherwise.
    """

    rank: int
    degree: int
    exceptional: bool | None = None

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be at least 1, got {self.rank}")


def _reject_flag(spec: AtiyahBundleSpec, modulus: int) -> None:
    if spec.exceptional is not None:
        raise ExcessFlag(
            f"degree {spec.degree} is not a multiple of {modulus}: "
            "the exceptional flag does not apply and must be omitted"
        )


def elliptic_cohomology(spec: AtiyahBundleSpec) -> tuple[int, int]:
    """(h0, h1) of an indecomposable bundle on an elliptic curve.

    Positive degree: (d, 0).  Negative: (0, |d|).  Degree zero: (0, 0),
    except (1, 1) for the exceptional class — hence the flag is required.
    """
    d = spec.degree
    if d > 0:
        _reject_flag(spec, 0)
        return (d, 0)
    if d < 0:
        _reject_flag(spec, 0)
        return (0, -d)
    if spec.exceptional is None:
        raise MissingFlag(
            "degree zero on an elliptic curve: specify whether the bundle is "
            "the exceptional class with a section"
        )
    return (1, 1) if spec.exceptional else (0, 0)


def direct_image_g1(n: int, spec: AtiyahBundleSpec) -> SplittingType:
    """Direct image of an indecomposable bundle under a degree-n map.

    With rn = rank*n and degree d = q*rn + rem, 0 <= rem < rn, the image is
    rem copies of O(q) and rn - rem copies of O(q-1); when rem = 0 the
    exceptional class instead gives O(q) + (rn-2) O(q-1) + O(q-2).
    """
    if n < 1:
        raise InvalidDegree(f"map degree must be at least 1, got {n}")
    rn = spec.rank * n
    q, rem = divmod(spec.degree, rn)
    if rem == 0:
        if spec.exceptional is None:
            raise MissingFlag(
                f"degree {spec.degree} is a multiple of rank*degree = {rn}: "
                "the exceptional flag is required"
            )
        if spec.exceptional:
            if rn < 2:
                raise InvalidDegree(
                    "the exceptional image needs rank * map degree >= 2 "
                    "(an elliptic curve admits no degree-1 map to the line)"
                )
            return SplittingType.from_pairs(((q, 1), (q - 1, rn - 2), (q - 2, 1)))
        return SplittingType.from_pairs(((q - 1, rn),))
    _reject_flag(spec, rn)
    return SplittingType.from_pairs(((q, rem), (q - 1, rn - rem)))


def direct_image_g1_bundle(n: int, specs: Iterable[AtiyahBundleSpec]) -> SplittingType:
    """Direct image of a direct sum of indecomposables: the multiset union."""
    pairs: list[tuple[int, int]] = []
    for spec in specs:
        pairs += direct_image_g1(n, spec).pairs()
    if not pairs:
        raise ValueError("need at least one indecomposable summand")
    return SplittingType.from_pairs(pairs)

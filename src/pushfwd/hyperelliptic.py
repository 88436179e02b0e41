"""Exact Riemann-Roch oracle on hyperelliptic curves over odd prime fields.

A curve is y^2 = f(x) with f monic, squarefree, of odd degree 2g + 1, so
there is a single rational point at infinity, x has pole order 2 there and
y pole order 2g + 1, and the canonical class is (2g - 2) * infinity.  The
x-coordinate map is a degree-2 cover of the line pulling O(1) back to
2 * infinity; composing with z -> z^m realizes every even map degree 2m.

Riemann-Roch space dimensions are computed by exact linear algebra:

1. clear the allowed affine poles of a divisor D with a polynomial d(x)
   that vanishes at each support x-value, turning L(D) into the subspace
   of L(N * infinity) cut out by vanishing conditions, N = c_inf + 2*sum e;
2. L(N * infinity) has the monomial basis x^i (pole order 2i) and x^j y
   (pole order 2j + 2g + 1), no two of the same pole order;
3. each vanishing condition is a coefficient of a truncated local power
   series of a basis monomial at an affected point, prec of them at a
   point (at most the multiplicity plus one); the series of all points
   are stacked into one vector of length R = total conditions, and each
   basis monomial is the previous one times x(t) over the whole stack,
   so N basis monomials cost O(N * R) when every point is split
   (x(t) = x0 + t) and one more pass per even term of x(t) at a
   ramification point, about prec / 2 of them;
4. the dimension is the nullity of the resulting matrix over F_p.

The conditions do not depend on the coefficient at infinity, so with the
columns sorted by pole order the matrix of D - k*infinity is a column
prefix of the matrix of D, and one elimination gives dim L(D - k*infinity)
for every k (the reduced basis at infinity of F. Hess, J. Symbolic Comput.
33 (2002)).

Dimensions are invariant under base field extension, so these match the
geometric values the splitting formulas refer to.

Pushforward windows send only degrees in [0, 2g - 2] to this linear algebra
(Riemann-Roch gives the rest), all of them through one pole-ordered
elimination per window, and start their walk at floor((d - g) / n); nothing
is memoized.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    CharacteristicTwo,
    DegreeNotMultiple,
    PointNotOnCurve,
    SingularCurve,
    WrongGenus,
)
from .expansions import (
    poly_eval,
    poly_is_squarefree,
    split_point_series,
    weierstrass_point_series,
)
from .expansions import series_mul  # noqa: F401  (e2ebench/layers.py wraps this name)
from .linalg import MAX_PRIME, pivot_columns_mod_p
from .linalg import kernel_dim_mod_p  # noqa: F401  (e2ebench/layers.py wraps this name)
from .splitting import (
    CohSequence,
    SplittingType,
    h0_sequence_from_callable,
    splitting_from_h0_sequence,
)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class HyperellipticCurve:
    """y^2 = f(x) over F_p, f monic squarefree of odd degree 2g + 1 >= 3."""

    __slots__ = ("prime", "coeffs", "genus")

    def __init__(self, prime: int, coeffs: Iterable[int]):
        if prime == 2:
            raise CharacteristicTwo("the model y^2 = f(x) needs an odd characteristic")
        if not _is_prime(prime):
            raise ValueError(f"field modulus must be prime, got {prime}")
        if prime >= MAX_PRIME:
            raise ValueError(f"field modulus must be below 2**31, got {prime}")
        cs = tuple(int(c) % prime for c in coeffs)
        if len(cs) < 4 or len(cs) % 2 != 0:
            raise ValueError(
                f"f(x) must have odd degree 2g+1 >= 3, got degree {len(cs) - 1}"
            )
        if cs[-1] != 1:
            raise ValueError("f(x) must be monic")
        if not poly_is_squarefree(list(cs), prime):
            raise SingularCurve("f(x) has a repeated root over F_p; the curve is singular")
        self.prime = prime
        self.coeffs = cs
        self.genus = (len(cs) - 2) // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, HyperellipticCurve):
            return NotImplemented
        return self.prime == other.prime and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.prime, self.coeffs))

    def __repr__(self) -> str:
        return f"HyperellipticCurve({self.to_string()!r})"

    def rhs(self, x: int) -> int:
        """f(x) mod p."""
        return poly_eval(self.coeffs, x % self.prime, self.prime)

    def point(self, x: int, y: int) -> "CurvePoint":
        """The affine point (x, y); raises if it does not lie on the curve."""
        p = self.prime
        x, y = x % p, y % p
        if (y * y) % p != self.rhs(x):
            raise PointNotOnCurve(
                f"({x}, {y}) does not satisfy y^2 = f(x) over F_{p}"
            )
        return CurvePoint("affine", x, y)

    def validate_point(self, pt: "CurvePoint") -> None:
        if pt.kind != "affine":
            raise ValueError("only affine points can carry divisor multiplicities here")
        self.point(pt.x, pt.y)

    def affine_points(self) -> list["CurvePoint"]:
        """All F_p-rational affine points."""
        p = self.prime
        roots: dict[int, list[int]] = {}
        for y in range(p):
            roots.setdefault(y * y % p, []).append(y)
        pts = []
        for x in range(p):
            for y in roots.get(self.rhs(x), ()):
                pts.append(CurvePoint("affine", x, y))
        return pts

    def to_string(self) -> str:
        return f"p={self.prime}; f={','.join(str(c) for c in self.coeffs)}"


@dataclass(frozen=True)
class CurvePoint:
    """A point of the curve: the point at infinity or an affine (x, y)."""

    kind: str
    x: int | None = None
    y: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("affine", "infinity"):
            raise ValueError(f"kind must be 'affine' or 'infinity', got {self.kind!r}")
        if self.kind == "affine" and (self.x is None or self.y is None):
            raise ValueError("affine points need both coordinates")
        if self.kind == "infinity" and not (self.x is None and self.y is None):
            raise ValueError("the point at infinity has no coordinates")

    @classmethod
    def infinity(cls) -> "CurvePoint":
        return cls("infinity")

    def is_weierstrass(self) -> bool:
        return self.kind == "affine" and self.y == 0


def _sorted_support(merged: Mapping) -> tuple:
    """The canonical affine part: nonzero multiplicities sorted by (x, y)."""
    return tuple(sorted(((pt, m) for pt, m in merged.items() if m != 0),
                        key=lambda item: (item[0].x, item[0].y)))


@dataclass(frozen=True)
class Divisor:
    """Integer coefficient at infinity plus finitely many affine points.

    The affine part is stored canonically as ((point, multiplicity), ...)
    sorted by coordinates; zero multiplicities are dropped and support
    points are validated against the curve.
    """

    curve: HyperellipticCurve
    at_infinity: int = 0
    affine: tuple = ()

    def __post_init__(self) -> None:
        raw = self.affine.items() if isinstance(self.affine, Mapping) else self.affine
        merged: dict[CurvePoint, int] = {}
        for pt, mult in raw:
            self.curve.validate_point(pt)
            merged[pt] = merged.get(pt, 0) + int(mult)
        object.__setattr__(self, "affine", _sorted_support(merged))
        object.__setattr__(self, "at_infinity", int(self.at_infinity))

    @property
    def degree(self) -> int:
        return self.at_infinity + sum(m for _, m in self.affine)

    @classmethod
    def _canonical(cls, curve: HyperellipticCurve, at_infinity: int, affine: tuple) -> "Divisor":
        """A divisor from parts already in canonical form, which only
        another divisor holds: skips validating and sorting the support."""
        divisor = object.__new__(cls)
        object.__setattr__(divisor, "curve", curve)
        object.__setattr__(divisor, "at_infinity", at_infinity)
        object.__setattr__(divisor, "affine", affine)
        return divisor

    def shift_infinity(self, amount: int) -> "Divisor":
        return Divisor._canonical(self.curve, self.at_infinity + int(amount), self.affine)

    def _require_same_curve(self, other: "Divisor") -> None:
        if self.curve != other.curve:
            raise ValueError("divisors live on different curves")

    def __add__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        self._require_same_curve(other)
        merged = dict(self.affine)
        for pt, m in other.affine:
            merged[pt] = merged.get(pt, 0) + m
        return Divisor._canonical(self.curve, self.at_infinity + other.at_infinity,
                                  _sorted_support(merged))

    def __neg__(self) -> "Divisor":
        return Divisor._canonical(self.curve, -self.at_infinity,
                                  tuple((pt, -m) for pt, m in self.affine))

    def __sub__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        return self + (-other)

    def __repr__(self) -> str:
        return f"Divisor({divisor_to_string(self)!r})"


@dataclass(frozen=True)
class ComposedMap:
    """The x-coordinate double cover followed by z -> z^exponent.

    Total degree 2 * exponent; the pullback of O(1) is (2*exponent) * infinity.
    """

    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 1:
            raise ValueError(f"exponent must be at least 1, got {self.exponent}")

    @property
    def degree(self) -> int:
        return 2 * self.exponent


def canonical_divisor(curve: HyperellipticCurve) -> Divisor:
    """(2g - 2) * infinity."""
    return Divisor(curve, 2 * curve.genus - 2)


def _condition_matrix(series, basis, p):
    """The vanishing conditions of every site, one row per condition.

    ``series`` holds one (x(t), y(t)) pair per site, truncated to the
    number of coefficients that must vanish there.  Row o + k is the t^k
    coefficient at the site whose rows start at o; column c is the basis
    monomial basis[c] = x^i y^j.

    The sites are stacked into vectors of length R = total rows, so each
    column costs a few passes over R whatever the number of sites:
    x^(i+1) is x0 * x^i plus, for each nonzero term c_k t^k of x(t), c_k
    times x^i shifted down by k inside its own site.  x^(i+1) y comes
    from x^i y the same way.  A split site has only the t term
    (x = x0 + t), and a stack of split sites takes one pass per column;
    a ramified site adds its even terms, about half its rows, one pass
    each.
    """
    size = sum(len(xs) for xs, _ in series)
    x0s: list[int] = []
    one: list[int] = []
    y: list[int] = []
    shifts: dict[int, list[int]] = {}  # k -> c_k of x(t) on rows >= k into a site
    for xs, ys in series:
        start, n = len(x0s), len(xs)
        x0s += [xs[0]] * n
        one += [1] + [0] * (n - 1)
        y += ys
        for k in range(1, n):
            if xs[k]:
                shifts.setdefault(k, [0] * size)[start + k:start + n] = [xs[k]] * (n - k)
    c1 = shifts.pop(1, [0] * size)
    higher = sorted(shifts.items())

    def times_x(v):
        if not higher:
            return [(x * a + c * b) % p for x, a, c, b in zip(x0s, v, c1, [0] + v)]
        acc = [x * a + c * b for x, a, c, b in zip(x0s, v, c1, [0] + v)]
        for k, ck in higher:
            acc = [s + c * b for s, c, b in zip(acc, ck, [0] * k + v)]
        return [s % p for s in acc]

    def powers(first, n):
        out = [first]
        for _ in range(n - 1):
            out.append(times_x(out[-1]))
        return out

    n_y = sum(j for _, j in basis)
    xpows = powers(one, len(basis) - n_y)
    ypows = powers(y, n_y)
    cols = [xpows[i] if j == 0 else ypows[i] for i, j in basis]
    return np.array(cols, dtype=np.int64).reshape(len(basis), size).T


def rr_space_dims(divisor: Divisor, count: int) -> list[int]:
    """[dim L(D - k*infinity) for k in range(count)].

    These spaces share their affine conditions, so one condition matrix
    serves them all.  Its columns are the basis monomials of
    L(cap * infinity) sorted by pole order at infinity, and
    L(D - k*infinity) is the kernel of the prefix of columns with pole
    order <= cap - k.  One elimination gives the rank of every prefix.
    """
    curve = divisor.curve
    p = curve.prime
    g = curve.genus

    by_x: dict[int, dict[int, int]] = {}
    for pt, mult in divisor.affine:
        by_x.setdefault(pt.x, {})[pt.y] = mult

    # Pole clearing: multiply by (x - x0)^e per support x-value.  At a
    # ramified x-value x - x0 has order 2, so e = ceil(m / 2) suffices.
    sites = []
    pole_shift = 0
    for x0 in sorted(by_x):
        ys = by_x[x0]
        ramified = curve.rhs(x0) == 0
        if ramified:
            e = max(0, (ys.get(0, 0) + 1) // 2)
        else:
            e = max(0, max(ys.values()))
        pole_shift += 2 * e
        sites.append((x0, ys, e, ramified))

    cap = divisor.at_infinity + pole_shift
    if cap < 0:
        return [0] * count

    # x^i has pole order 2i and x^j y has 2j + 2g + 1, so a pole order
    # names at most one monomial.
    poles = [q for q in range(cap + 1) if q % 2 == 0 or q >= 2 * g + 1]
    basis = [(q // 2, 0) if q % 2 == 0 else ((q - 2 * g - 1) // 2, 1) for q in poles]

    series = []
    for x0, ys, e, ramified in sites:
        if ramified:
            needed = 2 * e - ys.get(0, 0)
            if needed > 0:
                series.append(weierstrass_point_series(curve.coeffs, x0, needed, p))
        else:
            some_y = next(iter(ys))
            for y0 in sorted({some_y, (-some_y) % p}):
                needed = e - ys.get(y0, 0)
                if needed > 0:
                    series.append(split_point_series(curve.coeffs, x0, y0, needed, p))

    pivots = pivot_columns_mod_p(_condition_matrix(series, basis, p), p)
    dims = []
    for k in range(count):
        cols = bisect_right(poles, cap - k)
        dims.append(cols - bisect_left(pivots, cols))
    return dims


def rr_space_dim(divisor: Divisor) -> int:
    """dim L(D) = h0 of the line bundle O(D) on the curve."""
    return rr_space_dims(divisor, 1)[0]


def linearly_equivalent(d1: Divisor, d2: Divisor) -> bool:
    """Whether two divisors differ by the divisor of a function.

    Equal degrees are necessary; then D1 ~ D2 exactly when the degree-zero
    difference has a one-dimensional space of sections.
    """
    d1._require_same_curve(d2)
    if d1.degree != d2.degree:
        return False
    return rr_space_dim(d1 - d2) == 1


def h0_sequence(divisor: Divisor, cover: ComposedMap) -> CohSequence:
    """Dimensions l -> dim L(D - n*l*infinity), n = cover degree, over the
    minimal window needed to recover the direct image.

    Riemann-Roch answers the degrees outside [0, 2g - 2]; one
    ``rr_space_dims`` call at the smallest l that reaches them answers the
    rest.  The walk starts at l = (d - g) // n, where deg >= g makes the
    value positive and which is at least the smallest twist, so every
    probe lies in the window.
    """
    n, d, g = cover.degree, divisor.degree, divisor.curve.genus
    base = -((2 * g - 2 - d) // n)  # smallest l with deg <= 2g - 2
    top = d - n * base
    dims = rr_space_dims(divisor.shift_infinity(-n * base), top + 1) if top >= 0 else []

    def h0_at(l: int) -> int:
        deg = d - n * l
        if deg < 0:
            return 0
        if deg > 2 * g - 2:
            return deg + 1 - g
        return dims[n * (l - base)]

    return h0_sequence_from_callable(h0_at, n, start=(d - g) // n)


def pushforward(divisor: Divisor, cover: ComposedMap) -> SplittingType:
    """Splitting type of the direct image of O(D) under the cover."""
    return splitting_from_h0_sequence(h0_sequence(divisor, cover))


def is_exceptional_class(divisor: Divisor, cover: ComposedMap) -> bool:
    """On a genus-1 curve: is O(D) a pullback twist of the degree-zero
    class with a section?  Requires deg D divisible by the cover degree."""
    if divisor.curve.genus != 1:
        raise WrongGenus(
            f"exceptional classes live on genus-1 curves, got genus {divisor.curve.genus}"
        )
    n = cover.degree
    q, rem = divmod(divisor.degree, n)
    if rem:
        raise DegreeNotMultiple(
            f"degree {divisor.degree} is not a multiple of the cover degree {n}"
        )
    return rr_space_dim(divisor.shift_infinity(-n * q)) == 1


def _int_field(text: str, term: str, form: str) -> int:
    """``int(text)``, or a ValueError naming the term it came from."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"malformed term {term!r}: {text.strip()!r} is not an integer; expected {form}"
        ) from None


def curve_from_string(text: str) -> HyperellipticCurve:
    """Parse "p=<prime>; f=<c_0>,...,<c_{2g+1}>" (coefficients low to high)."""
    prime = None
    coeffs = None
    for term in text.split(";"):
        term = term.strip()
        if not term:
            continue
        key, _, value = term.partition("=")
        key = key.strip()
        if key == "p":
            prime = _int_field(value, term, "p=<prime>")
        elif key == "f":
            coeffs = [_int_field(c, term, "f=<c_0>,...,<c_{2g+1}>") for c in value.split(",")]
        else:
            raise ValueError(f"unknown curve field {key!r}; expected 'p' and 'f'")
    if prime is None or coeffs is None:
        raise ValueError("curve text must provide both p=<prime> and f=<coeffs>")
    return HyperellipticCurve(prime, coeffs)


def divisor_from_string(curve: HyperellipticCurve, text: str) -> Divisor:
    """Parse semicolon-separated terms "inf:<c>" and "pt:<x>,<y>:<mult>"."""
    at_infinity = 0
    affine: dict[CurvePoint, int] = {}
    for term in text.split(";"):
        term = term.strip()
        if not term:
            continue
        if term.startswith("inf:"):
            at_infinity += _int_field(term[4:], term, "inf:<c>")
        elif term.startswith("pt:"):
            body = term[3:]
            coords, _, mult = body.rpartition(":")
            if not coords:
                raise ValueError(f"malformed point term {term!r}; expected pt:<x>,<y>:<mult>")
            xs, _, ys = coords.partition(",")
            form = "pt:<x>,<y>:<mult>"
            pt = curve.point(_int_field(xs, term, form), _int_field(ys, term, form))
            affine[pt] = affine.get(pt, 0) + _int_field(mult, term, form)
        else:
            raise ValueError(
                f"unknown divisor term {term!r}; expected inf:<c> or pt:<x>,<y>:<mult>"
            )
    return Divisor(curve, at_infinity, affine)


def divisor_to_string(divisor: Divisor) -> str:
    terms = [f"inf:{divisor.at_infinity}"]
    terms += [f"pt:{pt.x},{pt.y}:{m}" for pt, m in divisor.affine]
    return "; ".join(terms)

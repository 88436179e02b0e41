"""Exact Riemann-Roch oracle on hyperelliptic curves over odd prime fields.

A curve is y^2 = f(x) with f monic, squarefree, of odd degree 2g + 1, so
there is a single rational point at infinity, x has pole order 2 there and
y pole order 2g + 1, and the canonical class is (2g - 2) * infinity.  The
x-coordinate map is a degree-2 cover of the line pulling O(1) back to
2 * infinity; composing with z -> z^m realizes every even map degree 2m.

Riemann-Roch space dimensions are computed exactly over F_p:

1. clear the allowed affine poles of a divisor D with a polynomial d(x)
   that vanishes at each support x-value, turning L(D) into the functions
   a(x) + b(x) y of L(cap * infinity), cap = c_inf + 2 * sum e, with
   enough zeros at the support points;
2. L(cap * infinity) has the monomial basis x^i (pole order 2i) and x^j y
   (pole order 2j + 2g + 1), no two of the same pole order;
3. the zeros are two congruences, a + b V = 0 mod U and b = 0 mod K, with
   U = prod (x - x0)^n and K = prod (x - x0)^k over the support x-values.
   Over a split x-value, n and k are the larger and the smaller zero
   count of P and iota(P): b y, so b, vanishes to order k at both, and
   a + b y to order n at P, so V must follow P's local y-series to n - k
   terms.  At a ramification point a(x) has even order and b(x) y odd
   order, so c zeros there are n = ceil(c / 2) zeros of a and
   k = floor(c / 2) of b, and V vanishes there when c is odd: no local
   series is needed.  V is the Hermite interpolant of these conditions,
   in Newton form;
4. b = 0 mod K and K | U force K | a, so the solutions are K times those
   of a + b V = 0 mod U0, U0 = U / K, the product over the zero and data
   nodes only; K shifts every pole order by 2 deg K, so cap' = cap -
   2 deg K replaces cap.  The solutions (a, b) of a + b V = 0 mod U0 form
   a rank-2 F_p[x]-module.  In a basis whose two elements have pole
   orders o1 even (led by a) and o2 odd (led by b y) the leading terms of
   c1 v1 + c2 v2 never cancel, so dim L(D - k*infinity) =
   sum_o max(0, (q - o) // 2 + 1) with q = cap' - k (predictable degrees:
   T. Mulders, A. Storjohann, J. Symbolic Comput. 35 (2003));
5. the extended Euclid algorithm on r_0 = U0 and r_1 = V, stopped halfway
   as in rational reconstruction, gives that basis: with n = deg U0, it
   stops at the first r_i that is zero or has deg r_i + deg r_(i-1) <=
   n + g, and with m = deg r_(i-1) the orders are o1 = 2m and o2 =
   2 (n - m) + 2g + 1.  When n <= g + 1, deg V < n stops it at once:
   the orders are 2n and 2g + 1, and no series or interpolant is built.
   Otherwise the quotients it takes depend only on the coefficients of
   degree > g (see ``_basis_pole_orders``), so it runs on the Newton
   coordinates above the lowest g + 1, where U0 = N_n is a unit vector,
   V is the interpolant's coordinates and x N_i = N_(i+1) + z_i N_i; a
   step of quotient degree 1 is one fused pass;
6. those orders are n + n' and n - n' + 2g + 1, where n' is the degree
   of the reduced representative of E - n * infinity, E = div(U0, V)
   the zeros asked for: the solution of least pole order vanishes on E
   and on n' more points, and o1 + o2 = 2n + 2g + 1.  So when the n
   nodes over s x-values are more than B(g, s) (``_doubling_bound``), no
   series is built: each site's d (P - infinity), and each zero's
   W - infinity, becomes a reduced Mumford pair (u, v) in monomial
   coordinates by double-and-add, and these pairs are added and reduced
   one by one.  A doubling is the Hensel lift u^2,
   v + (f - v^2) (2 v)^(-1) mod u^2 after the Weierstrass points of the
   support drop out; an addition is Cantor's composition, the CRT when
   the supports do not meet; and Cantor's reduction u' = (f - v^2) / u,
   v' = -v mod u' runs in continued-fraction form, where each later u'
   is the one before last plus q (v' - v), so only its first step
   squares v.

The Newton route's R = deg U + deg K conditions cost O(R * deg f) for the
local series, whose square root is one C-level dot product per
coefficient; the deg U0 <= R nodes that remain after K is taken out cost
O(deg U0^2), in about deg U0 list passes, for the interpolant (one pass
for a single site), and about 3 (deg U0 - g)^2 / 8 list work for the
remainder sequence: from deg r_(i-1) = d it reads d - g - 1
coordinates, for d from n down to (n + g) / 2.  When deg U0 <= g + 1
none of this is done.  The Newton route runs only when n <= B(g, s) =
(40 + 11 g) (4 + floor(log2 s)) / 4, so its cost is bounded by the genus
and the number s of x-values, and no multiplicity makes it longer.  On
the doubling route a site of d nodes costs about log2(d) doublings and
fewer additions, each on polynomials of degree at most 2g + 1 and
O(g^2), and one addition to the sum of the sites.  Nothing is
eliminated, and numpy is not used.

The conditions do not depend on the coefficient at infinity, so the two
pole orders serve dim L(D - k*infinity) for every k (the reduced basis at
infinity of F. Hess, J. Symbolic Comput. 33 (2002)).  The congruence
a + b V = 0 mod U is the Mumford-form condition of D. G. Cantor, Math.
Comp. 48 (1987): the Newton route solves it without reduction, and the
doubling route reduces it with Cantor's algorithm.

Dimensions are invariant under base field extension, so these match the
geometric values the splitting formulas refer to.

``pushforward`` and ``h0_sequence`` both make one ``_pole_orders`` call,
whose (cap', orders) give every dim L(D - 2m l * infinity).
``pushforward`` reads the direct image off the two orders: over F_p[z],
z = x^m, the x^i v_j with i < m are a basis, so every twist costs O(1)
arithmetic per order.  ``h0_sequence`` keeps the paper's route, the
window of dimensions that the campaigns extract from, each read off the
same orders, with the walk starting at floor((d - g) / n).
``rr_space_dim`` reads dim L(D) off the same orders, and does not
compute them when cap' < 0.  Nothing is memoized across calls.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import (
    CharacteristicTwo,
    DegreeNotMultiple,
    PointNotOnCurve,
    SingularCurve,
    WrongGenus,
)
from .expansions import (
    divmod_residues,
    poly_axpy,
    poly_eval,
    poly_is_squarefree,
    poly_mul,
    poly_scale,
    poly_trim,
    poly_xgcd,
    split_point_series,
)
from .expansions import (  # noqa: F401  (e2ebench/layers.py wraps these names)
    series_mul,
    weierstrass_point_series,
)
from .linalg import MAX_PRIME
from .linalg import kernel_dim_mod_p  # noqa: F401  (e2ebench/layers.py wraps this name)
from .splitting import (
    CohSequence,
    SplittingType,
    h0_sequence_from_callable,
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


@lru_cache(maxsize=8)
def _square_roots(p: int) -> dict[int, tuple[int, ...]]:
    """Each square mod the odd prime p with its square roots, ascending.
    Callers only read it."""
    roots = {0: (0,)}
    for y in range(1, (p + 1) // 2):
        roots[y * y % p] = (y, p - y)
    return roots


class HyperellipticCurve:
    """y^2 = f(x) over F_p, f monic squarefree of odd degree 2g + 1 >= 3."""

    __slots__ = ("prime", "coeffs", "genus", "_on_curve")

    def __init__(self, prime: int, coeffs: Iterable[int]):
        if prime == 2:
            raise CharacteristicTwo("the model y^2 = f(x) needs an odd characteristic")
        # Size first: trial division up to sqrt(p) never ends for a large p.
        if prime >= MAX_PRIME:
            raise ValueError(f"field modulus must be below 2**31, got {prime}")
        if not _is_prime(prime):
            raise ValueError(f"field modulus must be prime, got {prime}")
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
        self._on_curve: set[tuple[int, int]] = set()  # (x, y) that point() checked

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
        self._on_curve.add((x, y))
        return CurvePoint(x, y)

    def validate_point(self, pt: "CurvePoint") -> "CurvePoint":
        """pt with its coordinates reduced mod p; raises unless it is a
        point of the curve.  f is not evaluated again at a point that
        ``point`` has checked, whose coordinates are already reduced."""
        if (pt.x, pt.y) in self._on_curve:
            return pt
        return self.point(pt.x, pt.y)

    def affine_coordinates(self) -> list[tuple[int, int]]:
        """(x, y) of every F_p-rational affine point, by x and then y."""
        p = self.prime
        values = [0] * p  # f(x) for x = 0, ..., p - 1, by Horner's rule
        for c in reversed(self.coeffs):
            values = [(v * x + c) % p for x, v in enumerate(values)]
        roots = _square_roots(p)
        return [(x, y) for x, v in enumerate(values) for y in roots.get(v, ())]

    def affine_points(self) -> list["CurvePoint"]:
        """All F_p-rational affine points, by x and then y."""
        return [CurvePoint(x, y) for x, y in self.affine_coordinates()]

    def to_string(self) -> str:
        return f"p={self.prime}; f={','.join(str(c) for c in self.coeffs)}"


@dataclass(frozen=True)
class CurvePoint:
    """An affine point (x, y) of the curve.  The point at infinity is
    never a CurvePoint: a divisor holds its coefficient as ``at_infinity``."""

    x: int
    y: int

    def is_weierstrass(self) -> bool:
        return self.y == 0


def _integer(value, field: str, point: CurvePoint | None = None) -> int:
    """``operator.index(value)``, or a ValueError naming the field (and
    the point whose field it is)."""
    try:
        return operator.index(value)
    except TypeError:
        of = f" of pt:{point.x},{point.y}" if point else ""
        raise ValueError(f"{field}{of} must be an integer, got {value!r}") from None


def _sorted_support(merged: Mapping) -> tuple:
    """The canonical affine part: nonzero multiplicities sorted by (x, y)."""
    return tuple(sorted(((pt, m) for pt, m in merged.items() if m != 0),
                        key=lambda item: (item[0].x, item[0].y)))


@dataclass(frozen=True)
class Divisor:
    """Integer coefficient at infinity plus finitely many affine points.

    The affine part is stored canonically as ((point, multiplicity), ...)
    sorted by coordinates; zero multiplicities are dropped and support
    points are validated against the curve and keyed by their coordinates
    mod p.
    """

    curve: HyperellipticCurve
    at_infinity: int = 0
    affine: tuple = ()

    def __post_init__(self) -> None:
        raw = self.affine.items() if isinstance(self.affine, Mapping) else self.affine
        merged: dict[CurvePoint, int] = {}
        for pt, mult in raw:
            pt = self.curve.validate_point(pt)
            merged[pt] = merged.get(pt, 0) + _integer(mult, "multiplicity", pt)
        object.__setattr__(self, "affine", _sorted_support(merged))
        object.__setattr__(self, "at_infinity", _integer(self.at_infinity, "at_infinity"))

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
        return Divisor._canonical(self.curve, self.at_infinity + _integer(amount, "amount"),
                                  self.affine)

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
        object.__setattr__(self, "exponent", _integer(self.exponent, "exponent"))
        if self.exponent < 1:
            raise ValueError(f"exponent must be at least 1, got {self.exponent}")

    @property
    def degree(self) -> int:
        return 2 * self.exponent


def canonical_divisor(curve: HyperellipticCurve) -> Divisor:
    """(2g - 2) * infinity."""
    return Divisor(curve, 2 * curve.genus - 2)


def _newton_interpolant(sites, p):
    """Nodes z and Newton coordinates c of a polynomial V = sum c_i N_i,
    N_i = (x - z_0) ... (x - z_(i-1)), with V(x0 + t) = target(t) mod
    t^len(target) for each (x0, target) of ``sites``; the x0 are distinct
    and the nodes are each x0 repeated len(target) times, in site order.

    The expansions of V so far and of N so far at every later site are
    stacked into two vectors, as the terms of the targets are.  The
    coordinates W of a site solve V + N * W = target there, one series
    division by the unit N(x0 + t), a single pass where N is constant (at
    the first site, and at any site of one node); each of its nodes then
    updates both vectors, V += c N and N *= (x - x0), in one pass each
    over the later sites' terms.  The last site has none to update, so a
    single site's coordinates are its target.
    """
    xs: list[int] = []
    within: list[int] = []  # 0 where the t-shift would cross into a site
    for x0, target in sites:
        xs += [x0] * len(target)
        within += [0] + [1] * (len(target) - 1)
    v = [0] * len(xs)
    n = [1 - w for w in within]
    nodes: list[int] = []
    coords: list[int] = []
    for x0, target in sites:
        d = len(target)
        here_v, here_n = [a % p for a in v[:d]], n[:d]
        v, n, within = v[d:], n[d:], within[d:]
        dx = [x - x0 for x in xs[d:]]
        xs = xs[d:]
        inv = pow(here_n[0], -1, p)  # N(x0) != 0: the sites' x0 are distinct
        higher = [(i, a) for i, a in enumerate(here_n) if i and a]
        if higher:
            w: list[int] = []
            for k in range(d):
                acc = target[k] - here_v[k] - sum(a * w[k - i] for i, a in higher if i <= k)
                w.append(acc * inv % p)
        else:  # N is the constant N(x0) here: always so at the first site
            w = [(t - a) * inv % p for t, a in zip(target, here_v)]
        if xs:
            for c in w:
                if c:
                    v = [a + c * b for a, b in zip(v, n)]  # reduced when read
                n = [(x * a + s * b) % p for x, a, s, b in zip(dx, n, within, [0] + n)]
        nodes += [x0] * d
        coords += w
    return nodes, coords


def _compose(u1, v1, u2, v2, f, p):
    """A Mumford pair of div(u1, v1) + div(u2, v2) less its pairs
    P + iota(P), whose removal leaves the class of E - deg(E) * infinity
    as it is (Cantor's composition).  With d = gcd(u1, u2, v1 + v2) =
    s1 u1 + s2 u2 + s3 (v1 + v2) it is u = u1 u2 / d^2 and
    v = v1 + (s1 u1 (v2 - v1) + s3 (f - v1^2)) / d mod u; when u1 and u2
    are coprime, d = 1, s3 = 0 and this is the CRT."""
    d, s1 = poly_xgcd(u2, u1, p)
    s3: list[int] = []
    if len(d) > 1:  # the supports meet
        d1, total = d, poly_axpy(v1, v2, 1, p)
        d, s3 = poly_xgcd(d1, total, p)
        s1 = poly_mul(divmod_residues(poly_axpy(d, poly_mul(s3, total, p), -1, p), d1, p)[0], s1, p)
    w = poly_axpy(poly_mul(poly_mul(s1, u1, p), poly_axpy(v2, v1, -1, p), p),
                  poly_mul(s3, poly_axpy(f, poly_mul(v1, v1, p), -1, p), p), 1, p)
    u = poly_mul(u1, u2, p)
    if len(d) > 1:
        u = divmod_residues(u, poly_mul(d, d, p), p)[0]
        w = divmod_residues(w, d, p)[0]
    return u, divmod_residues(poly_axpy(v1, w, 1, p), u, p)[1]


def _reduce(u, v, f, genus, p):
    """The reduced Mumford pair of the class of div(u, v) - deg(u) * inf."""
    if len(u) - 1 <= genus:
        return u, v
    return _cantor_steps(u, v, divmod_residues(poly_axpy(f, poly_mul(v, v, p), -1, p), u, p)[0],
                         genus, p)


def _cantor_steps(prev, v, u, genus, p):
    """Cantor's reduction of (prev, v), given its first step's
    u = (f - v^2) / prev, in continued-fraction form: each step is
    v' = -v mod u, and with -v = q u + v' the next u is prev + q (v' - v),
    so only the first step squares v.  Ends at deg u <= g, u made monic."""
    q, nv = divmod_residues(poly_scale(v, -1, p), u, p)
    while len(u) - 1 > genus:
        prev, u, v = u, poly_axpy(prev, poly_mul(q, poly_axpy(nv, v, -1, p), p), 1, p), nv
        q, nv = divmod_residues(poly_scale(v, -1, p), u, p)
    return poly_scale(u, pow(u[-1], -1, p), p), nv


def _double(u, v, f, genus, p):
    """The reduced Mumford pair of 2 div(u, v).  The Weierstrass points
    of the support, where v vanishes, drop out (2 W ~ 2 infinity); the
    rest is the Hensel lift U = u^2, V = v + u k with
    k = (f - v^2) / (2 v u) mod u, and w = (f - v^2) / u gives the first
    reduction step for free: f - V^2 = U ((w - 2 v k) / u - k^2)."""
    d, inv = poly_xgcd(u, v, p)
    if len(d) > 1:
        u = divmod_residues(u, d, p)[0]
        v = divmod_residues(v, u, p)[1]
        inv = poly_xgcd(u, v, p)[1]
    w = divmod_residues(poly_axpy(f, poly_mul(v, v, p), -1, p), u, p)[0]
    k = divmod_residues(poly_mul(poly_scale(inv, (p + 1) // 2, p), w, p), u, p)[1]
    big_u, big_v = poly_mul(u, u, p), poly_axpy(v, poly_mul(u, k, p), 1, p)
    if len(big_u) - 1 <= genus:
        return big_u, big_v
    step = divmod_residues(poly_axpy(w, poly_mul(v, k, p), -2, p), u, p)[0]
    return _cantor_steps(big_u, big_v, poly_axpy(step, poly_mul(k, k, p), -1, p), genus, p)


def _multiple(x0, y0, e, f, genus, p):
    """The reduced Mumford pair of e (P - infinity), P = (x0, y0), e >= 1,
    by double-and-add, from the top bit of e down."""
    pu, pv = [-x0 % p, 1], [y0] if y0 else []
    u, v = pu, pv
    for bit in bin(e)[3:]:
        u, v = _double(u, v, f, genus, p)
        if bit == "1":
            u, v = _reduce(*_compose(u, v, pu, pv, f, p), f, genus, p)
    return u, v


def _basis_pole_orders(nodes, v, genus, p):
    """Pole orders at infinity of a reduced basis of the solutions (a, b)
    of a + b V = 0 mod U, where U = N_n is the product over the n > g + 1
    ``nodes`` and V = sum v_i N_i is given by its Newton coordinates.

    Each row (r_i, -t_i) of the extended Euclid algorithm on r_0 = U and
    r_1 = V, with r_i = s_i U + t_i V, is a solution, any two consecutive
    rows are a basis, and deg t_i = n - deg r_(i-1).  The sequence stops
    at the first r_i that is zero or has deg r_i + deg r_(i-1) <= n + g.
    With m = deg r_(i-1), row i - 1 then has the even pole order 2m of its
    a and row i the odd pole order 2 (n - m) + 2g + 1 of its b y.

    It runs on q_i = r_i div N_(g+1) instead, whose Newton coordinates
    are those of r_i above the lowest g + 1, in the Newton basis N'_j of
    the nodes above the lowest g + 1.  This is exact (von zur
    Gathen and Gerhard, Modern Computer Algebra, 11.1): N_(g+1) divides U,
    so while the quotients agree, r_i - N_(g+1) q_i = t_i (V mod N_(g+1))
    has degree at most n - deg r_(i-1) + g, below deg r_i until the test
    stops, and a quotient read from q_(i-1) and q_i is exact while
    2 deg r_i > n + g; when it is not, the next test stops whatever
    r_(i+1) is.  So each test reads deg r_i = deg q_i + g + 1 and stops
    where the full sequence does; one dropped node more breaks this.
    """
    n, low = len(nodes), genus + 1
    nodes = nodes[low:]
    prev, cur = [0] * (n - low) + [1], poly_trim(v[low:])
    while cur and len(prev) + len(cur) - 2 > n + genus - 2 * low:
        db = len(cur) - 1
        inv = pow(cur[-1], -1, p)  # a trimmed lead
        if len(prev) == len(cur) + 1:
            # One quotient term per degree: r - c1 (x b) - c0 b in one pass.
            shifted = [0] + cur
            c1 = prev[-1] * inv % p
            c0 = (prev[db] - c1 * (shifted[db] + nodes[db] * cur[db])) * inv % p
            rem = [(a - c1 * (s + z * b) - c0 * b) % p
                   for a, s, z, b in zip(prev, shifted, nodes, cur)]
        else:
            # A larger degree drop: x^k b for every quotient term, then one
            # subtraction per term from the top; zip drops each cleared lead.
            powers = [cur]
            for _ in range(len(prev) - len(cur)):
                b = powers[-1]
                powers.append([(s + z * c) % p for s, z, c in zip([0] + b, nodes, b)] + [b[-1]])
            rem = prev
            for k in range(len(powers) - 1, -1, -1):
                c = rem[db + k] * inv % p
                rem = [(a - c * b) % p for a, b in zip(rem, powers[k])]
        while rem and not rem[-1]:
            rem.pop()
        prev, cur = cur, rem
    m = len(prev) - 1 + low
    return 2 * m, 2 * (n - m) + 2 * genus + 1


def _conditions(divisor: Divisor):
    """(cap', zeros, data): the pole cap left after K is taken out, and
    the conditions of a + b V = 0 mod U0 (module docstring, steps 3-4):
    ``zeros`` holds (x0, [0]) where V(x0) = 0, and ``data`` holds
    (x0, y0, n - k) where V follows y at (x0, y0) to n - k terms.
    """
    curve = divisor.curve
    p = curve.prime

    by_x: dict[int, dict[int, int]] = {}
    for pt, mult in divisor.affine:
        by_x.setdefault(pt.x, {})[pt.y] = mult

    # Pole clearing by (x - x0)^e per support x-value, and the zeros it
    # asks of a(x) + b(x) y there.  The nodes of U0 are those of `zeros`,
    # then of `data`; `kept` counts the nodes of K.
    cap = divisor.at_infinity
    zeros = []
    data = []
    kept = 0
    for x0, ys in by_x.items():
        if 0 in ys:  # a support point has y = 0 exactly when f(x0) = 0
            e = max(0, (ys[0] + 1) // 2)
            needed = 2 * e - ys[0]
            if needed % 2:
                zeros.append((x0, [0]))
            kept += needed // 2
        else:
            # (x0, y0) needs `needed` zeros and (x0, -y0) `fewer`.
            y0 = next(iter(ys))
            e = max(0, *ys.values())
            needed, fewer = e - ys.get(y0, 0), e - ys.get(p - y0, 0)
            if needed < fewer:
                y0, needed, fewer = p - y0, fewer, needed
            if needed > fewer:
                data.append((x0, y0, needed - fewer))
            kept += fewer
        cap += 2 * e
    # Every solution is K times one mod U0, of pole order 2 deg K less.
    return cap - 2 * kept, zeros, data


def _doubling_bound(genus: int, sites: int) -> int:
    """B(g, s) = (40 + 11 g) (4 + floor(log2 s)) / 4: at more than B(g, s)
    nodes over s x-values, the doubling route costs less than the Newton
    route.  The Newton route's interpolant and remainder sequence grow
    with the square of the node count; the doubling route pays one
    addition and reduction per x-value and about log2(d) doublings for a
    site of d nodes, so its crossover rises with s.  The measured
    crossover n is the first value of a grid growing by 15% from which
    s sites of n / s nodes each took less time by doubling, at every
    larger value tried (two or three random curves over F_10007 per
    genus, each route the best of three or five runs); each cell is
    measured / B(g, s):

        g     s = 1     s = 4     s = 16    s = 64
        1     48/51     63/76    124/102   187/127
        2     72/62     82/93    124/124   215/155
        4     82/84    108/126   187/168   326/210
        10   163/150   187/225   326/300   374/375
        20   240/260   317/390   480/520   634/650
    """
    return (40 + 11 * genus) * (3 + sites.bit_length()) // 4


def _newton_orders(curve: HyperellipticCurve, zeros, data) -> tuple[int, int]:
    """``_orders`` by the local series, interpolant and remainder
    sequence (module docstring, step 5)."""
    p = curve.prime
    sites = [(x0, split_point_series(curve.coeffs, x0, y0, d, p)[1]) for x0, y0, d in data]
    nodes, coords = _newton_interpolant(zeros + sites, p)
    return _basis_pole_orders(nodes, coords, curve.genus, p)


def _doubling_orders(curve: HyperellipticCurve, zeros, data) -> tuple[int, int]:
    """``_orders`` as n + n' and n - n' + 2g + 1 (module docstring,
    step 6), n' the degree of the reduced pair of the sum of every zero
    W - infinity and every site's d (P - infinity)."""
    f, g, p = list(curve.coeffs), curve.genus, curve.prime
    n = len(zeros) + sum(d for _, _, d in data)
    u, v = [1], []
    for x0, y0, d in [(x0, 0, 1) for x0, _ in zeros] + data:
        u, v = _reduce(*_compose(u, v, *_multiple(x0, y0, d, f, g, p), f, p), f, g, p)
    reduced = len(u) - 1
    return n + reduced, n - reduced + 2 * g + 1


def _orders(curve: HyperellipticCurve, zeros, data) -> tuple[int, int]:
    """The pole orders of a reduced basis of the solutions of the
    conditions ``_conditions`` states; they do not depend on cap'.
    By the Newton route for at most B(g, s) nodes over s x-values, else
    by doubling."""
    g = curve.genus
    n = len(zeros) + sum(d for _, _, d in data)
    if n <= g + 1:  # deg V < n: the remainder sequence takes no step
        return 2 * n, 2 * g + 1
    if n <= _doubling_bound(g, len(zeros) + len(data)):
        return _newton_orders(curve, zeros, data)
    return _doubling_orders(curve, zeros, data)


def _pole_orders(divisor: Divisor) -> tuple[int, tuple[int, int]]:
    """(cap', orders): the pole cap left after K is taken out and the pole
    orders of a reduced basis of the solutions, so that
    dim L(D - k*infinity) = _dim_below(cap' - k, orders) for every k,
    whatever the sign of cap'.

    See the module docstring for how the conditions are stated and how
    the two pole orders of that basis give every dimension.
    """
    cap, zeros, data = _conditions(divisor)
    return cap, _orders(divisor.curve, zeros, data)


def _dim_below(q: int, orders: tuple[int, ...]) -> int:
    """The dimension of the solutions of pole order at most q, given a
    reduced basis v_j of pole ``orders`` o_j: the x^i v_j with
    2i + o_j <= q are a basis of them."""
    return sum(max(0, (q - o) // 2 + 1) for o in orders)


def rr_space_dim(divisor: Divisor) -> int:
    """dim L(D) = h0 of the line bundle O(D) on the curve."""
    cap, zeros, data = _conditions(divisor)
    if cap < 0:  # no solution has a pole order below 0
        return 0
    return _dim_below(cap, _orders(divisor.curve, zeros, data))


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

    Every probe reads its dimension off the one (cap', orders) of
    ``_pole_orders``.  The walk starts at l = (d - g) // n, where
    deg >= g makes the value positive and which is at least the smallest
    twist, so every probe lies in the window.
    """
    n = cover.degree
    cap, orders = _pole_orders(divisor)
    return h0_sequence_from_callable(lambda l: _dim_below(cap - n * l, orders), n,
                                     start=(divisor.degree - divisor.curve.genus) // n)


def pushforward(divisor: Divisor, cover: ComposedMap) -> SplittingType:
    """Splitting type of the direct image of O(D) under the cover.

    With v_j the reduced basis of pole orders o_j that ``_pole_orders``
    gives, the x^i v_j, 0 <= i < m, are a basis over F_p[z], z = x^m,
    whose pole orders o_j + 2i are distinct, so the direct image is the
    sum of O(floor((cap' - o_j - 2i) / 2m)) (Hess's reduced basis at
    infinity, see the module docstring).  For each o, with
    a, r = divmod(cap' - o, 2m), that is min(m, r // 2 + 1) copies of a
    and the rest a - 1.  ``splitting_from_h0_sequence(h0_sequence(D,
    cover))`` is the same answer by the extraction from computed
    dimensions.
    """
    m, n = cover.exponent, cover.degree
    cap, orders = _pole_orders(divisor)
    pairs = []
    for o in orders:
        a, r = divmod(cap - o, n)
        top = min(m, r // 2 + 1)
        pairs += [(a, top), (a - 1, m - top)]
    return SplittingType.from_pairs(pairs)


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

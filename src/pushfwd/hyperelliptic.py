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
   Otherwise a step from r_(i-1) reads no coefficient of degree below
   n + g + 1 - deg r_(i-1) (see ``_basis_pole_orders``), so it runs on
   the Newton coordinates from there up: the lowest g + 1 are dropped
   at the start and one more after each step of quotient degree 1.
   There U0 = N_n is a unit vector, V is the interpolant's coordinates
   and x N_i = N_(i+1) + z_i N_i; a step of quotient degree 1 is one
   fused pass.

The R = deg U + deg K conditions cost O(R * deg f) for the local series,
whose square root is one C-level dot product per coefficient; the
deg U0 <= R nodes that remain after K is taken out cost O(deg U0^2), in
about deg U0 list passes, for the interpolant (one pass for a single
site), and about (deg U0 - g)^2 / 4 list work for the remainder
sequence: from deg r_(i-1) = d it reads 2d - n - g coordinates, for d
from n down to (n + g) / 2.  When deg U0 <= g + 1 none of this is done.
Nothing is eliminated, and numpy is not used.

The conditions do not depend on the coefficient at infinity, so the two
pole orders serve dim L(D - k*infinity) for every k (the reduced basis at
infinity of F. Hess, J. Symbolic Comput. 33 (2002)).  The congruence
a + b V = 0 mod U is the Mumford-form condition of D. G. Cantor, Math.
Comp. 48 (1987), here without reduction.

Dimensions are invariant under base field extension, so these match the
geometric values the splitting formulas refer to.

``pushforward`` and ``h0_sequence`` both take their (cap', orders) from
``_twist_orders``, the one place that says which orders serve every
dim L(D - 2m l * infinity): those of D, or, when no degree d - 2m l lies
in [0, 2g - 2], those of d * infinity, which need no orders computation.
``pushforward`` reads the direct image off the two orders: over F_p[z],
z = x^m, the x^i v_j with i < m are a basis, so every twist costs O(1)
arithmetic per order.  ``h0_sequence`` keeps the paper's route, the
window of dimensions that the campaigns extract from, each read off the
same orders, with the walk starting at floor((d - g) / n).
``rr_space_dim`` always states and solves the conditions of D.  Nothing
is memoized across calls.
"""

from __future__ import annotations

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
    poly_eval,
    poly_is_squarefree,
    poly_trim,
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

    def validate_point(self, pt: "CurvePoint") -> None:
        """Raises unless pt is a point of the curve; f is not evaluated
        again at a point that ``point`` has checked."""
        if (pt.x, pt.y) not in self._on_curve:
            self.point(pt.x, pt.y)

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

    Before each step it drops the Newton coordinates below
    k = n + g + 1 - deg r_(i-1): the lowest g + 1 at the start, and one
    more after each step of quotient degree 1.  Restart the sequence at
    a pair (A, B) = (r_(i-1), r_i) where coordinates are dropped: those
    kept are the coordinates of A div N_k and B div N_k in the Newton
    basis N_j / N_k of the nodes from k up, on which x acts exactly.  So
    while the quotients are those of the whole sequence, each later
    remainder rho_j = s_j A + t_j B comes out as s_j (A div N_k) +
    t_j (B div N_k), which N_k times misses rho_j by s_j (A mod N_k) +
    t_j (B mod N_k).  With deg t_j = deg A - deg rho_(j-1) >= deg s_j,
    that miss has degree at most deg A - deg rho_(j-1) + k - 1 =
    n + g - deg rho_(j-1), the same bound whichever pair the drop was
    made at, so all the misses sum to a polynomial of degree at most
    n + g - deg r_(j-1) at every later r_j.  A quotient of r_(j-1) by r_j reads only coefficients of degree
    at least 2 deg r_j - deg r_(j-1) (von zur Gathen and Gerhard, Modern
    Computer Algebra, 11.1), all above the misses while
    2 deg r_j >= n + g + 1; when that fails, the next test stops whatever
    r_(j+1) is.  deg r_j is above the misses while
    deg r_j + deg r_(j-1) >= n + g + 1, and when that fails, so does the
    test on what is left of r_j.  So each test reads the degrees of the
    whole sequence and stops where it does.  One coordinate more per step
    raises the bound to n + g + 1 - deg r_(j-1), which reaches the lowest
    coefficient a quotient reads when 2 deg r_j = n + g + 1, and the
    orders change.
    """
    n, low = len(nodes), 0  # list index i holds the coordinate of N_(i+low)
    prev, cur = [0] * n + [1], poly_trim(v)
    while cur and len(prev) + len(cur) - 2 + 2 * low > n + genus:
        # Keep the coordinates from n + g + 1 - deg prev up.
        drop = n + genus + 2 - len(prev) - 2 * low
        prev, cur, nodes, low = prev[drop:], cur[drop:], nodes[drop:], low + drop
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


def _orders(curve: HyperellipticCurve, zeros, data) -> tuple[int, int]:
    """The pole orders of a reduced basis of the solutions of the
    conditions ``_conditions`` states; they do not depend on cap'."""
    g = curve.genus
    n = len(zeros) + sum(d for _, _, d in data)
    if n <= g + 1:  # deg V < n: the remainder sequence takes no step
        return 2 * n, 2 * g + 1
    p = curve.prime
    nodes, coords = _newton_interpolant(
        zeros + [(x0, split_point_series(curve.coeffs, x0, y0, d, p)[1]) for x0, y0, d in data], p)
    return _basis_pole_orders(nodes, coords, g, p)


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


def _twist_orders(divisor: Divisor, n: int) -> tuple[int, tuple[int, int]]:
    """(cap', orders) with dim L(D - n*l*infinity) =
    _dim_below(cap' - n*l, orders) for every l.

    When no degree d - n*l lies in [0, 2g - 2], Riemann-Roch gives each of
    these dimensions, and they are those of d * infinity, whose basis 1, y
    has orders 0 and 2g + 1 and cap' = d: no orders are computed.
    Otherwise they are the pole orders of D.
    """
    d, g = divisor.degree, divisor.curve.genus
    if d % n > 2 * g - 2:
        return d, (0, 2 * g + 1)
    return _pole_orders(divisor)


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
    ``_twist_orders``.  The walk starts at l = (d - g) // n, where
    deg >= g makes the value positive and which is at least the smallest
    twist, so every probe lies in the window.
    """
    n = cover.degree
    cap, orders = _twist_orders(divisor, n)
    return h0_sequence_from_callable(lambda l: _dim_below(cap - n * l, orders), n,
                                     start=(divisor.degree - divisor.curve.genus) // n)


def pushforward(divisor: Divisor, cover: ComposedMap) -> SplittingType:
    """Splitting type of the direct image of O(D) under the cover.

    With v_j the reduced basis of pole orders o_j that ``_twist_orders``
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
    cap, orders = _twist_orders(divisor, n)
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

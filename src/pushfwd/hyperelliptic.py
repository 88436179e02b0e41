"""Exact Riemann-Roch oracle on hyperelliptic curves over odd prime fields.

A curve is y^2 = f(x) with f monic, squarefree, of odd degree 2g + 1, so
there is a single rational point at infinity, x has pole order 2 there and
y pole order 2g + 1, and the canonical class is (2g - 2) * infinity.  The
x-coordinate map is a degree-2 cover of the line pulling O(1) back to
2 * infinity; composing with z -> z^m realizes every even map degree 2m.

A point comes from ``HyperellipticCurve.point``, which checks it, or from
``affine_points``, which lists only points of the curve; either way it
records the curve object.  A divisor has one constructor, ``Divisor``,
which sums, negatives and shifts use too: it checks each support point
that its curve object did not record, so every support point of every
divisor carries that divisor's curve.

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
   of a + b V = 0 mod U0, U0 = U / K, the product over the nodes of the
   sites (x0, y0, d) left: d nodes at x0 where V follows y at (x0, y0) to
   d terms, and one node (x0, 0, 1) at a ramification zero; K shifts
   every pole order by 2 deg K, so cap' = cap - 2 deg K replaces cap.
   The solutions (a, b) of a + b V = 0 mod U0 form a rank-2
   F_p[x]-module.  In a basis whose two elements have pole orders o1
   even (led by a) and o2 odd (led by b y) the leading terms of
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
   coordinates above the lowest g + 1 of U0 = N_n, a unit vector, and of
   V, the interpolant's, each rewritten once in powers of y = x - z, z
   the last node, by Horner's rule: no remainder's degree depends on the
   basis it is written in.  It runs in that one basis in
   ``expansions.packed_euclid``, the loop that curve validation's
   squarefree test and the doubling route's inverses (step 6) run in
   the monomial basis, fraction-free: each remainder comes out a
   nonzero constant times the usual one, which changes no degree, so
   the stop test and the orders are those of the monic sequence;
6. those orders are n + n' and n - n' + 2g + 1, where n' is the degree
   of the reduced representative of E - n * infinity, E = div(U0, V)
   the zeros asked for: the solution of least pole order vanishes on E
   and on n' more points, and o1 + o2 = 2n + 2g + 1.  So when the n
   nodes over s x-values are more than B(g, s) (``_doubling_bound``, set
   at the measured crossover of the two routes' costs), no series is
   built: the sum of d (P - infinity) over the sites (P, d) becomes one
   reduced Mumford pair (u, v) in monomial coordinates by a single
   left-to-right double-and-add over the bits of every d at once
   (Straus's multi-exponentiation, ``_ladder``).  A doubling is the
   Hensel lift u^2, v + (f - v^2) (2 v)^(-1) mod u^2 after the
   Weierstrass points of the support drop out, straight-line at genus 2
   with deg u = 2 unless that degenerates (T. Lange, AAECC 15 (2005)).
   A lone point P = (x0, y0), y0 != 0, doubles along its tangent at any
   genus g >= 2, with no gcd: U = (x - x0)^2, V = y0 + l (x - x0) with
   l = f'(x0) / (2 y0), exact since V(x0) = y0 and V'(x0) = l give
   V^2 = f mod U, and reduced since deg U = 2 <= g.  It is the first
   doubling of every ladder whose largest d belongs to one site.
   Adding a point P = (x0, y0) takes no gcd (Lange's mixed addition, for
   any genus): u (x - x0) by the CRT off the support or by a Hensel step
   on it, and u / (x - x0) when iota(P) is on it.  Cantor's reduction
   u' = (f - v^2) / u, v' = -v mod u' runs in continued-fraction form,
   where each later u' is the one before last plus q (v' - v), so only
   its first step squares v.

The Newton route's local series cost, per site of d > 1 nodes, one
Taylor shift of f to d terms, a Horner pass of deg f steps, each a few
C-level big-int operations on d packed slots
(``expansions.taylor_prefix``), and a square root of one C-level dot
product per coefficient; a site of one node needs neither.  The deg U0
nodes that remain after K is taken out cost the interpolant
O(deg U0^2) coefficient work, done as updates of a few C-level big-int
operations each, one per node and later site: the sites go in
ascending d, so the largest updates none (and a single site none at
all); and they cost the remainder sequence about
(n - g) / 2 steps, n = deg U0, one per degree from n down to (n + g) / 2,
each a few C-level big-int operations on at most n - g packed
coordinates, after the change to powers of y, one such operation per
node below the last run of nodes, for U0 and for V.  When
deg U0 <= g + 1 none of this is done.  The Newton route runs only when
n <= B(g, s) = 14 + 11 g + floor(s / 2), or 14 + floor(s / 2) at
genus 2, so its cost is bounded by the genus and the number s of
x-values, and no multiplicity makes it longer.  On the doubling route
the sites share the floor(log2(max d)) doublings, and each site adds
its point once per set bit of its d; each step works on polynomials of
degree at most 2g + 1 and costs O(g^2).  A lone point's doubling costs
one pass over f, for f'(x0), and one inversion.  Any other doubling
inverts v mod u by one ``packed_euclid`` run
(``expansions.poly_xgcd``), at most deg u steps of a few C-level
big-int operations on 2 deg u + 2 packed slots, and a second run when
Weierstrass points drop out; the lift and the first reduction step are
about 14 calls into the list helpers.  At genus 2 a doubling of a
degree-2 u in general position costs about 40 multiplications and two
inversions in one pass, against about 25 calls into the list helpers.
Nothing is eliminated, and numpy is not used.

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
compute them when cap' < 0.  Nothing here is cached or keyed by p or by
a point; the only cache is the ``Slots`` layouts of ``expansions``, at
most 128, sized by genus and bit length of p.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from operator import itemgetter, mul

from .errors import (
    CharacteristicTwo,
    DegreeNotMultiple,
    PointNotOnCurve,
    SingularCurve,
    WrongGenus,
)
from .expansions import (
    Slots,
    divmod_residues,
    euclid_slots,
    packed_euclid,
    poly_axpy,
    poly_derivative,
    poly_eval,
    poly_is_squarefree,
    poly_mul,
    poly_scale,
    poly_xgcd,
    split_point_series,
)
from .splitting import (
    CohSequence,
    SplittingType,
    _integer,
    h0_sequence_from_callable,
)

# Field moduli stay below 2**31, where ``_is_prime`` is exact.
MAX_PRIME = 2**31

MAX_ENUMERATED_PRIME = 2**16  # the largest p whose points affine_coordinates lists

# e2ebench/layers.py wraps these three names, so they must exist; nothing
# calls them.  They go when e2ebench/layers.py stops patching them and
# e2ebench/worker.py stops reading series_mul's counters.
series_mul = weierstrass_point_series = kernel_dim_mod_p = None


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the bases 2, 7 and 61, exact for
    n < 4,759,123,141 (G. Jaeschke, Math. Comp. 61 (1993)), so for every
    modulus below MAX_PRIME, in O(log n) multiplications."""
    if n < 2:
        return False
    for a in (2, 7, 61):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class HyperellipticCurve:
    """y^2 = f(x) over F_p, f monic squarefree of odd degree 2g + 1 >= 3."""

    __slots__ = ("prime", "coeffs", "genus")

    def __init__(self, prime: int, coeffs: Iterable[int]):
        prime = _integer(prime, "prime")
        if prime == 2:
            raise CharacteristicTwo("the model y^2 = f(x) needs an odd characteristic")
        # Size first: the primality test is exact only below 4,759,123,141.
        if prime >= MAX_PRIME:
            raise ValueError(f"field modulus must be below 2**31, got {prime}")
        if not _is_prime(prime):
            raise ValueError(f"field modulus must be prime, got {prime}")
        cs = tuple(_integer(c, "coefficient of f") % prime for c in coeffs)
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
        """The affine point (x, y), reduced mod p, that records this curve
        as the one that checked it; raises if it is not on the curve."""
        p = self.prime
        x, y = _integer(x, "x-coordinate") % p, _integer(y, "y-coordinate") % p
        if (y * y) % p != self.rhs(x):
            raise PointNotOnCurve(
                f"({x}, {y}) does not satisfy y^2 = f(x) over F_{p}"
            )
        return self._stamped(x, y)

    def _stamped(self, x: int, y: int) -> "CurvePoint":
        """The point (x, y), already reduced and on this curve, recording
        this curve as the one that checked it."""
        pt = CurvePoint(x, y)
        object.__setattr__(pt, "_curve", self)
        return pt

    def affine_coordinates(self) -> list[tuple[int, int]]:
        """(x, y) of every F_p-rational affine point, by x and then y, from
        a list of p values; p above MAX_ENUMERATED_PRIME = 2**16 raises."""
        p = self.prime
        if p > MAX_ENUMERATED_PRIME:
            raise ValueError(f"listing points needs p <= {MAX_ENUMERATED_PRIME}, got {p}")
        values = [0] * p  # f(x) for x = 0, ..., p - 1, by Horner's rule
        for c in reversed(self.coeffs):
            values = [(v * x + c) % p for x, v in enumerate(values)]
        roots = {y * y % p: (y, p - y) for y in range(1, (p + 1) // 2)}
        roots[0] = (0,)
        return [(x, y) for x, v in enumerate(values) for y in roots.get(v, ())]

    def affine_points(self) -> list["CurvePoint"]:
        """All F_p-rational affine points, by x and then y, each recording
        this curve as the one that checked it."""
        return [self._stamped(x, y) for x, y in self.affine_coordinates()]

    def to_string(self) -> str:
        return f"p={self.prime}; f={','.join(str(c) for c in self.coeffs)}"


@dataclass(frozen=True)
class CurvePoint:
    """An affine point (x, y) of the curve.  The point at infinity is
    never a CurvePoint: a divisor holds its coefficient as ``at_infinity``.
    ``_curve``, outside equality, hash and repr, is the curve that checked
    it (``HyperellipticCurve.point``), which a divisor does not repeat."""

    x: int
    y: int
    _curve: HyperellipticCurve | None = field(default=None, init=False, compare=False, repr=False)

    def is_weierstrass(self) -> bool:
        return self.y == 0


@dataclass(frozen=True)
class Divisor:
    """Integer coefficient at infinity plus finitely many affine points.

    The affine part is stored canonically as ((point, multiplicity), ...)
    sorted by coordinates; zero multiplicities are dropped and support
    points are keyed by their coordinates mod p.  A support point is
    checked against the curve unless this curve object checked it.  This
    is the only constructor: sums, negatives and shifts are built by it
    too, so every support point of every divisor records the divisor's
    own curve object.
    """

    curve: HyperellipticCurve
    at_infinity: int = 0
    affine: tuple = ()

    def __post_init__(self) -> None:
        raw = self.affine.items() if isinstance(self.affine, Mapping) else self.affine
        merged: dict[CurvePoint, int] = {}
        for pt, mult in raw:
            if not isinstance(pt, CurvePoint):
                raise ValueError(f"support key {pt!r} must be a CurvePoint")
            if pt._curve is not self.curve:
                pt = self.curve.point(pt.x, pt.y)
            if type(mult) is not int:  # the field name is built only here
                mult = _integer(mult, f"multiplicity of pt:{pt.x},{pt.y}")
            merged[pt] = merged.get(pt, 0) + mult
        support = ((pt, m) for pt, m in merged.items() if m != 0)
        object.__setattr__(self, "affine",
                           tuple(sorted(support, key=lambda item: (item[0].x, item[0].y))))
        object.__setattr__(self, "at_infinity", _integer(self.at_infinity, "at_infinity"))

    @property
    def degree(self) -> int:
        return self.at_infinity + sum(m for _, m in self.affine)

    def shift_infinity(self, amount: int) -> "Divisor":
        return Divisor(self.curve, self.at_infinity + _integer(amount, "amount"), self.affine)

    def _require_same_curve(self, other: "Divisor") -> None:
        if self.curve != other.curve:
            raise ValueError("divisors live on different curves")

    def __add__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        self._require_same_curve(other)
        return Divisor(self.curve, self.at_infinity + other.at_infinity,
                       self.affine + other.affine)

    def __neg__(self) -> "Divisor":
        return Divisor(self.curve, -self.at_infinity, tuple((pt, -m) for pt, m in self.affine))

    def __sub__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        self._require_same_curve(other)
        return Divisor(self.curve, self.at_infinity - other.at_infinity,
                       self.affine + tuple((pt, -m) for pt, m in other.affine))

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

    The expansions of V so far and of N so far at each later site are two
    ``Slots`` ints of that site's len(target) terms, V starting at 0 and
    N at 1.  The coordinates W of a site solve V + N * W = target there,
    one series division by the unit N(x0 + t) with a C-level dot product
    per term (at the first site W is the target); each of its nodes c
    then updates every later site in a few big-int operations: V += c N,
    and N *= (x - x0) is N dx + (N << width), dx = x1 - x0 at that
    site's x1, masked to its terms and reduced.  The last site has none
    to update, so a single site builds no layout and its coordinates are
    its target.  The updates number the sum over sites of d times the
    count of later sites, fewest with the sites in ascending d, the order
    ``_newton_orders`` passes them in.

    A slot of N holds at most (3p - 1) p before its reduction: dx < p
    times a reduced slot, below 3p, plus the slot below it.  V is never
    reduced, only read mod p: each of the n nodes before the last site
    adds c N <= (p - 1)(3p - 1) to a slot.  Both stay below 3 p^2 n, the
    ``top`` of the layout, so every slot fits in its width and each
    reduction of N is exact.
    """
    nodes: list[int] = []
    coords: list[int] = []
    later = [[x0, len(target), 0, 1] for x0, target in sites[1:]]  # x1, terms, V, N
    if later:
        slots = Slots(p, 3 * p * p * (sum(len(t) for _, t in sites) - later[-1][1]),
                      max(d for _, d, _, _ in later))
        width = slots.width
    for x0, target in sites:
        d = len(target)
        if not nodes:  # the first site: V = 0 and N = 1
            w = [t % p for t in target]
        else:
            _, _, v, n = later.pop(0)
            here_v, here_n = slots.unpack(v, d), slots.unpack(n, d)
            inv = pow(here_n[0], -1, p)  # N(x0) != 0: the sites' x0 are distinct
            w = []
            for k in range(d):  # sum_(0 < i <= k) N_i W_(k-i), one dot product
                acc = target[k] - here_v[k] - sum(map(mul, here_n[k:0:-1], w))
                w.append(acc * inv % p)
        for site in later:
            x1, terms, v, n = site
            dx, mask = (x1 - x0) % p, (1 << width * terms) - 1
            for c in w:
                v += c * n
                n = slots.reduce((n * dx + (n << width)) & mask)
            site[2], site[3] = v, n
        nodes += [x0] * d
        coords += w
    return nodes, coords


def _add_point(u, v, x0, y0, f, genus, p):
    """The reduced pair of div(u, v) + P - infinity, P = (x0, y0), for a
    reduced (u, v).  A divisor has one pair, so V = v mod u where u | U.
    With a = u(x0) and b = v(x0), b^2 = f(x0) = y0^2 when a = 0:
    - a != 0, P off the support: the CRT, U = u (x - x0) and V = v + c u
      with c = (y0 - b) / a, so V(x0) = y0; then reduced.
    - a = 0, b = -y0, iota(P) in the support (P too when y0 = 0): as
      P + iota(P) ~ 2 infinity, U = u / (x - x0), V = v mod U, reduced.
    - a = 0, b = y0 != 0, P in the support: a Hensel step, the CRT's form
      with c = w(x0) / (2 y0), w = (f - v^2) / u, for f - V^2 = u (w -
      2 c v - c^2 u) then vanishes once more at x0, at any multiplicity."""
    a, b, line = poly_eval(u, x0, p), poly_eval(v, x0, p), [-x0 % p, 1]
    if a:
        c = (y0 - b) * pow(a, -1, p)
    elif (b + y0) % p:  # b = y0 != 0
        w = divmod_residues(poly_axpy(f, poly_mul(v, v, p), -1, p), u, p)[0]
        c = poly_eval(w, x0, p) * pow(2 * y0, -1, p)
    else:
        big_u = divmod_residues(u, line, p)[0]
        return big_u, divmod_residues(v, big_u, p)[1]
    return _reduce(poly_mul(u, line, p), poly_axpy(v, u, c, p), f, genus, p)


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
    """The reduced Mumford pair of 2 div(u, v), u monic: a lone point at
    genus >= 2 by its tangent, by ``_double_genus2`` at genus 2 with
    deg u = 2 unless it is degenerate there, else by ``_cantor_double``.

    The tangent: for u = x - x0 and v = [y0], y0 != 0, the pair of 2 P is
    U = (x - x0)^2 and V = y0 + l (x - x0) with l = f'(x0) / (2 y0).  It is
    exact, since V(x0) = y0 and V'(x0) = l give V^2 = y0^2 + f'(x0) (x - x0)
    = f mod U, and reduced, since deg U = 2 <= g.  A Weierstrass point
    (v = []) doubles to the zero class ([1], []): 2 W ~ 2 infinity."""
    if len(u) == 2 and genus >= 2:
        if not v:
            return [1], []
        x0, y0 = -u[0] % p, v[0]
        slope = poly_eval(poly_derivative(f, p), x0, p) * pow(2 * y0, -1, p) % p
        return [x0 * x0 % p, -2 * x0 % p, 1], [(y0 - slope * x0) % p, slope] if slope else [y0]
    if genus == 2 and len(u) == 3:
        pair = _double_genus2(u, v, f, p)
        if pair:
            return pair
    return _cantor_double(u, v, f, genus, p)


def _double_genus2(u, v, f, p):
    """``_cantor_double``'s steps at genus 2 for monic u of degree 2, in
    straight-line coefficient arithmetic with two inversions, or None
    where they degenerate: when u and v share a root (the resultant
    r = res(u, v) is 0), or when the lead k1 of k is 0 (u' drops degree).

    (2 v)^(-1) = (v0 - u1 v1 - v1 x) / (2 r) mod u.  With w = (f - v^2) /
    u = (x + q0) u + e, k = e (2 v)^(-1) mod u, and the free first
    reduction step (w - 2 v k) / u - k^2 = x + q0 - 2 v1 k1 - k^2 has
    degree 2 <= g, so it is u' once made monic, and v' = -(v + k u) mod u'.
    """
    u0, u1 = u[0], u[1]
    v0 = v[0] if v else 0
    v1 = v[1] if len(v) > 1 else 0
    r = (v0 * v0 - u1 * v0 * v1 + u0 * v1 * v1) % p
    if not r:
        return None
    w2 = f[4] - u1  # w = x^3 + w2 x^2 + w1 x + w0
    w1 = f[3] - u1 * w2 - u0
    q0 = w2 - u1
    e1 = (w1 - u1 * q0 - u0) % p
    e0 = (f[2] - v1 * v1 - u1 * w1 - u0 * w2 - u0 * q0) % p
    i0 = v0 - u1 * v1
    inv = pow(2 * r, -1, p)
    k1 = (e1 * i0 - e0 * v1 + u1 * e1 * v1) * inv % p
    if not k1:
        return None
    k0 = (e0 * i0 + u0 * e1 * v1) * inv % p
    lead = pow(-k1 * k1, -1, p)
    a1 = (1 - 2 * k0 * k1) * lead % p
    a0 = (q0 - 2 * v1 * k1 - k0 * k0) * lead % p
    # v + k u = (k1 x + t) u' - v', of degree 3 with lead k1
    t = k0 + k1 * u1 - a1 * k1
    r1 = (a0 * k1 + a1 * t - v1 - k1 * u0 - k0 * u1) % p
    r0 = (a0 * t - v0 - k0 * u0) % p
    return [a0, a1, 1], [r0, r1] if r1 else [r0] if r0 else []


def _cantor_double(u, v, f, genus, p):
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


def _ladder(sites, f, genus, p):
    """The reduced Mumford pair of the sum of d (P - infinity) over the
    ``sites`` (x0, y0, d), P = (x0, y0), by one left-to-right
    double-and-add over the bits of every d at once (Straus): per bit the
    running pair is doubled once, then each P whose d has that bit is
    added by ``_add_point``.  It starts at the first P added."""
    u = v = None
    for bit in range(max(d for _, _, d in sites).bit_length() - 1, -1, -1):
        if u is not None:
            u, v = _double(u, v, f, genus, p)
        for x0, y0, d in sites:
            if d >> bit & 1:
                u, v = ([-x0 % p, 1], [y0] if y0 else []) if u is None else \
                    _add_point(u, v, x0, y0, f, genus, p)
    return u, v


def _basis_pole_orders(nodes, v, genus, p):
    """Pole orders at infinity of a reduced basis of the solutions (a, b)
    of a + b V = 0 mod U, where U = N_n is the product over the n > g + 1
    ``nodes`` and V = sum v_i N_i is given by its Newton coordinates,
    residues.

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

    The q_i are polynomials, and their degrees, so the stop test and the
    orders, do not depend on the basis their coefficients are written
    in.  ``packed_euclid`` runs in powers of y = x - z, z the last node:
    each list c of Newton coordinates becomes the coefficients in y of
    sum c_j N'_j by Horner's rule from the top, acc <- (x - z_j) acc +
    c_j, with x - z_j = y + dz_j, dz_j = z - z_j.  The trailing run of
    nodes equal to z has dz_j = 0, so its coordinates are already powers
    of y and are packed as they are; the run is found by walking back
    from the last node, so any node order is served.  Each node below it
    is one packed step (acc << W) + dz_j acc + c_j and one
    ``Slots.reduce``.  A slot of acc lies in [0, 3p) after a reduction
    and dz_j, c_j are residues, so a slot before one is at most
    (3p - 1) + (p - 1)(3p - 1) = p (3p - 1), within the layout's ``top``
    3 (p - 1)(3p - 1); slot 0, (p - 1)(3p - 1) + c_j, is no more.
    """
    n, low = len(nodes), genus + 1
    z, start = nodes[-1], n - 1  # start: z's trailing run, above the lowest g + 1
    while start > low and nodes[start - 1] == z:
        start -= 1
    slots = euclid_slots(p, n - low + 1)
    width, reduce = slots.width, slots.reduce
    big_u, big_v = 1 << width * (n - start), slots.pack(v[start:])
    for j in range(start - 1, low - 1, -1):  # Horner's rule, x - z_j = y + dz
        dz = (z - nodes[j]) % p
        big_u = reduce((big_u << width) + dz * big_u)
        big_v = reduce((big_v << width) + dz * big_v + v[j])
    _, length = packed_euclid(slots, big_u, big_v, n + genus - 2 * low + 2)
    m = length - 1 + low
    return 2 * m, 2 * (n - m) + 2 * genus + 1


def _conditions(divisor: Divisor):
    """(cap', sites): the pole cap left after K is taken out, and the
    conditions of a + b V = 0 mod U0 (module docstring, steps 3-4), one
    site (x0, y0, d) per x-value of U0's d nodes, where V follows y at
    (x0, y0) to d terms; a ramification zero, V(x0) = 0, is (x0, 0, 1).
    """
    curve = divisor.curve
    p = curve.prime

    by_x: dict[int, dict[int, int]] = {}
    for pt, mult in divisor.affine:
        by_x.setdefault(pt.x, {})[pt.y] = mult

    # Pole clearing by (x - x0)^e per support x-value, and the zeros it
    # asks of a(x) + b(x) y there; `kept` counts the nodes of K.
    cap = divisor.at_infinity
    sites = []
    kept = 0
    for x0, ys in by_x.items():
        if 0 in ys:  # a support point has y = 0 exactly when f(x0) = 0
            e = max(0, (ys[0] + 1) // 2)
            needed = 2 * e - ys[0]
            if needed % 2:
                sites.append((x0, 0, 1))
            kept += needed // 2
        else:
            # (x0, y0) needs `needed` zeros and (x0, -y0) `fewer`.
            y0 = next(iter(ys))
            e = max(0, *ys.values())
            needed, fewer = e - ys.get(y0, 0), e - ys.get(p - y0, 0)
            if needed < fewer:
                y0, needed, fewer = p - y0, fewer, needed
            if needed > fewer:
                sites.append((x0, y0, needed - fewer))
            kept += fewer
        cap += 2 * e
    # Every solution is K times one mod U0, of pole order 2 deg K less.
    return cap - 2 * kept, sites


def _doubling_bound(genus: int, sites: int) -> int:
    """B(g, s) = 14 + 11 g + floor(s / 2), and B(2, s) = 14 + floor(s / 2):
    at more than B(g, s) nodes over s x-values, the doubling route costs
    less than the Newton route.  The Newton route's interpolant and
    remainder sequence grow with the square of the node count; the
    doubling route's ladder pays floor(log2(max d)) doublings in all and
    one addition per set bit of each site's d, each O(g^2), and at genus
    2 its doublings are straight-line, so the genus-2 form drops the 11 g.

    The measured crossover n is the first value of a grid from
    max(s, g + 2), each next value max(n + 1, floor(1.15 n)), up to 1.6
    times the bound fitted before (40 + 11 g) (4 + floor(log2 s)) / 4, at
    which s sites of about n / s nodes each took less time by doubling,
    and from which no larger value took more than 5% longer by doubling
    than by the Newton route (a tie, such as the costly bit pattern of
    n = 23 = 10111b at g = 2, s = 1, does not reset it).  A route's time
    at n is the sum, over three random curves over F_10007, of its best
    of five runs; each cell is the median over three such draws of
    curves, as measured / B(g, s):

        g     s = 1     s = 4     s = 16    s = 64
        1     33/25     23/27     23/33     64/57
        2     16/14     14/16     23/22     64/46
        4     72/58     48/60     55/66     64/90
        10   124/124   142/126   124/132   109/156
        20   209/234   209/236   276/242   248/266

    A cell of 64 at s = 64 is the grid's first value: there the doubling
    route took less time at every n >= s tried.
    """
    return 14 + sites // 2 + (0 if genus == 2 else 11 * genus)


def _newton_orders(curve: HyperellipticCurve, sites) -> tuple[int, int]:
    """``_orders`` by the local series, interpolant and remainder
    sequence (module docstring, step 5).  A site of one node needs no
    series: its target is y0.

    The interpolant gets the sites in ascending order of d (a stable
    sort), since each node updates every later site: the largest site
    last updates none.  The orders do not depend on the node order: they
    are those of the solutions of a + b V = 0 mod U0, and the remainder
    sequence needs only that N_(g+1) divides U0, which holds for any
    order of the nodes."""
    p = curve.prime
    targets = [(x0, split_point_series(curve.coeffs, x0, y0, d, p)[1] if d > 1 else [y0])
               for x0, y0, d in sorted(sites, key=itemgetter(2))]
    nodes, coords = _newton_interpolant(targets, p)
    return _basis_pole_orders(nodes, coords, curve.genus, p)


def _doubling_orders(curve: HyperellipticCurve, sites, n: int) -> tuple[int, int]:
    """``_orders`` of n nodes as n + n' and n - n' + 2g + 1 (module
    docstring, step 6), n' the degree of the ``_ladder`` pair."""
    g = curve.genus
    reduced = len(_ladder(sites, list(curve.coeffs), g, curve.prime)[0]) - 1
    return n + reduced, n - reduced + 2 * g + 1


def _orders(curve: HyperellipticCurve, sites) -> tuple[int, int]:
    """The pole orders of a reduced basis of the solutions of the
    conditions ``_conditions`` states; they do not depend on cap'.
    By the Newton route for at most B(g, s) nodes over s x-values, else
    by doubling."""
    g = curve.genus
    n = sum(d for _, _, d in sites)
    if n <= g + 1:  # deg V < n: the remainder sequence takes no step
        return 2 * n, 2 * g + 1
    if n <= _doubling_bound(g, len(sites)):
        return _newton_orders(curve, sites)
    return _doubling_orders(curve, sites, n)


def _pole_orders(divisor: Divisor) -> tuple[int, tuple[int, int]]:
    """(cap', orders): the pole cap left after K is taken out and the pole
    orders of a reduced basis of the solutions, so that
    dim L(D - k*infinity) = _dim_below(cap' - k, orders) for every k,
    whatever the sign of cap'.

    See the module docstring for how the conditions are stated and how
    the two pole orders of that basis give every dimension.
    """
    cap, sites = _conditions(divisor)
    return cap, _orders(divisor.curve, sites)


def _dim_below(q: int, orders: tuple[int, ...]) -> int:
    """The dimension of the solutions of pole order at most q, given a
    reduced basis v_j of pole ``orders`` o_j: the x^i v_j with
    2i + o_j <= q are a basis of them."""
    return sum(max(0, (q - o) // 2 + 1) for o in orders)


def rr_space_dim(divisor: Divisor) -> int:
    """dim L(D) = h0 of the line bundle O(D) on the curve."""
    cap, sites = _conditions(divisor)
    if cap < 0:  # no solution has a pole order below 0
        return 0
    return _dim_below(cap, _orders(divisor.curve, sites))


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
        if key == "p" and prime is None:
            prime = _int_field(value, term, "p=<prime>")
        elif key == "f" and coeffs is None:
            coeffs = [_int_field(c, term, "f=<c_0>,...,<c_{2g+1}>") for c in value.split(",")]
        elif key in ("p", "f"):
            raise ValueError(f"curve field {key!r} is given twice")
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

"""Polynomials over F_p and the local series at a split point.

Polynomials and series are plain lists of residues, index = degree.
Series are truncated to a fixed length; all arithmetic is exact mod p.
At a point of y^2 = f(x) with two preimages over its x-value, the local
parameter is t = x - x0 and y expands as the square root of f(x0 + t)
with the chosen sign of y0.  That is the only expansion the
Riemann-Roch oracle uses, with prec = |m(P) - m(iota P)| at a split
x-value (an absent point has multiplicity 0); it needs no series at a
ramification point.

The expansion reads only the first prec coefficients of f(x0 + t),
which ``taylor_prefix`` takes from one C-level dot product
(``sum(map(mul, ...))``) of f's coefficients times powers of x0 with
binomial columns packed min(prec, len f) slots wide.  Slot k of that
sum is at most (p - 1) C(len f, k + 1), and its width is the bit length
of the largest such bound, so no slot needs a reduction before it is
read; the columns depend only on (len f, count, width) and are cached
(``_binomial_columns``: at most 128 tables, length * count * width bits
each).  That is deg f + prec interpreted steps, where prec synthetic
divisions by (x - x0) take O(prec * deg f).  The square root then takes
prec C-level dot products of at most prec / 2 terms each, O(prec^2)
multiplications but no interpreted inner loop.

Two long passes of scalar-times-vector updates mod p run on ``Slots``
instead: Euclid's loop ``packed_euclid`` and the oracle's Newton
interpolant.  A ``Slots`` int holds residues W bits apart, W set by a
stated bound ``top`` on the largest value a slot may reach between
reductions, so a whole vector is scaled, shifted or added in one
C-level big-int operation, and one slot-wise Barrett reduction (five
more) brings every slot back into [0, 3p) without a borrow between
slots.  Each caller states its bound and why it holds.
``packed_euclid`` is the one remainder-sequence loop: curve
validation's squarefree test ``poly_gcd`` runs it to the gcd in the
monomial basis, and the oracle's half sequence
(``hyperelliptic._basis_pole_orders``) to a degree-sum bound in a
Newton basis.  Its steps are fraction-free: they scale by the
divisor's lead instead of inverting it, which changes each remainder
by a nonzero constant only.  The other loops stay on lists.  The
square root is already C-level dot products, and the helpers
``divmod_residues``, ``poly_mul`` and ``poly_axpy`` serve the doubling
route's point additions and Cantor reductions, and ``poly_xgcd`` its
doublings off the straight-line genus-2 path.  At g >= 2 a lone
point's doubling takes no gcd: it is the tangent U = (x - x0)^2,
V = y0 + f'(x0) / (2 y0) (x - x0), exact as V^2 = f mod U and reduced
as deg U = 2 <= g, so the ladders of the benchmark's genus-2 ``sweep``
queries call it only where a straight-line doubling degenerates.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from math import comb
from operator import mul


def poly_trim(coeffs: list[int]) -> list[int]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_eval(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    """The product of two trimmed lists of residues, itself trimmed: p is
    prime, so the product of the leads is not 0."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return [c % p for c in out]


def poly_derivative(coeffs, p: int) -> list[int]:
    return poly_trim([(k * c) % p for k, c in enumerate(coeffs)][1:])


def divmod_residues(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of trimmed lists of residues over F_p.
    Coefficients are reduced only where a quotient term reads them and
    once at the end."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    top = len(den) - 1
    inv_lead = pow(den[-1], -1, p)  # a trimmed lead
    quo = [0] * max(0, len(num) - top)
    rem = list(num)
    low = den[:-1]
    for k in range(len(quo) - 1, -1, -1):
        coef = rem[k + top] * inv_lead % p
        quo[k] = coef
        if coef:
            for j, d in enumerate(low, k):
                rem[j] -= coef * d
    return quo, poly_trim([c % p for c in rem[:top]])


def poly_axpy(a: list[int], b: list[int], c: int, p: int) -> list[int]:
    """a + c b for lists of residues a and b and an integer c, trimmed."""
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    out = [(x + c * y) % p for x, y in zip(a, b)] + a[len(b):]
    while out and not out[-1]:
        out.pop()
    return out


def poly_scale(a: list[int], c: int, p: int) -> list[int]:
    return [x * c % p for x in a]


class Slots:
    """Values mod p packed into one int, ``width`` bits apart (slot i holds
    bits width * i up to width * (i + 1)), for slot values below 2**vb,
    vb = top.bit_length(), where top >= 2p is the largest value a caller
    lets a slot reach; ``reduce`` serves the lowest ``count`` slots.

    ``reduce`` is Barrett's reduction (P. Barrett, CRYPTO '86) on every
    slot at once, X - (((X mu) >> shift) & low) p with shift = vb - 1
    and mu = 2**shift // p >= 1.  Per slot x the quotient
    q = floor(x mu / 2**shift) is at most x / p and above
    x / p - x / 2**shift - 1 > x / p - 3, since x < 2**vb = 2**(shift + 1):
    so x - q p lies in [0, 3p), every slot stays nonnegative and nothing
    borrows from the next.  The width is the bit length of
    (2**vb - 1) mu, so x mu fits in its slot and ``low``, the
    width - shift bits above the shift of each slot, reads q exactly.
    """

    __slots__ = ("p", "width", "shift", "mu", "low")

    def __init__(self, p: int, top: int, count: int):
        vb = top.bit_length()
        self.p = p
        self.shift = shift = vb - 1
        self.mu = mu = (1 << shift) // p
        self.width = width = (((1 << vb) - 1) * mu).bit_length()
        ones = ((1 << width * count) - 1) // ((1 << width) - 1)  # 1 in every slot
        self.low = ((1 << (width - shift)) - 1) * ones

    def pack(self, values) -> int:
        """The residues of ``values`` mod p, value i in slot i."""
        width, p = self.width, self.p
        out = 0
        for c in reversed(values):
            out = out << width | c % p
        return out

    def unpack(self, packed: int, count: int) -> list[int]:
        """The first ``count`` slots, each reduced mod p."""
        width, p = self.width, self.p
        slot = (1 << width) - 1
        return [(packed >> width * i & slot) % p for i in range(count)]

    def reduce(self, packed: int) -> int:
        """Every slot, at most 2**vb - 1, brought into [0, 3p) and kept in
        its residue class; slots above ``count`` must be 0."""
        return packed - (packed * self.mu >> self.shift & self.low) * self.p


@lru_cache(maxsize=128)
def _cached_slots(p: int, top: int, count: int) -> Slots:
    """``Slots(p, top, count)``, built once per key and shared, for a
    layout that recurs call after call (``euclid_slots``', one per prime,
    one run of nodes or more, and operand length).  At most 128 layouts
    are kept, each holding a ``low`` mask of count * width bits; at
    ``euclid_slots``' tops the width is at most 101 bits below
    p = 2**31, so at count 82 (genus 40's f) a layout holds about 1 KB."""
    return Slots(p, top, count)


def euclid_slots(p: int, runs: int, count: int) -> Slots:
    """The layout of ``packed_euclid`` over F_p for ``count`` coefficients
    in a Newton basis of ``runs`` runs of nodes: its ``top`` is
    3 (p - 1)(3p - 1) on one run and 4 (p - 1)(3p - 1) on more."""
    return _cached_slots(p, (3 if runs == 1 else 4) * (p - 1) * (3 * p - 1), count)


def packed_euclid(slots: Slots, big_a: int, big_b: int, runs=((0, 0),),
                  stop: int = 0) -> tuple[int, int]:
    """Euclid's remainder sequence r_0 = A, r_1 = B, r_(i+1) = r_(i-1)
    mod r_i over F_p, fraction-free, so each r_i is found up to a nonzero
    scalar.  A and B are packed in ``slots``, the layout
    ``euclid_slots(p, len(runs), count)`` for some count >= len A, len B,
    each slot in [0, 3p) (``Slots.pack`` gives residues).  The loop stops
    at the first r_i that is zero or has len r_i + len r_(i-1) <=
    ``stop`` (0 runs it to the gcd) and returns r_(i-1), packed, and its
    length.

    The coefficients are those of the Newton basis N_k = (x - z_0) ...
    (x - z_(k-1)) given by ``runs``: (start, z) for each run of equal
    nodes, z_k = z from k = start up to the next run's start, the first
    run at 0.  One run is the monomial basis in x - z, and (0, 0) the
    monomial basis.

    A step is a pseudo-division step (D. Knuth, TAOCP vol. 2, 4.6.1).
    Let b1, b2 be the top two coefficients of B = r_i, db = deg B, and
    a1, a2 those of A, a1 in slot top.  A two-coefficient step is
    A <- b1^2 A - (q1 y + q0) E with E = y^j B, j = top - db - 1, formed
    in the step that uses it; y = x - z for the node z of E's top slot,
    q1 = a1 b1 and q0 = a2 b1 - a1 b2: that clears A's top two
    coefficients without inverting b1, as E's top two are B's (below).
    With one coefficient above deg B left, A <- b1 A - a1 B clears it,
    and a zero lead is passed over, so a remainder may drop any number of
    degrees.  Every remainder is then a nonzero constant times the usual
    one, since each step scales A by b1 or b1^2, not 0, and subtracts a
    multiple of B: a nonzero constant changes no gcd up to a unit and no
    degree, so the stop test and the degrees read off are those of the
    monic sequence.

    (x - z) N_k = N_(k+1) + (z_k - z) N_k, so y E is E shifted up one
    slot plus, for each run below the run of E's top slot, (z_r - z)
    times E masked to that run's slots; the top run's term is 0, so y E
    has E's top two coefficients, one slot up.  On one run E = y^j B is
    B shifted up j slots; on more runs it is j products y E, each
    reduced.  One table gives the masked copies of B and of every E
    formed: its row r holds the mask of each run below run r and that
    run's node less z_r.  Rows are built once each, from the top run
    down as B's top slot walks down the runs, so every row from B's top
    run up is there, and E's top slot lies at or above B's.  A step is
    then a scaling of A, one multiply of E by the two-slot scalar
    c1 << W | c0 (c1 = -q1, c0 = -q0 mod p) and one scaled, masked copy
    of E per run below the top one, so on one run it is a single
    multiply of E, and then one ``Slots.reduce``.

    Slot bounds.  After every reduction a slot of A or B lies in [0, 3p),
    and every scalar is a residue, at most p - 1.  So does a slot of E:
    on one run it is a slot of B, and on more runs each product y E is a
    slot plus one product (z_r - z) times a slot, at most p (3p - 1)
    before its reduction, within either ``top``.  A slot after a
    two-coefficient step is b1^2 times its slot of A plus c1 times the
    slot of E below it plus c0 times its own: three products of a residue
    and a slot, at most 3 (p - 1)(3p - 1), the layout's ``top`` on one
    run.  On more runs a slot below the top run gains one product more,
    c1 (z_r - z) times its slot of E, and no slot lies in two runs: at
    most 4 (p - 1)(3p - 1), the ``top`` on more runs.  A one-coefficient
    step is two such products, within either ``top``.
    """
    p, width, mu, shift, low = slots.p, slots.width, slots.mu, slots.shift, slots.low
    slot = (1 << width) - 1
    k = len(runs) - 1  # the run of B's top slot
    below = bfixes = ()
    if k:
        starts, zs = zip(*runs)
        masks = [((1 << width * (end - start)) - 1) << width * start
                 for start, end in zip(starts, starts[1:])]
        below = [()] * k + [[(mask, (z - zs[k]) % p) for mask, z in zip(masks, zs)]]
    la, lb = -(-big_a.bit_length() // width), -(-big_b.bit_length() // width)
    a1 = (big_a >> width * (la - 1)) % p if la else 0
    a2 = big_a >> width * (la - 2) & slot if la > 1 else 0
    b1 = (big_b >> width * (lb - 1)) % p if lb else 0
    second = big_b >> width * (lb - 2) & slot if lb > 1 else 0
    while lb and la + lb > stop:
        # bfixes holds B masked to each run below its top run, with that
        # run's node less z, and second is B's slot below its lead.
        db = lb - 1
        if k:
            while starts[k] > db:
                k -= 1
                below[k] = [(mask, (z - zs[k]) % p) for mask, z in zip(masks, zs[:k])]
            bfixes = [(big_b & mask, dz) for mask, dz in below[k]]
        top = la - 1
        while top >= db:
            if not a1:
                top -= 1
            elif top == db:  # b1 A - a1 B
                big_a = b1 * big_a + (p - a1) * big_b
                big_a -= (big_a * mu >> shift & low) * p  # Slots.reduce
                top -= 1
            else:  # b1^2 A - (q1 y + q0) E
                e, efixes = big_b, bfixes
                if top > db + 1:  # E = y^(top - db - 1) B
                    if not below:  # a shift, its slots still below 3p
                        e <<= width * (top - db - 1)
                    else:
                        for etop in range(db + 1, top):
                            e <<= width
                            for part, dz in efixes:
                                e += dz * part
                            e -= (e * mu >> shift & low) * p
                            efixes = [(e & mask, dz) for mask, dz in below[bisect_right(starts, etop) - 1]]
                c1 = p - a1 * b1 % p
                big_a = b1 * b1 % p * big_a + e * (c1 << width | (a1 * second - a2 * b1) % p)
                for part, dz in efixes:
                    big_a += c1 * dz % p * part
                big_a -= (big_a * mu >> shift & low) * p
                top -= 2
            if top >= db:
                a1 = (big_a >> width * top & slot) % p
                a2 = big_a >> width * (top - 1) & slot if top else 0
        # Slots db and up are 0 mod p now, and so may be some below them.
        length = db
        while length:
            lead = (big_a >> width * (length - 1) & slot) % p
            if lead:
                break
            length -= 1
        else:
            lead = 0
        big_a &= (1 << width * length) - 1
        a1, a2 = b1, second
        b1, second = lead, big_a >> width * (length - 2) & slot if length > 1 else 0
        big_a, big_b = big_b, big_a
        la, lb = lb, length
    return big_a, la


def poly_gcd(a, b, p: int) -> list[int]:
    """Monic gcd over F_p, by ``packed_euclid`` in the monomial basis."""
    slots = euclid_slots(p, 1, max(len(a), len(b)))
    a = slots.unpack(*packed_euclid(slots, slots.pack(a), slots.pack(b)))
    return poly_scale(a, pow(a[-1], -1, p), p) if a else a


def poly_xgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(d, t): d = s a + t b is the monic gcd of the trimmed lists of
    residues a and b, not both 0, for some s; so t is 1 / b mod a when
    d = 1.  Euclid's loop with the cofactor of b on lists, apart from
    ``packed_euclid``, which keeps no cofactor: its operands are only a
    doubling's reduced (u, v), of degree at most g, and it runs only off
    the straight-line genus-2 path."""
    t0, t1 = [], [1]
    while b:
        q, r = divmod_residues(a, b, p)
        a, b, t0, t1 = b, r, t1, poly_axpy(t0, poly_mul(q, t1, p), -1, p)
    inv = pow(a[-1], -1, p)
    return poly_scale(a, inv, p), poly_scale(t0, inv, p)


def poly_is_squarefree(coeffs, p: int) -> bool:
    deriv = poly_derivative(coeffs, p)
    if not deriv:
        # derivative vanishes identically: a p-th power, never squarefree
        return False
    return len(poly_gcd(coeffs, deriv, p)) == 1


@lru_cache(maxsize=128)
def _binomial_columns(length: int, count: int, width: int) -> tuple[int, ...]:
    """Column i < length is (1 + X)^i, X = 2**width, truncated to its
    lowest ``count`` slots, so slot k holds C(i, k) while that is below X,
    as it is at every width ``taylor_prefix`` picks.  The columns depend
    on no curve.  An entry is ``length`` ints of at most count * width
    bits, length * count * width bits in all, where count <= length and
    width <= bits(p) + length.  At most 128 entries are kept: the
    ``deep`` benchmark's pool uses 89, the largest (length 82, count 10,
    width 55 at p = 10007) 5.6 KB of digits, about 0.3 MB in all.
    """
    mask = (1 << width * count) - 1
    out, col = [], 1
    for _ in range(length):
        out.append(col)
        col = (col + (col << width)) & mask
    return tuple(out)


def taylor_prefix(coeffs, x0: int, prec: int, p: int) -> list[int]:
    """The first prec >= 0 coefficients of f(x0 + t) as a polynomial in t.

    The k-th is the Hasse derivative sum_i c_i C(i, k) x0^(i - k) (J. von
    zur Gathen, J. Gerhard, ISSAC '97), and x0^k times it is
    sum_i C(i, k) w_i with w_i = c_i x0^i mod p.  So with count =
    min(prec, len f) slots of the binomial columns ``_binomial_columns``
    packed ``width`` bits apart (D. Harvey, J. Symbolic Comput. 44
    (2009)), sum_i w_i col_i is one C-level dot product whose slot k is
    that multiple; slot k is then scaled by x0^(-k).  Slot k is at most
    (p - 1) sum_(i < len f) C(i, k) = (p - 1) C(len f, k + 1), and
    C(len f, j) for j <= count peaks at j = min(count, len f // 2); the
    width is the bit length of that bound, so no slot carries into the
    next and no reduction is needed before the slots are read.  At
    x0 = 0 the shift is f's own prefix.  Coefficients past len f are 0.
    """
    x0 %= p
    length = len(coeffs)
    count = min(prec, length)
    pad = [0] * (prec - count)
    if not (x0 and count):
        return [c % p for c in coeffs[:count]] + pad
    width = ((p - 1) * comb(length, min(count, length // 2))).bit_length()
    weights, power = [], 1
    for c in coeffs:
        weights.append(c * power % p)
        power = power * x0 % p
    packed = sum(map(mul, _binomial_columns(length, count, width), weights))
    slot, inv = (1 << width) - 1, pow(x0, -1, p)
    out, scale = [], 1
    for k in range(count):
        out.append((packed >> width * k & slot) * scale % p)
        scale = scale * inv % p
    return out + pad


def sqrt_series(poly, y0: int, prec: int, p: int) -> list[int]:
    """Series y(t) with y(t)^2 = poly(t) and y(0) = y0, nonzero, to
    prec >= 0 terms.

    Coefficient recurrence from comparing t^k on both sides: 2 y0 y_k is
    poly_k less one symmetric dot product of the terms found so far.
    """
    y0 %= p
    if y0 == 0:
        raise ValueError("square-root expansion needs a nonzero constant term")
    out = [y0] + [0] * (prec - 1) if prec else []
    inv = pow(2 * y0, -1, p)  # p is odd and y0 nonzero
    for k in range(1, prec):
        # sum y_i y_(k-i), 0 < i < k: each pair twice, the middle once.
        h = (k - 1) // 2
        conv = 2 * sum(map(mul, out[1:h + 1], out[k - 1:k - h - 1:-1]))
        if k % 2 == 0:
            conv += out[k // 2] ** 2
        target = poly[k] if k < len(poly) else 0
        out[k] = (target - conv) * inv % p
    return out


def split_point_series(curve_poly, x0: int, y0: int, prec: int, p: int) -> tuple[list[int], list[int]]:
    """(x(t), y(t)) at a point with y0 != 0, local parameter t = x - x0,
    to prec >= 0 terms."""
    x_series = [x0 % p, 1][:prec] + [0] * (prec - 2)
    y_series = sqrt_series(taylor_prefix(curve_poly, x0, prec, p), y0, prec, p)
    return x_series, y_series

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
which ``taylor_prefix`` takes from one Horner pass in 1 + s, t = x0 s,
over f's coefficients times powers of x0, on an accumulator packed
min(prec, len f) slots wide.  Every value slot k takes is at most
(p - 1) C(len f, k + 1), and the width is the bit length of the largest
such bound, so no slot needs a reduction before it is read, and the
shift builds no table and keeps nothing.  That is len f interpreted
steps, each a shift, an add and a mask of one int of min(prec, len f)
slots, and prec more to read the slots, where prec synthetic divisions
by (x - x0) take O(prec * deg f) interpreted steps.  The square root
then takes prec C-level dot products of at most prec / 2 terms each,
O(prec^2) multiplications but no interpreted inner loop.

Two long passes of scalar-times-vector updates mod p run on ``Slots``
instead: Euclid's loop ``packed_euclid`` and the oracle's Newton
interpolant.  A ``Slots`` int holds residues W bits apart, W set by a
stated bound ``top`` on the largest value a slot may reach between
reductions, so a whole vector is scaled, shifted or added in one
C-level big-int operation, and one slot-wise Barrett reduction (five
more) brings every slot back into [0, 3p) without a borrow between
slots.  Each caller states its bound and why it holds.
``packed_euclid`` is the one remainder-sequence loop, in one basis,
powers of a variable y, with one bound: curve validation's squarefree
test ``poly_gcd`` runs it to the gcd in the monomial basis, y = x, the
oracle's half sequence (``hyperelliptic._basis_pole_orders``) to a
degree-sum bound with y = x - z, its Newton coordinates rewritten in
that basis once, and the doubling route's inverse of v mod u,
``poly_xgcd``, to the gcd on operands that carry b's cofactor in the
slots below the remainder.  Its steps are fraction-free: they scale by
the divisor's lead instead of inverting it, which changes each
remainder by a nonzero constant only.  The square root is already
C-level dot products, and the list helpers ``divmod_residues``,
``poly_mul`` and ``poly_axpy`` serve the doubling route's point
additions, Cantor doublings and reductions.  At every genus a lone
point's doubling takes no gcd: it is the tangent U = (x - x0)^2,
V = y0 + f'(x0) / (2 y0) (x - x0), exact as V^2 = f mod U, reduced as
it is at g >= 2 and by one Cantor step at genus 1.  So a genus-1 ladder
never calls ``poly_xgcd``, and the ladders of the benchmark's genus-2
``sweep`` queries call it only where a straight-line doubling
degenerates.  Each Cantor doubling (``hyperelliptic._cantor_double``)
calls it once.
"""

from __future__ import annotations

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
def euclid_slots(p: int, count: int) -> Slots:
    """The layout of ``packed_euclid`` over F_p for ``count`` coefficients:
    its ``top`` is 3 (p - 1)(3p - 1).  A layout recurs call after call,
    one per prime and operand length, so each is built once and shared.
    At most 128 are kept, each holding a ``low`` mask of count * width
    bits; at p = 2**31 - 1 the width is 101 bits, so at count 82 (genus
    40's f) a layout holds about 1 KB."""
    return Slots(p, 3 * (p - 1) * (3 * p - 1), count)


def packed_euclid(slots: Slots, big_a: int, big_b: int, stop: int = 0) -> tuple[int, int]:
    """Euclid's remainder sequence r_0 = A, r_1 = B, r_(i+1) = r_(i-1)
    mod r_i over F_p, fraction-free, so each r_i is found up to a nonzero
    scalar.  A and B are packed in ``slots``, the layout
    ``euclid_slots(p, count)`` for some count >= len A, len B, each slot
    in [0, 3p) (``Slots.pack`` gives residues), the coefficient of y^k in
    slot k, where y is x or any x - z: a step reads no node.  The loop
    stops at the first r_i that is zero or has len r_i + len r_(i-1) <=
    ``stop`` (0 runs it to the gcd) and returns r_(i-1), packed, and its
    length.

    A step is a pseudo-division step (D. Knuth, TAOCP vol. 2, 4.6.1).
    Let b1, b2 be the top two coefficients of B = r_i, db = deg B, and
    a1, a2 those of A, a1 in slot top.  A two-coefficient step is
    A <- b1^2 A - (q1 y + q0) E with E = y^j B, j = top - db - 1, which
    is B shifted up j slots, q1 = a1 b1 and q0 = a2 b1 - a1 b2: that
    clears A's top two coefficients without inverting b1.  With one
    coefficient above deg B left, A <- b1 A - a1 B clears it, and a zero
    lead is passed over, so a remainder may drop any number of degrees.
    Every remainder is then a nonzero constant times the usual one, since
    each step scales A by b1 or b1^2, not 0, and subtracts a multiple of
    B: a nonzero constant changes no gcd up to a unit and no degree, so
    the stop test and the degrees read off are those of the monic
    sequence.  A step is a scaling of A and one multiply of E by the
    two-slot scalar c1 << W | c0 (c1 = -q1, c0 = -q0 mod p), then one
    ``Slots.reduce``.

    Slot bounds.  After every reduction a slot of A or B lies in [0, 3p),
    and so does a slot of E, a slot of B; every scalar is a residue, at
    most p - 1.  A slot after a two-coefficient step is b1^2 times its
    slot of A plus c1 times the slot of E below it plus c0 times its own:
    three products of a residue and a slot, at most 3 (p - 1)(3p - 1),
    the layout's ``top``.  A one-coefficient step is two such products.
    """
    p, width, mu, shift, low = slots.p, slots.width, slots.mu, slots.shift, slots.low
    slot = (1 << width) - 1
    la, lb = -(-big_a.bit_length() // width), -(-big_b.bit_length() // width)
    a1 = (big_a >> width * (la - 1)) % p if la else 0
    a2 = big_a >> width * (la - 2) & slot if la > 1 else 0
    b1 = (big_b >> width * (lb - 1)) % p if lb else 0
    second = big_b >> width * (lb - 2) & slot if lb > 1 else 0
    while lb and la + lb > stop:
        # second is B's slot below its lead.
        db = lb - 1
        top = la - 1
        while top >= db:
            if not a1:
                top -= 1
            elif top == db:  # b1 A - a1 B
                big_a = b1 * big_a + (p - a1) * big_b
                big_a -= (big_a * mu >> shift & low) * p  # Slots.reduce
                top -= 1
            else:  # b1^2 A - (q1 y + q0) y^(top - db - 1) B
                e = big_b << width * (top - db - 1)
                c1 = p - a1 * b1 % p
                big_a = b1 * b1 % p * big_a + e * (c1 << width | (a1 * second - a2 * b1) % p)
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
    slots = euclid_slots(p, max(len(a), len(b)))
    a = slots.unpack(*packed_euclid(slots, slots.pack(a), slots.pack(b)))
    return poly_scale(a, pow(a[-1], -1, p), p) if a else a


def poly_xgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(d, t): d = s a + t b is the monic gcd of the trimmed lists of
    residues a and b, a nonzero, for some s; so t is 1 / b mod a when
    d = 1.  One ``packed_euclid`` run on augmented operands carries t
    (J. von zur Gathen, J. Gerhard, *Modern Computer Algebra*, 3.2):
    with n = len a, A = a y^n and B = b y^n + 1 hold a remainder r_i in
    slots n and up and its cofactor t_i, r_i = t_i b mod a, below slot
    n, 0 for A and 1 for B.  A step is one polynomial operation,
    A <- c A - q B, on the packed whole, so it scales r_i and t_i by the
    same nonzero constant c.  The cofactor of r_(i+1) has degree at most
    deg a - deg r_i < n, so neither it nor q t_i reaches slot n: the
    slots a step clears hold the remainders alone, and q is the quotient
    of the gcd run.  While both remainders are nonzero each packed length
    is above n, the two at least 2n + 2; at the first zero remainder the
    cofactor is a nonzero multiple of a / d, of length n - len d + 1, so
    the lengths sum to 2n + 1 exactly there, the stop value.  a must be
    nonzero: with n = 0, B's 1 would land on b's constant term."""
    n = len(a)
    slots = euclid_slots(p, n + max(n, len(b)))
    shift = slots.width * n
    big_a, big_b = slots.pack(a) << shift, slots.pack(b) << shift | 1
    out = slots.unpack(*packed_euclid(slots, big_a, big_b, 2 * n + 1))
    inv = pow(out[-1], -1, p)
    return poly_scale(out[n:], inv, p), poly_scale(poly_trim(out[:n]), inv, p)


def poly_is_squarefree(coeffs, p: int) -> bool:
    deriv = poly_derivative(coeffs, p)
    if not deriv:
        # derivative vanishes identically: a p-th power, never squarefree
        return False
    return len(poly_gcd(coeffs, deriv, p)) == 1


def taylor_prefix(coeffs, x0: int, prec: int, p: int) -> list[int]:
    """The first prec >= 0 coefficients of f(x0 + t) as a polynomial in t.

    The k-th is the Hasse derivative sum_i c_i C(i, k) x0^(i - k) (J. von
    zur Gathen, J. Gerhard, ISSAC '97), and x0^k times it is the
    coefficient of s^k in f(x0 (1 + s)) = sum_i w_i (1 + s)^i, with
    w_i = c_i x0^i mod p.  That sum is one Horner pass in 1 + s from the
    top coefficient down, acc <- acc (1 + s) + w_i, on count =
    min(prec, len f) slots packed ``width`` bits apart (D. Harvey,
    J. Symbolic Comput. 44 (2009)): a multiply by 1 + s is one shift and
    add, truncated to the lowest count slots, and w_i's power of x0 steps
    down by x0^(-1).  Slot k is then scaled by x0^(-k).  After the step
    for c_i, slot k holds sum_(j >= i) C(j - i, k) w_j, a partial sum of
    the final slot's nonnegative terms, so every value it takes is at
    most (p - 1) sum_(j < len f) C(j, k) = (p - 1) C(len f, k + 1), and
    C(len f, j) for j <= count peaks at j = min(count, len f // 2); the
    width is the bit length of that bound, so no slot carries into the
    next and no reduction is needed before the slots are read.  Nothing
    is kept once the shift returns.  At x0 = 0 the shift is f's own
    prefix.  Coefficients past len f are 0.
    """
    x0 %= p
    length = len(coeffs)
    count = min(prec, length)
    pad = [0] * (prec - count)
    if not (x0 and count):
        return [c % p for c in coeffs[:count]] + pad
    width = ((p - 1) * comb(length, min(count, length // 2))).bit_length()
    mask, inv = (1 << width * count) - 1, pow(x0, -1, p)
    acc, power = 0, pow(x0, length - 1, p)
    for c in reversed(coeffs):
        acc = (acc + (acc << width) & mask) + c * power % p
        power = power * inv % p
    slot = (1 << width) - 1
    out, scale = [], 1
    for k in range(count):
        out.append((acc >> width * k & slot) * scale % p)
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

"""The condition-matrix route to Riemann-Roch dimensions, kept as a test
reference for the oracle in ``pushfwd.hyperelliptic``.

It states every vanishing condition of a divisor as a coefficient of a
truncated local power series of a basis monomial, at the point itself:
y(t) with t = x - x0 at a split point, and the even series x(t) with
t = y at a ramification point.  Its columns are every basis monomial of
L(cap * infinity) in pole order, x-monomials included, and one
elimination's pivot columns give the rank of every column prefix.  The
oracle instead eliminates only a y-block in Newton coordinates; both
must give the same dimensions.

``reference_h0_sequence`` reads a whole h0 window from one such
elimination, and ``reference_basis_pole_orders`` is the oracle's
remainder sequence on every Newton coordinate, or with a given number of
the lowest dropped before the first step.  ``reference_newton_interpolant``
is the oracle's interpolant on lists of residues, and
``reference_taylor_prefix`` its Taylor shift by synthetic division.
``reference_compose`` is Cantor's general composition of two Mumford
pairs, which the oracle's ladder replaces by adding one point at a time,
and ``addition_case`` names the case of that addition; its inverses come
from ``reference_xgcd``, Euclid's loop with a cofactor on lists, which
the oracle's ``poly_xgcd`` replaces by one packed run.
``reference_reduce`` is Cantor's reduction step by step, which the
oracle runs in continued-fraction form.

The package itself needs neither the elimination nor the ramification
series, so they live here: ``pivot_columns_mod_p``, a numpy column
reduction over F_p, and ``weierstrass_point_series`` with the truncated
series products and inversion it is built from.
"""

from bisect import bisect_left, bisect_right

import numpy as np

from pushfwd.expansions import (
    divmod_residues,
    poly_axpy,
    poly_eval,
    poly_mul,
    poly_trim,
    split_point_series,
    taylor_prefix,
)
from pushfwd.hyperelliptic import MAX_PRIME
from pushfwd.splitting import h0_sequence_from_callable


# ------------------------------------------------------------ elimination
#
# ``pivot_columns_mod_p`` reports each pivot column with its lead, the
# first row where the reduced column is nonzero.  Rows are never moved, so
# the pivots give the rank of every block ``mat[:s, :t]`` at once (the
# rank profile matrix of J.-G. Dumas, C. Pernet, Z. Sultan, *Computing the
# rank profile matrix*, ISSAC 2015).  It defers reduction: each step
# reduces mod p only the pivot column (to find the lead) and the factors,
# and takes factor * column off the later columns unreduced.  Entries
# there grow by at most (p - 1)^2 per step from at most p - 1, and the
# block is reduced only when the tracked bound would pass 2**62, so int64
# never overflows: at p = 10007 that never happens, near 2**31 it happens
# at every step.  p must be prime and below 2**31 so products of residues
# stay inside int64.

def pivot_columns_mod_p(mat: np.ndarray, p: int) -> list[tuple[int, int]]:
    """Pivots of ``mat`` over F_p as (column, lead) pairs, in column order.

    Column c is a pivot exactly when it is independent of the columns
    before it.  Each later column is reduced against it to vanish at its
    lead, the first row where column c, itself so reduced, is nonzero.
    No row is moved, so the leads are distinct and, for every s and t,

        rank(mat[:s, :t]) = #{(c, r) in pivots : c < t and r < s}.

    ``mat`` is left as it is.  Reduction of the later columns is deferred
    (see above).
    """
    nrows, ncols = mat.shape
    if nrows == 0:
        return []
    # One row of ``a`` per column of ``mat``: the columns are what each
    # step updates.
    a = np.remainder(np.asarray(mat, dtype=np.int64).T, p, order="C")
    step = (p - 1) ** 2
    bound = p - 1  # largest |entry| left in the columns after the last pivot
    pivots: list[tuple[int, int]] = []
    for c in range(ncols):
        col = a[c] % p
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        lead = int(nz[0])
        pivots.append((c, lead))
        if len(pivots) == nrows or c + 1 == ncols:
            break  # no later column can be a pivot
        factors = a[c + 1 :, lead] % p * pow(int(col[lead]), p - 2, p) % p
        if bound + step > 2**62:
            a[c + 1 :] %= p
            bound = p - 1
        a[c + 1 :] -= factors[:, None] * col
        bound += step
    return pivots


def kernel_dim_mod_p(mat: np.ndarray, p: int) -> int:
    """Dimension of the nullspace of ``mat`` over F_p."""
    if not 2 < p < MAX_PRIME:
        raise ValueError(f"modulus must be an odd prime below 2**31, got {p}")
    return mat.shape[1] - len(pivot_columns_mod_p(mat, p))


# ----------------------------------------------------------------- series

def series_mul(a, b, prec: int, p: int) -> list[int]:
    out = [0] * prec
    for i in range(min(prec, len(a))):
        ai = a[i]
        if ai:
            for j in range(min(prec - i, len(b))):
                out[i + j] = (out[i + j] + ai * b[j]) % p
    return out


def poly_compose_series(coeffs, inner, prec: int, p: int) -> list[int]:
    """f(inner(t)) truncated to prec terms; Horner over series."""
    out = [0] * prec
    for c in reversed(coeffs):
        out = series_mul(out, inner, prec, p)
        out[0] = (out[0] + c) % p
    return out


def series_inverse_of_poly(poly, prec: int, p: int) -> list[int]:
    """u(s) with poly(u(s)) = s mod s^prec, given poly(0) = 0 and poly'(0) != 0.

    Fixed-point refinement gains one correct order per pass, so prec passes
    suffice starting from zero: about (prec / 2)^4 multiplications at a
    ramification point.
    """
    if poly_eval(poly, 0, p) != 0:
        raise ValueError("inversion needs a zero constant term")
    lin = poly[1] % p if len(poly) > 1 else 0
    if lin == 0:
        raise ValueError("inversion needs an invertible linear term")
    inv_lin = pow(lin, p - 2, p)
    u = [0] * prec
    for _ in range(prec):
        composed = poly_compose_series(poly, u, prec, p)
        for i in range(prec):
            target = 1 if i == 1 else 0
            u[i] = (u[i] + (target - composed[i]) * inv_lin) % p
    return u


def weierstrass_point_series(curve_poly, x0: int, prec: int, p: int) -> tuple[list[int], list[int]]:
    """(x(t), y(t)) at a ramification point (y0 = 0), local parameter t = y.

    x - x0 = u(t^2) where u inverts the shifted curve polynomial, so the
    x-series is even in t.  At prec 0 both series are empty.
    """
    if not prec:
        return [], []
    s_terms = (prec - 1) // 2 + 1
    # Terms of degree >= s_terms vanish mod s^s_terms once composed with
    # u(s) = O(s); the inversion reads the linear term, so keep two.
    shifted = taylor_prefix(curve_poly, x0, max(2, s_terms), p)
    u = series_inverse_of_poly(shifted, s_terms, p)
    x_series = [0] * prec
    x_series[0] = x0 % p
    for k in range(1, s_terms):
        if 2 * k < prec:
            x_series[2 * k] = u[k]
    y_series = [0] * prec
    if prec > 1:
        y_series[1] = 1
    return x_series, y_series


# ------------------------------------------------------- condition matrix


def condition_matrix(series, basis, p):
    """The vanishing conditions of every site, one row per condition.

    ``series`` holds one (x(t), y(t)) pair per site, truncated to the
    number of coefficients that must vanish there.  Row o + k is the t^k
    coefficient at the site whose rows start at o; column c is the basis
    monomial basis[c] = x^i y^j.

    The sites are stacked into vectors of length R = total rows, so each
    column costs a few passes over R whatever the number of sites:
    x^(i+1) is x0 * x^i plus, for each nonzero term c_k t^k of x(t), c_k
    times x^i shifted down by k inside its own site.  x^(i+1) y comes
    from x^i y the same way.
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


def reference_rr_space_dims(divisor, count):
    """[dim L(D - k*infinity) for k in range(count)] by the condition matrix."""
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

    pivots = [c for c, _ in pivot_columns_mod_p(condition_matrix(series, basis, p), p)]
    dims = []
    for k in range(count):
        cols = bisect_right(poles, cap - k)
        dims.append(cols - bisect_left(pivots, cols))
    return dims


def reference_h0_sequence(divisor, cover):
    """The h0 window l -> dim L(D - n*l*infinity) of the direct image:
    Riemann-Roch outside degrees [0, 2g - 2], and one
    ``reference_rr_space_dims`` list at the smallest l that reaches the
    rest."""
    n, d, g = cover.degree, divisor.degree, divisor.curve.genus
    base = -((2 * g - 2 - d) // n)  # smallest l with deg <= 2g - 2
    top = d - n * base
    dims = reference_rr_space_dims(divisor.shift_infinity(-n * base), top + 1) if top >= 0 else []

    def h0_at(l):
        deg = d - n * l
        if deg < 0:
            return 0
        if deg > 2 * g - 2:
            return deg + 1 - g
        return dims[n * (l - base)]

    return h0_sequence_from_callable(h0_at, n, start=(d - g) // n)


def reference_basis_pole_orders(nodes, v, genus, p, drop=0, quotients=None):
    """The pole orders of ``hyperelliptic._basis_pole_orders`` from the
    extended Euclid remainders of r_0 = N_n and r_1 = V = sum v_i N_i, run
    on their Newton coordinates, less the lowest ``drop`` of them; the
    degree test is offset by twice that number.  With nothing dropped
    this is the whole sequence: it stops at the
    first r_i that is zero or has deg r_i + deg r_(i-1) <= n + g, and
    m = deg r_(i-1) gives the orders 2m and 2 (n - m) + 2g + 1.  Each
    step appends its quotient degree to ``quotients`` when given.
    """
    n, low = len(nodes), drop
    prev, cur, nodes = ([0] * n + [1])[low:], poly_trim(v)[low:], nodes[low:]
    while cur and len(prev) + len(cur) - 2 + 2 * low > n + genus:
        if quotients is not None:
            quotients.append(len(prev) - len(cur))
        db = len(cur) - 1
        inv = pow(cur[-1], p - 2, p)
        if len(prev) == len(cur) + 1:
            shifted = [0] + cur
            c1 = prev[-1] * inv % p
            c0 = (prev[db] - c1 * (shifted[db] + nodes[db] * cur[db])) * inv % p
            rem = [(a - c1 * (s + z * b) - c0 * b) % p
                   for a, s, z, b in zip(prev, shifted, nodes, cur)]
        else:
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


def reference_newton_interpolant(sites, p):
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

    This is ``hyperelliptic._newton_interpolant`` on lists of residues,
    one list comprehension per node, where the oracle keeps each later
    site's expansions as packed ``Slots`` ints.
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


def reference_taylor_prefix(coeffs, x0: int, prec: int, p: int) -> list[int]:
    """The first prec coefficients of f(x0 + t) as a polynomial in t.

    The k-th is the remainder of the k-th synthetic division by (x - x0),
    so prec passes of Horner's rule suffice and no k! is divided out.

    This is ``expansions.taylor_prefix`` by O(prec * deg f) list steps,
    where the oracle takes one Horner pass in 1 + s, t = x0 s, on a
    packed accumulator.
    """
    high = [c % p for c in reversed(coeffs)]  # highest degree first
    out = []
    for _ in range(prec):
        acc, quo = 0, []
        for c in high:
            acc = (acc * x0 + c) % p
            quo.append(acc)
        out.append(quo.pop() if quo else 0)
        high = quo
    return out


def reference_xgcd(a, b, p, drops=None):
    """(d, t): d = s a + t b is the monic gcd of the trimmed lists of
    residues a and b, a nonzero, for some s, by Euclid's loop with the
    cofactor of b on lists, one ``divmod_residues`` per step; the oracle's
    ``expansions.poly_xgcd`` runs the packed loop instead.  Each nonzero
    remainder that falls two or more degrees below its divisor adds 1 to
    ``drops`` when given."""
    t0, t1 = [], [1]
    while b:
        q, r = divmod_residues(a, b, p)
        if drops is not None and r and len(r) < len(b) - 1:
            drops[p] += 1
        a, b, t0, t1 = b, r, t1, poly_axpy(t0, poly_mul(q, t1, p), -1, p)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a], [c * inv % p for c in t0]


def reference_compose(u1, v1, u2, v2, f, p):
    """A Mumford pair of div(u1, v1) + div(u2, v2) less its pairs
    P + iota(P), whose removal leaves the class of E - deg(E) * infinity
    as it is (D. G. Cantor, Math. Comp. 48 (1987)).  With
    d = gcd(u1, u2, v1 + v2) = s1 u1 + s2 u2 + s3 (v1 + v2) it is
    u = u1 u2 / d^2 and v = v1 + (s1 u1 (v2 - v1) + s3 (f - v1^2)) / d
    mod u; when u1 and u2 are coprime, d = 1, s3 = 0 and this is the CRT.

    The oracle's ladder adds one point at a time by
    ``hyperelliptic._add_point`` instead; the tests compare the two."""
    d, s1 = reference_xgcd(u2, u1, p)
    s3: list[int] = []
    if len(d) > 1:  # the supports meet
        d1, total = d, poly_axpy(v1, v2, 1, p)
        d, s3 = reference_xgcd(d1, total, p)
        s1 = poly_mul(divmod_residues(poly_axpy(d, poly_mul(s3, total, p), -1, p), d1, p)[0], s1, p)
    w = poly_axpy(poly_mul(poly_mul(s1, u1, p), poly_axpy(v2, v1, -1, p), p),
                  poly_mul(s3, poly_axpy(f, poly_mul(v1, v1, p), -1, p), p), 1, p)
    u = poly_mul(u1, u2, p)
    if len(d) > 1:
        u = divmod_residues(u, poly_mul(d, d, p), p)[0]
        w = divmod_residues(w, d, p)[0]
    return u, divmod_residues(poly_axpy(v1, w, 1, p), u, p)[1]


def reference_reduce(u, v, f, genus, p):
    """The reduced Mumford pair of div(u, v) - deg(u) * infinity, u monic,
    by Cantor's reduction as he states it: while deg u > g, u' =
    (f - v^2) / u and v' = -v mod u'; the last u is made monic.  The
    oracle's ``hyperelliptic._reduce`` runs it in continued-fraction form,
    squaring v only in the first step."""
    while len(u) - 1 > genus:
        u = divmod_residues(poly_axpy(f, poly_mul(v, v, p), -1, p), u, p)[0]
        v = divmod_residues(poly_axpy([], v, -1, p), u, p)[1]
    inv = pow(u[-1], -1, p)
    return [c * inv % p for c in u], v


def addition_case(u, v, x0, y0, p):
    """Which case of ``hyperelliptic._add_point`` adds (x0, y0) to the
    reduced pair (u, v): "crt", "hensel", "cancel", or "cancel at y0 = 0"
    at a ramification point."""
    if poly_eval(u, x0, p):
        return "crt"
    if (poly_eval(v, x0, p) + y0) % p:
        return "hensel"
    return "cancel at y0 = 0" if y0 == 0 else "cancel"

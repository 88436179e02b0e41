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
the lowest dropped before each step.
"""

from bisect import bisect_left, bisect_right

import numpy as np

from pushfwd.expansions import poly_trim, split_point_series, weierstrass_point_series
from pushfwd.linalg import pivot_columns_mod_p
from pushfwd.splitting import h0_sequence_from_callable


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


def reference_basis_pole_orders(nodes, v, genus, p, dropped=lambda deg: 0, quotients=None):
    """The pole orders of ``hyperelliptic._basis_pole_orders`` from the
    extended Euclid remainders of r_0 = N_n and r_1 = V = sum v_i N_i, run
    on their Newton coordinates.  Before each step it drops the lowest
    coordinates up to ``dropped(deg r_(i-1))``, which must not fall as the
    degree does, and offsets the degree test by twice the number dropped.
    With nothing dropped this is the whole sequence: it stops at the
    first r_i that is zero or has deg r_i + deg r_(i-1) <= n + g, and
    m = deg r_(i-1) gives the orders 2m and 2 (n - m) + 2g + 1.  Each
    step appends its quotient degree to ``quotients`` when given.
    """
    n, low = len(nodes), 0
    prev, cur = [0] * n + [1], poly_trim(v)
    while cur and len(prev) + len(cur) - 2 + 2 * low > n + genus:
        drop = dropped(len(prev) - 1 + low) - low
        prev, cur, nodes, low = prev[drop:], cur[drop:], nodes[drop:], low + drop
        if not cur:
            break
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

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
"""

from bisect import bisect_left, bisect_right

import numpy as np

from pushfwd.expansions import split_point_series, weierstrass_point_series
from pushfwd.linalg import pivot_columns_mod_p


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

"""Polynomials over F_p and the local series at a split point.

Polynomials and series are plain lists of residues, index = degree.
Series are truncated to a fixed length; all arithmetic is exact mod p.
At a point of y^2 = f(x) with two preimages over its x-value, the local
parameter is t = x - x0 and y expands as the square root of f(x0 + t)
with the chosen sign of y0.  That is the only expansion the
Riemann-Roch oracle uses, with prec = |m(P) - m(iota P)| at a split
x-value (an absent point has multiplicity 0); it needs no series at a
ramification point.

The expansion reads only the first prec coefficients of f(x0 + t), which
``taylor_prefix`` computes by prec synthetic divisions by (x - x0) in
O(prec * deg f).  The square root then takes prec C-level dot products
(``sum(map(mul, ...))``) of at most prec / 2 terms each, O(prec^2)
multiplications but no interpreted inner loop.
"""

from __future__ import annotations

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


def _residues(coeffs, p: int) -> list[int]:
    return poly_trim([c % p for c in coeffs])


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


def poly_gcd(a, b, p: int) -> list[int]:
    """Monic gcd over F_p.  The inputs are reduced once; every remainder
    of the Euclid loop is already a trimmed list of residues.

    A remainder one degree below its divisor, the usual case, is
    a - (q1 x + q0) b with both quotient terms read off the leads, in one
    pass; a larger degree drop goes through ``divmod_residues``.
    """
    a, b = _residues(a, p), _residues(b, p)
    while b:
        if len(a) == len(b) + 1:
            inv = pow(b[-1], -1, p)  # a trimmed lead
            shifted = [0] + b
            q1 = a[-1] * inv % p
            q0 = (a[-2] - q1 * shifted[-2]) * inv % p
            r = [(x - q1 * y - q0 * z) % p for x, y, z in zip(a, shifted, b)]
            while r and not r[-1]:
                r.pop()
        else:
            _, r = divmod_residues(a, b, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def poly_xgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(d, t): d = s a + t b is the monic gcd of the trimmed lists of
    residues a and b, not both 0, for some s; so t is 1 / b mod a when
    d = 1.  ``poly_gcd``'s loop with the cofactor of b, kept apart from
    it: curve validation runs ``poly_gcd`` on every new curve, and
    tracking a cofactor there tripled its time."""
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


def taylor_prefix(coeffs, x0: int, prec: int, p: int) -> list[int]:
    """The first prec coefficients of f(x0 + t) as a polynomial in t.

    The k-th is the remainder of the k-th synthetic division by (x - x0),
    so prec passes of Horner's rule suffice and no k! is divided out.
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


def sqrt_series(poly, y0: int, prec: int, p: int) -> list[int]:
    """Series y(t) with y(t)^2 = poly(t) and y(0) = y0, nonzero.

    Coefficient recurrence from comparing t^k on both sides: 2 y0 y_k is
    poly_k less one symmetric dot product of the terms found so far.
    """
    y0 %= p
    if y0 == 0:
        raise ValueError("square-root expansion needs a nonzero constant term")
    out = [y0] + [0] * (prec - 1)
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
    """(x(t), y(t)) at a point with y0 != 0, local parameter t = x - x0."""
    x_series = [0] * prec
    x_series[0] = x0 % p
    if prec > 1:
        x_series[1] = 1
    y_series = sqrt_series(taylor_prefix(curve_poly, x0, prec, p), y0, prec, p)
    return x_series, y_series

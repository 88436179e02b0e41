"""Polynomial helpers and local power-series expansions."""

import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pushfwd.expansions import (
    Slots,
    divmod_residues,
    euclid_slots,
    poly_derivative,
    poly_eval,
    poly_gcd,
    poly_is_squarefree,
    poly_trim,
    poly_xgcd,
    split_point_series,
    sqrt_series,
    taylor_prefix,
)
from reference_oracle import (
    condition_matrix,
    poly_compose_series,
    reference_taylor_prefix,
    reference_xgcd,
    series_inverse_of_poly,
    series_mul,
    weierstrass_point_series,
)


PRIMES = (3, 5, 7, 13, 10007, 2**31 - 1)


def test_poly_eval_and_taylor_prefix():
    p = 11
    f = [3, 0, 1, 2]  # 2x^3 + x^2 + 3
    for x0 in range(p):
        shifted = taylor_prefix(f, x0, len(f), p)
        for t in range(p):
            assert poly_eval(shifted, t, p) == poly_eval(f, (x0 + t) % p, p)
        # shorter prefixes are truncations, longer ones pad with zeros
        for prec in range(1, 7):
            assert taylor_prefix(f, x0, prec, p) == (shifted + [0, 0, 0])[:prec]
    assert taylor_prefix([], 3, 2, p) == [0, 0]


@pytest.mark.parametrize("p", PRIMES)
def test_taylor_prefix_matches_the_synthetic_divisions_at_every_length(p):
    # f of every length from 0 to 170 (genus up to 84), at x0 = 0, where
    # the shift is f's own prefix, 1, p - 1 and a random x0, and at the
    # precisions 0, 1, 2, a random one, len f and len f + 3.
    rng = random.Random(p)
    for length in range(171):
        f = [rng.randrange(p) for _ in range(length)]
        for x0 in (0, 1, p - 1, rng.randrange(p)):
            for prec in {0, 1, 2, rng.randint(0, length + 3), length, length + 3}:
                assert taylor_prefix(f, x0, prec, p) == \
                    reference_taylor_prefix(f, x0, prec, p), (length, x0, prec)


@st.composite
def taylor_inputs(draw):
    # Coefficients p - 1, the largest residue, or random; x0 = 0, 1,
    # p - 1 or random.
    p = draw(st.sampled_from(PRIMES))
    term = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    f = draw(st.lists(term, max_size=170))
    x0 = draw(st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1)))
    return f, x0, draw(st.integers(0, len(f) + 3)), p


@given(taylor_inputs())
@settings(max_examples=300, deadline=None)
def test_taylor_prefix_matches_the_synthetic_divisions(case):
    f, x0, prec, p = case
    assert taylor_prefix(f, x0, prec, p) == reference_taylor_prefix(f, x0, prec, p)


@pytest.mark.parametrize("p", PRIMES)
def test_taylor_prefix_slots_at_their_bound(p):
    # Every coefficient p - 1 at length 170.  At x0 = 1 every weight is
    # p - 1, so slot k reaches its bound (p - 1) C(170, k + 1), and at
    # prec >= 85 the largest slot is the stated bound itself.  The bound
    # covers every intermediate Horner value too: each is a partial sum
    # of the final slot's nonnegative terms.
    f = [p - 1] * 170
    for x0 in (1, p - 1):
        for prec in (1, 2, 84, 85, 86, 170, 173):
            assert taylor_prefix(f, x0, prec, p) == \
                reference_taylor_prefix(f, x0, prec, p), (x0, prec)


def test_taylor_prefix_keeps_no_memory_at_genus_500():
    # f of length 1002, genus 500, at p = 2^31 - 1, shifted at 8 distinct
    # precs near 1000: nothing a shift allocates outlives it, so a process
    # does not grow with the number of distinct (length, prec) shapes.
    p = 2**31 - 1
    rng = random.Random(500)
    f = [rng.randrange(p) for _ in range(1002)]
    x0 = rng.randrange(1, p)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for prec in range(993, 1001):
            taylor_prefix(f, x0, prec, p)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2**20, held
    assert taylor_prefix(f, x0, 1000, p) == reference_taylor_prefix(f, x0, 1000, p)


def poly_divmod(num, den, p):
    """(quotient, remainder) of num by den over F_p, for coefficients that
    may be any integers: ``divmod_residues`` of the reduced inputs."""
    return divmod_residues(poly_trim([c % p for c in num]), poly_trim([c % p for c in den]), p)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return poly_trim(out)


def test_division_by_the_zero_polynomial_raises():
    with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
        divmod_residues([1, 2, 3], [], 7)


@st.composite
def divisions_mod_p(draw):
    # Coefficients need not be residues, trailing zeros are allowed, and
    # the divisor's leading coefficient may be a nonzero multiple of p.
    p = draw(st.sampled_from((3, 5, 10007)))
    coeff = st.integers(-2 * p, 2 * p)
    num = draw(st.lists(coeff, max_size=12))
    den = draw(st.lists(coeff, min_size=1, max_size=8))
    if not poly_trim([c % p for c in den]):
        den = den + [draw(st.integers(1, p - 1))]
    return num, den, p


@given(divisions_mod_p())
@settings(max_examples=300, deadline=None)
def test_poly_divmod_reconstructs_the_numerator(case):
    num, den, p = case
    num_res, den_res = (poly_trim([c % p for c in poly]) for poly in (num, den))
    quo, rem = poly_divmod(num, den, p)
    assert all(0 <= c < p for c in quo + rem)
    back = _poly_mul(quo, den_res, p)
    back += [0] * (len(rem) - len(back))
    for i, r in enumerate(rem):
        back[i] = (back[i] + r) % p
    assert poly_trim(back) == num_res
    assert len(rem) < len(den_res)
    assert poly_gcd(num, den, p) == poly_gcd(num_res, den_res, p)


def test_gcd_and_squarefree():
    p = 5
    # (x + 1)^2 * (x + 2)
    f = [2, 5, 4, 1]
    g = poly_gcd(f, [1, 1], p)
    assert g == [1, 1]
    # inputs that are not residues: 3 = 0 and 6 = 1 mod 5
    assert poly_gcd([f[0] + 5, f[1] - 10, f[2], f[3]], [6, 6], p) == [1, 1]
    assert poly_divmod([0, 3], [0, 1], 3) == ([], [])
    assert poly_divmod([1, 2, 1], [1, 3], 3) == ([1, 2, 1], [])
    assert not poly_is_squarefree(f, p)
    assert poly_is_squarefree([0, 1, 0, 0, 0, 1], p)  # x^5 + x over F_5
    # x^5 over F_5 has identically-zero derivative
    assert not poly_is_squarefree([0, 0, 0, 0, 0, 1], p)


def reference_gcd(a, b, p, drops=None):
    """Monic gcd by one full ``poly_divmod`` per Euclid step.  Each
    nonzero remainder that falls more than one degree below the one
    before it adds 1 to ``drops`` when given."""
    a, b = poly_trim([c % p for c in a]), poly_trim([c % p for c in b])
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
        if drops is not None and b and len(b) < len(a) - 1:
            drops[p] += 1
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


@st.composite
def gcd_inputs(draw):
    # A common factor makes the gcd nontrivial, and frequent zero
    # coefficients make remainders drop by more than one degree, at every
    # size of prime.  Each product is lifted back into [-2p, 2p].  Lengths
    # run from 0 to 170, past the 82 coefficients of a genus-40 curve.
    p = draw(st.sampled_from(PRIMES))
    coeff = st.one_of(st.just(0), st.integers(-2 * p, 2 * p))
    common = draw(st.lists(coeff, max_size=8))
    lift = st.integers(-1, 1)

    def poly():
        factor = draw(st.lists(coeff, max_size=171 - max(1, len(common))))
        if not common:
            return factor
        return [c + draw(lift) * p for c in _poly_mul(factor, common, p)]

    return poly(), poly(), p


@given(gcd_inputs())
@settings(max_examples=400, deadline=None)
@example(([1, 0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 1], 2**31 - 1))  # degrees 6, 5, 2, 1, 0
def test_poly_gcd_matches_the_divmod_loop(case):
    a, b, p = case
    assert poly_gcd(a, b, p) == reference_gcd(a, b, p)


def test_poly_gcd_matches_the_divmod_loop_at_every_length():
    # a of each length from 0 to 170 against a shorter b and against its
    # derivative, as in the squarefree test of a curve of genus up to 84,
    # both multiples of a random common factor, the primes in turn.  At
    # p = 3, 5 and 7 many remainders drop more than one degree, so the
    # packed loop passes over zero leads there.
    rng = random.Random(19)
    drops = Counter()
    for length in range(171):
        for p in PRIMES[length % 2::2]:
            def poly(size):  # a lead that is not 0
                if not size:
                    return []
                return [rng.randrange(p) for _ in range(size - 1)] + [rng.randrange(1, p)]

            common = poly(rng.randint(1, 5))
            factor = poly(max(0, length - len(common) + 1))
            a = _poly_mul(factor, common, p) if factor else poly(length)
            b = _poly_mul(poly(rng.randint(0, len(factor))), common, p)
            assert len(a) == length
            assert poly_gcd(a, b, p) == reference_gcd(a, b, p, drops), (length, p)
            b = poly_derivative(a, p)
            assert poly_gcd(a, b, p) == reference_gcd(a, b, p, drops), (length, p)
    assert min(drops[p] for p in (3, 5, 7)) >= 500, drops


@pytest.mark.parametrize("p", PRIMES)
def test_poly_xgcd_matches_the_list_loop(p):
    # a of length 1 to 40, monic half the time as a doubling's u is,
    # against b of lower, equal and higher degree and b = [], both
    # multiples of a common factor of degree 0 to 4; every (d, t) is the
    # list loop's and satisfies Bezout, t b = d mod a.  Non-unit gcds
    # occur, at p = 3, 5 and 7 remainders that drop two or more degrees,
    # and coprime cases with b != [] and n = len a >= 2, whose zero
    # remainder's cofactor is a multiple of a and so fills slot n - 1,
    # the highest the packed run lets a cofactor reach.
    rng = random.Random(p)

    def poly(size, monic=False):  # a lead that is not 0
        if not size:
            return []
        return [rng.randrange(p) for _ in range(size - 1)] + [1 if monic else rng.randrange(1, p)]

    drops, kinds = Counter(), Counter()
    for trial in range(1200):
        common = poly(rng.randint(1, 5), monic=True)
        a = _poly_mul(poly(rng.randint(1, 36), monic=trial // 4 % 2), common, p)
        n = len(a)
        # deg b below, equal to and above deg a, and b = []
        size = (rng.randint(0, n - 1), n, rng.randint(n + 1, 2 * n + 2), 0)[trial % 4]
        b = poly(size)
        if size > len(common) and rng.random() < 0.5:
            b = _poly_mul(poly(size - len(common) + 1), common, p)
        d, t = poly_xgcd(a, b, p)
        assert (d, t) == reference_xgcd(a, b, p, drops), (a, b)
        assert poly_divmod(_poly_mul(t, b, p), a, p)[1] == poly_divmod(d, a, p)[1], (a, b)
        kinds["non-unit gcd" if len(d) > 1 else "coprime, n >= 2" if b and n > 1 else "other"] += 1
    assert kinds["non-unit gcd"] >= 300 and kinds["coprime, n >= 2"] >= 200, kinds
    assert p > 7 or drops[p] >= 1000, drops


@pytest.mark.parametrize("p", PRIMES)
def test_slot_reduction_at_the_largest_value_its_bound_admits(p):
    # The layout of packed_euclid, a top a third above it, and the
    # interpolant's layouts at one node and at 300; every slot holds
    # 2**vb - 1, vb the bit length of the bound.
    for top in (3 * (p - 1) * (3 * p - 1), 4 * (p - 1) * (3 * p - 1), 3 * p * p, 3 * p * p * 300):
        count = 40
        slots = Slots(p, top, count)
        full, width = (1 << top.bit_length()) - 1, slots.width
        packed = slots.reduce(sum(full << width * i for i in range(count)))
        raw = [packed >> width * i & ((1 << width) - 1) for i in range(count)]
        assert packed >> width * count == 0
        assert all(0 <= x < 3 * p and x % p == full % p for x in raw), (p, top)
        assert slots.unpack(packed, count) == [full % p] * count
    if p == 2**31 - 1:  # the width euclid_slots' docstring states
        assert euclid_slots(p, 82).width == 101


@pytest.mark.parametrize("p", PRIMES)
def test_euclid_step_at_its_largest_slots(p):
    # Every slot of A and of E at 3p - 1, the most a reduced slot holds,
    # and every scalar at p - 1: a two-coefficient step of packed_euclid,
    # a one-coefficient step, a shift y E and a Horner step of
    # _basis_pole_orders' change to powers of y, (acc << W) + dz acc + c,
    # stay within the layout's top and reduce to their residues.  E's top
    # slot is one below A's, as in the loop, and so is acc's.
    count, full, r = 40, 3 * p - 1, p - 1
    slots = euclid_slots(p, count)
    top = 3 * (p - 1) * (3 * p - 1)
    assert slots.shift + 1 == top.bit_length()
    width = slots.width
    a, e = [full] * count, [full] * (count - 1) + [0]
    big_a, big_e = (sum(x << width * i for i, x in enumerate(v)) for v in (a, e))
    shifted = [0] + e[:-1]
    horner = [r * e[0] + r] + [s + r * y for s, y in zip(shifted[1:], e[1:])]
    assert max(horner) <= p * (3 * p - 1)
    cases = (
        (r * big_a + big_e * (r << width | r),
         [r * x + r * s + r * y for x, s, y in zip(a, shifted, e)]),
        (r * big_a + r * big_e, [r * x + r * y for x, y in zip(a, e)]),
        (big_e << width, shifted),
        ((big_e << width) + r * big_e + r, horner),
    )
    for packed, exact in cases:
        assert max(exact) <= top
        assert packed == sum(x << width * i for i, x in enumerate(exact))
        reduced = slots.reduce(packed)
        raw = [reduced >> width * i & ((1 << width) - 1) for i in range(count)]
        assert reduced >> width * count == 0
        assert all(0 <= x < 3 * p for x in raw), p
        assert slots.unpack(reduced, count) == [x % p for x in exact]


def test_series_mul_truncation():
    p = 7
    a = [1, 2, 3]
    b = [4, 5]
    out = series_mul(a, b, 3, p)
    assert out == [4, (5 + 8) % 7, (10 + 12) % 7]


def test_sqrt_series_squares_back():
    # Every x0 with a nonzero root at the small primes, 25 random ones at
    # the large, for f of degree 3, 5 and 9, and precisions past p, so that
    # each parity of the symmetric convolution and its middle term are
    # read many times.
    rng = random.Random(1)
    for p, degree in itertools.product((3, 5, 7, 10007, 2**31 - 1), (3, 5, 9)):
        f = [rng.randrange(p) for _ in range(degree)] + [1]
        x0s = range(p) if p < 10 else [rng.randrange(p) for _ in range(25)]
        for x0 in x0s:
            y2 = poly_eval(f, x0, p)
            if p % 4 == 3:
                y0 = pow(y2, (p + 1) // 4, p)
            else:
                y0 = next((y for y in range(p) if y * y % p == y2), 0)
            if y0 == 0 or y0 * y0 % p != y2:
                continue
            for prec in (0, 1, 2, 3, 4, 9, 120):
                shifted = taylor_prefix(f, x0, prec, p)
                ys = sqrt_series(shifted, y0, prec, p)
                assert len(ys) == prec and ys[:1] == [y0][:prec]
                assert series_mul(ys, ys, prec, p) == shifted, (p, x0, prec)


def test_sqrt_series_needs_unit():
    with pytest.raises(ValueError):
        sqrt_series([0, 1], 0, 4, 7)


def test_series_inverse_of_poly():
    p = 13
    q = [0, 5, 1, 7]  # 7u^3 + u^2 + 5u
    prec = 8
    u = series_inverse_of_poly(q, prec, p)
    composed = poly_compose_series(q, u, prec, p)
    assert composed == [0, 1] + [0] * (prec - 2)
    with pytest.raises(ValueError):
        series_inverse_of_poly([1, 1], 4, p)
    with pytest.raises(ValueError):
        series_inverse_of_poly([0, 0, 1], 4, p)


def test_split_point_series_satisfies_curve():
    p = 7
    f = [1, 2, 0, 0, 1, 0, 0, 1]
    x0, y0 = 0, 1  # f(0) = 1 = 1^2
    prec = 8
    xs, ys = split_point_series(f, x0, y0, prec, p)
    lhs = series_mul(ys, ys, prec, p)
    rhs = poly_compose_series(f, xs, prec, p)
    assert lhs == rhs


def test_weierstrass_point_series_satisfies_curve():
    p = 7
    f = [1, 2, 0, 0, 1, 0, 0, 1]
    x0 = 3  # f(3) = 0 over F_7
    assert poly_eval(f, x0, p) == 0
    prec = 9
    xs, ys = weierstrass_point_series(f, x0, prec, p)
    # t^2 = f(x(t)) as truncated series
    lhs = series_mul(ys, ys, prec, p)
    rhs = poly_compose_series(f, xs, prec, p)
    assert lhs == rhs
    assert xs[0] == x0 and all(xs[k] == 0 for k in range(1, prec, 2))


# Differential tests against the quadratic path: a full shift of f, dense
# series products for every column of every site.  The linear-cost
# builders, including the condition matrix that tests/reference_oracle.py
# keeps as the oracle's reference, must give the same coefficients, at
# every prime, including precisions above p.

def _reference_shift(coeffs, x0, p):
    """All coefficients of f(x0 + t), by Horner on t + x0."""
    out = [0]
    for c in reversed(coeffs):
        shifted = [0] + out
        for k in range(len(out)):
            shifted[k] = (shifted[k] + out[k] * x0) % p
        shifted[0] = (shifted[0] + c) % p
        out = shifted
    return out


def _reference_split(f, x0, y0, prec, p):
    xs = [x0 % p] + [0] * (prec - 1)
    if prec > 1:
        xs[1] = 1
    return xs, sqrt_series(_reference_shift(f, x0, p), y0, prec, p)


def _reference_weierstrass(f, x0, prec, p):
    s_terms = (prec - 1) // 2 + 1
    u = series_inverse_of_poly(_reference_shift(f, x0, p), s_terms, p)
    xs = [x0 % p] + [0] * (prec - 1)
    for k in range(1, s_terms):
        if 2 * k < prec:
            xs[2 * k] = u[k]
    ys = [0] * prec
    if prec > 1:
        ys[1] = 1
    return xs, ys


def _reference_rows(xs, ys, count, basis, p):
    prec = len(xs)
    xpows = [[1] + [0] * (prec - 1)]
    for _ in range(max(i for i, _ in basis)):
        xpows.append(series_mul(xpows[-1], xs, prec, p))
    cols = [xpows[i] if j == 0 else series_mul(xpows[i], ys, prec, p) for i, j in basis]
    return [[col[order] for col in cols] for order in range(count)]


def _sqrt_mod(v, p):
    return next((y for y in range(1, p) if y * y % p == v), None)


def _curves_with_both_sites(rng, p, genus):
    """Random squarefree monic f of degree 2g + 1 with a root r (a
    ramification point) and split points (x0, y0), x0 distinct: yields
    (f, r, [(x0, y0), ...])."""
    while True:
        r = rng.randrange(p)
        h = [rng.randrange(p) for _ in range(2 * genus)] + [1]
        f = [(-r * h[0]) % p] + [(h[k - 1] - r * h[k]) % p for k in range(1, len(h))] + [1]
        if not poly_is_squarefree(f, p):
            continue
        split = [(x, _sqrt_mod(poly_eval(f, x, p), p)) for x in rng.sample(range(p), min(p, 20))]
        split = [(x, y) for x, y in split if y is not None]
        if split:
            yield f, r, split


@pytest.mark.parametrize("p", [3, 5, 7, 10007])
def test_point_series_match_the_full_shift(p):
    rng = random.Random(p)
    for genus in range(1, 7):
        f, r, split = next(_curves_with_both_sites(rng, p, genus))
        x0, y0 = split[0]
        # At prec 0 every series is empty, as taylor_prefix is.
        assert split_point_series(f, x0, y0, 0, p) == ([], [])
        assert weierstrass_point_series(f, r, 0, p) == ([], [])
        for prec in range(1, 13):
            assert split_point_series(f, x0, y0, prec, p) == _reference_split(f, x0, y0, prec, p)
            assert weierstrass_point_series(f, r, prec, p) == _reference_weierstrass(f, r, prec, p)


@pytest.mark.parametrize("p", [3, 5, 7, 10007])
def test_condition_rows_match_the_dense_products(p):
    # The stacked matrix of several sites is the per-site rows, concatenated.
    rng = random.Random(10 * p + 1)
    seen = set()
    for genus in range(1, 7):
        f, r, split = next(_curves_with_both_sites(rng, p, genus))
        sites = [(x0, y) for x0, y0 in split[:3] for y in (y0, p - y0)]
        for _ in range(12):
            cap = rng.randrange(0, 4 * genus + 12)
            poles = [q for q in range(cap + 1) if q % 2 == 0 or q >= 2 * genus + 1]
            basis = [(q // 2, 0) if q % 2 == 0 else ((q - 2 * genus - 1) // 2, 1) for q in poles]
            chosen = rng.sample(sites, rng.randint(0, len(sites)))
            series = [split_point_series(f, x0, y0, rng.randint(1, 12), p) for x0, y0 in chosen]
            ramified = rng.random() < 0.7
            if ramified:  # a ramification point, anywhere in the stack
                series.insert(rng.randint(0, len(series)),
                              weierstrass_point_series(f, r, rng.randint(1, 12), p))
            expected = [row for xs, ys in series
                        for row in _reference_rows(xs, ys, len(xs), basis, p)]
            mat = condition_matrix(series, basis, p)
            assert mat.shape == (len(expected), len(basis))
            assert mat.tolist() == expected
            seen.add((min(len(chosen), 2), ramified))
    assert seen == {(k, w) for k in (0, 1, 2) for w in (False, True)}

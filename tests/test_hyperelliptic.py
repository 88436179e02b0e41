"""The Riemann-Roch oracle: dimensions, sequences, pushforwards."""

import math
import random
import time

import pytest

import pushfwd.hyperelliptic as hyperelliptic
from pushfwd import (
    CharacteristicTwo,
    ComposedMap,
    CurvePoint,
    DegreeNotMultiple,
    Divisor,
    HyperellipticCurve,
    PointNotOnCurve,
    SingularCurve,
    SplittingType,
    WrongGenus,
    canonical_divisor,
    curve_from_string,
    divisor_from_string,
    divisor_to_string,
    h0,
    h0_sequence,
    h0_sequence_of,
    is_exceptional_class,
    linearly_equivalent,
    pushforward,
    rr_space_dim,
)
from pushfwd.campaigns import sample_curve, sample_divisor
from pushfwd.genus0 import direct_image_g0_bundle
from pushfwd.genus1 import AtiyahBundleSpec, direct_image_g1


def test_curve_construction_contract():
    with pytest.raises(CharacteristicTwo):
        HyperellipticCurve(2, [1, 1, 0, 1])
    with pytest.raises(ValueError):
        HyperellipticCurve(9, [1, 1, 0, 1])  # composite modulus
    with pytest.raises(ValueError):
        HyperellipticCurve(5, [1, 0, 1])  # even degree
    with pytest.raises(ValueError):
        HyperellipticCurve(5, [1, 1, 0, 2])  # not monic
    with pytest.raises(SingularCurve):
        HyperellipticCurve(5, [0, 0, 1, 1])  # x^3 + x^2 = x^2(x+1)
    curve = HyperellipticCurve(5, [6, 1, 0, 1])  # coefficients reduce mod p
    assert curve.coeffs == (1, 1, 0, 1)
    assert curve.genus == 1


def test_point_validation(genus2_curve, elliptic_curve):
    pt = genus2_curve.point(2, 2)  # f(2) = 32 + 2 = 34 = 4 = 2^2 over F_5
    assert pt.x == 2 and pt.y == 2
    with pytest.raises(PointNotOnCurve):
        genus2_curve.point(2, 1)
    # divisors validate their support against their own curve
    foreign = elliptic_curve.point(0, 1)
    with pytest.raises(PointNotOnCurve):
        Divisor(genus2_curve, 0, {foreign: 1})


def test_divisor_evaluates_f_once_per_point(monkeypatch):
    # curve.point evaluates f at each point it returns; a divisor built
    # from those points does not evaluate it again, but a raw point off
    # the curve still raises.
    curve = sample_curve(random.Random(5), 3, 101)
    coords = curve.affine_coordinates()[:12]
    calls = []
    rhs = HyperellipticCurve.rhs
    monkeypatch.setattr(HyperellipticCurve, "rhs",
                        lambda self, x: calls.append(x) or rhs(self, x))
    divisor = Divisor(curve, 0, {curve.point(x, y): 1 for x, y in coords})
    assert len(divisor.affine) == len(coords) == 12
    assert len(calls) == 12
    x, y = coords[0]
    with pytest.raises(PointNotOnCurve):
        Divisor(curve, 0, {CurvePoint(x, y + 1): 1})


def test_a_point_records_the_curve_that_checked_it(monkeypatch, elliptic_curve):
    # A divisor does not evaluate f again at a point that its own curve
    # object checked.  It checks every other point as before: a plain
    # CurvePoint, one checked by an equal but distinct curve object, one
    # off the curve and one with float coordinates.  The record takes no
    # part in equality, hashing or repr.
    curve, twin = curve_from_string("p=5; f=0,1,0,0,0,1"), curve_from_string("p=5; f=0,1,0,0,0,1")
    checked, plain, from_twin = curve.point(2, 2), CurvePoint(2, 2), twin.point(2, 2)
    assert twin == curve and twin is not curve
    for pt in (plain, from_twin):
        assert pt == checked and hash(pt) == hash(checked)
        assert repr(pt) == repr(checked) == "CurvePoint(x=2, y=2)"
    foreign = elliptic_curve.point(0, 1)
    calls = []
    rhs = HyperellipticCurve.rhs
    monkeypatch.setattr(HyperellipticCurve, "rhs",
                        lambda self, x: calls.append(self) or rhs(self, x))
    divisor = Divisor(curve, 0, {checked: 3})
    assert calls == []
    for pt in (plain, from_twin):
        assert Divisor(curve, 0, {pt: 3}) == divisor
        assert calls.pop() is curve and calls == []
    assert Divisor(curve, 0, [(checked, 1), (plain, 2)]) == divisor
    with pytest.raises(PointNotOnCurve, match=r"^\(2, 1\) does not satisfy y\^2 = f\(x\) over F_5$"):
        Divisor(curve, 0, {CurvePoint(2, 1): 1})
    with pytest.raises(PointNotOnCurve, match=r"^\(0, 1\) does not satisfy"):
        Divisor(curve, 0, {foreign: 1})
    with pytest.raises(ValueError, match="^x-coordinate must be an integer, got 2.0$"):
        Divisor(curve, 0, {CurvePoint(2.0, 2): 1})
    with pytest.raises(ValueError, match="^y-coordinate must be an integer, got 2.0$"):
        Divisor(curve, 0, {CurvePoint(2, 2.0): 1})


def test_a_support_key_must_be_a_curve_point(genus2_curve):
    with pytest.raises(ValueError, match=r"^support key \(2, 2\) must be a CurvePoint$"):
        Divisor(genus2_curve, 0, {(2, 2): 3})


def test_point_listing_is_bounded():
    # affine_coordinates holds the p values of f: above the bound it
    # raises before building them.  The bound covers every prime the tests
    # list points over, the largest 10007.
    bound = hyperelliptic.MAX_ENUMERATED_PRIME
    assert bound >= 10007
    below = next(n for n in range(bound, 2, -1) if hyperelliptic._is_prime(n))
    above = next(n for n in range(bound + 1, 2 * bound) if hyperelliptic._is_prime(n))
    points = HyperellipticCurve(below, [1, 1, 0, 1]).affine_points()
    assert abs(len(points) - below) <= 2 * (math.isqrt(below) + 1)  # Hasse: N = #points + 1
    curve = HyperellipticCurve(above, [1, 1, 0, 1])
    for listing in (curve.affine_coordinates, curve.affine_points):
        with pytest.raises(ValueError, match=f"^listing points needs p <= {bound}, got {above}$"):
            listing()


def test_divisor_canonicalization(genus2_curve, monkeypatch):
    p1 = genus2_curve.point(2, 2)
    p2 = genus2_curve.point(2, 3)
    d = Divisor(genus2_curve, 1, [(p1, 2), (p2, -1), (p1, -2)])
    assert d.affine == ((p2, -1),)
    assert d.degree == 0
    assert (d + (-d)).affine == ()
    assert (d - d).degree == 0
    assert d.shift_infinity(3).degree == 3
    # shifts and negation keep the support canonical
    assert d.shift_infinity(3) == Divisor(genus2_curve, 4, {p2: -1})
    assert -d == Divisor(genus2_curve, -1, {p2: 1})
    assert hash(-(-d)) == hash(d)

    # Arithmetic builds its result with the one constructor, so on two
    # equal but distinct curve objects every support point of a sum,
    # difference, negative or shift records the result's curve object.
    curve, twin = genus2_curve, curve_from_string(genus2_curve.to_string())
    assert twin == curve and twin is not curve
    d1 = Divisor(curve, 1, {curve.point(2, 2): 2, curve.point(3, 1): -1})
    d2 = Divisor(twin, -2, {twin.point(3, 1): 1, twin.point(3, 4): 3, twin.point(0, 0): 1})

    def built(on, at_infinity, coords):
        return Divisor(on, at_infinity, {on.point(x, y): m for (x, y), m in coords.items()})

    for result, expected in (
        (d1 + d2, built(curve, -1, {(2, 2): 2, (3, 4): 3, (0, 0): 1})),
        (d1 - d2, built(curve, 3, {(2, 2): 2, (3, 1): -2, (3, 4): -3, (0, 0): -1})),
        (-d2, built(twin, 2, {(3, 1): -1, (3, 4): -3, (0, 0): -1})),
        (d2.shift_infinity(3), built(twin, 1, {(3, 1): 1, (3, 4): 3, (0, 0): 1})),
    ):
        assert result == expected and result.affine == expected.affine
        assert result.curve is expected.curve
        assert all(pt._curve is result.curve for pt, _ in result.affine), result

    # Listed points record their curve, so a divisor on them checks none
    # of them again; sample_divisor draws coordinates, and its divisor
    # checks each drawn point once.
    calls = []
    point = HyperellipticCurve.point
    monkeypatch.setattr(HyperellipticCurve, "point",
                        lambda self, x, y: calls.append((x, y)) or point(self, x, y))
    points = curve.affine_points()
    assert [(pt.x, pt.y) for pt in points] == curve.affine_coordinates()
    for pt in points:
        assert pt._curve is curve
        assert Divisor(curve, 0, {pt: 1}).affine == ((pt, 1),)
    assert calls == []
    drawn = sample_divisor(random.Random(0), curve)
    assert drawn.affine and all(pt._curve is curve for pt, _ in drawn.affine)
    assert sorted(calls) == [(pt.x, pt.y) for pt, _ in drawn.affine]


def test_divisor_keys_points_by_reduced_coordinates(genus2_curve):
    # (7, 2) and (-3, 2) are the point (2, 2) over F_5, so P + iota(P)
    # ~ 2 infinity has two sections however P's coordinates are written.
    reduced = Divisor(genus2_curve, 0, {CurvePoint(2, 2): 1, CurvePoint(2, 3): 1})
    for x in (7, -3):
        d = Divisor(genus2_curve, 0, {CurvePoint(x, 2): 1, CurvePoint(2, 3): 1})
        assert d == reduced and hash(d) == hash(reduced)
        assert divisor_to_string(d) == "inf:0; pt:2,2:1; pt:2,3:1"
        assert rr_space_dim(d) == 2
    merged = Divisor(genus2_curve, 0, {CurvePoint(7, 2): 1, CurvePoint(2, -2): 1,
                                       CurvePoint(2, 2): 1})
    assert merged.affine == ((CurvePoint(2, 2), 2), (CurvePoint(2, 3), 1))


def test_non_integer_fields_are_rejected(genus2_curve):
    pt = genus2_curve.point(2, 2)
    with pytest.raises(ValueError, match="exponent must be an integer, got 1.5"):
        ComposedMap(1.5)
    with pytest.raises(ValueError, match="at_infinity must be an integer, got 2.7"):
        Divisor(genus2_curve, 2.7, {pt: 1})
    with pytest.raises(ValueError, match="multiplicity of pt:2,2 must be an integer, got 1.9"):
        Divisor(genus2_curve, 2, {pt: 1.9})
    with pytest.raises(ValueError, match="amount must be an integer, got 2.7"):
        Divisor(genus2_curve, 2, {pt: 1}).shift_infinity(2.7)
    with pytest.raises(ValueError, match="coefficient of f must be an integer, got 1.9"):
        HyperellipticCurve(5, [0, 1.9, 0, 0, 0, 1])
    with pytest.raises(ValueError, match="prime must be an integer, got 5.0"):
        HyperellipticCurve(5.0, [0, 1, 0, 0, 0, 1])
    with pytest.raises(ValueError, match="coefficient of f must be an integer, got '3'"):
        HyperellipticCurve(5, [0, 1, 0, '3', 0, 1])
    with pytest.raises(ValueError, match="x-coordinate must be an integer, got 2.0"):
        genus2_curve.point(2.0, 2)
    with pytest.raises(ValueError, match="y-coordinate must be an integer, got '2'"):
        genus2_curve.point(2, "2")
    # (2, 2) is a checked point, but (2.0, 2), equal to it, is not an integer point
    with pytest.raises(ValueError, match="x-coordinate must be an integer, got 2.0"):
        Divisor(genus2_curve, 0, {CurvePoint(2.0, 2): 1})


def test_is_prime_matches_trial_division():
    # Miller-Rabin to the bases 2, 7 and 61 against trial division below
    # 10^5, at 2^31 - 1, and on Carmichael numbers and base-2 strong
    # pseudoprimes, which one base alone would call prime.
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10**5) if hyperelliptic._is_prime(n)] == \
        [n for n in range(10**5) if trial(n)]
    assert hyperelliptic._is_prime(2**31 - 1)
    for n in (561, 1105, 1729, 2047, 3277, 4033):
        assert not hyperelliptic._is_prime(n), n


def test_divisor_sum_matches_the_validating_constructor(genus2_curve, genus3_curve):
    rng = random.Random(4)
    points = genus2_curve.affine_points()

    def validated(at_infinity, terms):
        merged = {}
        for pt, m in terms:
            merged[pt] = merged.get(pt, 0) + m
        return Divisor(genus2_curve, at_infinity, list(merged.items()))

    for _ in range(200):
        a_terms = [(rng.choice(points), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
        b_terms = [(rng.choice(points), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
        a = validated(rng.randint(-5, 5), a_terms)
        b = validated(rng.randint(-5, 5), b_terms)
        total = a + b
        assert total == validated(a.at_infinity + b.at_infinity, a_terms + b_terms)
        assert a - b == validated(a.at_infinity - b.at_infinity,
                                  a_terms + [(pt, -m) for pt, m in b_terms])
        cancelled = a - a
        assert cancelled == Divisor(genus2_curve) and cancelled.affine == ()
        assert hash(a + b) == hash(b + a)
    other = Divisor(genus3_curve, 1)
    with pytest.raises(ValueError, match="different curves"):
        Divisor(genus2_curve, 1) + other
    with pytest.raises(ValueError, match="different curves"):
        Divisor(genus2_curve, 1) - other


def test_rr_dim_frozen_values(genus2_curve):
    zero = Divisor(genus2_curve)
    # pole-order count at infinity: 1, x, x^2, x^3, y
    assert rr_space_dim(zero.shift_infinity(6)) == 5
    assert rr_space_dim(zero) == 1
    assert rr_space_dim(canonical_divisor(genus2_curve)) == 2
    assert rr_space_dim(zero.shift_infinity(-1)) == 0
    # gap structure below 2g+1 = 5: only even pole orders contribute
    assert [rr_space_dim(zero.shift_infinity(k)) for k in range(7)] == \
        [1, 1, 2, 2, 3, 4, 5]


def test_rr_dim_with_affine_points(genus2_curve):
    p1 = genus2_curve.point(2, 2)
    w = genus2_curve.point(0, 0)
    # single points on a positive-genus curve carry only constants
    assert rr_space_dim(Divisor(genus2_curve, 0, {p1: 1})) == 1
    assert rr_space_dim(Divisor(genus2_curve, 0, {w: 1})) == 1
    # 2W ~ 2*inf: the fibre of the double cover
    assert rr_space_dim(Divisor(genus2_curve, 0, {w: 2})) == 2
    # required zeros: L(3*inf - P) = span{1-ish combination}
    assert rr_space_dim(Divisor(genus2_curve, 3, {p1: -1})) == 1


def test_principal_divisor_shift_invariance(genus2_curve):
    # adding div(x - x0) never changes the dimension
    rng = random.Random(11)
    p = genus2_curve.prime
    for _ in range(12):
        d = sample_divisor(rng, genus2_curve)
        x0 = rng.randrange(p)
        rhs = genus2_curve.rhs(x0)
        if rhs == 0:
            shift = Divisor(genus2_curve, -2, {genus2_curve.point(x0, 0): 2})
        else:
            y0 = next((y for y in range(p) if y * y % p == rhs), None)
            if y0 is None:
                continue
            shift = Divisor(
                genus2_curve, -2,
                {genus2_curve.point(x0, y0): 1, genus2_curve.point(x0, -y0): 1},
            )
        assert rr_space_dim(d) == rr_space_dim(d + shift)


@pytest.mark.parametrize("genus,prime", [(1, 5), (2, 5), (3, 7)])
def test_riemann_roch_symmetry(genus, prime):
    rng = random.Random(genus * 100 + prime)
    curve = sample_curve(rng, genus, prime)
    k = canonical_divisor(curve)
    points = curve.affine_points()
    for c_inf in range(-6, 2 * genus + 7):
        affine = {}
        for pt in rng.sample(points, min(2, len(points))):
            affine[pt] = rng.choice((-2, -1, 1, 2))
        d = Divisor(curve, c_inf, affine)
        lhs = rr_space_dim(d) - rr_space_dim(k - d)
        assert lhs == d.degree + 1 - genus


def test_h0_sequence_frozen_examples(genus2_curve, elliptic_curve):
    seq = h0_sequence(Divisor(genus2_curve), ComposedMap(1))
    assert seq.value_at(0) == 1
    assert seq.value_at(-1) == 2
    assert seq.value_at(-2) == 3
    assert seq.value_at(-3) == 5
    assert seq.value_at(1) == 0

    seq_e = h0_sequence(Divisor(elliptic_curve, 1), ComposedMap(1))
    assert seq_e.value_at(0) == 1
    assert seq_e.value_at(-1) == 3

    negative = h0_sequence(Divisor(elliptic_curve, -3), ComposedMap(1))
    for l in range(max(negative.lo, 0), negative.hi + 1):
        assert negative.value_at(l) == 0


def test_pushforward_frozen_examples(genus2_curve, elliptic_curve):
    assert pushforward(Divisor(genus2_curve), ComposedMap(1)) == SplittingType([0, -3])
    assert pushforward(Divisor(elliptic_curve, 1), ComposedMap(1)) == SplittingType([0, -1])
    assert pushforward(canonical_divisor(genus2_curve), ComposedMap(1)) == \
        SplittingType([1, -2])


@pytest.mark.parametrize("text", ["inf:30000", "inf:-30000", "inf:20000"])
def test_pushforward_far_from_the_oracle_degrees(genus2_curve, text):
    # The window lies near l = d / n, thousands of steps from l = 0.
    divisor = divisor_from_string(genus2_curve, text)
    cover = ComposedMap(1)
    image = pushforward(divisor, cover)
    assert image.rank == cover.degree
    assert image.degree == divisor.degree + 1 - genus2_curve.genus - cover.degree
    assert h0(image) == rr_space_dim(divisor)


def best_of(call, calls=3):
    """(answer, best time in seconds) of ``calls`` calls."""
    best = float("inf")
    for _ in range(calls):
        start = time.perf_counter()
        answer = call()
        best = min(best, time.perf_counter() - start)
    return answer, best


def test_pushforward_large_multiplicity_budget(genus2_curve):
    # Budget: 50 ms for one pushforward of a multiplicity-200 point, which
    # is above B(2, 1) and goes by doubling.
    divisor = divisor_from_string(genus2_curve, "inf:2; pt:2,2:200")
    cover = ComposedMap(1)
    image, elapsed = best_of(lambda: pushforward(divisor, cover))
    assert elapsed < 0.05, f"took {elapsed:.3f}s"
    assert image.rank == cover.degree
    assert image.degree == divisor.degree + 1 - genus2_curve.genus - cover.degree
    assert h0(image) == rr_space_dim(divisor)


def test_pushforward_weierstrass_multiplicity_budget(genus2_curve):
    # Budget: 1.5 s for one pushforward of a multiplicity -801 ramification
    # point, whose 801 conditions need no local series.
    divisor = divisor_from_string(genus2_curve, "pt:0,0:-801")
    cover = ComposedMap(1)
    start = time.perf_counter()
    image = pushforward(divisor, cover)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.5, f"took {elapsed:.2f}s"
    assert image == SplittingType([-401, -403])
    assert image.degree == divisor.degree + 1 - genus2_curve.genus - cover.degree
    assert h0(image) == rr_space_dim(divisor) == 0


@pytest.mark.parametrize("text, budget, calls, expected", [
    # K takes every kept zero out, so a lone ramification point leaves
    # a single node and no remainder step.  Timed on one call.
    ("pt:0,0:-4001", 1.0, 1, [-2001, -2003]),
    # Above B(2, 1) nodes a lone site is e (P - infinity) by
    # double-and-add: about log2(e) doublings of genus-2 Mumford pairs,
    # whatever e.  The best of three calls.
    ("pt:2,2:2000", 0.05, 3, [999, 998]),
    ("pt:2,2:1000000", 0.05, 3, [499999, 499998]),
    # P + iota(P) ~ 2 infinity: an unpaired multiplicity of 100003.
    ("pt:2,2:3; pt:2,3:-100000", 0.05, 3, [-49999, -50001]),
], ids=["pt:0,0:-4001", "pt:2,2:2000", "pt:2,2:1000000", "pt:2,2:3; pt:2,3:-100000"])
def test_pushforward_unpaired_multiplicity_budgets(genus2_curve, text, budget, calls, expected):
    divisor = divisor_from_string(genus2_curve, text)
    cover = ComposedMap(1)
    image, elapsed = best_of(lambda: pushforward(divisor, cover), calls)
    assert elapsed < budget, f"took {elapsed:.3f}s"
    assert image == SplittingType(expected)
    assert image.degree == divisor.degree + 1 - genus2_curve.genus - cover.degree
    # 6 (P - infinity) is principal, so e P ~ (e mod 6) P +
    # (e - e mod 6) * infinity, which the Newton route answers from at
    # most 5 nodes.
    P = genus2_curve.point(2, 2)
    assert linearly_equivalent(Divisor(genus2_curve, 0, {P: 6}), Divisor(genus2_curve, 6))
    e = sum(m if pt == P else -m for pt, m in divisor.affine if pt.y)
    if e:
        r = e % 6
        small = Divisor(genus2_curve, divisor.degree - r, {P: r})
        assert pushforward(small, cover) == image


def test_pushforward_genus_10_multiplicity_budget():
    # Budget: 50 ms for a point of multiplicity 10^9 on a genus-10 curve:
    # about 30 doublings and 13 additions of genus-10 Mumford pairs.
    rng = random.Random(10)
    curve = sample_curve(rng, 10, 10007)
    x = next(x for x in range(10007) if pow(curve.rhs(x), 5003, 10007) == 1)
    point = curve.point(x, pow(curve.rhs(x), 2502, 10007))
    divisor = Divisor(curve, 0, {point: 10**9})
    cover = ComposedMap(1)
    image, elapsed = best_of(lambda: pushforward(divisor, cover))
    assert elapsed < 0.05, f"took {elapsed:.3f}s"
    assert image.rank == cover.degree
    assert image.degree == divisor.degree + 1 - curve.genus - cover.degree
    assert h0(image) == rr_space_dim(divisor) == divisor.degree + 1 - curve.genus


def test_pushforward_many_sites_budget():
    # Budget: 50 ms for 30 points of multiplicity 60 on a genus-2 curve:
    # 1800 nodes over 30 x-values pass B(2, 30) = 29, so each point is
    # doubled rather than the 1800-node interpolant and remainder
    # sequence built.
    rng = random.Random(30)
    curve = sample_curve(rng, 2, 10007)
    points = {}
    while len(points) < 30:
        x = rng.randrange(10007)
        if pow(curve.rhs(x), 5003, 10007) == 1:
            points[x] = curve.point(x, pow(curve.rhs(x), 2502, 10007))
    divisor = Divisor(curve, 0, {point: 60 for point in points.values()})
    cover = ComposedMap(1)
    image, elapsed = best_of(lambda: pushforward(divisor, cover))
    assert elapsed < 0.05, f"took {elapsed:.3f}s"
    assert image.rank == cover.degree
    assert image.degree == divisor.degree + 1 - curve.genus - cover.degree
    assert h0(image) == rr_space_dim(divisor) == divisor.degree + 1 - curve.genus


def campaign_instances():
    rng = random.Random(1987)
    for _ in range(300):
        curve = sample_curve(rng, rng.randint(1, 5))
        yield sample_divisor(rng, curve), ComposedMap(rng.randint(1, 4))


def deep_instances():
    # Shaped like the benchmark's deep workload: large genus, many points of
    # large multiplicity, so the window holds many oracle degrees.
    rng = random.Random(2026)
    p = 10007  # 3 mod 4: a square root of a residue r is r^((p+1)/4)
    for _ in range(20):
        curve = sample_curve(rng, rng.randint(10, 20), p)
        support = {}
        count = rng.randint(5, 10)
        while len(support) < count:
            x = rng.randrange(p)
            rhs = curve.rhs(x)
            if rhs and pow(rhs, (p - 1) // 2, p) == 1 and all(pt.x != x for pt in support):
                y = pow(rhs, (p + 1) // 4, p)
                mult = rng.choice([e for e in range(-10, 11) if e])
                support[curve.point(x, rng.choice((y, -y)))] = mult
        yield Divisor(curve, 0, support), ComposedMap(rng.randint(1, 2))


@pytest.mark.parametrize("instances", [campaign_instances, deep_instances],
                         ids=["campaign-sampler", "deep-scale"])
def test_h0_window_matches_oracle_on_campaign_instances(instances):
    # The (cap', orders) of _pole_orders and the start of the walk must give
    # the per-degree oracle's value at every degree of the minimal window.
    for divisor, cover in instances():
        n = cover.degree
        seq = h0_sequence(divisor, cover)
        assert seq == h0_sequence_of(pushforward(divisor, cover))
        for l in range(seq.lo, seq.hi + 1):
            assert seq.value_at(l) == rr_space_dim(divisor.shift_infinity(-n * l))


def counted(monkeypatch, *names):
    """Patches the named functions of the oracle module to log the
    arguments of each call; returns {name: [args, ...]}."""
    calls = {name: [] for name in names}
    for name in names:
        def logged(*args, _log=calls[name], _original=getattr(hyperelliptic, name)):
            _log.append(args)
            return _original(*args)

        monkeypatch.setattr(hyperelliptic, name, logged)
    return calls


def test_one_elimination_per_pushforward(monkeypatch):
    # pushforward and h0_sequence each make one orders computation, whose
    # reduced basis gives every dimension of the window, also when no
    # twist has a degree in [0, 2g - 2].
    calls = counted(monkeypatch, "_pole_orders")["_pole_orders"]
    seen = set()
    for divisor, cover in campaign_instances():
        n, d, g = cover.degree, divisor.degree, divisor.curve.genus
        # oracle degrees: l in [ceil((d - 2g + 2) / n), floor(d / n)]
        oracle_range = -((2 * g - 2 - d) // n) <= d // n
        for route in (pushforward, h0_sequence):
            calls.clear()
            route(divisor, cover)
            assert len(calls) == 1, (route, divisor, cover)
        seen.add(oracle_range)
    assert seen == {True, False}


@pytest.mark.parametrize("text, m, budget", [
    ("pt:2,2:800", 1000, 0.05),  # 800 mod 2000 > 2: no twist in [0, 2g - 2]
    ("inf:-1; pt:2,2:3", 100000, 0.5),
])
def test_pushforward_at_large_map_degree(genus2_curve, monkeypatch, text, m, budget):
    # One orders computation and O(1) arithmetic per pole order, whatever
    # the map degree.
    calls = counted(monkeypatch, "_pole_orders")["_pole_orders"]
    divisor = divisor_from_string(genus2_curve, text)
    start = time.perf_counter()
    image = pushforward(divisor, ComposedMap(m))
    elapsed = time.perf_counter() - start
    assert image.rank == 2 * m
    assert image.degree == divisor.degree + 1 - 2 - 2 * m
    assert len(calls) == 1
    assert elapsed < budget, f"{elapsed:.3f}s"


def test_genus2_doublings_of_a_degree_2_u_are_straight_line(monkeypatch):
    # 80 P, 80 > B(2, 1), takes the doubling route: P is doubled once at
    # deg u = 1, along its tangent, and then five times at deg u = 2, each
    # by the straight-line branch, so Cantor's generic steps never run.
    calls = counted(monkeypatch, "_double", "_cantor_double")
    curve = curve_from_string("p=10007; f=3,1,4,1,5,1")
    P = curve.affine_points()[5]
    image = pushforward(Divisor(curve, 0, {P: 80}), ComposedMap(1))
    assert image == SplittingType([39, 38])
    assert [len(u) - 1 for u, *_ in calls["_double"]] == [1, 2, 2, 2, 2, 2]
    assert calls["_cantor_double"] == []


def test_a_lone_point_doubles_along_its_tangent_above_genus_2(monkeypatch):
    # 10^12 P at genus 5, far above B(5, 1), takes the doubling route: its
    # first doubling, of P alone at deg u = 1, is the tangent; the 38
    # doublings after it, of a larger u, are Cantor's generic steps.
    calls = counted(monkeypatch, "_double", "_cantor_double")
    curve = curve_from_string("p=2147483647; f=1,3,0,0,0,0,0,5,0,0,0,1")
    divisor = divisor_from_string(curve, "inf:-5; pt:0,1:1000000000000")
    assert pushforward(divisor, ComposedMap(3)) == SplittingType([166666666665] + [166666666664] * 5)
    doubled = [len(u) - 1 for u, *_ in calls["_double"]]
    assert len(doubled) == 39 and doubled[0] == 1 and min(doubled[1:]) > 1
    assert len(calls["_cantor_double"]) == 38
    assert all(len(u) > 2 for u, *_ in calls["_cantor_double"])


def test_genus2_routes_split_between_12_and_24_nodes(monkeypatch):
    # At genus 2 the doubling route is the cheaper one from about 16 nodes
    # at one site (``_doubling_bound``'s table): one site of d = 24 goes
    # through the ladder and one of d = 12 through the interpolant, each
    # with the other route's answer.
    curve = curve_from_string("p=10007; f=1,1,0,0,0,1")
    P = curve.point(0, 1)
    for d, route, other, forced in ((24, "_ladder", "_newton_interpolant", 24),
                                    (12, "_newton_interpolant", "_ladder", 0)):
        divisor = Divisor(curve, 0, {P: d})
        with monkeypatch.context() as patched:  # the other route, by its bound
            patched.setattr(hyperelliptic, "_doubling_bound", lambda genus, sites: forced)
            expected = pushforward(divisor, ComposedMap(1))
        with monkeypatch.context() as patched:
            calls = counted(patched, route, other)
            assert pushforward(divisor, ComposedMap(1)) == expected
        assert (len(calls[route]), len(calls[other])) == (1, 0), d


def test_a_ladder_of_simple_points_takes_no_extended_gcd(monkeypatch):
    # Sites of one node each are only added, never doubled, and adding a
    # point is two evaluations and one lift: the doubling route of 40
    # simple points on a genus-3 curve calls no extended gcd, and gives
    # the Newton route's orders.
    curve = curve_from_string("p=10007; f=3,1,4,1,5,9,2,1")
    points = [pt for pt in curve.affine_points()[::2] if pt.y][:40]
    divisor = Divisor(curve, 0, {pt: 1 for pt in points})
    newton = hyperelliptic._pole_orders(divisor)
    calls = counted(monkeypatch, "poly_xgcd", "_double", "_add_point")
    monkeypatch.setattr(hyperelliptic, "_doubling_bound", lambda genus, sites: 0)
    cap, orders = hyperelliptic._pole_orders(divisor)
    assert (cap, sorted(orders)) == (newton[0], sorted(newton[1]))
    assert len(calls["_add_point"]) == 39
    assert calls["poly_xgcd"] == calls["_double"] == []


def test_interpolant_gets_the_sites_in_ascending_d(monkeypatch):
    # Each node updates every later site, so the Newton route hands the
    # interpolant its sites by ascending d, the largest last; a stable
    # sort keeps the x-value order among sites of equal d.
    calls = counted(monkeypatch, "_newton_interpolant")["_newton_interpolant"]
    reordered = 0
    for divisor, cover in deep_instances():
        calls.clear()
        pushforward(divisor, cover)
        _, sites = hyperelliptic._conditions(divisor)
        (targets, _), = calls
        ds = [d for _, _, d in sites]
        assert [len(t) for _, t in targets] == sorted(ds)
        assert [x0 for x0, _ in targets] == \
            [x0 for x0, _, _ in sorted(sites, key=lambda site: site[2])]
        reordered += ds != sorted(ds)
    assert reordered >= 15


def _conditions_left(divisor):
    """deg U0: |m(P) - m(iota P)| over the split x-values, plus one for
    each ramification point of odd multiplicity."""
    p = divisor.curve.prime
    mults = {(pt.x, pt.y): m for pt, m in divisor.affine}
    count = 0
    for (x, y), m in mults.items():
        if y == 0:
            count += m % 2
        elif y < p - y or (x, p - y) not in mults:
            count += abs(m - mults.get((x, p - y), 0))
    return count


def test_no_series_when_at_most_g_plus_one_conditions_remain(monkeypatch):
    # With deg U0 <= g + 1 the remainder sequence takes no step, so its
    # orders need no local series and no remainder.
    calls = counted(monkeypatch, "split_point_series", "_basis_pole_orders")
    seen = set()
    for divisor, cover in campaign_instances():
        g = divisor.curve.genus
        few = _conditions_left(divisor) <= g + 1
        for log in calls.values():
            log.clear()
        for k in range(2 * g + 3):
            rr_space_dim(divisor.shift_infinity(-k))
        pushforward(divisor, cover)
        work = any(calls.values())
        assert not (few and work), (divisor, cover)
        seen.add((few, work))
    assert {(True, False), (False, True)} <= seen


def test_pushforward_euler_characteristic(genus3_curve):
    rng = random.Random(2)
    for _ in range(8):
        d = sample_divisor(rng, genus3_curve)
        m = rng.randint(1, 3)
        image = pushforward(d, ComposedMap(m))
        assert image.rank == 2 * m
        assert image.degree == d.degree + (1 - genus3_curve.genus) - 2 * m


def test_canonical_divisor_values():
    for genus, prime in ((1, 7), (2, 5), (3, 7)):
        curve = sample_curve(random.Random(genus), genus, prime)
        k = canonical_divisor(curve)
        assert k.degree == 2 * genus - 2
        assert rr_space_dim(k) == genus


def test_is_exceptional_class(elliptic_curve, genus2_curve):
    cover = ComposedMap(1)
    assert is_exceptional_class(Divisor(elliptic_curve), cover)
    assert is_exceptional_class(Divisor(elliptic_curve, 2), cover)
    pt = elliptic_curve.affine_points()[0]
    assert not is_exceptional_class(Divisor(elliptic_curve, -1, {pt: 1}), cover)
    with pytest.raises(WrongGenus):
        is_exceptional_class(Divisor(genus2_curve), cover)
    with pytest.raises(DegreeNotMultiple):
        is_exceptional_class(Divisor(elliptic_curve, 1), cover)


def test_genus1_cross_validation(elliptic_curve):
    cover = ComposedMap(1)
    n = cover.degree
    pts = elliptic_curve.affine_points()
    rng = random.Random(4)
    for _ in range(25):
        affine = {pt: rng.randint(-2, 2) for pt in rng.sample(pts, 2)}
        base = sum(affine.values())
        for target in range(-6, 7):
            d = Divisor(elliptic_curve, target - base, affine)
            flag = is_exceptional_class(d, cover) if d.degree % n == 0 else None
            expected = direct_image_g1(n, AtiyahBundleSpec(1, d.degree, flag))
            assert pushforward(d, cover) == expected


def test_composition_coherence(genus2_curve):
    rng = random.Random(6)
    for _ in range(6):
        d = sample_divisor(rng, genus2_curve)
        for m in (2, 3):
            one_shot = pushforward(d, ComposedMap(m))
            staged = direct_image_g0_bundle(m, pushforward(d, ComposedMap(1)))
            assert one_shot == staged


def test_linear_equivalence(genus2_curve):
    w = genus2_curve.point(0, 0)
    two_w = Divisor(genus2_curve, 0, {w: 2})
    two_inf = Divisor(genus2_curve, 2)
    assert linearly_equivalent(two_w, two_inf)
    p1 = genus2_curve.point(2, 2)
    assert not linearly_equivalent(Divisor(genus2_curve, 0, {p1: 2}), two_inf)
    assert not linearly_equivalent(two_w, Divisor(genus2_curve, 3))


@pytest.mark.parametrize("e, expected", [(10**6, False), (10**6 - 1, True)])
def test_linear_equivalence_of_large_multiples_budget(genus2_curve, e, expected):
    # Budget: 50 ms.  e P - e Q has two sites of e nodes and opposite
    # signs, both above B(2, 1); P - Q has order 3 in the Jacobian.
    P, Q = genus2_curve.point(2, 2), genus2_curve.point(3, 1)
    assert [k for k in range(1, 7) if linearly_equivalent(
        Divisor(genus2_curve, 0, {P: k}), Divisor(genus2_curve, 0, {Q: k}))] == [3, 6]
    same, elapsed = best_of(lambda: linearly_equivalent(
        Divisor(genus2_curve, 0, {P: e}), Divisor(genus2_curve, 0, {Q: e})))
    assert elapsed < 0.05, f"took {elapsed:.3f}s"
    assert same is expected


def test_text_round_trip(genus2_curve):
    curve = curve_from_string("p=5; f=0,1,0,0,0,1")
    assert curve == genus2_curve
    d = divisor_from_string(curve, "inf:2; pt:2,2:3; pt:0,0:-1")
    assert d.at_infinity == 2
    assert d.degree == 4
    assert divisor_from_string(curve, divisor_to_string(d)) == d
    with pytest.raises(ValueError):
        curve_from_string("p=5")
    with pytest.raises(ValueError):
        divisor_from_string(curve, "pole:3")
    with pytest.raises(PointNotOnCurve):
        divisor_from_string(curve, "pt:2,1:1")
    with pytest.raises(ValueError, match="^unknown curve field 'q'; expected 'p' and 'f'$"):
        curve_from_string("p=5; q=3; f=0,1,0,0,0,1")
    with pytest.raises(ValueError, match="^malformed point term 'pt:1,2'; "
                                         "expected pt:<x>,<y>:<mult>$"):
        divisor_from_string(curve, "inf:1; pt:1,2")


def test_composed_map_contract():
    cover = ComposedMap(3)
    assert cover.degree == 6
    with pytest.raises(ValueError):
        ComposedMap(0)

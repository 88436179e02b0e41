"""The oracle's Newton-coordinate remainder sequence against the
condition-matrix route of tests/reference_oracle.py: the same dimensions
and the same h0 windows, on every sampler the oracle's results have been
checked on; ``pushforward``'s read-out of the reduced basis against the
extraction from either route's h0 window; and its sequence on the top
coordinates against the whole sequence."""

import importlib.util
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import pushfwd.hyperelliptic as hyperelliptic
from pushfwd import (
    ComposedMap,
    Divisor,
    HyperellipticCurve,
    curve_from_string,
    divisor_from_string,
    h0_sequence,
    pushforward,
    splitting_from_h0_sequence,
)
from pushfwd.campaigns import sample_curve, sample_divisor
from pushfwd.expansions import poly_is_squarefree
from reference_oracle import (
    reference_basis_pole_orders,
    reference_h0_sequence,
    reference_rr_space_dims,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "e2ebench" / "workloads.py"


def _benchmark_workloads():
    spec = importlib.util.spec_from_file_location("e2ebench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path  # the module puts the checkout's src first
    return module


def assert_same_as_reference(divisor, cover, count):
    """Equal rr_space_dims(D, count) and equal h0 windows through either
    route."""
    assert hyperelliptic.rr_space_dims(divisor, count) == \
        reference_rr_space_dims(divisor, count), divisor
    window = h0_sequence(divisor, cover)
    expected = reference_h0_sequence(divisor, cover)
    assert (window.lo, window.values) == (expected.lo, expected.values), (divisor, cover)


def campaign_sampler():
    for seed in range(1, 11):
        rng = random.Random(seed)
        for _ in range(300):
            curve = sample_curve(rng, rng.randint(1, 5))
            yield sample_divisor(rng, curve), ComposedMap(rng.randint(1, 4))


def deep_pool():
    # The benchmark's deep pool of seed 7331: 128 ops, genus 10-40.
    deep = _benchmark_workloads().Deep(7331)
    for ops in deep.pool:
        for coeffs, points, m in ops:
            curve = HyperellipticCurve(deep.PRIME, coeffs)
            yield Divisor(curve, 0, {curve.point(x, y): e for (x, y), e in points}), ComposedMap(m)


def sweep_session():
    # One 250-query scan session of the benchmark's sweep, seed 7331.
    sweep = _benchmark_workloads().Sweep(7331)
    curve = HyperellipticCurve(sweep.PRIME, sweep.coeffs)
    point = curve.point(*sweep.point)
    for k, m, c0, sign, count in sweep.LINES:
        cover = ComposedMap(m)
        for i in range(count):
            yield Divisor(curve, c0 + sign * i * cover.degree, {point: k}), cover


def weierstrass_sampler():
    # 100 instances per prime with a ramification point of multiplicity
    # in [-12, 12] on top of the campaign sampler's divisor.
    for p in (3, 5, 7, 11):
        rng = random.Random(100 + p)
        made = 0
        while made < 100:
            curve = sample_curve(rng, rng.randint(1, 3), p)
            roots = [x for x in range(p) if curve.rhs(x) == 0]
            if not roots:
                continue
            w = curve.point(rng.choice(roots), 0)
            base = sample_divisor(rng, curve)
            divisor = base + Divisor(curve, 0, {w: rng.randint(-12, 12)})
            yield divisor, ComposedMap(rng.randint(1, 3))
            made += 1


def _sqrt(v, p):
    if v == 0:
        return 0
    if p % 4 == 3:
        y = pow(v, (p + 1) // 4, p)
        return y if y * y % p == v else None
    return next((y for y in range(1, p) if y * y % p == v), None)


def _curve_with_root(rng, p, genus):
    """A random curve y^2 = f(x) with f(r) = 0, and r."""
    while True:
        r = rng.randrange(p)
        h = [rng.randrange(p) for _ in range(2 * genus)] + [1]
        f = [(-r * h[0]) % p] + [(h[k - 1] - r * h[k]) % p for k in range(1, len(h))] + [1]
        if poly_is_squarefree(f, p):
            return HyperellipticCurve(p, f), r


def _split_points(rng, curve, count):
    """``count`` points with y != 0 at distinct x-values, or None when 50
    draws of x find fewer."""
    p, found = curve.prime, {}
    for _ in range(50):
        x = rng.randrange(p)
        y = _sqrt(curve.rhs(x), p)
        if y:
            found[x] = curve.point(x, y)
            if len(found) == count:
                return list(found.values())
    return None


def conjugate_pairs():
    # P and iota(P) both in the support: both multiplicities negative, both
    # positive, and of mixed signs, with a ramification point and an
    # unpaired point alongside, at small primes and near 2**31.
    signs = ((-1, -1), (1, 1), (-1, 1), (1, -1))
    for p in (5, 7, 11, 10007, 2**31 - 1):
        rng = random.Random(p)
        i = 0
        while i < 60:
            curve, r = _curve_with_root(rng, p, rng.randint(1, 4))
            points = _split_points(rng, curve, 2)
            if points is None:
                continue
            pair, single = points
            s_here, s_there = signs[i % 4]
            support = {
                pair: s_here * rng.randint(1, 8),
                curve.point(pair.x, -pair.y): s_there * rng.randint(1, 8),
                single: rng.choice([e for e in range(-6, 7) if e]),
            }
            if i % 3:
                support[curve.point(r, 0)] = rng.randint(-9, 9)
            yield Divisor(curve, rng.randint(-10, 20), support), ComposedMap(rng.randint(1, 3))
            i += 1


def fuzz():
    # 300 instances at primes from 3 to 2**31 - 1, genus 1-6: up to four
    # split points, each with or without its conjugate, multiplicities in
    # [-25, 25], and a degree from below 0 to above 2g - 2.
    primes = (3, 5, 7, 11, 13, 10007, 2**31 - 1)
    rng = random.Random(2718)
    made = 0
    while made < 300:
        genus = rng.randint(1, 6)
        curve = sample_curve(rng, genus, primes[made % len(primes)])
        count = rng.randint(0, 4)
        points = _split_points(rng, curve, count) if count else []
        if points is None:
            continue
        support = {}
        for pt in points:
            support[pt] = rng.randint(-25, 25)
            if rng.random() < 0.5:
                support[curve.point(pt.x, -pt.y)] = rng.randint(-25, 25)
        degree = rng.randint(-5, 5 * genus + 8)
        at_infinity = degree - sum(support.values())
        yield Divisor(curve, at_infinity, support), ComposedMap(rng.randint(1, 3))
        made += 1


# Each sampler with the number of dimensions compared per instance.
SAMPLERS = {
    "campaign-sampler": (campaign_sampler, lambda g: 2 * g + 3),
    "deep-pool": (deep_pool, lambda g: 2 * g + 3),
    "sweep-session": (sweep_session, lambda g: 2 * g + 3),
    "weierstrass": (weierstrass_sampler, lambda g: 2 * g + 3),
    "conjugate-pairs": (conjugate_pairs, lambda g: 2 * g + 3),
    "fuzz": (fuzz, lambda g: 3 * g + 6),
}


@pytest.mark.parametrize("sampler, count_of", SAMPLERS.values(), ids=SAMPLERS.keys())
def test_newton_route_matches_the_condition_matrix(sampler, count_of):
    for divisor, cover in sampler():
        assert_same_as_reference(divisor, cover, count_of(divisor.curve.genus))


def cap_below_zero():
    # 200 campaign-sampler divisors with a degree d - 2m l in [0, 2g - 2],
    # moved down by a multiple of 2m until their pole cap cap' is negative.
    rng = random.Random(31)
    made = 0
    while made < 200:
        curve = sample_curve(rng, rng.randint(1, 5))
        divisor, cover = sample_divisor(rng, curve), ComposedMap(rng.randint(1, 6))
        n = cover.degree
        if divisor.degree % n > 2 * curve.genus - 2:
            continue
        cap = hyperelliptic._pole_orders(divisor)[0]
        yield divisor.shift_infinity(-n * (max(0, cap) // n + rng.randint(1, 20))), cover
        made += 1


def no_oracle_degree():
    # 200 campaign-sampler divisors, m from g to 8, moved so that no
    # degree d - 2m l lies in [0, 2g - 2], by up to +-40 covers.
    rng = random.Random(37)
    for _ in range(200):
        curve = sample_curve(rng, rng.randint(1, 4))
        g = curve.genus
        divisor, cover = sample_divisor(rng, curve), ComposedMap(rng.randint(g, 8))
        n = cover.degree
        target = rng.randint(2 * g - 1, n - 1) + n * rng.randint(-40, 40)
        yield divisor.shift_infinity(target - divisor.degree % n), cover


HAND_CASES = (  # (curve, divisor, m), m up to 1000
    ("p=5; f=0,1,0,0,0,1", "pt:2,2:800", 1000),
    ("p=5; f=0,1,0,0,0,1", "inf:-1; pt:2,2:3", 1000),
    ("p=5; f=0,1,0,0,0,1", "inf:-30000", 1),
    ("p=5; f=0,1,0,0,0,1", "inf:-30000", 1000),
    ("p=5; f=0,1,0,0,0,1", "inf:30001", 999),
    ("p=5; f=0,1,0,0,0,1", "inf:1; pt:0,0:7", 1),
    ("p=5; f=0,1,0,0,0,1", "inf:-3; pt:2,2:41; pt:3,1:-2", 3),
    ("p=5; f=0,1,0,0,0,1", "pt:2,2:3; pt:2,3:-5", 1),
    ("p=5; f=0,1,0,0,0,1", "inf:3; pt:2,2:3; pt:2,3:-5", 500),
    ("p=5; f=0,1,0,0,0,1", "inf:4; pt:2,2:3; pt:0,0:-1", 50),
    ("p=5; f=0,1,0,0,0,1", "inf:-199; pt:2,2:60; pt:3,4:-61", 2),
    ("p=7; f=1,2,0,0,1,0,0,1", "inf:2; pt:3,0:3; pt:2,3:-2; pt:5,5:4", 3),
    ("p=7; f=1,2,0,0,1,0,0,1", "inf:-40; pt:5,2:47; pt:0,1:-3", 1000),
    ("p=7; f=1,1,0,1", "inf:3; pt:2,2:-1", 50),
    ("p=7; f=1,1,0,1", "pt:0,1:-99; pt:2,5:97", 1),
)


def hand_cases():
    for curve_text, divisor_text, m in HAND_CASES:
        yield divisor_from_string(curve_from_string(curve_text), divisor_text), ComposedMap(m)


def _kind(divisor, cover):
    """Which route of ``pushforward`` the instance takes."""
    if divisor.degree % cover.degree > 2 * divisor.curve.genus - 2:
        return "no oracle degree"
    return "cap' < 0" if hyperelliptic._pole_orders(divisor)[0] < 0 else "cap' >= 0"


READ_OUT_SAMPLERS = {
    **{name: sampler for name, (sampler, _) in SAMPLERS.items()},
    "cap-below-zero": cap_below_zero,
    "no-oracle-degree": no_oracle_degree,
    "hand-cases": hand_cases,
}


def test_basis_read_out_matches_window_extraction():
    # pushforward reads the splitting off the reduced basis; the paper's
    # route extracts it from the computed h0 window, by the oracle and by
    # the condition matrix.  All three agree on every instance, and every
    # route of the read-out occurs, in the hand cases too.
    kinds = {}
    for name, sampler in READ_OUT_SAMPLERS.items():
        kinds[name] = Counter()
        for divisor, cover in sampler():
            read_out = pushforward(divisor, cover)
            assert read_out == splitting_from_h0_sequence(h0_sequence(divisor, cover)), \
                (divisor, cover)
            assert read_out == splitting_from_h0_sequence(reference_h0_sequence(divisor, cover)), \
                (divisor, cover)
            kinds[name][_kind(divisor, cover)] += 1
    assert set(kinds["cap-below-zero"]) == {"cap' < 0"}
    assert set(kinds["no-oracle-degree"]) == {"no oracle degree"}
    assert set(kinds["hand-cases"]) == {"no oracle degree", "cap' < 0", "cap' >= 0"}
    assert kinds["campaign-sampler"]["cap' >= 0"] > 0


def remainder_sequences():
    # 2000 (nodes, V, g, p) at primes 3-10007, genus 1-6, with g + 2 to
    # 3g + 8 nodes in up to five runs of one x-value each, as the
    # interpolant orders them, and V of full or of random lower degree.
    rng = random.Random(1009)
    for _ in range(2000):
        p = rng.choice((3, 5, 7, 11, 13, 10007))
        genus = rng.randint(1, 6)
        n = rng.randint(genus + 2, 3 * genus + 8)
        xs = rng.sample(range(p), min(p, rng.randint(1, 5)))
        nodes = sorted((rng.choice(xs) for _ in range(n)), key=xs.index)
        v = [rng.randrange(p) for _ in range(n)]
        if rng.random() < 0.5:
            cut = rng.randint(0, n)
            v[cut:] = [0] * (n - cut)
        yield nodes, v, genus, p


def wide_remainder_sequences():
    # 1000 more at primes up to 2**31 - 1, genus 1-8, with g + 2 to
    # 12g + 40 nodes in up to six runs, and V full, cut to a random lower
    # degree, or with one to four nonzero Newton coordinates; a sparse V
    # gives quotients of degree above 1 after the first step, even where
    # p is too large for a lead to vanish by chance.
    rng = random.Random(4099)
    for _ in range(1000):
        p = rng.choice((3, 5, 7, 10007, 2**31 - 1))
        genus = rng.randint(1, 8)
        n = rng.randint(genus + 2, 12 * genus + 40)
        xs = rng.sample(range(p), min(p, rng.randint(1, 6)))
        nodes = sorted((rng.choice(xs) for _ in range(n)), key=xs.index)
        shape = rng.randrange(3)
        v = [rng.randrange(p) for _ in range(n)] if shape < 2 else [0] * n
        if shape == 1:
            cut = rng.randint(0, n)
            v[cut:] = [0] * (n - cut)
        elif shape == 2:
            for i in rng.sample(range(n), rng.randint(1, 4)):
                v[i] = rng.randrange(1, p)
        yield nodes, v, genus, p


def test_remainder_sequence_on_top_coordinates_is_exact():
    # Dropping the Newton coordinates below n + g + 1 - deg r_(i-1) before
    # each step gives the whole sequence's orders.  On these instances
    # dropping one more per step does not, and neither does dropping the
    # lowest g + 2 once, so an off-by-one in either count shows.
    one_too_many = one_too_many_once = 0
    for nodes, v, genus, p in remainder_sequences():
        expected = reference_basis_pole_orders(nodes, v, genus, p)
        assert hyperelliptic._basis_pole_orders(nodes, v, genus, p) == expected, (nodes, v, genus, p)
        n = len(nodes)
        one_too_many += reference_basis_pole_orders(
            nodes, v, genus, p, lambda deg: n + genus + 2 - deg) != expected
        one_too_many_once += reference_basis_pole_orders(
            nodes, v, genus, p, lambda deg: genus + 2) != expected
    assert one_too_many >= 100
    assert one_too_many_once >= 100

    later_long_quotients = 0
    for nodes, v, genus, p in wide_remainder_sequences():
        quotients = []
        expected = reference_basis_pole_orders(nodes, v, genus, p, quotients=quotients)
        assert hyperelliptic._basis_pole_orders(nodes, v, genus, p) == expected, (nodes, v, genus, p)
        later_long_quotients += any(d > 1 for d in quotients[1:])
    assert later_long_quotients >= 100

"""The oracle's Newton-coordinate remainder sequence against the
condition-matrix route of tests/reference_oracle.py: the same dimensions
and the same h0 windows, on every sampler the oracle's results have been
checked on; ``pushforward``'s read-out of the reduced basis against the
extraction from either route's h0 window; and its sequence on the top
coordinates against the whole sequence."""

import importlib.util
import itertools
import random
import sys
from collections import Counter
from contextlib import nullcontext
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pushfwd.hyperelliptic as hyperelliptic
from pushfwd import (
    ComposedMap,
    Divisor,
    HyperellipticCurve,
    curve_from_string,
    divisor_from_string,
    h0_sequence,
    linearly_equivalent,
    pushforward,
    rr_space_dim,
    splitting_from_h0_sequence,
)
from pushfwd.campaigns import sample_curve, sample_divisor
from pushfwd.expansions import (
    poly_derivative,
    poly_eval,
    poly_gcd,
    poly_is_squarefree,
    split_point_series,
)
from reference_oracle import (
    addition_case,
    reference_basis_pole_orders,
    reference_compose,
    reference_h0_sequence,
    reference_newton_interpolant,
    reference_reduce,
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
    """Equal dim L(D - k*infinity) for k < count and equal h0 windows
    through either route."""
    assert [rr_space_dim(divisor.shift_infinity(-k)) for k in range(count)] == \
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


def _curve_with_root(rng, p, genus, flat=None):
    """A random curve y^2 = f(x) with f(r) = 0, and r; given ``flat`` =
    (x0, y0), one through (x0, y0) with f'(x0) = 0."""
    while True:
        r = rng.randrange(p)
        h = [rng.randrange(p) for _ in range(2 * genus)] + [1]
        if flat:
            x0, y0 = flat
            if r == x0:
                continue
            # f = (x - r) h, so h(x0) = t = y0^2 / (x0 - r) gives f(x0) =
            # y0^2, and h'(x0) = -t / (x0 - r) gives f'(x0) = 0.
            t = y0 * y0 * pow(x0 - r, -1, p)
            h[1] -= t * pow(x0 - r, -1, p) + poly_eval(poly_derivative(h, p), x0, p)
            h[0] += t - poly_eval(h, x0, p)
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


PRIMES = (3, 5, 7, 13, 10007, 2**31 - 1)


@st.composite
def interpolant_sites(draw):
    # 1-10 sites at distinct x-values, of 1-12 nodes each, each target
    # term p - 1, the largest residue, or a random one.
    p = draw(st.sampled_from(PRIMES))
    xs = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=min(10, p), unique=True))
    term = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    return [(x0, draw(st.lists(term, min_size=1, max_size=12))) for x0 in xs], p


def _long_first_site(p):
    """A first site of 300 nodes, then two of a few nodes: at those two, V
    gains 300 products c N before it is read."""
    return [(0, [p - 1] * 300), (1, [p - 1] * 3), (2, [p - 1] * 7)], p


@given(interpolant_sites())
@settings(max_examples=200, deadline=None)
@example(_long_first_site(3))
@example(_long_first_site(10007))
@example(_long_first_site(2**31 - 1))
def test_newton_interpolant_matches_the_list_passes(case):
    sites, p = case
    assert hyperelliptic._newton_interpolant(sites, p) == \
        reference_newton_interpolant(sites, p)


@lru_cache(maxsize=1)
def newton_site_lists():
    """(curve, sites) of every fuzz, weierstrass and deep-pool divisor
    with at least two sites and more than g + 1 nodes, so that the
    interpolant and the remainder sequence both run."""
    out = []
    for divisor, _ in itertools.chain(fuzz(), weierstrass_sampler(), deep_pool()):
        _, sites = hyperelliptic._conditions(divisor)
        if len(sites) > 1 and sum(d for _, _, d in sites) > divisor.curve.genus + 1:
            out.append((divisor.curve, sites))
    return out


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_newton_orders_do_not_depend_on_the_site_order(data):
    # The Newton route's orders from the sites in any order, fed to the
    # interpolant directly, are those of _newton_orders, which sorts them.
    curve, sites = data.draw(st.sampled_from(newton_site_lists()))
    shuffled = data.draw(st.permutations(sites))
    p = curve.prime
    targets = [(x0, split_point_series(curve.coeffs, x0, y0, d, p)[1] if d > 1 else [y0])
               for x0, y0, d in shuffled]
    nodes, coords = hyperelliptic._newton_interpolant(targets, p)
    assert hyperelliptic._basis_pole_orders(nodes, coords, curve.genus, p) == \
        hyperelliptic._newton_orders(curve, sites), shuffled


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
    # Dropping the lowest g + 1 Newton coordinates once, before the first
    # step, gives the whole sequence's orders.  On these instances
    # dropping the lowest g + 2 does not, so an off-by-one in the count
    # shows.  The packed loop runs on the coordinates above the lowest
    # g + 1, rewritten in powers of x - z, z the last node, and steps
    # counts, from the reference's quotients and the nodes, how much of
    # the samplers' traffic has several runs of nodes there, all of which
    # goes through that rewriting: steps whose divisor r_i has a zero lead
    # below it (the next quotient has degree above 1); steps whose
    # divisor's coordinates lie over three or more runs; quotients of
    # degree above 1 whose divisor lies over two or more runs; and those
    # whose shifts y^j B, 0 < j < d, move B's top slot across a run start.
    one_too_many = later_long_quotients = 0
    steps = Counter()
    for sampler in (remainder_sequences, wide_remainder_sequences):
        for nodes, v, genus, p in sampler():
            quotients = []
            expected = reference_basis_pole_orders(nodes, v, genus, p, quotients=quotients)
            assert hyperelliptic._basis_pole_orders(nodes, v, genus, p) == expected, (nodes, v, genus, p)
            if sampler is remainder_sequences:
                one_too_many += reference_basis_pole_orders(nodes, v, genus, p, genus + 2) != expected
            else:
                later_long_quotients += any(d > 1 for d in quotients[1:])
            steps["zero lead"] += sum(d > 1 for d in quotients[1:])
            length = len(nodes) + 1  # of r_i, from the quotient degrees
            for d in quotients:
                length -= d
                above = nodes[genus + 1:length]
                run_starts = sum(y != z for y, z in zip(above, above[1:]))
                steps["three runs"] += run_starts >= 2
                if d > 1:
                    steps["long, two runs"] += run_starts >= 1
                    steps["across a run start"] += any(
                        nodes[i] != nodes[i - 1] for i in range(length, length + d - 1))
    assert one_too_many >= 100
    assert later_long_quotients >= 100
    assert min(steps["zero lead"], steps["three runs"], steps["long, two runs"]) >= 50, steps
    assert steps["across a run start"] >= 20, steps


# ---------------------------------------------------------------- doubling
#
# A divisor of more than B(g, s) nodes over s x-values takes the doubling
# route: the reduced Mumford pair of the sum of its sites by one
# double-and-add ladder, and the orders from its degree.  Patching B
# sends every divisor with more than g + 1 nodes there (B = 0) or none
# (B = NEWTON_ONLY), so each sampler runs both routes on the same
# instances.

NEWTON_ONLY = 10**18


def route_orders(divisor, bound):
    """(cap', sorted orders) of ``divisor`` with B(g, s) = ``bound``.
    Windows, splittings and dimensions are functions of these alone."""
    with mock.patch.object(hyperelliptic, "_doubling_bound", lambda genus, sites: bound):
        cap, orders = hyperelliptic._pole_orders(divisor)
    return cap, sorted(orders)


def large_multiplicity_fuzz():
    # 2000 instances at primes from 3 to 2**31 - 1, genus 1-6: one to three
    # split points, each with or without its conjugate, multiplicities in
    # [-200, 200], and at times a ramification point, so that a divisor
    # on the doubling route can have several sites above B(g, 1), or one,
    # or none.
    primes = (3, 5, 7, 11, 13, 10007, 2**31 - 1)
    rng = random.Random(1987)
    made = 0
    while made < 2000:
        p = primes[made % len(primes)]
        curve, r = _curve_with_root(rng, p, rng.randint(1, 6))
        points = _split_points(rng, curve, rng.randint(1, 3))
        if points is None:
            continue
        support = {}
        for pt in points:
            support[pt] = rng.randint(-200, 200)
            if rng.random() < 0.25:
                support[curve.point(pt.x, -pt.y)] = rng.randint(-200, 200)
        if rng.random() < 0.3:
            support[curve.point(r, 0)] = rng.randint(-9, 9)
        yield Divisor(curve, rng.randint(-20, 20), support), ComposedMap(rng.randint(1, 3))
        made += 1


def many_sites():
    # 150 instances at primes 10007 and 2**31 - 1, genus 1-4: 3 to 12
    # split points of multiplicity in [-40, 40], so that the node count
    # can pass B(g, s) with no site above B(g, 1).
    rng = random.Random(2002)
    made = 0
    while made < 150:
        curve, _ = _curve_with_root(rng, (10007, 2**31 - 1)[made % 2], rng.randint(1, 4))
        points = _split_points(rng, curve, rng.randint(3, 12))
        if points is None:
            continue
        support = {pt: rng.choice((-1, 1)) * rng.randint(1, 40) for pt in points}
        yield Divisor(curve, rng.randint(-20, 20), support), ComposedMap(rng.randint(1, 3))
        made += 1


ROUTE_SAMPLERS = {
    **{name: sampler for name, (sampler, _) in SAMPLERS.items()},
    "large-multiplicity-fuzz": large_multiplicity_fuzz,
    "many-sites": many_sites,
}


def _route(divisor):
    """("newton" or "doubling", the number of sites above B(g, 1), at
    most 2): the route the oracle's own bound takes."""
    genus = divisor.curve.genus
    _, sites = hyperelliptic._conditions(divisor)
    n = sum(d for _, _, d in sites)
    doubled = n > max(genus + 1, hyperelliptic._doubling_bound(genus, len(sites)))
    big = sum(d > hyperelliptic._doubling_bound(genus, 1) for _, _, d in sites)
    return "doubling" if doubled else "newton", min(big, 2)


@pytest.mark.parametrize("sampler", ROUTE_SAMPLERS.values(), ids=ROUTE_SAMPLERS.keys())
def test_doubling_route_matches_the_newton_route(sampler):
    # Doubling every site gives the Newton route's (cap', orders), so the
    # same windows, splittings and dimensions.  The oracle's own B(g, s)
    # takes one of the two routes; the first 50 splittings of each route
    # and count of sites above B(g, 1) are compared with the Newton
    # route's.
    routes = Counter()
    for divisor, cover in sampler():
        assert route_orders(divisor, 0) == route_orders(divisor, NEWTON_ONLY), divisor
        kind = _route(divisor)
        routes[kind] += 1
        if routes[kind] <= 50:
            with mock.patch.object(hyperelliptic, "_doubling_bound",
                                   lambda genus, sites: NEWTON_ONLY):
                expected = pushforward(divisor, cover)
            assert pushforward(divisor, cover) == expected, (divisor, cover)
    if sampler is large_multiplicity_fuzz:
        assert routes["doubling", 1] >= 300 and routes["doubling", 2] >= 300, routes
    elif sampler is many_sites:  # only 3-5 sites at genus 3-4 stay on Newton
        assert routes == Counter({("doubling", 0): 76, ("doubling", 1): 10,
                                  ("doubling", 2): 59, ("newton", 0): 5}), routes
    elif sampler is sweep_session:  # the k = 24 and k = 80 queries pass B(2, 1) = 14
        assert routes == Counter({("newton", 0): 225, ("doubling", 1): 25}), routes
    elif sampler is fuzz:  # sites of up to 50 nodes: 67 pass B(g, s), at genus 1-5
        assert routes == Counter({("newton", 0): 233, ("doubling", 0): 27,
                                  ("doubling", 1): 26, ("doubling", 2): 14}), routes
    elif sampler is conjugate_pairs:  # 16-21 nodes at genus 2 pass B(2, s)
        assert routes == Counter({("newton", 0): 292, ("doubling", 0): 7,
                                  ("doubling", 1): 1}), routes
    else:  # the deep pool and the other samplers stay on the Newton route
        assert {route for route, _ in routes} == {"newton"}, routes


def _routed(genus, nodes):
    """The route ``_orders`` takes at the genus for sites of the given
    node counts: "newton", "doubling", or "neither" at n <= g + 1."""
    sites = [(x0, 1, d) for x0, d in enumerate(nodes)]
    route = hyperelliptic._orders(SimpleNamespace(genus=genus), sites)
    return route if isinstance(route, str) else "neither"


@mock.patch.object(hyperelliptic, "_newton_orders", lambda curve, sites: "newton")
@mock.patch.object(hyperelliptic, "_doubling_orders", lambda curve, sites, n: "doubling")
def test_benchmark_workloads_keep_their_routes():
    # The benchmark's shapes, restated so that a refit of B(g, s) that
    # moves a workload's route fails here.  sweep: one site at genus 2,
    # k = 6 and 12 nodes by Newton, k = 24 and 80 by doubling.
    assert [_routed(2, [k]) for k in (6, 12, 24, 80)] == \
        ["newton", "newton", "doubling", "doubling"]
    # deep: genus 10-40, at most 10 sites of at most 10 nodes, n <= 55.
    # campaigns: genus 1-4, at most three sites, n <= 6.
    for genera, most_sites, most_nodes, largest in ((range(10, 41), 10, 10, 55),
                                                     (range(1, 5), 3, 6, 6)):
        for genus in genera:
            for s in range(1, most_sites + 1):
                for n in range(s, min(largest, s * most_nodes) + 1):
                    nodes = [n // s + (i < n % s) for i in range(s)]
                    assert _routed(genus, nodes) in ("newton", "neither"), (genus, nodes)


# The deep pool is left out: every window probe of its genus 10-40 ops
# would double each site, and the test above compares its orders.
DOUBLED_SAMPLERS = {name: item for name, item in SAMPLERS.items() if name != "deep-pool"}


@pytest.mark.parametrize("sampler, count_of", DOUBLED_SAMPLERS.values(),
                         ids=DOUBLED_SAMPLERS.keys())
def test_doubling_route_matches_the_condition_matrix(sampler, count_of):
    with mock.patch.object(hyperelliptic, "_doubling_bound", lambda genus, sites: 0):
        for divisor, cover in sampler():
            assert_same_as_reference(divisor, cover, count_of(divisor.curve.genus))


def _monomial(x0, coeffs, p):
    """sum c_k (x - x0)^k in the monomial basis."""
    out = []
    for c in reversed(coeffs):
        out = [(a - x0 * b) % p for a, b in zip([c] + out, out + [0])]
    while out and not out[-1]:
        out.pop()
    return out


def _series_pair(curve, x0, y0, d):
    """The Mumford pair of d (x0, y0), y0 != 0, from the local series."""
    p = curve.prime
    series = split_point_series(curve.coeffs, x0, y0, d, p)[1]
    return _monomial(x0, [0] * d + [1], p), _monomial(x0, series, p)


@st.composite
def small_divisors(draw):
    """A divisor of up to three split points, each with or without its
    conjugate, of multiplicity up to 60, and at times a ramification
    point, at a prime from 3 to 10007 and genus 1-6."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from((3, 5, 7, 11, 13, 10007)))
    curve, r = _curve_with_root(rng, p, draw(st.integers(1, 6)))
    points = _split_points(rng, curve, draw(st.integers(1, 3))) or []
    mult = st.integers(-60, 60)
    support = {pt: draw(mult) for pt in points}
    for pt in points[:draw(st.integers(0, len(points)))]:
        support[curve.point(pt.x, -pt.y)] = draw(mult)
    if draw(st.booleans()):
        support[curve.point(r, 0)] = draw(st.integers(-5, 5))
    return Divisor(curve, 0, support)


@settings(max_examples=300, deadline=None)
@given(divisor=small_divisors())
def test_orders_depend_only_on_the_reduced_degree(divisor):
    # The Newton route's orders of E = div(U0, V) are n + n' and
    # n - n' + 2g + 1, n' the degree of the reduced representative of
    # E - n * infinity, which Cantor's composition and reduction of the
    # sites' pairs from their local series give here.
    curve = divisor.curve
    f, p, g = list(curve.coeffs), curve.prime, curve.genus
    _, sites = hyperelliptic._conditions(divisor)
    u, v = [1], []
    for pair in [_series_pair(curve, x0, y0, d) if y0 else ([-x0 % p, 1], [])
                 for x0, y0, d in sites]:
        u, v = reference_compose(u, v, *pair, f, p)
    n, reduced = len(u) - 1, len(reference_reduce(u, v, f, g, p)[0]) - 1
    assert n == sum(d for _, _, d in sites)
    assert route_orders(divisor, NEWTON_ONLY)[1] == \
        sorted((n + reduced, n - reduced + 2 * g + 1)), divisor


@settings(max_examples=300, deadline=None)
@given(divisor=small_divisors(), e=st.integers(1, 80))
def test_doubling_gives_the_reduced_pair(divisor, e):
    # A class has one reduced pair: the ladder reaches the one that
    # Cantor's composition and reduction give for the sum of the pairs of
    # all sites of the divisor, ramification zeros included, from their
    # local series; and for the e-node site of a point, also after adding
    # each point Q of the support, P and iota(P) among them, by the
    # composition and by ``_add_point``.
    curve = divisor.curve
    f, p, g = list(curve.coeffs), curve.prime, curve.genus
    sites = hyperelliptic._conditions(divisor)[1]
    if sites:
        u, v = [1], []
        for x0, y0, d in sites:
            pair = _series_pair(curve, x0, y0, d) if y0 else ([-x0 % p, 1], [])
            u, v = reference_compose(u, v, *pair, f, p)
        assert hyperelliptic._ladder(sites, f, g, p) == \
            reference_reduce(u, v, f, g, p), divisor
    split = [pt for pt, _ in divisor.affine if pt.y]
    if not split:
        return
    P = split[0]
    site = _series_pair(curve, P.x, P.y, e)
    doubled = hyperelliptic._ladder([(P.x, P.y, e)], f, g, p)
    assert doubled == reference_reduce(*site, f, g, p), (divisor, e)
    for Q, _ in divisor.affine:
        other = ([-Q.x % p, 1], [Q.y] if Q.y else [])
        expected = reference_reduce(*reference_compose(*site, *other, f, p), f, g, p)
        assert reference_reduce(*reference_compose(*doubled, *other, f, p), f, g, p) == \
            expected, (divisor, e, Q)
        assert hyperelliptic._add_point(*doubled, Q.x, Q.y, f, g, p) == expected, (divisor, e, Q)


def point_additions():
    """(f, g, p, (u, v), (x0, y0)): the reduced pairs that ``_ladder`` gives
    on random curves of genus 1-8 for one to three sites of 1-12 nodes at
    split points and at times a ramification point, 150 curves at each
    prime, each with a point to add: a site's point or its conjugate, the
    ramification point or a random point.  With few nodes the pair keeps
    the sites in its support, so every case of the addition occurs at
    every prime."""
    rng = random.Random(21)
    for p in PRIMES:
        made = 0
        while made < 150:
            g = rng.randint(1, 8)
            curve, root = _curve_with_root(rng, p, g)
            points = _split_points(rng, curve, rng.randint(1, 3))
            if points is None:
                continue
            sites = [(pt.x, pt.y, rng.randint(1, 12 if rng.random() < 0.3 else 3))
                     for pt in points]
            if rng.random() < 0.5:
                sites.append((root, 0, 1))
            choices = [(x0, y0) for x0, y0, _ in sites] + [(x0, -y0 % p) for x0, y0, _ in sites]
            choices.append((root, 0))
            extra = _split_points(rng, curve, 1)
            if extra:
                choices.append((extra[0].x, extra[0].y))
            f = list(curve.coeffs)
            yield f, g, p, hyperelliptic._ladder(sites, f, g, p), rng.choice(choices)
            made += 1


def test_add_point_matches_cantor_composition():
    # Adding one point by the three cases gives the reduced pair of
    # Cantor's general composition with the point's pair (x - x0, y0),
    # and at every prime each case occurs, the cancel also at a
    # ramification point.
    cases = Counter()
    for f, g, p, (u, v), (x0, y0) in point_additions():
        cases[p, addition_case(u, v, x0, y0, p)] += 1
        expected = reference_reduce(
            *reference_compose(u, v, [-x0 % p, 1], [y0] if y0 else [], f, p), f, g, p)
        assert hyperelliptic._add_point(u, v, x0, y0, f, g, p) == expected, (p, f, u, v, x0, y0)
    kinds = ("crt", "hensel", "cancel", "cancel at y0 = 0")
    assert min(cases[p, kind] for p in PRIMES for kind in kinds) >= 5, cases


def unreduced_pairs():
    """(f, g, p, (u, v)): Cantor's composition, unreduced, of 1 to 3g + 3
    points, on random curves of genus 1-6, 100 curves at each prime.  A
    point is one of up to three split points, and one time in ten its
    conjugate, which cancels it, or a ramification point; points repeat."""
    rng = random.Random(1987)
    for p in PRIMES:
        made = 0
        while made < 100:
            g = rng.randint(1, 6)
            curve, root = _curve_with_root(rng, p, g)
            points = _split_points(rng, curve, rng.randint(1, 3))
            if points is None:
                continue
            f, u, v = list(curve.coeffs), [1], []
            for _ in range(rng.randint(1, 3 * g + 3)):
                pt, draw = rng.choice(points), rng.random()
                x0, y0 = (root, 0) if draw < 0.05 else (pt.x, -pt.y % p) if draw < 0.1 \
                    else (pt.x, pt.y)
                u, v = reference_compose(u, v, [-x0 % p, 1], [y0] if y0 else [], f, p)
            yield f, g, p, (u, v)
            made += 1


def test_reduce_matches_cantor_reduction():
    # The continued-fraction reduction gives the pair of Cantor's steps
    # u' = (f - v^2) / u, v' = -v mod u'; at every prime at least 30 of
    # the 100 pairs start more than two degrees above g.
    long_chains = Counter()
    for f, g, p, (u, v) in unreduced_pairs():
        long_chains[p] += len(u) - 1 > g + 2
        assert hyperelliptic._reduce(u, v, f, g, p) == reference_reduce(u, v, f, g, p), \
            (p, f, u, v)
    assert min(long_chains[p] for p in PRIMES) >= 30, long_chains


def reduced_pairs(genus, curves):
    """(f, p, (u, v)): the reduced pairs that ``_ladder`` gives on random
    curves of the genus for one or two split points of multiplicity 1-50
    and, half of the time or when no split point is found, a ramification
    point, each followed by the pair of each of those points alone;
    ``curves`` curves at each prime.  A quarter of the curves are flat at
    their first split point (f'(x0) = 0), so a lone point's tangent is
    horizontal there."""
    rng = random.Random(genus)
    for p in PRIMES:
        for _ in range(curves):
            flat = (rng.randrange(p), rng.randrange(1, p)) if rng.random() < 0.25 else None
            curve, root = _curve_with_root(rng, p, genus, flat)
            points = _split_points(rng, curve, rng.randint(1, 2)) or []
            if flat:
                points = [curve.point(*flat)] + [pt for pt in points if pt.x != flat[0]]
            sites = [(pt.x, pt.y, rng.randint(1, 50)) for pt in points]
            if not sites or rng.random() < 0.5:
                sites.append((root, 0, 1))
            f = list(curve.coeffs)
            yield f, p, hyperelliptic._ladder(sites, f, genus, p)
            for x0, y0, _ in sites:
                yield f, p, ([-x0 % p, 1], [y0] if y0 else [])


def _composed_double(u, v, f, genus, p):
    """The reduced pair of 2 div(u, v) by Cantor's composition of the pair
    with itself and his reduction, neither of which the oracle runs."""
    return reference_reduce(*reference_compose(u, v, u, v, f, p), f, genus, p)


def test_genus2_doubling_matches_cantor_doubling():
    # The straight-line branch, a lone point's tangent and Cantor's generic
    # steps, which take u and v with a common root (r = 0) and k1 = 0,
    # give the reduced pair of Cantor's composition of the pair with itself.
    kinds = Counter()
    for f, p, (u, v) in reduced_pairs(2, 200):
        if len(u) != 3:
            kinds[f"deg u = {len(u) - 1}"] += 1
        elif hyperelliptic._double_genus2(u, v, f, p):
            kinds["straight-line"] += 1
        else:
            kinds["r = 0" if len(poly_gcd(u, v, p)) > 1 else "k1 = 0"] += 1
        assert hyperelliptic._double(u, v, f, 2, p) == _composed_double(u, v, f, 2, p), \
            (p, f, u, v)
    assert kinds["straight-line"] >= 400 and kinds["r = 0"] and kinds["k1 = 0"] \
        and kinds["deg u = 1"], kinds


@pytest.mark.parametrize("genus", range(1, 7))
def test_lone_point_doubling_matches_cantor_doubling(genus):
    # A lone point P, u = x - x0, doubles along its tangent, reduced once
    # more at genus 1, to the reduced pair of Cantor's composition of P
    # with itself, and the zero class doubles to itself.  At every prime
    # each case occurs: a tangent of nonzero slope, a flat one
    # (f'(x0) = 0, so V = y0) and a Weierstrass point (y0 = 0, the zero
    # class).
    kinds = Counter()
    for f, p, (u, v) in reduced_pairs(genus, 40):
        if len(u) != 2:
            continue
        slope = poly_eval(poly_derivative(f, p), -u[0] % p, p)
        kinds[p, "y0 = 0" if not v else "f'(x0) = 0" if not slope else "tangent"] += 1
        for pair in ((u, v), ([1], [])):
            assert hyperelliptic._double(*pair, f, genus, p) == \
                _composed_double(*pair, f, genus, p), (p, f, pair)
    assert min(kinds[p, kind] for p in PRIMES for kind in ("tangent", "f'(x0) = 0", "y0 = 0")) \
        >= 3, kinds


def _counting_xgcd(monkeypatch):
    """A list that gets one entry per ``poly_xgcd`` call the oracle makes."""
    calls = []
    xgcd = hyperelliptic.poly_xgcd
    monkeypatch.setattr(hyperelliptic, "poly_xgcd",
                        lambda *args: calls.append(args) or xgcd(*args))
    return calls


def test_genus1_ladder_takes_no_gcd(monkeypatch):
    # At genus 1 every doubling of the ladder is a lone point's tangent,
    # reduced by one Cantor step, or the zero class: 10^6 nodes at one
    # point take no extended gcd.
    curve = curve_from_string("p=10007; f=0,3,5,1")
    P = curve.point(1, 3)
    calls = _counting_xgcd(monkeypatch)
    u, _ = hyperelliptic._ladder([(P.x, P.y, 10**6)], list(curve.coeffs), 1, curve.prime)
    assert len(u) - 1 <= 1 and calls == []


def test_weierstrass_drop_takes_one_gcd(monkeypatch):
    # Doubling a genus-3 pair of a Weierstrass point W and a split point P
    # drops W in its one extended gcd, and doubles the lone P left along
    # its tangent, to the pair of Cantor's composition.
    curve = curve_from_string("p=7; f=1,2,0,0,1,0,0,1")
    f, p = list(curve.coeffs), curve.prime
    u, v = hyperelliptic._ladder([(0, 1, 1), (3, 0, 1)], f, 3, p)
    assert len(u) == 3 and len(poly_gcd(u, v, p)) == 2
    calls = _counting_xgcd(monkeypatch)
    assert hyperelliptic._double(u, v, f, 3, p) == _composed_double(u, v, f, 3, p)
    assert len(calls) == 1


@pytest.mark.parametrize("genus", range(2, 7))
def test_cantor_double_matches_cantor_composition(genus):
    # Cantor's doubling of every reduced pair is the reduced pair of
    # Cantor's general composition of the pair with itself, whose inverses
    # come from the list loop reference_xgcd, not from poly_xgcd.  A
    # Weierstrass point in the support, where u and v share a root, takes
    # the doubling's gcd branch (len d > 1); at least 15 times at each
    # genus the support has other points, which the branch then doubles.
    weierstrass = 0
    for f, p, (u, v) in reduced_pairs(genus, 40):
        weierstrass += 1 < len(poly_gcd(u, v, p)) < len(u)
        assert hyperelliptic._cantor_double(u, v, f, genus, p) == \
            reference_reduce(*reference_compose(u, v, u, v, f, p), f, genus, p), (p, f, u, v)
    assert weierstrass >= 15, weierstrass


@pytest.mark.parametrize("doubled", [False, True], ids=["own-bound", "doubling-everywhere"])
def test_linear_equivalence_of_multiples_matches_the_condition_matrix(doubled):
    # e P ~ e Q exactly when e (P - Q) has a one-dimensional L, for
    # e <= 30 on the three test curves; both answers occur.
    seen = set()
    with mock.patch.object(hyperelliptic, "_doubling_bound", lambda genus, sites: 0) if doubled \
            else nullcontext():
        for text in ("p=5; f=1,1,0,1", "p=5; f=0,1,0,0,0,1", "p=7; f=1,2,0,0,1,0,0,1"):
            curve = curve_from_string(text)
            points = curve.affine_points()
            for P, Q in zip(points, points[1:] + points[:1]):
                for e in range(1, 31):
                    same = linearly_equivalent(Divisor(curve, 0, {P: e}),
                                               Divisor(curve, 0, {Q: e}))
                    difference = Divisor(curve, 0, {P: e, Q: -e})
                    assert same == (reference_rr_space_dims(difference, 1)[0] == 1), \
                        (text, P, Q, e)
                    seen.add(same)
    assert seen == {True, False}

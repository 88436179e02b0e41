"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact (multiset or integer equality); the stated
runtime budgets are asserted.  Oracle instance sets are built once and
shared by the bound-compliance and defect criteria.
"""

import itertools
import random
import time
from dataclasses import dataclass

import pytest

from pushfwd import (
    AtiyahBundleSpec,
    CohSequence,
    ComposedMap,
    CurveMapContext,
    Divisor,
    HyperellipticCurve,
    SingularCurve,
    SplittingType,
    canonical_divisor,
    direct_image_g0,
    direct_image_g0_bundle,
    direct_image_g1,
    g0_oracle_sequence,
    h0,
    h0_sequence,
    h0_sequence_of,
    h1,
    is_exceptional_class,
    linearly_equivalent,
    pushforward,
    riemann_roch_defect,
    rr_space_dim,
    serre_dual,
    splitting_from_h0_sequence,
    spread,
    spread_bound,
    stable_form,
    twist,
)
from pushfwd.campaigns import sample_curve, sample_divisor


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {number} [{name}]: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}): {detail}"


@dataclass
class OracleInstance:
    curve: HyperellipticCurve
    divisor: Divisor
    cover: ComposedMap
    seq: CohSequence
    push: SplittingType


def _make_instance(divisor, cover) -> OracleInstance:
    seq = h0_sequence(divisor, cover)
    return OracleInstance(divisor.curve, divisor, cover,
                          seq, splitting_from_h0_sequence(seq))


_cache: dict = {}


def _memo(key, builder):
    if key not in _cache:
        _cache[key] = builder()
    return _cache[key]


def _elliptic_curve_with_mixed_points(prime):
    """Deterministically pick a genus-1 curve with a ramified and a split
    support point when possible."""
    for a in range(prime):
        for b in range(prime):
            try:
                curve = HyperellipticCurve(prime, [b, a, 0, 1])
            except SingularCurve:
                continue
            pts = curve.affine_points()
            ram = [p for p in pts if p.is_weierstrass()]
            split = [p for p in pts if not p.is_weierstrass()]
            if ram and split:
                return curve, (ram[0], split[0])
    raise RuntimeError(f"no usable elliptic curve over F_{prime}")


def build_genus1_instances():
    """Criterion 2 enumeration; also reused by criteria 5 and 6."""
    instances = []
    branch_counts = {"exceptional": 0, "plain": 0}
    for prime in (5, 7, 11):
        curve, (pt1, pt2) = _elliptic_curve_with_mixed_points(prime)
        for exponent in (1, 2, 3):
            cover = ComposedMap(exponent)
            n = cover.degree
            for mult1, mult2 in itertools.product(range(-2, 3), repeat=2):
                affine = {pt1: mult1, pt2: mult2}
                for target in range(-6, 7):
                    divisor = Divisor(curve, target - mult1 - mult2, affine)
                    assert divisor.degree == target
                    if target % n == 0:
                        flag = is_exceptional_class(divisor, cover)
                        branch_counts["exceptional" if flag else "plain"] += 1
                    else:
                        flag = None
                    expected = direct_image_g1(n, AtiyahBundleSpec(1, target, flag))
                    instance = _make_instance(divisor, cover)
                    assert instance.push == expected, (
                        f"{divisor} under degree-{n} cover: "
                        f"oracle {instance.push} vs formula {expected}"
                    )
                    instances.append(instance)
    assert branch_counts["exceptional"] > 0 and branch_counts["plain"] > 0
    return instances, branch_counts


def build_duality_instances():
    """Criterion 3 sampling: both sides of every pair come from their own
    extraction."""
    rng = random.Random(20260301)
    pairs = []
    for genus in (1, 2, 3, 4):
        curve = sample_curve(rng, genus)
        k = canonical_divisor(curve)
        for _ in range(50):
            divisor = sample_divisor(rng, curve)
            for exponent in (1, 2):
                cover = ComposedMap(exponent)
                pairs.append((_make_instance(divisor, cover),
                              _make_instance(k - divisor, cover)))
    return pairs


def build_stable_instances():
    """Criterion 4 cells: map degree beyond 2g - 2."""
    rng = random.Random(20260302)
    instances = []
    for genus, exponents in ((2, (2, 3)), (3, (3,))):
        curve = sample_curve(rng, genus)
        for exponent in exponents:
            cover = ComposedMap(exponent)
            assert cover.degree > 2 * genus - 2
            for _ in range(50):
                instances.append(_make_instance(sample_divisor(rng, curve), cover))
    return instances


def build_n2_sweep():
    """Criterion 5 extra cell: the double cover itself, genus 2 to 5."""
    rng = random.Random(20260303)
    instances = []
    for genus in (2, 3, 4, 5):
        curve = sample_curve(rng, genus)
        for _ in range(25):
            instances.append(_make_instance(sample_divisor(rng, curve), ComposedMap(1)))
    return instances


def test_criterion_1_genus0_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 9):
        for m in range(-20, 21):
            assert splitting_from_h0_sequence(g0_oracle_sequence(n, m)) == \
                direct_image_g0(n, m)
            checked += 1
    elapsed = time.perf_counter() - start
    report(1, "genus-0 oracle equivalence",
           checked == 328 and elapsed < 1.0,
           f"({checked} instances, {elapsed:.2f}s < 1s)")


def test_criterion_2_genus1_cross_validation():
    start = time.perf_counter()
    instances, branches = _memo("genus1", build_genus1_instances)
    elapsed = time.perf_counter() - start
    report(2, "genus-1 cross-validation",
           elapsed < 30.0,
           f"({len(instances)} instances, exceptional branch x{branches['exceptional']}, "
           f"plain degree-multiple branch x{branches['plain']}, {elapsed:.1f}s < 30s)")


def test_criterion_3_duality_theorem():
    start = time.perf_counter()
    pairs = _memo("duality", build_duality_instances)
    for side, dual_side in pairs:
        assert dual_side.push == serre_dual(side.push), (
            f"duality failed for {side.divisor} under degree-{side.cover.degree} cover"
        )
    elapsed = time.perf_counter() - start
    report(3, "duality of direct images",
           elapsed < 120.0,
           f"({len(pairs)} independent pairs, {elapsed:.1f}s < 120s)")


def test_criterion_4_stable_regime():
    instances = _memo("stable", build_stable_instances)
    for inst in instances:
        n = inst.cover.degree
        assert spread(inst.push) <= 2
        q = inst.divisor.degree // n
        shifted = inst.divisor.shift_infinity(-n * q)
        h0_q = rr_space_dim(shifted)
        h1_q = rr_space_dim(canonical_divisor(inst.curve) - shifted)
        assert inst.push == stable_form(n, h0_q, h1_q, q), (
            f"{inst.divisor}: image {inst.push} differs from the stable form"
        )
    report(4, "stable regime n > 2g-2", True, f"({len(instances)} instances)")


def test_criterion_5_bound_compliance():
    instances, _ = _memo("genus1", build_genus1_instances)
    pool = list(instances)
    for side, dual_side in _memo("duality", build_duality_instances):
        pool += [side, dual_side]
    pool += _memo("stable", build_stable_instances)
    pool += _memo("n2", build_n2_sweep)
    violations = 0
    for inst in pool:
        genus = inst.curve.genus
        if genus >= 2:
            bound = spread_bound(
                CurveMapContext(genus, inst.cover.degree, 1, inst.divisor.degree)
            )
            if spread(inst.push) > bound.floor():
                violations += 1
        # genus-1 images satisfy the exact closed-form spread limit of 2
        elif spread(inst.push) > 2:
            violations += 1
    report(5, "spread bound compliance", violations == 0,
           f"({len(pool)} instances, {violations} violations)")


def test_criterion_6_riemann_roch_defect():
    checked = 0
    for n in range(1, 9):
        for m in range(-20, 21):
            seq = g0_oracle_sequence(n, m)
            ctx = CurveMapContext(0, n, 1, m)
            for l in range(seq.lo, seq.hi + 1):
                b_l = max(0, -(m - l * n) - 1)
                assert seq.value_at(l) - b_l == riemann_roch_defect(ctx, l)
                checked += 1
    pool = list(_memo("genus1", build_genus1_instances)[0])
    for side, dual_side in _memo("duality", build_duality_instances):
        pool += [side, dual_side]
    pool += _memo("stable", build_stable_instances)
    for inst in pool:
        n = inst.cover.degree
        ctx = CurveMapContext(inst.curve.genus, n, 1, inst.divisor.degree)
        k = canonical_divisor(inst.curve)
        for l in range(inst.seq.lo, inst.seq.hi + 1):
            b_l = rr_space_dim(k - inst.divisor.shift_infinity(-n * l))
            assert inst.seq.value_at(l) - b_l == riemann_roch_defect(ctx, l)
            checked += 1
    report(6, "Riemann-Roch defect a_l - b_l", True,
           f"({checked} window positions)")


def test_criterion_7_classical_anchor():
    rng = random.Random(20260304)
    for genus in (1, 2, 3, 4, 5):
        for _ in range(3):
            curve = sample_curve(rng, genus)
            image = pushforward(Divisor(curve), ComposedMap(1))
            assert image == SplittingType([0, -genus - 1]), (
                f"f_*O on {curve}: {image}"
            )
    # genus 2, degree g-2 = 0: the O(-3) summand appears exactly at the
    # equality class L = f^*O(-1) (x) K, which is trivial here
    curve = HyperellipticCurve(5, [0, 1, 0, 0, 0, 1])
    cover = ComposedMap(1)
    equality_class = canonical_divisor(curve).shift_infinity(-2)
    assert equality_class.degree == 0
    pts = curve.affine_points()
    seen_equality = 0
    for pt1, pt2 in itertools.combinations(pts, 2):
        for mult1, mult2 in itertools.product(range(-2, 3), repeat=2):
            divisor = Divisor(curve, -mult1 - mult2, {pt1: mult1, pt2: mult2})
            image = pushforward(divisor, cover)
            has_deep_summand = min(image.twists) == -3
            is_equality_class = linearly_equivalent(divisor, equality_class)
            assert has_deep_summand == is_equality_class
            if is_equality_class:
                seen_equality += 1
                assert image == SplittingType([0, -3])
            else:
                assert spread(image) < 3
    report(7, "classical anchor f_*O = O + O(-g-1)", seen_equality > 0,
           f"(g in 1..5; d=g-2 equality class hit {seen_equality} times)")


def test_criterion_8_composition_coherence():
    rng = random.Random(20260305)
    checked = 0
    for genus in (1, 2):
        curve = sample_curve(rng, genus)
        for exponent in (2, 3):
            for _ in range(25):
                divisor = sample_divisor(rng, curve)
                one_shot = pushforward(divisor, ComposedMap(exponent))
                staged = direct_image_g0_bundle(
                    exponent, pushforward(divisor, ComposedMap(1))
                )
                assert one_shot == staged
                checked += 1
    report(8, "composition coherence", True, f"({checked} instances)")


def test_criterion_9_property_suites():
    start = time.perf_counter()
    rng = random.Random(20260306)
    checked = 0

    def check(bundle):
        nonlocal checked
        assert splitting_from_h0_sequence(h0_sequence_of(bundle)) == bundle
        assert serre_dual(serre_dual(bundle)) == bundle
        assert h0(bundle) - h1(bundle) == bundle.degree + bundle.rank
        assert h0(serre_dual(bundle)) == h1(bundle)
        checked += 1

    for t1 in range(-15, 16):
        check(SplittingType([t1]))
        for t2 in range(t1, 16):
            check(SplittingType([t1, t2]))
    while checked < 10_000:
        rank = rng.randint(1, 12)
        check(SplittingType([rng.randint(-15, 15) for _ in range(rank)]))
    elapsed = time.perf_counter() - start
    report(9, "round-trip / involution / index property suites",
           elapsed < 10.0, f"({checked} multisets, {elapsed:.1f}s < 10s)")


def test_criterion_quantities_are_consistent():
    # guard: twist equivariance ties the shared instance pools together
    instances, _ = _memo("genus1", build_genus1_instances)
    sample = instances[:: max(1, len(instances) // 40)]
    for inst in sample:
        n = inst.cover.degree
        shifted = _make_instance(inst.divisor.shift_infinity(n), inst.cover)
        assert shifted.push == twist(inst.push, 1)

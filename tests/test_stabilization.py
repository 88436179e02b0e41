"""Euler defect, duality check, stable form, and spread bounds."""

import random
from fractions import Fraction

import pytest

from pushfwd import (
    CohSequence,
    ComposedMap,
    CurveMapContext,
    NegativeH1,
    OutOfScope,
    Overfull,
    RankMismatch,
    SplittingType,
    canonical_divisor,
    h0_sequence,
    h1_sequence_from_h0,
    pushforward,
    riemann_roch_defect,
    rr_space_dim,
    splitting_from_h1_sequence,
    spread,
    spread_bound,
    stable_form,
    verify_duality,
)
from pushfwd.campaigns import sample_curve, sample_divisor


def test_defect_formula():
    assert riemann_roch_defect(CurveMapContext(0, 2, 1, 0), 0) == 1
    assert riemann_roch_defect(CurveMapContext(1, 2, 1, 0), 0) == 0
    assert riemann_roch_defect(CurveMapContext(2, 2, 1, 0), -1) == 1


def test_defect_matches_oracle_dimensions(genus2_curve):
    # h^0(2 inf) - h^1(2 inf) on the genus-2 curve equals the formula at l = -1
    from pushfwd import Divisor

    two_inf = Divisor(genus2_curve, 2)
    k_minus = canonical_divisor(genus2_curve) - two_inf
    lhs = rr_space_dim(two_inf) - rr_space_dim(k_minus)
    assert lhs == riemann_roch_defect(CurveMapContext(2, 2, 1, 0), -1)


def test_h1_sequence_from_h0_and_route_equality():
    a = CohSequence(-1, (3, 1, 0, 0), 2)
    ctx = CurveMapContext(0, 2, 1, 0)
    b = h1_sequence_from_h0(a, ctx)
    assert b.values == (0, 0, 1, 3)
    assert splitting_from_h1_sequence(b) == SplittingType([0, -1])


def test_h1_sequence_negative_h1():
    a = CohSequence(-1, (3, 1, 0, 0), 2)
    with pytest.raises(NegativeH1):
        h1_sequence_from_h0(a, CurveMapContext(0, 2, 1, 40))



def test_h1_sequence_needs_an_h0_window():
    a = CohSequence(-2, (0, 0, 1), 1, mode="h1")
    with pytest.raises(ValueError, match="^expected an h0-mode sequence$"):
        h1_sequence_from_h0(a, CurveMapContext(0, 2, 1, 0))

def test_h1_sequence_genus1_trivial():
    # elliptic trivial bundle, degree-2 map: a-window (4,2,1,0,0) from -2
    a = CohSequence(-2, (4, 2, 1, 0, 0), 2)
    b = h1_sequence_from_h0(a, CurveMapContext(1, 2, 1, 0))
    assert b.value_at(0) == 1
    assert splitting_from_h1_sequence(b) == SplittingType([0, -2])


def test_verify_duality():
    assert verify_duality(SplittingType([0, -1, -1]), SplittingType([-1, -1, -2]))
    assert verify_duality(SplittingType([0, -3]), SplittingType([1, -2]))
    assert not verify_duality(SplittingType([0]), SplittingType([0]))
    with pytest.raises(RankMismatch):
        verify_duality(SplittingType([0]), SplittingType([0, -1]))


def test_stable_form():
    assert stable_form(5, 1, 2, 0) == SplittingType([0, -1, -1, -2, -2])
    assert stable_form(3, 0, 0, 4) == SplittingType([3, 3, 3])
    with pytest.raises(Overfull):
        stable_form(2, 2, 1, 0)



def test_stable_form_rejects_negative_dimensions():
    for h0, h1 in ((-1, 0), (0, -1), (-1, 2)):
        with pytest.raises(ValueError, match="^cohomology dimensions cannot be negative$"):
            stable_form(3, h0, h1, 0)

def test_spread_bound_cases():
    assert spread_bound(CurveMapContext(2, 3)).bound == 2
    assert spread_bound(CurveMapContext(5, 2)).bound == 6
    b = spread_bound(CurveMapContext(4, 3))
    assert b.bound == Fraction(13, 3)
    assert b.floor() == 4
    # even map degree >= 4
    assert spread_bound(CurveMapContext(4, 4)).bound == Fraction(2 * 4 - 2, 4) + Fraction(5, 2)
    with pytest.raises(OutOfScope):
        spread_bound(CurveMapContext(1, 2))
    with pytest.raises(ValueError):
        spread_bound(CurveMapContext(3, 2), "nonsense")


def test_spread_bound_generic_mode():
    assert spread_bound(CurveMapContext(3, 4), "generic").bound == 1
    # generic assumption buys nothing when n <= g - 1
    assert spread_bound(CurveMapContext(5, 3), "generic") == \
        spread_bound(CurveMapContext(5, 3), "any")


def test_spread_bound_degree_mode():
    near = spread_bound(CurveMapContext(5, 5, 1, 4), "degree")
    assert (near.bound, near.equality_condition) == (2, None)
    low = spread_bound(CurveMapContext(5, 5, 1, 3), "degree")
    assert low.bound == 3
    assert "f^*O(-1)" in low.equality_condition
    high = spread_bound(CurveMapContext(5, 5, 1, 5), "degree")
    assert high.bound == 3
    assert "f^*O(1)" in high.equality_condition
    # a sharper genus/map bound still wins the minimum
    stable = spread_bound(CurveMapContext(2, 3, 1, 0), "degree")
    assert (stable.bound, stable.case_tag) == (2, "n > 2g-2")
    # on a tie the degree-specific case keeps its equality condition
    tied = spread_bound(CurveMapContext(2, 2, 1, 0), "degree")
    assert (tied.bound, tied.case_tag) == (3, "d = g-2")
    assert tied.equality_condition is not None


def test_generic_spread_statistics():
    # over cells with n > g-1: violations of spread <= 1 must be special
    # bundles, i.e. some twist has both cohomologies nonzero
    rng = random.Random(20260811)
    for genus, exponent in ((2, 1), (3, 2)):
        curve = sample_curve(rng, genus, 7)
        cover = ComposedMap(exponent)
        n = cover.degree
        assert n > genus - 1
        violations = 0
        trials = 200
        for _ in range(trials):
            divisor = sample_divisor(rng, curve)
            image = pushforward(divisor, cover)
            if spread(image) <= 1:
                continue
            violations += 1
            shift = -n * image.twists[0]
            twisted = divisor.shift_infinity(shift)
            h0_tw = rr_space_dim(twisted)
            h1_tw = rr_space_dim(canonical_divisor(curve) - twisted)
            assert h0_tw > 0 and h1_tw > 0, (
                f"spread {spread(image)} at a nonspecial bundle: "
                f"{divisor} under degree-{n} cover"
            )
        fraction = (trials - violations) / trials
        print(f"genus {genus}, n {n}: spread<=1 fraction {fraction:.3f}")


def test_duality_on_oracle_instances():
    rng = random.Random(99)
    for genus in (1, 2, 3):
        curve = sample_curve(rng, genus)
        k = canonical_divisor(curve)
        for _ in range(10):
            divisor = sample_divisor(rng, curve)
            cover = ComposedMap(rng.randint(1, 2))
            push = pushforward(divisor, cover)
            push_dual = pushforward(k - divisor, cover)
            assert verify_duality(push, push_dual)


def test_defect_consistency_on_oracle_windows():
    rng = random.Random(7)
    curve = sample_curve(rng, 2)
    k = canonical_divisor(curve)
    for _ in range(10):
        divisor = sample_divisor(rng, curve)
        cover = ComposedMap(rng.randint(1, 2))
        seq = h0_sequence(divisor, cover)
        ctx = CurveMapContext(curve.genus, cover.degree, 1, divisor.degree)
        for l in range(seq.lo, seq.hi + 1):
            b_l = rr_space_dim(k - divisor.shift_infinity(-cover.degree * l))
            assert seq.value_at(l) - b_l == riemann_roch_defect(ctx, l)
        # the converted window extracts to the same splitting
        b_seq = h1_sequence_from_h0(seq, ctx)
        assert splitting_from_h1_sequence(b_seq) == pushforward(divisor, cover)


def test_context_rank_must_be_positive():
    for rank in (0, -1):
        with pytest.raises(ValueError, match=f"^rank must be at least 1, got {rank}$"):
            CurveMapContext(2, 3, rank)

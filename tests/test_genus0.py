"""Closed-form direct images for self-maps of the line."""

import pytest

from pushfwd import (
    InvalidDegree,
    SplittingType,
    direct_image_g0,
    direct_image_g0_bundle,
    g0_oracle_sequence,
    h0_sequence_from_callable,
    serre_dual,
    splitting_from_h0_sequence,
    spread,
    twist,
)


def test_trivial_bundle():
    assert direct_image_g0(3, 0) == SplittingType([0, -1, -1])


def test_positive_twist():
    assert direct_image_g0(5, 7) == SplittingType([1, 1, 1, 0, 0])


def test_identity_map():
    for k in (-3, 0, 4):
        assert direct_image_g0(1, k) == SplittingType([k])


def test_rank_and_degree():
    for n in range(1, 7):
        for m in range(-12, 13):
            image = direct_image_g0(n, m)
            assert image.rank == n
            assert image.degree == m + 1 - n


def test_bundle_pushforward():
    assert direct_image_g0_bundle(2, SplittingType([0])) == SplittingType([0, -1])
    assert direct_image_g0_bundle(2, SplittingType([0, 0])) == SplittingType([0, 0, -1, -1])
    # O(4) -> {1, 1, 0}; O(-1) -> {-1, -1, -1} (no sections, so nothing >= 0)
    assert direct_image_g0_bundle(3, SplittingType([4, -1])) == SplittingType(
        [1, 1, 0, -1, -1, -1]
    )


def test_bundle_pushforward_matches_summed_oracle():
    # second differences of l -> h0(O(4-3l)) + h0(O(-1-3l))
    got = direct_image_g0_bundle(3, SplittingType([4, -1]))
    seq = h0_sequence_from_callable(
        lambda l: max(0, 4 - 3 * l + 1) + max(0, -1 - 3 * l + 1), 6
    )
    assert splitting_from_h0_sequence(seq) == got


def test_invalid_degree():
    with pytest.raises(InvalidDegree):
        direct_image_g0(0, 3)
    with pytest.raises(InvalidDegree):
        direct_image_g0_bundle(-1, SplittingType([0]))
    with pytest.raises(InvalidDegree):
        g0_oracle_sequence(0, 0)


def test_oracle_sequence_values():
    seq = g0_oracle_sequence(2, 0)
    assert (seq.lo, seq.values) == (-1, (3, 1, 0, 0))

    seq2 = g0_oracle_sequence(5, 7)
    assert seq2.value_at(1) == 3
    assert seq2.value_at(0) == 8
    assert seq2.value_at(2) == 0

    seq3 = g0_oracle_sequence(1, 0)
    assert seq3.value_at(0) == 1
    assert seq3.value_at(1) == 0


def test_oracle_equivalence_grid():
    for n in range(1, 9):
        for m in range(-20, 21):
            assert splitting_from_h0_sequence(g0_oracle_sequence(n, m)) == \
                direct_image_g0(n, m)
    # windows more than 10_000 steps from l = 0
    for n, m in ((1, 50000), (3, -40000)):
        assert splitting_from_h0_sequence(g0_oracle_sequence(n, m)) == \
            direct_image_g0(n, m)


def test_projection_formula():
    for n in range(1, 6):
        for m in range(-8, 9):
            base = direct_image_g0(n, m)
            for l in range(-3, 4):
                assert direct_image_g0(n, m + l * n) == twist(base, l)


def test_spread_at_most_one():
    for n in range(1, 9):
        for m in range(-20, 21):
            assert spread(direct_image_g0(n, m)) <= 1


def test_duality_instance():
    # the canonical class of the source line is O(-2)
    for n in range(1, 7):
        for m in range(-10, 11):
            assert serre_dual(direct_image_g0(n, m)) == direct_image_g0(n, -2 - m)

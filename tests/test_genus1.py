"""Direct images of indecomposable bundles on elliptic curves."""

import pytest

from pushfwd import (
    AtiyahBundleSpec,
    ExcessFlag,
    InvalidDegree,
    MissingFlag,
    SplittingType,
    direct_image_g1,
    direct_image_g1_bundle,
    elliptic_cohomology,
    h0,
    h1,
    serre_dual,
    spread,
    twist,
)


def test_cohomology_table():
    assert elliptic_cohomology(AtiyahBundleSpec(3, 2)) == (2, 0)
    assert elliptic_cohomology(AtiyahBundleSpec(2, 0, True)) == (1, 1)
    assert elliptic_cohomology(AtiyahBundleSpec(2, 0, False)) == (0, 0)
    assert elliptic_cohomology(AtiyahBundleSpec(1, -3)) == (0, 3)


def test_cohomology_flag_contract():
    with pytest.raises(MissingFlag):
        elliptic_cohomology(AtiyahBundleSpec(2, 0))
    with pytest.raises(ExcessFlag, match="applies only at degree 0"):
        elliptic_cohomology(AtiyahBundleSpec(2, 5, True))


def test_direct_image_examples():
    assert direct_image_g1(2, AtiyahBundleSpec(1, 1)) == SplittingType([0, -1])
    assert direct_image_g1(2, AtiyahBundleSpec(2, 0, True)) == SplittingType(
        [0, -1, -1, -2]
    )
    assert direct_image_g1(3, AtiyahBundleSpec(1, -2)) == SplittingType([-1, -2, -2])
    # non-exceptional degree-zero case collapses to rn copies of O(q-1)
    assert direct_image_g1(2, AtiyahBundleSpec(1, 0, False)) == SplittingType([-1, -1])


def test_direct_image_flag_contract():
    with pytest.raises(MissingFlag):
        direct_image_g1(2, AtiyahBundleSpec(1, 4))  # 4 = 2 * rn
    with pytest.raises(ExcessFlag):
        direct_image_g1(2, AtiyahBundleSpec(1, 3, False))
    with pytest.raises(InvalidDegree):
        direct_image_g1(0, AtiyahBundleSpec(1, 1))
    with pytest.raises(InvalidDegree):
        direct_image_g1(1, AtiyahBundleSpec(1, 0, True))  # rn = 1 has no room


def _specs(rank, degree, rn):
    if degree % rn == 0:
        return [AtiyahBundleSpec(rank, degree, True), AtiyahBundleSpec(rank, degree, False)]
    return [AtiyahBundleSpec(rank, degree)]


def test_grid_invariants():
    for n in range(1, 5):
        for rank in range(1, 5):
            rn = rank * n
            if rn < 2:
                continue
            for degree in range(-3 * rn, 3 * rn + 1):
                for spec in _specs(rank, degree, rn):
                    image = direct_image_g1(n, spec)
                    q = degree // rn
                    # Euler characteristic transfers: chi upstairs is d
                    assert image.rank == rn
                    assert image.degree == degree - rn
                    # cohomology matches the q-untwisted table entry
                    effective = AtiyahBundleSpec(rank, degree - q * rn, spec.exceptional)
                    expected_h0, expected_h1 = elliptic_cohomology(effective)
                    untwisted = twist(image, -q)
                    assert h0(untwisted) == expected_h0
                    assert h1(untwisted) == expected_h1
                    # twist equivariance
                    shifted = AtiyahBundleSpec(rank, degree + rn, spec.exceptional)
                    assert direct_image_g1(n, shifted) == twist(image, 1)
                    # duality: the canonical bundle is trivial upstairs
                    dual_spec = AtiyahBundleSpec(rank, -degree, spec.exceptional)
                    assert serre_dual(image) == direct_image_g1(n, dual_spec)
                    # spread: 2 exactly on the exceptional branch
                    if degree % rn == 0 and spec.exceptional:
                        assert spread(image) == 2
                    else:
                        assert spread(image) <= 1


def test_bundle_wrapper_union():
    total = direct_image_g1_bundle(
        2, [AtiyahBundleSpec(1, 1), AtiyahBundleSpec(1, 0, True)]
    )
    assert total == SplittingType([0, -1]) + SplittingType([0, -2])
    with pytest.raises(ValueError):
        direct_image_g1_bundle(2, [])

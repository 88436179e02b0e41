"""Splitting-type calculus: cohomology table, duality, extraction."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushfwd import (
    AtiyahBundleSpec,
    CohSequence,
    CurveMapContext,
    InvalidSequence,
    NegativeSecondDifference,
    RankMismatch,
    SplittingType,
    direct_image_g0,
    direct_image_g1,
    g0_oracle_sequence,
    h0,
    h0_sequence_from_callable,
    h0_sequence_of,
    h1,
    serre_dual,
    splitting_from_h0_sequence,
    splitting_from_h1_sequence,
    splitting_text,
    spread,
    stable_form,
    twist,
)
from pushfwd.splitting import MAX_LISTED_SUMMANDS

twist_lists = st.lists(st.integers(-15, 15), min_size=1, max_size=12)
bundles = twist_lists.map(SplittingType)


def test_canonical_form_and_equality():
    a = SplittingType([-1, 0, -1])
    b = SplittingType((0, -1, -1))
    assert a == b
    assert a.twists == (0, -1, -1)
    assert a.rank == 3
    assert a.degree == -2
    assert a.pairs() == ((0, 1), (-1, 2))
    assert SplittingType.from_pairs([(0, 1), (-1, 2)]) == a
    with pytest.raises(ValueError):
        SplittingType(())


def test_h0_table():
    assert h0(SplittingType([0, -1, -1])) == 1
    assert h0(SplittingType([0])) == 1
    assert h0(SplittingType([3, -5])) == 4


def test_h1_table():
    assert h1(SplittingType([0, -1, -1])) == 0
    assert h1(SplittingType([-2])) == 1
    assert h1(SplittingType([3, -5])) == 4


def test_twist():
    assert twist(SplittingType([0, -1]), 1) == SplittingType([1, 0])
    assert twist(SplittingType([0, -1]), 0) == SplittingType([0, -1])
    assert twist(SplittingType([2, 2, -1]), -2) == SplittingType([0, 0, -3])


def test_serre_dual():
    assert serre_dual(SplittingType([0, -1, -1])) == SplittingType([-1, -1, -2])
    assert serre_dual(SplittingType([0])) == SplittingType([-2])
    assert serre_dual(SplittingType([1, -3])) == SplittingType([1, -3])


def test_serre_dual_fixed_points_are_symmetric_multisets():
    # brute force over small multisets: fixed exactly when {-t-2} = {t}
    for rank in (1, 2, 3):
        for ts in itertools.combinations_with_replacement(range(-4, 3), rank):
            b = SplittingType(ts)
            symmetric = sorted(-t - 2 for t in ts) == sorted(ts)
            assert (serre_dual(b) == b) == symmetric


def test_spread():
    assert spread(SplittingType([0, -1, -2])) == 2
    assert spread(SplittingType([5, 5, 5])) == 0
    assert spread(SplittingType([0, -3])) == 3


def test_extraction_from_h0_sequence():
    seq = CohSequence(-1, (3, 1, 0, 0), 2)
    assert seq.window() == (-1, 2)
    assert splitting_from_h0_sequence(seq) == SplittingType([0, -1])

    seq2 = CohSequence(-2, (4, 2, 1, 0, 0), 2)
    assert splitting_from_h0_sequence(seq2) == SplittingType([0, -2])


def test_extraction_error_paths():
    # second differences sum to 1, not the claimed rank 2
    with pytest.raises(RankMismatch):
        CohSequence(-1, (2, 1, 0, 0), 2)
    # convexity violated
    with pytest.raises(NegativeSecondDifference):
        CohSequence(0, (2, 1, 1, 0, 0), 2)
    # no zero tail
    with pytest.raises(InvalidSequence):
        CohSequence(0, (3, 2, 1), 1)
    with pytest.raises(InvalidSequence):
        CohSequence(0, (1, 0, 0), 0)


def test_h1_route_extraction():
    seq = CohSequence(-2, (0, 0, 1), 1, mode="h1")
    assert splitting_from_h1_sequence(seq) == SplittingType([-2])
    with pytest.raises(ValueError):
        splitting_from_h1_sequence(CohSequence(-1, (3, 1, 0, 0), 2))
    with pytest.raises(InvalidSequence):
        CohSequence(0, (1, 0, 0), 1, mode="h1")


def test_h0_sequence_of_examples():
    seq = h0_sequence_of(SplittingType([0, -1]))
    assert (seq.lo, seq.values) == (-1, (3, 1, 0, 0))

    single = h0_sequence_of(SplittingType([2]))
    assert single.lo == 2
    assert single.value_at(2) == 1

    b = SplittingType([0, -1, -2])
    seq3 = h0_sequence_of(b)
    assert seq3.value_at(0) == 1
    assert seq3.value_at(-1) == 3
    assert seq3.value_at(-2) == 6


def test_window_discovery_matches_minimal_window():
    b = SplittingType([0, -3])
    table = {l: h0(twist(b, -l)) for l in range(-30, 30)}
    found = h0_sequence_from_callable(lambda l: table[l], 2)
    assert found == h0_sequence_of(b)


def test_window_discovery_gives_up_on_an_endless_walk():
    with pytest.raises(InvalidSequence, match="never vanishes above"):
        h0_sequence_from_callable(lambda l: 1, 1)
    with pytest.raises(InvalidSequence, match="no positive values"):
        h0_sequence_from_callable(lambda l: 0, 1)


def test_window_discovery_from_a_start_inside_the_window():
    b = SplittingType([2, 0, 0, -3])
    table = {l: h0(twist(b, -l)) for l in range(-30, 30)}
    expected = h0_sequence_from_callable(lambda l: table[l], 4)
    for start in range(expected.lo, expected.hi + 1):
        queried = []

        def h0_of(l):
            queried.append(l)
            return table[l]

        found = h0_sequence_from_callable(h0_of, 4, start=start)
        assert found == expected
        assert sorted(queried) == list(range(expected.lo, expected.hi + 1))


@given(bundles)
def test_riemann_roch_on_the_line(b):
    assert h0(b) - h1(b) == b.degree + b.rank


@given(bundles)
def test_serre_dual_involution_and_cohomology_swap(b):
    d = serre_dual(b)
    assert serre_dual(d) == b
    assert h0(d) == h1(b)
    assert h1(d) == h0(b)


@given(bundles, st.integers(-5, 5))
def test_twist_rank_degree(b, l):
    t = twist(b, l)
    assert t.rank == b.rank
    assert t.degree == b.degree + b.rank * l
    assert spread(t) == spread(b)


@given(bundles)
@settings(max_examples=200)
def test_round_trip(b):
    assert splitting_from_h0_sequence(h0_sequence_of(b)) == b


@given(bundles, st.integers(-4, 4))
def test_twist_equivariance_of_extraction(b, l):
    # moving the window down by l re-reads the values as those of B(-l)
    seq = h0_sequence_of(b)
    shifted = CohSequence(seq.lo - l, seq.values, seq.rank_hint)
    assert splitting_from_h0_sequence(shifted) == twist(b, -l)


# The run-length form against the one-int-per-summand formulas it replaced.
def _h0_reference(ts):
    return sum(max(0, t + 1) for t in ts)


@given(twist_lists, bundles, st.integers(-5, 5))
@settings(max_examples=200)
def test_stored_form_matches_the_expanded_formulas(ts, other, l):
    b = SplittingType(ts)
    ref = tuple(sorted(ts, reverse=True))
    assert b == SplittingType.from_pairs((t, 1) for t in ts)
    assert hash(b) == hash(SplittingType.from_pairs((t, 1) for t in ts))
    assert b.twists == ref
    pairs = b.pairs()
    assert all(t > u for (t, _), (u, _) in zip(pairs, pairs[1:]))
    assert all(mult > 0 for _, mult in pairs)

    assert b.rank == len(ref)
    assert b.degree == sum(ref)
    assert h0(b) == _h0_reference(ref)
    assert h1(b) == sum(max(0, -t - 1) for t in ref)
    assert spread(b) == ref[0] - ref[-1]
    assert twist(b, l).twists == tuple(t + l for t in ref)
    assert serre_dual(b).twists == tuple(sorted((-t - 2 for t in ref), reverse=True))
    assert (b + other).twists == tuple(sorted(ref + other.twists, reverse=True))
    assert splitting_text(b) == " ".join(str(t) for t in ref)

    seq = h0_sequence_of(b)
    assert (seq.lo, seq.hi, seq.rank_hint) == (ref[-1], ref[0] + 2, len(ref))
    assert seq.values == tuple(_h0_reference([t - k for t in ref])
                               for k in range(ref[-1], ref[0] + 3))


@given(st.lists(st.tuples(st.integers(-15, 15), st.integers(0, 4)), max_size=8))
def test_from_pairs_drops_zero_multiplicities(runs):
    expanded = [t for t, mult in runs for _ in range(mult)]
    if expanded:
        assert SplittingType.from_pairs(runs) == SplittingType(expanded)
    else:
        with pytest.raises(ValueError, match="at least one summand"):
            SplittingType.from_pairs(runs)


def test_from_pairs_rejects_negative_multiplicities_and_no_summands():
    with pytest.raises(ValueError, match="cannot be negative"):
        SplittingType.from_pairs([(0, 2), (-1, -1)])
    for empty in ([], [(3, 0)]):
        with pytest.raises(ValueError, match="at least one summand"):
            SplittingType.from_pairs(empty)
    with pytest.raises(AttributeError):
        SplittingType([0]).twists = (1,)


def test_non_integers_are_rejected_by_name():
    # Nothing is truncated or kept as a float: each field names itself.
    cases = [
        (lambda: SplittingType([1.5, 0]), "twist must be an integer, got 1.5"),
        (lambda: SplittingType(["3"]), "twist must be an integer, got '3'"),
        (lambda: SplittingType.from_pairs([(1, 1.5)]), "multiplicity must be an integer, got 1.5"),
        (lambda: stable_form(3, 1.5, 0, 0), "h0 must be an integer, got 1.5"),
        (lambda: stable_form(4.0, 1, 1, 0), "n must be an integer, got 4.0"),
        (lambda: stable_form(4, 1, 1.0, 0), "h1 must be an integer, got 1.0"),
        (lambda: stable_form(4, 1, 1, 0.5), "q must be an integer, got 0.5"),
        (lambda: direct_image_g0(2.0, 1), "n must be an integer, got 2.0"),
        (lambda: direct_image_g0(2, 1.0), "m must be an integer, got 1.0"),
        (lambda: g0_oracle_sequence(2.0, 3), "n must be an integer, got 2.0"),
        (lambda: direct_image_g1(2.0, AtiyahBundleSpec(1, 3)), "n must be an integer, got 2.0"),
        (lambda: AtiyahBundleSpec(1.0, 3), "rank must be an integer, got 1.0"),
        (lambda: AtiyahBundleSpec(1, "3"), "degree must be an integer, got '3'"),
        (lambda: CurveMapContext(2.5, 3, 1, 1), "genus must be an integer, got 2.5"),
        (lambda: CurveMapContext(2, 3.0, 1, 1), "map_degree must be an integer, got 3.0"),
        (lambda: CurveMapContext(2, 3, 1.0, 1), "rank must be an integer, got 1.0"),
        (lambda: CurveMapContext(2, 3, 1, 0.5), "bundle_degree must be an integer, got 0.5"),
        (lambda: CohSequence(0, (3.7, 1, 0, 0), 2), "window value must be an integer, got 3.7"),
        (lambda: CohSequence(0.5, (3, 1, 0, 0), 2), "lo must be an integer, got 0.5"),
        (lambda: CohSequence(0, (3, 1, 0, 0), 2.0), "rank_hint must be an integer, got 2.0"),
        (lambda: h0_sequence_from_callable(lambda l: max(0, 2.5 - l), 1),
         "window value must be an integer, got 2.5"),
        (lambda: h0_sequence_from_callable(lambda l: max(0, 2 - l), 1.0),
         "rank_hint must be an integer, got 1.0"),
        (lambda: h0_sequence_from_callable(lambda l: max(0, 2 - l), 1, start=0.5),
         "start must be an integer, got 0.5"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=message):
            build()


def test_huge_ranks_stay_run_length():
    n = 10**30
    b = SplittingType.from_pairs([(0, 6), (-1, n - 6)])
    assert (b.rank, b.degree, h0(b), h1(b), spread(b)) == (n, 6 - n, 6, 0, 1)
    assert serre_dual(serre_dual(b)) == b
    assert splitting_from_h0_sequence(h0_sequence_of(b)) == b
    with pytest.raises(ValueError, match="--format json"):
        splitting_text(b)
    edge = SplittingType.from_pairs([(1, MAX_LISTED_SUMMANDS)])
    assert splitting_text(edge) == " ".join(["1"] * MAX_LISTED_SUMMANDS)
    with pytest.raises(ValueError, match=f"rank {MAX_LISTED_SUMMANDS + 1} "):
        splitting_text(edge + SplittingType([1]))

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from census_pairs import pairs
from hook_lengths import (
    an_degrees_by_pairing,
    build_partition_table,
    conjugate_partition,
    hook_degree,
    partitions,
    sn_degrees,
)
from repzeta.census import DegreeCensus
from repzeta.symmetric import MAX_K, rbound_check, young_levels


def test_partition_enumeration_counts():
    # p(n) for n = 1..10
    expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [len(list(partitions(n))) for n in range(1, 11)] == expected


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=18))
def test_conjugation_involution_and_degree_equality(k):
    for lam in partitions(k):
        conj = conjugate_partition(lam)
        assert conjugate_partition(conj) == lam
        assert hook_degree(conj) == hook_degree(lam)


def test_sn_census_examples():
    assert pairs(sn_degrees(4)) == ((1, 2), (2, 1), (3, 2))
    assert pairs(sn_degrees(5)) == ((1, 2), (4, 2), (5, 2), (6, 1))
    assert pairs(sn_degrees(1)) == ((1, 1),)


def test_an_census_examples(an_censuses):
    assert pairs(an_censuses[4]) == ((1, 3), (3, 1))
    assert pairs(an_censuses[5]) == ((1, 1), (3, 2), (4, 1), (5, 1))
    assert pairs(an_censuses[2]) == ((1, 1),)


def test_sweep_degrees_match_hook_lengths():
    """Every level of the branching sweep to 30 holds exactly the partitions of k
    with their hook-length degrees."""
    for k, degrees in young_levels(30):
        assert degrees == {lam: deg for lam, deg, _ in build_partition_table(k).items}, k
    assert [k for k, _ in young_levels(4)] == [1, 2, 3, 4]
    for kmax in (0, -3, MAX_K + 1):
        with pytest.raises(ValueError, match=f"1..{MAX_K}"):
            next(young_levels(kmax))


def test_an_census_matches_conjugate_pairing(an_censuses):
    for k in range(2, 31):
        assert an_censuses[k] == an_degrees_by_pairing(k), k


def test_mass_identities_up_to_30(an_censuses):
    for k in range(1, 31):
        assert sn_degrees(k).mass == math.factorial(k)
        if k >= 2:
            assert 2 * an_censuses[k].mass == math.factorial(k)


def test_an_count_identity(an_censuses):
    for k in range(2, 25):
        table = build_partition_table(k)
        selfconj = len(table.self_conjugate)
        pairs = (table.partition_count - selfconj) // 2
        assert an_censuses[k].total_count == pairs + 2 * selfconj


def test_an_census_zeta_values(an_censuses):
    assert an_censuses[5].zeta(1.0) == pytest.approx(1 + 2 / 3 + 1 / 4 + 1 / 5)
    assert an_censuses[12].zeta(50.0) == pytest.approx(1.0, abs=1e-9)
    assert an_censuses[12].zeta(1.0) < an_censuses[6].zeta(1.0)


def test_trend_toward_one(an_censuses):
    values = [an_censuses[k].zeta(1.0) for k in range(8, 31)]
    assert all(a > b for a, b in zip(values, values[1:]))
    # frozen value: 1 + 1/29 + 1/405 + 1/406 + smaller terms
    assert values[-1] == pytest.approx(1.0402730951, abs=1e-8)


def test_minimal_nontrivial_degree(an_censuses):
    for k in range(9, 31):
        census = an_censuses[k]
        nontrivial = [d for d in census.degrees if d > 1]
        assert min(nontrivial) == k - 1


def test_rbound_check(an_censuses):
    for k in (5, 10, 20):
        census = an_censuses[k]
        for s in (0.5, 0.9):
            assert rbound_check(census, s)
            # recompute both sides independently at every census degree
            c = sum(m * d ** (-s) for d, m in pairs(census)) - 1.0
            running = 0
            for deg, mult in pairs(census):
                running += mult
                assert running <= c * deg ** s + 1.0 + 1e-9
    assert rbound_check(DegreeCensus((1,), (1,), bound=1), 0.5)
    with pytest.raises(ValueError):
        rbound_check(an_censuses[5], 1.0)

import pytest

from repzeta.census import DegreeCensus
from repzeta.errors import BudgetExceededError
import repzeta.finite_oracle as finite_oracle
from repzeta.finite_oracle import (
    _class_row,
    _identity,
    _inv,
    _mul,
    abelianization_order,
    character_degrees,
    conjugacy_classes,
    dixon_prime,
    generate_group,
    group_exponent,
    sl2_group,
)
from repzeta.local_sl2 import level_census


def sl_order(p, k):
    """|SL2(Z/p^k)| = p^(3(k-1)) (p^3 - p)."""
    return p ** (3 * (k - 1)) * (p ** 3 - p)


def test_generate_sl2_orders():
    assert sl2_group(3).order == 24
    assert sl2_group(9).order == 648
    assert sl2_group(5).order == sl_order(5, 1) == 120


def test_trivial_group():
    g = generate_group(7, 2, [])
    assert g.order == 1
    census = character_degrees(g)
    assert census.entries == ((1, 1),)
    assert conjugacy_classes(g).count == 1


def test_generator_validation_and_budget():
    with pytest.raises(ValueError):
        generate_group(9, 2, [[[3, 0], [0, 3]]])  # det 0 mod 9
    with pytest.raises(BudgetExceededError):
        sl2_group(9, budget=100)


def test_group_closure_small():
    g = sl2_group(3)
    elements = set(g.elements)
    for a in g.elements:
        assert _inv(a, 2, 3) in elements
        for b in list(elements)[:6]:
            assert _mul(a, b, 2, 3) in elements
    assert _identity(2) == g.elements[0]


def test_classes_against_all_pairs_oracle():
    """Full-conjugation oracle on the smallest group validates the sweeps."""
    g = sl2_group(3)
    classes = conjugacy_classes(g)

    def brute_class(x):
        return frozenset(_mul(_mul(_inv(h, 2, 3), x, 2, 3), h, 2, 3) for h in g.elements)

    brute = {brute_class(x) for x in g.elements}
    assert len(brute) == classes.count == 7
    sizes = sorted(len(c) for c in brute)
    assert sizes == sorted(classes.sizes)


def test_class_counts_sl2_3adic(sl2_groups, sl2_z27_classes):
    assert conjugacy_classes(sl2_groups[3]).count == 7
    assert conjugacy_classes(sl2_groups[9]).count == 25
    assert sl2_z27_classes.count == 79


def test_class_count_floor():
    # crude census floor gamma_bar(SL2(Z/q^k)) >= q^k at q = 3
    for k, count in ((1, 7), (2, 25), (3, 79)):
        assert count >= 3 ** k


def test_dixon_degrees_match_formula(sl2_groups):
    for modulus, (q, k) in ((3, (3, 1)), (9, (3, 2)), (5, (5, 1)), (25, (5, 2))):
        census = character_degrees(sl2_groups[modulus])
        assert census.entries == level_census(q, k).census.entries
        assert census.mass == sl2_groups[modulus].order
        assert census.total_count == conjugacy_classes(sl2_groups[modulus]).count


def test_dixon_degrees_match_formula_level3(sl2_z27):
    # order 17496, 79 classes; degree 12 merges the level-2 and level-3 families
    census = character_degrees(sl2_z27)
    assert census.entries == level_census(3, 3).census.entries
    assert dict(census.entries)[12] == 38


def quaternion_group():
    # Q8 inside SL2(F3)
    return generate_group(3, 2, [[[0, -1], [1, 0]], [[1, 1], [1, -1]]])


@pytest.mark.parametrize(
    "make_group",
    [lambda: sl2_group(3), lambda: sl2_group(4), quaternion_group],
    ids=["SL2(Z/3)", "SL2(Z/4)", "Q8"],
)
def test_class_row_against_pair_count(make_group):
    """Every row of every class matrix equals #{(x, y) in C_i x C_j : x*y = rep_k} mod l."""
    g = make_group()
    n, m = g.n, g.modulus
    classes = conjugacy_classes(g)
    c = classes.count
    ell = dixon_prime(g.order, group_exponent(g, classes))
    members = [[x for x in g.elements if classes.class_of[x] == i] for i in range(c)]
    rep_index = {rep: k for k, rep in enumerate(classes.representatives)}
    for i in range(c):
        for j in range(c):
            counts = [0] * c
            for x in members[i]:
                for y in members[j]:
                    k = rep_index.get(_mul(x, y, n, m))
                    if k is not None:
                        counts[k] += 1
            assert _class_row(g, classes, members, i, j, ell) == [v % ell for v in counts]


@pytest.mark.parametrize("bad_call", [0, 10, 40])
def test_corrupted_class_row_is_caught(monkeypatch, sl2_groups, bad_call):
    calls = []

    def corrupted(group, classes, members, i, j, ell):
        row = _class_row(group, classes, members, i, j, ell)
        if len(calls) == bad_call:
            row = [(row[0] + 1) % ell] + row[1:]
        calls.append((i, j))
        return row

    monkeypatch.setattr(finite_oracle, "_class_row", corrupted)
    with pytest.raises(AssertionError):
        character_degrees(sl2_groups[9])
    assert len(calls) > bad_call


def test_dixon_on_quaternion_group():
    # Q8 inside SL2(F3): degrees 1,1,1,1,2
    g = quaternion_group()
    assert g.order == 8
    assert character_degrees(g).entries == ((1, 4), (2, 1))
    assert abelianization_order(g) == 4


def test_degree_one_count_is_abelianization(sl2_groups):
    for modulus in (3, 9, 5):
        g = sl2_groups[modulus]
        census = character_degrees(g)
        ones = dict(census.entries).get(1, 0)
        assert ones == abelianization_order(g)


def test_dixon_class_budget():
    with pytest.raises(BudgetExceededError):
        character_degrees(sl2_group(9), class_budget=10)


def test_census_type_validation():
    with pytest.raises(ValueError):
        DegreeCensus(entries=((2, 1), (2, 1)), bound=5)
    with pytest.raises(ValueError):
        DegreeCensus(entries=((1, 0),), bound=5)
    merged = DegreeCensus.from_pairs([(3, 1), (1, 2), (3, 2)], bound=4)
    assert merged.entries == ((1, 2), (3, 3))

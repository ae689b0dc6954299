import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repzeta.census import DegreeCensus
from repzeta.errors import BudgetExceededError
import repzeta.finite_oracle as finite_oracle
from repzeta.finite_oracle import (
    _class_row,
    _conjugation_tables,
    _identity,
    _inv,
    _mul,
    _order_and_inverse,
    _through_pivots,
    _word,
    abelianization_order,
    character_degrees,
    conjugacy_classes,
    dixon_prime,
    generate_group,
    sl2_group,
)
from repzeta.linalg import rref_mod_p
from repzeta.local_sl2 import level_census, sl2_local_factor
from tuple_classes import (
    tuple_conjugacy_classes,
    tuple_inverse,
    tuple_order_and_inverse,
    tuple_product,
)


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


def test_generator_validation_and_budget(monkeypatch):
    with pytest.raises(ValueError):
        generate_group(9, 2, [[[3, 0], [0, 3]]])  # det 0 mod 9
    monkeypatch.setattr(finite_oracle, "GROUP_BUDGET", 100)
    with pytest.raises(BudgetExceededError):
        sl2_group(9)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), m=st.integers(2, 60))
def test_mul_matches_tuple_product(data, n, m):
    """The fused 2x2 product and the linalg path against the test-side flat product."""
    entries = st.lists(st.integers(0, m - 1), min_size=n * n, max_size=n * n)
    a, b = tuple(data.draw(entries)), tuple(data.draw(entries))
    assert _mul(a, b, n, m) == tuple_product(a, b, n, m)


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
    cases = ((3, (3, 1)), (9, (3, 2)), (5, (5, 1)), (25, (5, 2)), (49, (7, 2)), (53, (53, 1)))
    for modulus, (q, k) in cases:
        # SL2(Z/53), 148,824 elements, is built here and not kept for the session
        group = sl2_groups[modulus] if modulus in sl2_groups else sl2_group(modulus)
        census = character_degrees(group)
        assert census.entries == level_census(sl2_local_factor(q), k).entries
        assert census.mass == group.order
        assert census.total_count == conjugacy_classes(group).count


def test_dixon_degrees_match_formula_level3(sl2_z27):
    # order 17496, 79 classes; degree 12 merges the level-2 and level-3 families
    census = character_degrees(sl2_z27)
    assert census.entries == level_census(sl2_local_factor(3), 3).entries
    assert dict(census.entries)[12] == 38


def quaternion_group():
    # Q8 inside SL2(F3)
    return generate_group(3, 2, [[[0, -1], [1, 0]], [[1, 1], [1, -1]]])


def heisenberg_group():
    # unipotent upper-triangular 3x3 over F3, generated by E_12 and E_23
    return generate_group(3, 3, [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]])


def sl3_f2():
    # E_12 and the 3-cycle permutation matrix generate SL3(F2), the simple group of order 168
    return generate_group(2, 3, [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]])


@pytest.mark.parametrize(
    "make_group",
    [lambda: sl2_group(3), lambda: sl2_group(4), quaternion_group, heisenberg_group],
    ids=["SL2(Z/3)", "SL2(Z/4)", "Q8", "Heis(F3)"],
)
def test_class_row_against_pair_count(make_group):
    """Every row of every class matrix equals #{(x, y) in C_i x C_j : x*y = rep_k} mod l."""
    g = make_group()
    n, m = g.n, g.modulus
    classes = conjugacy_classes(g)
    c = classes.count
    exponent = math.lcm(*(tuple_order_and_inverse(x, n, m)[0] for x in g.elements))
    ell = dixon_prime(g.order, exponent)
    members = [[k for k in range(g.order) if classes.class_ids[k] == i] for i in range(c)]
    words = [_word(g, k) for k in classes.rep_indices]
    rep_index = {g.elements[k]: j for j, k in enumerate(classes.rep_indices)}
    for i in range(c):
        for j in range(c):
            counts = [0] * c
            for x in members[i]:
                for y in members[j]:
                    k = rep_index.get(_mul(g.elements[x], g.elements[y], n, m))
                    if k is not None:
                        counts[k] += 1
            assert _class_row(g, classes, members, words, i, j, ell) == [v % ell for v in counts]


@pytest.mark.parametrize("ell", [73, 1093])
def test_through_pivots_matches_full_products(ell):
    """act and the embedding read through the identity columns equal the full dot products."""
    rng = random.Random(ell)
    for c in range(1, 13):
        # the start space (P = every column), 1-dim subspaces and random ones
        shapes = [([[int(i == j) for j in range(c)] for i in range(c)], list(range(c)))]
        for d in (1, 1, rng.randint(1, c), rng.randint(1, c)):
            basis, pivots = rref_mod_p([[rng.randrange(ell) for _ in range(c)] for _ in range(d)], ell)
            if basis:
                shapes.append((basis, pivots))
        for basis, pivots in shapes:
            rows = {p: [rng.randrange(ell) for _ in range(c)] for p in pivots}
            act, embed = _through_pivots(basis, pivots, rows, ell)
            assert act == [[sum(r * x for r, x in zip(rows[p], b)) % ell for b in basis]
                           for p in pivots]
            for _ in range(3):
                kvec = [rng.randrange(ell) for _ in basis]
                assert embed(kvec) == [sum(k * b[j] for k, b in zip(kvec, basis)) % ell
                                       for j in range(c)]


@pytest.mark.parametrize("bad_call", [0, 10, 40])
def test_corrupted_class_row_is_caught(monkeypatch, sl2_groups, bad_call):
    calls = []

    def corrupted(group, classes, members, words, i, j, ell):
        row = _class_row(group, classes, members, words, i, j, ell)
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


@pytest.mark.parametrize(
    "make_group, order, class_count, degrees, abelianization",
    [
        (heisenberg_group, 27, 11, ((1, 9), (3, 2)), 9),
        (sl3_f2, 168, 6, ((1, 1), (3, 2), (6, 1), (7, 1), (8, 1)), 1),
    ],
    ids=["Heis(F3)", "SL3(F2)"],
)
def test_dixon_on_3x3_groups(make_group, order, class_count, degrees, abelianization):
    """3x3 groups take every BFS and abelianization product through `linalg.mat_mul_mod`."""
    g = make_group()
    assert g.order == order
    assert conjugacy_classes(g).count == class_count
    census = character_degrees(g)
    assert census.entries == degrees
    assert census.total_count == class_count
    assert abelianization_order(g) == abelianization == dict(degrees)[1]


OTHER_GROUPS = {
    "Q8": quaternion_group,
    "Heis(F3)": heisenberg_group,
    "SL3(F2)": sl3_f2,
    "trivial": lambda: generate_group(7, 2, []),
}


@pytest.fixture(
    params=[*range(2, 17), 25, 27, *OTHER_GROUPS],
    ids=lambda p: f"SL2(Z/{p})" if isinstance(p, int) else p,
)
def oracle_group(request):
    """SL2(Z/m) for a modulus m, or a named group; 25 and 27 are the session's."""
    if request.param in OTHER_GROUPS:
        return OTHER_GROUPS[request.param]()
    if request.param == 25:
        return request.getfixturevalue("sl2_groups")[25]
    if request.param == 27:
        return request.getfixturevalue("sl2_z27")
    return sl2_group(request.param)


def test_indexed_classes_match_tuple_sweep(oracle_group):
    """The index-table sweep finds the tuple-product sweep's classes, in its order."""
    g = oracle_group
    classes = conjugacy_classes(g)
    reps, sizes, class_of = tuple_conjugacy_classes(g)
    assert list(classes.sizes) == sizes
    assert classes.count == len(reps)
    assert dict(zip(g.elements, classes.class_ids)) == class_of
    assert classes.class_ids == [class_of[x] for x in g.elements]
    assert [g.elements[k] for k in classes.rep_indices] == reps


def _index(g):
    """Each element's position in the BFS order, built test-side."""
    index = {x: k for k, x in enumerate(g.elements)}
    assert len(index) == g.order  # the elements are distinct
    return index


def test_right_tables_match_products(oracle_group):
    g = oracle_group
    index = _index(g)
    assert len(g.right) == len(g.generators)
    for gen, row in zip(g.generators, g.right):
        assert row == [index[_mul(x, gen, g.n, g.modulus)] for x in g.elements]


def test_bfs_tree_rebuilds_every_element(oracle_group):
    g = oracle_group
    assert g.elements[0] == _identity(g.n)
    assert _word(g, 0) == []
    for k in range(1, g.order):
        assert g.parent[k] < k
        gen = g.generators[g.step[k]]
        assert _mul(g.elements[g.parent[k]], gen, g.n, g.modulus) == g.elements[k]
        x = _identity(g.n)
        for s in _word(g, k):
            x = _mul(x, g.generators[s], g.n, g.modulus)
        assert x == g.elements[k]


def test_conjugation_tables_are_permutations(oracle_group):
    g = oracle_group
    index = _index(g)
    tables = _conjugation_tables(g)
    assert len(tables) == len(g.generators)
    for gen, table in zip(g.generators, tables):
        assert sorted(table) == list(range(g.order))
        ginv = tuple_inverse(gen, g.n, g.modulus)
        conj = [_mul(_mul(ginv, x, g.n, g.modulus), gen, g.n, g.modulus) for x in g.elements]
        assert table == [index[y] for y in conj]


def test_walked_orders_and_inverses_match_tuple_powers(oracle_group):
    """Each representative's order and inverse, walked through the right tables, against tuple powering."""
    g = oracle_group
    index = _index(g)
    for k in conjugacy_classes(g).rep_indices:
        order, inverse = tuple_order_and_inverse(g.elements[k], g.n, g.modulus)
        assert _order_and_inverse(g, k, _word(g, k)) == (order, index[inverse])


@pytest.mark.parametrize(
    "make_group, degrees",
    [
        (lambda: sl2_group(9), ((1, 3), (2, 3), (3, 1), (4, 12), (6, 4), (12, 2))),
        (heisenberg_group, ((1, 9), (3, 2))),
        (sl3_f2, ((1, 1), (3, 2), (6, 1), (7, 1), (8, 1))),
    ],
    ids=["SL2(Z/9)", "Heis(F3)", "SL3(F2)"],
)
def test_no_element_arithmetic_after_the_bfs(monkeypatch, make_group, degrees):
    """Classes and degrees read the BFS tables only: neither multiplies nor inverts an element."""
    g = make_group()

    def forbidden(*args):
        raise AssertionError("element arithmetic after the BFS")

    monkeypatch.setattr(finite_oracle, "_mul", forbidden)
    monkeypatch.setattr(finite_oracle, "_inv", forbidden)
    assert conjugacy_classes(g).count == sum(count for _, count in degrees)
    assert character_degrees(g).entries == degrees


def test_degree_one_count_is_abelianization(oracle_group):
    census = character_degrees(oracle_group)
    assert dict(census.entries)[1] == abelianization_order(oracle_group)


def test_abelianization_closure_is_budgeted(monkeypatch):
    """Each commutator-subgroup closure runs under GROUP_BUDGET ([G,G] of SL2(Z/9) has 216)."""
    group = sl2_group(9)
    monkeypatch.setattr(finite_oracle, "GROUP_BUDGET", 216)
    assert abelianization_order(group) == 648 // 216
    monkeypatch.setattr(finite_oracle, "GROUP_BUDGET", 215)
    with pytest.raises(BudgetExceededError):
        abelianization_order(group)


def test_dixon_class_budget(monkeypatch):
    group = sl2_group(9)
    monkeypatch.setattr(finite_oracle, "CLASS_BUDGET", 10)
    with pytest.raises(BudgetExceededError):
        character_degrees(group)


def test_census_type_validation():
    with pytest.raises(ValueError):
        DegreeCensus(entries=((2, 1), (2, 1)), bound=5)
    with pytest.raises(ValueError):
        DegreeCensus(entries=((1, 0),), bound=5)
    merged = DegreeCensus.from_pairs([(3, 1), (1, 2), (3, 2)], bound=4)
    assert merged.entries == ((1, 2), (3, 3))

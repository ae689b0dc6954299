import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from census_pairs import pairs

from repzeta.census import DegreeCensus
from repzeta.errors import BudgetExceededError
import repzeta.finite_oracle as finite_oracle
from repzeta.finite_oracle import (
    _class_row,
    _conjugation_tables,
    _inv,
    _mul,
    _order_and_inverse,
    _probe,
    _probe_is_eigenvector,
    _second_orthogonality,
    _Subspace,
    _through_pivots,
    _to_flat,
    _word,
    abelianization_order,
    character_degrees,
    conjugacy_classes,
    dixon_prime,
    generate_group,
    sl2_group,
)
from repzeta.linalg import identity_matrix, rref_mod_p
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
    assert pairs(census) == ((1, 1),)
    assert len(conjugacy_classes(g).members) == 1


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
    assert g.elements[0] == (1, 0, 0, 1)


def test_classes_against_all_pairs_oracle():
    """Full-conjugation oracle on the smallest group validates the sweeps."""
    g = sl2_group(3)
    classes = conjugacy_classes(g)

    def brute_class(x):
        return frozenset(_mul(_mul(_inv(h, 2, 3), x, 2, 3), h, 2, 3) for h in g.elements)

    brute = {brute_class(x) for x in g.elements}
    assert len(brute) == len(classes.members) == 7
    assert {frozenset(g.elements[k] for k in members) for members in classes.members} == brute


def test_class_counts_sl2_3adic(sl2_groups, sl2_z27_classes):
    assert len(conjugacy_classes(sl2_groups[3]).members) == 7
    assert len(conjugacy_classes(sl2_groups[9]).members) == 25
    assert len(sl2_z27_classes.members) == 79


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
        assert pairs(census) == pairs(level_census(sl2_local_factor(q), k))
        assert census.mass == group.order
        assert census.total_count == len(conjugacy_classes(group).members)


def test_dixon_degrees_match_formula_level3(sl2_z27):
    # order 17496, 79 classes; degree 12 merges the level-2 and level-3 families
    census = character_degrees(sl2_z27)
    assert pairs(census) == pairs(level_census(sl2_local_factor(3), 3))
    assert census.multiplicities[census.degrees.index(12)] == 38


def product_census(censuses):
    """The degree entries of a direct product: the multiplicative convolution of the factors'."""
    degrees = {1: 1}
    for census in censuses:
        product = {}
        for d, m in degrees.items():
            for e, n in pairs(census):
                product[d * e] = product.get(d * e, 0) + m * n
        degrees = product
    return tuple(sorted(degrees.items()))


def test_dixon_census_is_the_product_of_local_censuses():
    """The Euler factorization at finite level: SL2(Z/m) is the product of its SL2(Z/p^k).

    That is the Chinese remainder theorem over m's prime powers, and the
    irreducibles of a direct product are the outer tensor products of the
    factors' irreducibles, so the Dixon census of the composite group is
    the convolution of the closed level censuses.
    """
    for modulus, factors in ((15, ((3, 1), (5, 1))), (21, ((3, 1), (7, 1)))):
        census = character_degrees(sl2_group(modulus))
        local = [level_census(sl2_local_factor(q), k) for q, k in factors]
        assert pairs(census) == product_census(local), modulus


def test_dixon_census_of_an_even_modulus_is_the_product_with_its_2_part():
    """The even half of the finite-level Euler factorization: SL2(Z/m) = SL2(Z/2^a) x SL2(Z/q).

    There is no closed census for the 2-part here, so that factor is the
    Dixon census of SL2(Z/2^a) itself: for the 2-part this is oracle
    against oracle, and only the odd factor is the closed level census.
    m = 6, 10, 12, 20 have the 2-parts SL2(Z/2) and SL2(Z/4), and m = 24
    has SL2(Z/8) (under a second in process); m = 40 and 56 take seconds
    each and stay out.
    """
    for modulus in (6, 10, 12, 20, 24):
        two_part = modulus & -modulus
        q = modulus // two_part
        census = character_degrees(sl2_group(modulus))
        local = [character_degrees(sl2_group(two_part)), level_census(sl2_local_factor(q), 1)]
        assert pairs(census) == product_census(local), modulus


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
    members = classes.members
    c = len(members)
    exponent = math.lcm(*(tuple_order_and_inverse(x, n, m)[0] for x in g.elements))
    ell = dixon_prime(g.order, exponent)
    words = [_word(g, ks[0]) for ks in members]
    rep_index = {g.elements[ks[0]]: j for j, ks in enumerate(members)}
    for i in range(c):
        for j in range(c):
            counts = [0] * c
            for x in members[i]:
                for y in members[j]:
                    k = rep_index.get(_mul(g.elements[x], g.elements[y], n, m))
                    if k is not None:
                        counts[k] += 1
            assert _class_row(g, classes, words, i, j, ell) == [v % ell for v in counts]


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

    def corrupted(group, classes, words, i, j, ell):
        row = _class_row(group, classes, words, i, j, ell)
        if len(calls) == bad_call:
            row = [(row[0] + 1) % ell] + row[1:]
        calls.append((i, j))
        return row

    monkeypatch.setattr(finite_oracle, "_class_row", corrupted)
    with pytest.raises(AssertionError):
        character_degrees(sl2_groups[9])
    assert len(calls) > bad_call


def test_probe_reads_the_action_at_the_pivots():
    """M u is a multiple of the probe u exactly when the action matrix maps u's coordinates so.

    Row p_s of M is the action row s at the pivots and 0 off them, so
    rows[p_s] . b_t = act[s][t]; a scalar action always passes, and any
    action passes only when the probe's coordinates are its eigenvector.
    """
    ell = 73
    rng = random.Random(ell)
    for c in range(2, 10):
        for d in (2, c):
            basis, pivots = rref_mod_p([[rng.randrange(ell) for _ in range(c)] for _ in range(d)], ell)
            if len(basis) < 2:
                continue
            sub = _Subspace(basis, pivots, _probe(basis, rng, ell))
            coords = [sub.probe[p] for p in pivots]
            assert 0 not in coords
            assert sub.probe == [sum(r * b[k] for r, b in zip(coords, basis)) % ell for k in range(c)]
            lam = rng.randrange(ell)
            scalar = [[lam * (s == t) for t in range(len(basis))] for s in range(len(basis))]
            # an action that fixes the probe's line without being scalar: a multiple of
            # the identity plus a map that kills the coordinates of u
            kill = [[rng.randrange(ell) for _ in basis] for _ in basis]
            for row in kill:
                row[0] = -sum(x * y for x, y in zip(row[1:], coords[1:])) * pow(coords[0], -1, ell) % ell
            fixing = [[(lam * (s == t) + kill[s][t]) % ell for t in range(len(basis))]
                      for s in range(len(basis))]
            moving = [[rng.randrange(ell) for _ in basis] for _ in basis]
            for act in (scalar, fixing, moving):
                rows = {p: [act[s][pivots.index(k)] if k in pivots else 0 for k in range(c)]
                        for s, p in enumerate(pivots)}
                image = [sum(a * x for a, x in zip(row, coords)) % ell for row in act]
                parallel = all(y * coords[0] % ell == image[0] * x % ell for x, y in zip(coords, image))
                assert _probe_is_eigenvector(rows, sub, ell) == parallel
                if act is not moving:
                    assert parallel


def full_orthogonality_failures(table, inverse_class, sizes, order, ell):
    """Every entry (i, j) of the c x c second orthogonality relation that fails."""
    columns = list(zip(*table))
    c = len(columns)
    return {
        (i, j)
        for i in range(c)
        for j in range(c)
        if sum(x * y for x, y in zip(columns[i], columns[inverse_class[j]])) % ell
        != (order // sizes[i] % ell if i == j else 0)
    }


def certified_tables(monkeypatch, group):
    """The arguments of each `_second_orthogonality` call `character_degrees(group)` makes."""
    seen = []
    original = finite_oracle._second_orthogonality

    def spy(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(finite_oracle, "_second_orthogonality", spy)
    character_degrees(group)
    monkeypatch.setattr(finite_oracle, "_second_orthogonality", original)
    return seen


@pytest.mark.parametrize("case", ["diagonal", "mirror skipped", "entry skipped", "own mirror"])
def test_halved_certificate_catches_each_kind_of_entry(monkeypatch, case):
    """A corrupted table fails the halved certificate, wherever the corruption lands.

    Adding t times column a of the table to column b changes the sum
    S(x, y) of columns x and y only where a* is x or y (S(a, y) is
    0 unless y = a*).  So with a a non-real class: scaling column a
    breaks the diagonal entries (a, a) and (a*, a*); adding column a to a
    column b outside {a, a*} breaks the off-diagonal entry (b, a) and its
    mirror (a*, b*), of which the certificate computes only one; and
    adding column a* to column a breaks only (a, a*), its own mirror.
    The full c x c check of the parent, test-side, confirms each set.
    """
    # -1 is not a square mod 7, so the unipotent classes of SL2(Z/7) are not real
    ((table, inverse_class, sizes, order, ell),) = certified_tables(monkeypatch, sl2_group(7))
    c = len(sizes)
    assert full_orthogonality_failures(table, inverse_class, sizes, order, ell) == set()
    non_real = [a for a in range(c) if inverse_class[a] != a]
    assert non_real

    def computed(i, j):  # entry (i, j) is the sum S(i, j*), computed when j* >= i
        return inverse_class[j] >= i

    def corrupt(target, source, t):
        return [row[:target] + [(row[target] + t * row[source]) % ell] + row[target + 1:]
                for row in table]

    if case == "diagonal":
        a = non_real[0]
        bad, broken = corrupt(a, a, 1), {(a, a), (inverse_class[a], inverse_class[a])}
    elif case == "own mirror":
        a = non_real[0]
        bad, broken = corrupt(a, inverse_class[a], 1), {(a, inverse_class[a])}
        assert computed(a, inverse_class[a])
    else:
        # the named entry (b, a) is computed and its mirror skipped, or the other way round
        want = case == "mirror skipped"
        a, b = next((a, b) for a in non_real for b in range(c)
                    if b not in (a, inverse_class[a]) and computed(b, a) == want)
        bad, broken = corrupt(b, a, 1), {(b, a), (inverse_class[a], inverse_class[b])}
        assert computed(inverse_class[a], inverse_class[b]) != want
    assert full_orthogonality_failures(bad, inverse_class, sizes, order, ell) == broken
    with pytest.raises(AssertionError, match="second orthogonality"):
        _second_orthogonality(bad, inverse_class, sizes, order, ell)


def split_passes(monkeypatch):
    """Wrap `_split_pass`; the list gets (probed, the subspaces returned) for each pass."""
    passes = []
    original = finite_oracle._split_pass

    def spy(*args):
        subspaces = original(*args)
        passes.append((args[-1] is not None, subspaces))
        return subspaces

    monkeypatch.setattr(finite_oracle, "_split_pass", spy)
    return passes


@pytest.mark.parametrize("modulus", [8, 9, 27])
def test_fallback_splits_what_the_probes_miss(monkeypatch, modulus):
    """Probes that are all joint eigenvectors split nothing; the exact fallback splits it all.

    Each probe is replaced by one of the final eigenlines that lies in its
    subspace (every subspace the split makes is a sum of them), so every
    class matrix maps it onto its own line and the probed pass keeps every
    subspace it made from the start space whole.
    """
    group = sl2_group(modulus)
    passes = split_passes(monkeypatch)
    census = character_degrees(group)
    ((probed, subspaces),) = passes  # the seed's probes need no fallback on these groups
    assert probed
    lines = [sub.basis[0] for sub in subspaces]

    def joint_eigenvector(basis, rng, ell):
        pivots = [next(k for k, x in enumerate(b) if x) for b in basis]
        return next(w for w in lines
                    if w == [sum(w[p] * b[k] for p, b in zip(pivots, basis)) % ell for k in range(len(w))])

    probes = []

    def patched(basis, rng, ell):
        probes.append(joint_eigenvector(basis, rng, ell))
        return probes[-1]

    monkeypatch.setattr(finite_oracle, "_probe", patched)
    passes.clear()
    assert pairs(character_degrees(group)) == pairs(census)
    assert [probed for probed, _ in passes] == [True, False]
    assert probes
    # the probed pass split the start space only: what it left is what it built from there
    assert sum(len(sub.basis) > 1 for sub in passes[0][1]) == len(probes)


@pytest.mark.parametrize("seed", [2, 3601, 2 ** 40 + 1])
def test_census_does_not_depend_on_the_probe_seed(monkeypatch, seed):
    censuses = {m: character_degrees(sl2_group(m)) for m in (8, 9, 12)}
    probes = []
    original = finite_oracle._probe
    monkeypatch.setattr(finite_oracle, "_probe", lambda *args: probes.append(original(*args)) or probes[-1])
    monkeypatch.setattr(finite_oracle, "PROBE_SEED", seed)
    for m, census in censuses.items():
        assert pairs(character_degrees(sl2_group(m))) == pairs(census)
    seeded = list(probes)
    probes.clear()
    monkeypatch.setattr(finite_oracle, "PROBE_SEED", 1)
    for m in censuses:
        character_degrees(sl2_group(m))
    assert seeded and probes != seeded


# sha256 of repr((degrees, multiplicities)) for the censuses the benchmark's oracle jobs compute
BENCHMARK_CENSUS_DIGESTS = {
    3: "9ad6e04a85eec1e9b96820d5989f4f3c6d6c4d6db8ef779b83dca01b06277bea",
    4: "f381cf200b3c125088c2212c355a872c42447e2085c2d5f8bcbbe0a48944ac8b",
    5: "1479e46243915e0001e4eff112b5ce2299b4a0673ab272b53268768085e3398b",
    7: "804f0c2701d55a8cbaf37780cd520caf9cb75cd24572734e1d7e7b53ba1977b4",
    8: "4c3af711f0ef23c4c19eb60faa1affbcf9f6d3c99dc1087fba9b0f01c82bfb9f",
    9: "68e721a36f3150e8e5a35099cbe254d82fb7d1b2d11c34c2cb44523081743a5e",
    11: "9f3d9790cf9eaa6e393a79fa02f23db469dbb476be4ea4c61efcb65954fb043d",
    13: "65666340814dfb23bfe84aba43a372cec5923585190fa924590b38db3c90296c",
}


@pytest.mark.parametrize("modulus", list(BENCHMARK_CENSUS_DIGESTS), ids=lambda m: f"SL2(Z/{m})")
def test_benchmark_censuses_are_pinned(modulus):
    """The exact columns of the benchmark's Dixon censuses, so a faster split cannot change them."""
    census = character_degrees(sl2_group(modulus))
    columns = repr((census.degrees, census.multiplicities)).encode()
    assert hashlib.sha256(columns).hexdigest() == BENCHMARK_CENSUS_DIGESTS[modulus]


def test_dixon_on_quaternion_group():
    # Q8 inside SL2(F3): degrees 1,1,1,1,2
    g = quaternion_group()
    assert g.order == 8
    assert pairs(character_degrees(g)) == ((1, 4), (2, 1))
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
    assert len(conjugacy_classes(g).members) == class_count
    census = character_degrees(g)
    assert pairs(census) == degrees
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
    """The index-table sweep finds the tuple-product sweep's classes, in its order.

    Class by class, the member list holds the tuple sweep's class as a set
    of elements, and its first entry, the representative, is its least index.
    """
    g = oracle_group
    classes = conjugacy_classes(g)
    reps, sizes, class_of = tuple_conjugacy_classes(g)
    tuple_members = [set() for _ in reps]
    for x, j in class_of.items():
        tuple_members[j].add(x)
    assert [{g.elements[k] for k in members} for members in classes.members] == tuple_members
    assert [len(members) for members in classes.members] == sizes
    assert all(members[0] == min(members) for members in classes.members)
    assert [g.elements[members[0]] for members in classes.members] == reps
    assert dict(zip(g.elements, classes.class_ids)) == class_of
    assert classes.class_ids == [class_of[x] for x in g.elements]


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
    assert g.elements[0] == _to_flat(identity_matrix(g.n), g.modulus)
    assert _word(g, 0) == []
    for k in range(1, g.order):
        assert g.parent[k] < k
        gen = g.generators[g.step[k]]
        assert _mul(g.elements[g.parent[k]], gen, g.n, g.modulus) == g.elements[k]
        x = g.elements[0]
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
    for k in (members[0] for members in conjugacy_classes(g).members):
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
    assert len(conjugacy_classes(g).members) == sum(count for _, count in degrees)
    assert pairs(character_degrees(g)) == degrees


def test_degree_one_count_is_abelianization(oracle_group):
    census = character_degrees(oracle_group)
    assert census.multiplicities[census.degrees.index(1)] == abelianization_order(oracle_group)


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
        DegreeCensus((2, 2), (1, 1), bound=5)
    with pytest.raises(ValueError):
        DegreeCensus((1,), (0,), bound=5)
    merged = DegreeCensus.from_pairs([(3, 1), (1, 2), (3, 2)], bound=4)
    assert pairs(merged) == ((1, 2), (3, 3))

import hashlib
from itertools import product

import pytest

from census_pairs import pairs
from paper_checks import all_irreducible_types, dyadic_block_sum
from repzeta.census import DegreeCensus
from repzeta.errors import BudgetExceededError
from repzeta.rootsys import build_root_datum
from repzeta import witten
from repzeta.witten import abscissa_estimate, enumerate_dimensions
from weyl_formula import weyl_dimension


def naive_census(datum, bound, cap):
    """Independent oracle: scan the full cube a_i < cap.

    Every coroot takes nonnegative values on the fundamental weights, so
    the Weyl dimension is nondecreasing in each coordinate, and a weight
    outside the cube has dimension at least that of some cap * w_i.  The
    oracle asserts that each of those exceeds the bound.  cap = bound
    always works, because dim >= 1 + max(a_i) in every type (each simple
    coroot contributes a factor a_i + 1 and all factors are >= 1); the
    oracle asserts that inequality as it goes.
    """
    assert all(c >= 0 for row in datum.positive_roots for c in row)
    for i in range(datum.rank):
        corner = tuple(cap if j == i else 0 for j in range(datum.rank))
        assert weyl_dimension(datum, corner) > bound
    counts = {}
    for coeffs in product(range(cap), repeat=datum.rank):
        d = weyl_dimension(datum, coeffs)
        assert d >= 1 + max(coeffs)
        if d <= bound:
            counts[d] = counts.get(d, 0) + 1
    return DegreeCensus.from_counts(counts, bound)


def test_bound_validation():
    a1 = build_root_datum("A", 1)
    with pytest.raises(ValueError):
        enumerate_dimensions(a1, 0)


def test_trivial_census():
    for series, rank in [("A", 1), ("A", 2), ("C", 3)]:
        census = enumerate_dimensions(build_root_datum(series, rank), 1)
        assert pairs(census) == ((1, 1),)


def test_a1_census_is_initial_segment():
    census = enumerate_dimensions(build_root_datum("A", 1), 5000)
    assert pairs(census) == tuple((n, 1) for n in range(1, 5001))


def test_a2_small_census():
    census = enumerate_dimensions(build_root_datum("A", 2), 3)
    assert pairs(census) == ((1, 1), (3, 2))


NAIVE_CASES = [
    ("A", 1, 10_000, 10_000),
    # the smallest caps whose corners the oracle accepts
    ("A", 2, 500, 31),
    ("B", 2, 500, 13),
    ("G", 2, 500, 6),
    ("A", 3, 60, 6),
    ("C", 3, 60, 4),
    # coroot rows with coefficient 2
    ("B", 3, 3000, 9),
    ("D", 4, 3000, 8),
    # every type with a diagram involution: the walk counts one weight of each mirror pair twice
    ("A", 4, 500, 9),
    ("A", 5, 300, 6),
    ("A", 6, 200, 4),
    ("D", 5, 1000, 5),
    ("D", 6, 500, 4),
    ("E", 6, 3000, 3),  # the sigma-pair 27, 27* and the sigma-fixed 78
]


@pytest.mark.parametrize(
    "series,rank,bound,cap", NAIVE_CASES, ids=[f"{s}-{r}-{b}" for s, r, b, _ in NAIVE_CASES]
)
def test_enumeration_matches_naive_cube_oracle(series, rank, bound, cap):
    datum = build_root_datum(series, rank)
    census = enumerate_dimensions(datum, bound)
    assert pairs(census) == pairs(naive_census(datum, bound, cap))
    # the walk works on a copy of rho_values, so the datum is unchanged and a second walk agrees
    assert enumerate_dimensions(datum, bound) == census


@pytest.mark.parametrize(
    "series,rank", all_irreducible_types(8), ids=[f"{s}{r}" for s, r in all_irreducible_types(8)]
)
def test_diagram_involution(series, rank):
    datum = build_root_datum(series, rank)
    sigma = witten._diagram_involution(datum)
    assert sorted(sigma) == list(range(rank))
    assert all(sigma[sigma[k]] == k for k in range(rank))
    rows = set(datum.positive_roots)
    assert {tuple(row[k] for k in sigma) for row in rows} == rows
    identity = series in ("B", "C", "F", "G") or (series, rank) in {("A", 1), ("E", 7), ("E", 8)}
    assert (sigma == tuple(range(rank))) == identity


def test_partial_sum_against_direct_oracles():
    a1 = build_root_datum("A", 1)
    census = enumerate_dimensions(a1, 1000)
    harmonic = sum(1.0 / n for n in range(1000, 0, -1))
    assert census.zeta(1.0) == pytest.approx(harmonic, abs=1e-12)
    census4 = enumerate_dimensions(a1, 10_000)
    basel = sum(1.0 / (n * n) for n in range(10_000, 0, -1))
    assert census4.zeta(2.0) == pytest.approx(basel, abs=1e-13)
    assert DegreeCensus((1,), (1,), bound=1).zeta(7.3) == 1.0


def test_abscissa_needs_enough_degrees():
    census = DegreeCensus((1, 2, 3), (1, 1, 1), bound=3)
    with pytest.raises(ValueError, match="8"):
        abscissa_estimate(census)


def test_abscissa_a1_exact_line():
    census = enumerate_dimensions(build_root_datum("A", 1), 10_000)
    est = abscissa_estimate(census)
    assert est.slope == pytest.approx(1.0, abs=1e-9)
    assert est.standard_error == pytest.approx(0.0, abs=1e-9)
    assert len(est.sample_points) == 16


def test_dyadic_blocks_against_direct_sums():
    a1 = build_root_datum("A", 1)
    # block j: 2^j < a <= 2^(j+1), dim = a + 1
    for j, s in [(5, 1.0), (8, 2.0), (0, 1.0)]:
        direct = sum((a + 1.0) ** (-s) for a in range(2 ** j + 1, 2 ** (j + 1) + 1))
        assert dyadic_block_sum(a1, s, j) == pytest.approx(direct, rel=1e-12)
    assert dyadic_block_sum(a1, 1.0, 0) == pytest.approx(1.0 / 3.0)
    assert dyadic_block_sum(a1, 2.0, 8) < 0.004


def test_divergence_blocks_at_abscissa():
    a1 = build_root_datum("A", 1)
    values = [dyadic_block_sum(a1, 1.0, j) for j in range(11)]
    assert all(v >= 0.3 for v in values)


def test_tail_fraction_above_abscissa_shrinks():
    """At s = r/kappa + 0.25 the upper-half tail is light and shrinks with N."""
    for series, rank in [("A", 1), ("A", 2)]:
        datum = build_root_datum(series, rank)
        s = datum.rank / datum.kappa + 0.25
        fractions = []
        for bound in (1000, 10_000, 100_000):
            census = enumerate_dimensions(datum, bound)
            total = census.zeta(s)
            tail = sum(m * float(d) ** (-s) for d, m in pairs(census) if d > bound // 2)
            fractions.append(tail / total)
        assert fractions[-1] < 0.15
        assert fractions[0] > fractions[1] > fractions[2]


# sha256 of repr((degrees, multiplicities)) for the censuses the benchmark's witten jobs walk
BENCHMARK_CENSUS_DIGESTS = {
    ("A", 1, 10 ** 4): "b65cb9ada6ab4f6484d90e557f8107b84478167a4018c587e18edfdfa725d17d",
    ("A", 2, 10 ** 6): "dfebecc214be458265f533b38682532f0a510eef8215b564840703fe65200a2e",
    ("A", 3, 5 * 10 ** 6): "7f24d4b0f57cdf3c1d6d0eb923630f7c9133eebe539ddb7470d18758ffd7abc7",
}


@pytest.mark.parametrize(
    "series, rank, bound", list(BENCHMARK_CENSUS_DIGESTS), ids=["A1 at 10^4", "A2 at 10^6", "A3 at 5e6"]
)
def test_benchmark_censuses_are_pinned(series, rank, bound):
    """The exact columns of the benchmark's censuses, so a faster walk cannot change them."""
    census = enumerate_dimensions(build_root_datum(series, rank), bound)
    columns = repr((census.degrees, census.multiplicities)).encode()
    assert hashlib.sha256(columns).hexdigest() == BENCHMARK_CENSUS_DIGESTS[series, rank, bound]


def test_census_cumulative_counts():
    census = enumerate_dimensions(build_root_datum("A", 2), 100)
    assert pairs(census)[0] == (1, 1) and census.count_upto(1) == 1
    assert census.count_upto(census.degrees[-1]) == census.total_count
    assert census.count_upto(3) == 3  # trivial + two copies of degree 3


# the Dynkin-diagram involution of each type with one, as coordinate pairs (i, j), i < j;
# named here rather than read from the walk, so the node count is independent of it
DIAGRAM_PAIRS = {
    "A": lambda r: [(i, r - 1 - i) for i in range(r // 2)],
    "D": lambda r: [(r - 2, r - 1)],
    "E": lambda r: [(0, 5), (2, 4)] if r == 6 else [],
}


def walked_nodes(datum, bound, cap):
    """Nodes of the census walk, counted over the cube a_i < cap of naive_census.

    A prefix (a_0..a_pos) is a node of the loop over coordinate pos when its
    zero-padded dimension is <= bound and it is not past its mirror: over
    the pairs (i, j) with j <= pos, taken by increasing j, the first with
    a_i != a_j has a_j < a_i.  A weight in the cube is such a prefix,
    zero-padded, for each pos at or after its last nonzero coordinate (the
    loop over pos meets it with coordinates pos+1.. at 0).
    """
    pairs = sorted(DIAGRAM_PAIRS.get(datum.series, lambda r: [])(datum.rank), key=lambda p: p[1])
    nodes = 0
    for coeffs in product(range(cap), repeat=datum.rank):
        if weyl_dimension(datum, coeffs) > bound:
            continue
        last_nonzero = max((i for i, a in enumerate(coeffs) if a), default=0)
        for pos in range(last_nonzero, datum.rank):
            first = next(((i, j) for i, j in pairs if j <= pos and coeffs[i] != coeffs[j]), None)
            if first is None or coeffs[first[1]] < coeffs[first[0]]:
                nodes += 1
    return nodes


BUDGET_CASES = [
    ("A", 1, 500, 500),
    ("A", 2, 500, 31),
    ("B", 3, 3000, 9),
    ("A", 3, 60, 6),
    ("A", 4, 500, 9),
    ("D", 4, 3000, 8),
    ("E", 6, 3000, 3),
]


@pytest.mark.parametrize("series,rank,bound,cap", BUDGET_CASES)
def test_node_budget_is_exact(monkeypatch, series, rank, bound, cap):
    datum = build_root_datum(series, rank)
    census = enumerate_dimensions(datum, bound)
    nodes = walked_nodes(datum, bound, cap)
    monkeypatch.setattr(witten, "NODE_BUDGET", nodes)
    assert enumerate_dimensions(datum, bound) == census
    monkeypatch.setattr(witten, "NODE_BUDGET", nodes - 1)
    with pytest.raises(BudgetExceededError):
        enumerate_dimensions(datum, bound)

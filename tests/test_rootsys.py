from fractions import Fraction
from itertools import combinations

import pytest

from paper_checks import all_irreducible_types, group_dimension, levi_subsystem
from repzeta import rootsys
from repzeta.errors import BudgetExceededError
from repzeta.rootsys import SERIES, build_root_datum, coxeter_number
from weyl_formula import weyl_dimension


def test_rejects_invalid_pairs():
    for series, rank in [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9),
                         ("F", 3), ("G", 3), ("H", 2)]:
        with pytest.raises(ValueError):
            build_root_datum(series, rank)


@pytest.mark.parametrize(
    "series, rank, rule",
    [("A", 0, "rank >= 1"), ("B", 1, "rank >= 2"), ("C", 2, "rank >= 3"), ("D", 3, "rank >= 4"),
     ("E", 5, "rank in {6, 7, 8}"), ("F", 3, "rank == 4"), ("G", 3, "rank == 2")],
)
def test_invalid_rank_message(series, rank, rule):
    with pytest.raises(ValueError) as excinfo:
        build_root_datum(series, rank)
    assert str(excinfo.value) == f"invalid rank {rank} for series {series}: need {rule}"


@pytest.mark.parametrize(
    "series, rank, message",
    [("X", 3, f"unknown series 'X'; expected one of {SERIES}"),
     ("F", 3, "invalid rank 3 for series F: need rank == 4"),
     ("A", 0, "invalid rank 0 for series A: need rank >= 1"),
     ("A", 1.5, "invalid rank 1.5 for series A: need rank >= 1"),
     ("E", 5, "invalid rank 5 for series E: need rank in {6, 7, 8}"),
     ("A", True, "invalid rank True for series A: need rank >= 1"),
     ("B", False, "invalid rank False for series B: need rank >= 2")],
    ids=["X3", "F3", "A0", "A1.5", "E5", "ATrue", "BFalse"],
)
def test_coxeter_number_rejects_what_build_root_datum_rejects(series, rank, message):
    for function in (coxeter_number, build_root_datum):
        with pytest.raises(ValueError) as excinfo:
            function(series, rank)
        assert str(excinfo.value) == message


def test_root_budget_counts_positive_roots_before_the_closure(monkeypatch):
    """A datum of more than ROOT_BUDGET positive roots raises before its Cartan matrix is built."""
    monkeypatch.setattr(rootsys, "ROOT_BUDGET", 6)
    assert build_root_datum("A", 3).kappa == 6  # at the budget
    assert build_root_datum("G", 2).kappa == 6

    def no_cartan(series, rank):
        raise AssertionError("the Cartan matrix was built")

    monkeypatch.setattr(rootsys, "cartan_matrix", no_cartan)
    for series, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("E", 6), ("F", 4)]:
        with pytest.raises(BudgetExceededError, match="budget 6"):
            build_root_datum(series, rank)


def test_a1_basics():
    d = build_root_datum("A", 1)
    assert (d.rank, d.kappa, d.coxeter_number) == (1, 1, 2)
    assert Fraction(d.rank, d.kappa) == 1


def test_a2_by_closure():
    d = build_root_datum("A", 2)
    assert d.kappa == 3 and d.coxeter_number == 3
    assert Fraction(d.rank, d.kappa) == Fraction(2, 3)
    assert set(d.positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_e8_ratio():
    d = build_root_datum("E", 8)
    assert d.rank == 8 and d.kappa == 120
    assert Fraction(d.rank, d.kappa) == Fraction(1, 15)


@pytest.mark.parametrize("series,rank,expected", [("C", 3, Fraction(1, 3)), ("G", 2, Fraction(1, 3))])
def test_ratio_examples(series, rank, expected):
    d = build_root_datum(series, rank)
    assert Fraction(d.rank, d.kappa) == expected


def test_all_types_invariants():
    valid = set(all_irreducible_types(8))
    for series in SERIES:
        for rank in range(1, 9):
            if (series, rank) not in valid:
                with pytest.raises(ValueError):
                    build_root_datum(series, rank)
    for series, rank in valid:
        d = build_root_datum(series, rank)
        dim = group_dimension(series, rank)
        assert d.kappa == (dim - rank) // 2
        assert Fraction(d.rank, d.kappa) == Fraction(2, d.coxeter_number)
        assert d.rho_values == tuple(sum(r) for r in d.positive_roots)
        # highest coroot height is h - 1
        assert max(d.rho_values) == d.coxeter_number - 1
        for row in d.positive_roots:
            assert min(row) >= 0 and max(row) >= 1


def test_dimension_table_is_rank_times_coxeter_plus_one():
    """dim G = r(h + 1) for every simple type, so kappa = (dim G - r)/2 is r/kappa = 2/h again."""
    for series, rank in all_irreducible_types(59):
        assert group_dimension(series, rank) == rank * (coxeter_number(series, rank) + 1)


def test_weyl_dimension_values():
    a1 = build_root_datum("A", 1)
    assert weyl_dimension(a1, (4,)) == 5
    assert [weyl_dimension(a1, (a,)) for a in range(6)] == [1, 2, 3, 4, 5, 6]
    a2 = build_root_datum("A", 2)
    # hand evaluation of the A2 formula (a+1)(b+1)(a+b+2)/2
    assert weyl_dimension(a2, (1, 1)) == 8
    for a in range(4):
        for b in range(4):
            assert weyl_dimension(a2, (a, b)) == (a + 1) * (b + 1) * (a + b + 2) // 2
    for series, rank in all_irreducible_types(8):
        d = build_root_datum(series, rank)
        assert weyl_dimension(d, (0,) * rank) == 1


def test_weyl_dimension_classical_fundamentals():
    # standard dimension-table spot checks
    assert weyl_dimension(build_root_datum("B", 2), (1, 0)) == 5
    assert weyl_dimension(build_root_datum("B", 2), (0, 1)) == 4
    c3 = build_root_datum("C", 3)
    assert [weyl_dimension(c3, w) for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] == [6, 14, 14]
    g2 = build_root_datum("G", 2)
    assert (weyl_dimension(g2, (1, 0)), weyl_dimension(g2, (0, 1))) == (7, 14)
    f4 = build_root_datum("F", 4)
    assert weyl_dimension(f4, (0, 0, 0, 1)) == 26
    assert weyl_dimension(f4, (1, 0, 0, 0)) == 52
    e6 = build_root_datum("E", 6)
    assert weyl_dimension(e6, (1, 0, 0, 0, 0, 0)) == 27
    e8 = build_root_datum("E", 8)
    assert weyl_dimension(e8, (0, 0, 0, 0, 0, 0, 0, 1)) == 248  # adjoint at the chain end
    assert weyl_dimension(e8, (1, 0, 0, 0, 0, 0, 0, 0)) == 3875


def test_weyl_dimension_strictly_monotone():
    for series, rank in [("A", 2), ("B", 2), ("C", 3), ("G", 2), ("D", 4)]:
        d = build_root_datum(series, rank)
        base = tuple(range(1, rank + 1))
        base_dim = weyl_dimension(d, base)
        for i in range(rank):
            bumped = tuple(b + (1 if j == i else 0) for j, b in enumerate(base))
            assert weyl_dimension(d, bumped) > base_dim


def test_weyl_dimension_rejections():
    a2 = build_root_datum("A", 2)
    with pytest.raises(ValueError):
        weyl_dimension(a2, (1,))
    with pytest.raises(ValueError):
        weyl_dimension(a2, (1, -1))


def test_levi_subsystem():
    a2 = build_root_datum("A", 2)
    assert levi_subsystem(a2, {1}) == (1, 1)
    a3 = build_root_datum("A", 3)
    assert levi_subsystem(a3, {1, 3}) == (2, 2)
    assert levi_subsystem(a3, set()) == (0, 0)


def test_levi_stability_inequality_rank_le_8():
    """rk/kappa of every proper nonempty Levi is >= r/kappa, exhaustively."""
    for series, rank in all_irreducible_types(8):
        d = build_root_datum(series, rank)
        ambient = Fraction(d.rank, d.kappa)
        for size in range(1, rank):
            for subset in combinations(range(1, rank + 1), size):
                sub_rank, sub_kappa = levi_subsystem(d, subset)
                assert sub_kappa >= 1
                assert Fraction(sub_rank, sub_kappa) >= ambient, (series, rank, subset)


def test_a1_dimension_bijection():
    a1 = build_root_datum("A", 1)
    dims = [weyl_dimension(a1, (a,)) for a in range(200)]
    assert dims == list(range(1, 201))

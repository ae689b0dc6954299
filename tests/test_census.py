from fractions import Fraction

import pytest

from repzeta.census import DegreeCensus
from repzeta.rootsys import build_root_datum
from repzeta.symmetric import an_degrees
from repzeta.witten import enumerate_dimensions


def test_validation():
    with pytest.raises(ValueError):
        DegreeCensus(entries=((1, 1),), bound=0)
    with pytest.raises(ValueError):
        DegreeCensus(entries=((3, 1), (2, 1)), bound=5)
    with pytest.raises(ValueError):
        DegreeCensus(entries=((2, -1),), bound=5)


def test_from_pairs_merges_and_sorts():
    census = DegreeCensus.from_pairs([(5, 2), (1, 1), (5, 3), (2, 0)], bound=6)
    assert census.entries == ((1, 1), (5, 5))
    assert census.total_count == 6
    assert census.mass == 1 + 5 * 25


def test_cumulative_and_count_upto():
    census = DegreeCensus(entries=((1, 1), (3, 2), (7, 4)), bound=10)
    assert census.cumulative() == [(1, 1), (3, 3), (7, 7)]
    assert census.count_upto(0) == 0
    assert census.count_upto(3) == 3
    assert census.count_upto(100) == 7


@pytest.mark.parametrize("which", ["A2 at 10^4", "A20"])
def test_zeta_is_the_correctly_rounded_sum_of_its_terms(which):
    if which == "A20":
        census = an_degrees(20)
    else:
        census = enumerate_dimensions(build_root_datum("A", 2), 10 ** 4)
    for s in (0.5, 2 / 3, 1.0, 2.5):
        terms = [m * float(d) ** (-s) for d, m in census.entries]
        assert census.zeta(s) == float(sum(map(Fraction, terms)))

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from census_pairs import pairs
from hypothesis import given, settings
from hypothesis import strategies as st

from repzeta.census import DegreeCensus
from repzeta.local_sl2 import level_census, sl2_local_factor
from repzeta.rootsys import build_root_datum
from repzeta.witten import FIT_POINTS, abscissa_estimate, enumerate_dimensions


def test_validation():
    with pytest.raises(ValueError):
        DegreeCensus((1,), (1,), bound=0)
    with pytest.raises(ValueError):
        DegreeCensus((3, 2), (1, 1), bound=5)
    with pytest.raises(ValueError):
        DegreeCensus((2,), (-1,), bound=5)


@pytest.mark.parametrize(
    "degrees, multiplicities, bound, message",
    [((1, 3, 3), (1, 1, 1), 5, "census degrees must be strictly increasing"),
     ((1, 4, 2), (1, 1, 1), 5, "census degrees must be strictly increasing"),
     ((0, 2), (1, 1), 5, "census degrees must be strictly increasing"),
     ((-3,), (1,), 5, "census degrees must be strictly increasing"),
     ((1, 2), (1, 0), 5, "census multiplicities must be >= 1"),
     ((1,), (-2,), 5, "census multiplicities must be >= 1"),
     ((1,), (1,), 0, "census bound must be >= 1"),
     ((1, 2), (1,), 5, "census degrees and multiplicities must have equal length"),
     ((1,), (1, 1), 5, "census degrees and multiplicities must have equal length")],
    ids=["repeat", "decrease", "degree-0", "degree-negative", "multiplicity-0",
         "multiplicity-negative", "bound-0", "short-multiplicities", "short-degrees"],
)
def test_column_validation_messages(degrees, multiplicities, bound, message):
    with pytest.raises(ValueError) as excinfo:
        DegreeCensus(degrees, multiplicities, bound)
    assert str(excinfo.value) == message


def merged_reference(pair_list):
    """The sorted (degree, multiplicity) pairs of a pair list, repeats summed, zeros dropped."""
    merged = {}
    for d, m in pair_list:
        if m:
            merged[d] = merged.get(d, 0) + m
    return tuple(sorted(merged.items()))


@settings(max_examples=300, deadline=None)
@given(
    counts=st.dictionaries(st.integers(1, 10 ** 20), st.integers(1, 10 ** 6), max_size=25),
    pair_list=st.lists(st.tuples(st.integers(1, 30), st.integers(0, 4)), max_size=40),
    s=st.floats(0.05, 8.0),
)
def test_columns_match_a_scan_of_the_pairs(counts, pair_list, s):
    """Built from a dict or from pairs with repeats and zero multiplicities, the columns are
    the sorted merged pairs, and every reading of them agrees with a linear scan."""
    pair_list += list(counts.items())  # a degree of the dict may also repeat among the pairs
    for census, expected in (
        (DegreeCensus.from_counts(counts, 10 ** 20), tuple(sorted(counts.items()))),
        (DegreeCensus.from_pairs(pair_list, 10 ** 20), merged_reference(pair_list)),
    ):
        assert pairs(census) == expected
        assert census.total_count == sum(m for _, m in expected)
        assert census.mass == sum(m * d * d for d, m in expected)
        for n in {0, 1, 10 ** 20}.union(*((d - 1, d, d + 1) for d, _ in expected)):
            assert census.count_upto(n) == sum(m for d, m in expected if d <= n), n
        assert census.zeta(s) == math.fsum(m * float(d) ** (-s) for d, m in expected)


def test_from_pairs_merges_and_sorts():
    census = DegreeCensus.from_pairs([(5, 2), (1, 1), (5, 3), (2, 0)], bound=6)
    assert pairs(census) == ((1, 1), (5, 5))
    assert census.total_count == 6
    assert census.mass == 1 + 5 * 25


def test_cumulative_and_count_upto():
    census = DegreeCensus((1, 3, 7), (1, 2, 4), bound=10)
    assert [census.count_upto(d) for d in census.degrees] == [1, 3, 7]
    assert census.count_upto(0) == 0
    assert census.count_upto(3) == 3
    assert census.count_upto(100) == 7


def linear_count_upto(census, n):
    return sum(m for d, m in pairs(census) if d <= n)


def scan_fit_samples(census):
    """The sample points of an abscissa fit that counts R_n by a linear scan."""
    n_hi = census.bound
    n_lo = max(1.0, math.sqrt(n_hi))
    samples = []
    for i in range(FIT_POINTS):
        n = max(1, round(n_lo * (n_hi / n_lo) ** (i / (FIT_POINTS - 1))))
        r_n = linear_count_upto(census, n)
        if r_n:
            samples.append((math.log(n), math.log(r_n)))
    return tuple(samples)


CENSUSES = {
    "A1 at 100": lambda: enumerate_dimensions(build_root_datum("A", 1), 100),
    "A2 at 2000": lambda: enumerate_dimensions(build_root_datum("A", 2), 2000),
    "A3 at 2000": lambda: enumerate_dimensions(build_root_datum("A", 3), 2000),
    "B2 at 2000": lambda: enumerate_dimensions(build_root_datum("B", 2), 2000),
    "G2 at 5000": lambda: enumerate_dimensions(build_root_datum("G", 2), 5000),
    "SL2(Z/3^4)": lambda: level_census(sl2_local_factor(3), 4),
    # no degree <= sqrt(bound) = 20, so the fit skips its first points, where R_n = 0
    "above sqrt(bound)": lambda: DegreeCensus.from_pairs(
        ((d, d % 3 + 1) for d in range(50, 400, 37)), bound=400
    ),
}


@pytest.mark.parametrize("which", list(CENSUSES))
def test_count_upto_matches_linear_scan(which):
    census = CENSUSES[which]()
    last = census.degrees[-1]
    assert [census.count_upto(n) for n in range(last + 3)] == [
        linear_count_upto(census, n) for n in range(last + 3)
    ]
    assert census.running_count == tuple(census.count_upto(d) for d in census.degrees)
    assert census.total_count == linear_count_upto(census, last)


@pytest.mark.parametrize("which", list(CENSUSES))
def test_abscissa_samples_match_linear_scan(which):
    census = CENSUSES[which]()
    samples = abscissa_estimate(census).sample_points
    assert samples == scan_fit_samples(census)
    if which == "above sqrt(bound)":
        assert len(samples) < FIT_POINTS


@pytest.mark.parametrize("which", ["A2 at 10^4", "A20"])
def test_zeta_is_the_correctly_rounded_sum_of_its_terms(which, an_censuses):
    if which == "A20":
        census = an_censuses[20]
    else:
        census = enumerate_dimensions(build_root_datum("A", 2), 10 ** 4)
    for s in (0.5, 2 / 3, 1.0, 2.5):
        terms = [m * float(d) ** (-s) for d, m in pairs(census)]
        assert census.zeta(s) == float(sum(map(Fraction, terms)))


@pytest.mark.parametrize("which", ["A2 at 10^4", "SL2(Z/3^40)"])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.5, 7.3])
def test_zeta_error_bound_against_decimal(which, s):
    """Each float term is within (|s| + 4) u of its value, the sum within (|s| + 5) u."""
    if which == "A2 at 10^4":
        census = enumerate_dimensions(build_root_datum("A", 2), 10 ** 4)
    else:  # degrees and multiplicities up to about 3^41 > 2^53
        census = level_census(sl2_local_factor(3), 40)
        assert census.degrees[-1] > 2 ** 53 and max(census.multiplicities) > 2 ** 53
    u = Decimal(2) ** -53
    with localcontext() as ctx:
        ctx.prec = 60
        sd = Decimal(s)  # the float s, exactly
        exact_terms = [m * (-sd * Decimal(d).ln()).exp() for d, m in pairs(census)]
        for (d, m), exact in zip(pairs(census), exact_terms):
            term = Decimal(m * float(d) ** (-s))
            assert abs(term - exact) <= (abs(sd) + 4) * u * exact, (d, m)
        exact_sum = sum(exact_terms)
        assert abs(Decimal(census.zeta(s)) - exact_sum) <= (abs(sd) + 5) * u * exact_sum

import math
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from census_pairs import pairs
from scalar_local import evaluate_local_scalar

from repzeta import local_sl2
from repzeta.errors import BudgetExceededError
from repzeta.euler_global import odd_primes_upto
from repzeta.local_sl2 import (
    evaluate_local,
    evaluate_local_exact,
    factor_bounds_check,
    irrep_count,
    level_census,
    sl2_local_factor,
    sl2_quotient_order,
)


def value(factor, s):
    """Z_q(s) of one factor at one exponent: a one-factor, one-exponent evaluator call."""
    [[z]] = evaluate_local([factor], [s])
    return z


def test_factor_head_q3():
    factor = sl2_local_factor(3)
    # the (q+1)-term vanishes at q = 3; two degree-1 terms merge with the trivial
    assert pairs(level_census(factor, 1)) == ((1, 3), (2, 3), (3, 1))
    assert sum(m for _, m in factor.head_terms) == 7


def test_factor_head_q5():
    census = level_census(sl2_local_factor(5), 1)
    assert pairs(census) == ((1, 1), (2, 2), (3, 2), (4, 2), (5, 1), (6, 1))
    assert census.total_count == 9


@pytest.mark.parametrize(
    "q", [1, 2, 4, 8, 15, 21, pytest.param(3 ** 700, id="3^700")]  # 3^700: q^2 + q past float
)
def test_rejects_non_odd_prime_powers(q):
    with pytest.raises(ValueError):
        sl2_local_factor(q)


def test_accepts_odd_prime_powers():
    for q in (3, 5, 7, 9, 11, 13, 27, 25, 49, 3 ** 300):
        assert sl2_local_factor(q).q == q


def test_evaluate_limits_and_preconditions(count_calls):
    factor = sl2_local_factor(3)
    assert value(factor, 50.0) == pytest.approx(3.0, abs=1e-9)
    z = value(factor, 2.0)
    lower = (1.0 - 1.0 / 3.0) ** -0.5
    assert lower < z < (1.0 - 1.0 / 3.0) ** -100.0
    logs = count_calls(math, "log")
    for bad in ([1.0], [0.5], [2.0, math.nan], [2.5, 3.0, 1.0]):
        with pytest.raises(ValueError, match="s must exceed 1"):
            evaluate_local([factor], bad)
    assert logs == []  # every exponent is checked before any work


def test_evaluate_local_columns():
    """One column per exponent, in order, with one value per factor, in order."""
    factors = [sl2_local_factor(q) for q in (3, 5, 7)]
    columns = evaluate_local(factors, [2.5, 2.0, 2.5])
    assert [len(column) for column in columns] == [3, 3, 3]
    assert columns[0] == columns[2]
    assert columns[1] == [value(factor, 2.0) for factor in factors]
    assert evaluate_local([], [2.0, 3.5]) == [[], []]
    assert evaluate_local(factors, []) == []


ORACLE_EXPONENTS = [
    1 + 1e-12, 1 + 1e-6, 1.5, 2.0, *(2 + j / 16 for j in range(16)), 3.5, 50.0, 1100.0
]  # near the pole, perfbench's 16 grid values 2 + j/16, and past the point where q^-s underflows


def test_column_evaluator_matches_scalar_oracle_bit_for_bit():
    """The column evaluator equals `tests/scalar_local.py`'s one-factor sums exactly.

    Both sum the same terms with `math.fsum`, which is correctly rounded,
    so the values agree bit for bit in one many-factor call and in
    one-factor calls alike.  q = 3 carries the head term of multiplicity
    0; 3^300 is the largest power whose degrees stay finite floats.
    """
    qs = odd_primes_upto(20_000) + [9, 25, 27, 49, 121, 3 ** 300]
    factors = [sl2_local_factor(q) for q in qs]
    expected = [[evaluate_local_scalar(factor, s) for factor in factors] for s in ORACLE_EXPONENTS]
    assert evaluate_local(factors, ORACLE_EXPONENTS) == expected
    for i, factor in enumerate(factors):
        one = [[column[i]] for column in expected]
        assert evaluate_local([factor], ORACLE_EXPONENTS) == one, factor.q


def _evaluate_local_decimal(factor, s):
    """The same head + tail / (1 - q^(1-s)) in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        sd = Decimal(s)  # the float s, exactly

        def power(base, exponent):
            return (exponent * Decimal(base).ln()).exp()

        head = sum(m * power(d, -sd) for d, m in factor.head_terms if m)
        tail = sum(m * power(d, -sd) for d, m in factor.tail_terms)
        return head + tail / (1 - power(factor.q, 1 - sd))


@pytest.mark.parametrize("q", [3, 7, 101])
@pytest.mark.parametrize("eps", [1e-6, 1e-10, 1e-12])
def test_evaluate_local_near_the_pole(q, eps):
    # 1 - q^(1-s) cancels near s = 1; the float value must keep full precision
    factor = sl2_local_factor(q)
    s = 1.0 + eps
    reference = _evaluate_local_decimal(factor, s)
    assert value(factor, s) == pytest.approx(float(reference), rel=1e-14)


def test_exact_evaluation_matches_float():
    for q in (3, 5, 9):
        factor = sl2_local_factor(q)
        for s in (2, 3):
            assert float(evaluate_local_exact(factor, s)) == pytest.approx(
                value(factor, float(s)), rel=1e-12
            )


def test_level_census_examples():
    c1 = level_census(sl2_local_factor(3), 1)
    assert pairs(c1) == ((1, 3), (2, 3), (3, 1))
    assert c1.total_count == 7 and c1.mass == 24
    c2 = level_census(sl2_local_factor(3), 2)
    assert pairs(c2) == ((1, 3), (2, 3), (3, 1), (4, 12), (6, 4), (12, 2))
    assert c2.total_count == 25 and c2.mass == 648
    c3 = level_census(sl2_local_factor(3), 3)
    assert c3.total_count == 79 and c3.mass == 17496
    assert pairs(c3) == ((1, 3), (2, 3), (3, 1), (4, 12), (6, 4), (12, 38), (18, 12), (36, 6))
    with pytest.raises(ValueError):
        level_census(sl2_local_factor(3), 0)


def test_level_census_order_bits_budget(monkeypatch):
    """The level is bounded through 3k * bits(q), an upper bound on the group order's bits."""
    monkeypatch.setattr(local_sl2, "ORDER_BITS_BUDGET", 60)
    factor = sl2_local_factor(3)
    assert level_census(factor, 10).mass == sl2_quotient_order(3, 10)  # 3 * 10 * 2 = 60 bits
    with pytest.raises(BudgetExceededError):
        level_census(factor, 11)
    assert sl2_quotient_order(3, 10).bit_length() <= 60


def test_irrep_count_values():
    assert [irrep_count(sl2_local_factor(3), k) for k in (1, 2, 3)] == [7, 25, 79]
    assert irrep_count(sl2_local_factor(5), 1) == 9


def test_mass_and_count_identities():
    for q in (3, 5, 7, 9, 11, 13):
        factor = sl2_local_factor(q)
        for k in range(1, 7):
            census = level_census(factor, k)
            assert census.mass == sl2_quotient_order(q, k)
            assert census.total_count == irrep_count(factor, k)


def test_truncation_converges_to_analytic_value():
    for q in (3, 5):
        factor = sl2_local_factor(q)
        target = value(factor, 2.5)
        err = abs(level_census(factor, 12).zeta(2.5) - target)
        assert err < float(q) ** -6


def test_factor_bounds_grid():
    for q in (3, 5, 7, 97):
        for s in (2.0, 2.1, 2.5, 3.0):
            assert factor_bounds_check(sl2_local_factor(q), s) == (True, True)
    with pytest.raises(ValueError):
        factor_bounds_check(sl2_local_factor(3), 1.5)
    with pytest.raises(ValueError):
        factor_bounds_check(sl2_local_factor(4), 2.5)


def test_exact_bounds_at_integer_s():
    # the integer-s path really is exact rational arithmetic
    factor = sl2_local_factor(3)
    z = evaluate_local_exact(factor, 2)
    one_minus = Fraction(2, 3)
    assert z * z * one_minus > 1
    assert z * one_minus ** 100 < 1
    assert factor_bounds_check(sl2_local_factor(3), 2.0) == (True, True)


def test_pole_witness_bounded():
    """eps * Z_q(1 + eps) stays bounded as eps shrinks."""
    for q in (3, 5, 13):
        values = [eps * value(sl2_local_factor(q), 1 + eps) for eps in (0.1, 0.05, 0.025)]
        assert max(values) / min(values) < 1.5
        assert all(math.isfinite(v) and v > 0 for v in values)


@pytest.mark.parametrize("broken", ["irrep_count", "sl2_quotient_order"])
def test_census_identities_checked_under_optimize(broken, subprocess_env):
    """A wrong closed formula fails level_census even under python -O."""
    code = (
        f"import repzeta.local_sl2 as L; L.{broken} = lambda q, k: 0; "
        "L.level_census(L.sl2_local_factor(3), 2)"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=subprocess_env
    )
    assert proc.returncode != 0
    assert "AssertionError" in proc.stderr

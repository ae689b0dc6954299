import math
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from repzeta import local_sl2
from repzeta.errors import BudgetExceededError
from repzeta.local_sl2 import (
    evaluate_local,
    evaluate_local_exact,
    factor_bounds_check,
    irrep_count,
    level_census,
    sl2_local_factor,
    sl2_quotient_order,
)


def test_factor_head_q3():
    factor = sl2_local_factor(3)
    # the (q+1)-term vanishes at q = 3; two degree-1 terms merge with the trivial
    assert level_census(factor, 1).entries == ((1, 3), (2, 3), (3, 1))
    assert sum(m for _, m in factor.head_terms) == 7


def test_factor_head_q5():
    census = level_census(sl2_local_factor(5), 1)
    assert census.entries == ((1, 1), (2, 2), (3, 2), (4, 2), (5, 1), (6, 1))
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


def test_evaluate_limits_and_preconditions():
    factor = sl2_local_factor(3)
    assert evaluate_local(factor, 50.0) == pytest.approx(3.0, abs=1e-9)
    value = evaluate_local(factor, 2.0)
    lower = (1.0 - 1.0 / 3.0) ** -0.5
    assert lower < value < (1.0 - 1.0 / 3.0) ** -100.0
    with pytest.raises(ValueError):
        evaluate_local(factor, 1.0)
    with pytest.raises(ValueError):
        evaluate_local(factor, 0.5)


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
    assert evaluate_local(factor, s) == pytest.approx(float(reference), rel=1e-14)


def test_exact_evaluation_matches_float():
    for q in (3, 5, 9):
        factor = sl2_local_factor(q)
        for s in (2, 3):
            assert float(evaluate_local_exact(factor, s)) == pytest.approx(
                evaluate_local(factor, float(s)), rel=1e-12
            )


def test_level_census_examples():
    c1 = level_census(sl2_local_factor(3), 1)
    assert c1.entries == ((1, 3), (2, 3), (3, 1))
    assert c1.total_count == 7 and c1.mass == 24
    c2 = level_census(sl2_local_factor(3), 2)
    assert c2.entries == ((1, 3), (2, 3), (3, 1), (4, 12), (6, 4), (12, 2))
    assert c2.total_count == 25 and c2.mass == 648
    c3 = level_census(sl2_local_factor(3), 3)
    assert c3.total_count == 79 and c3.mass == 17496
    assert c3.entries == ((1, 3), (2, 3), (3, 1), (4, 12), (6, 4), (12, 38), (18, 12), (36, 6))
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
        target = evaluate_local(factor, 2.5)
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
        values = [eps * evaluate_local(sl2_local_factor(q), 1 + eps) for eps in (0.1, 0.05, 0.025)]
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

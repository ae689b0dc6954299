import pytest

from repzeta import arith
from repzeta.arith import prime_power
from repzeta.errors import BudgetExceededError


def test_prime_power_small_values():
    assert prime_power(-9) is None
    assert prime_power(0) is None
    assert prime_power(1) is None
    assert prime_power(2) == (2, 1)
    assert prime_power(1024) == (2, 10)
    assert prime_power(3 ** 7) == (3, 7)
    assert prime_power(7919) == (7919, 1)
    assert prime_power(7919 * 7907) is None
    assert prime_power(2 * 3 ** 5) is None


def test_prime_power_against_sympy_factorint():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 5001):
        factors = sympy.factorint(n)
        expected = next(iter(factors.items())) if len(factors) == 1 else None
        assert prime_power(n) == expected, n


def test_prime_power_trial_division_budget(monkeypatch):
    """With a budget of 10 odd divisors, 3..21 are tried and sqrt(n) <= 21 is decided."""
    monkeypatch.setattr(arith, "TRIAL_DIVISION_BUDGET", 10)
    assert prime_power(19 * 19) == (19, 2)
    assert prime_power(439) == (439, 1)  # prime, sqrt 20.9
    assert prime_power(3 ** 40) == (3, 40)
    assert prime_power(2 ** 90) == (2, 90)
    with pytest.raises(BudgetExceededError):
        prime_power(23 * 23)  # its least divisor 23 is the 11th odd one

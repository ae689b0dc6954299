import pytest

from repzeta.arith import prime_power


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

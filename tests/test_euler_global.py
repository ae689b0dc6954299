import math

import pytest

from repzeta import euler_global
from repzeta.errors import BudgetExceededError
from repzeta.euler_global import (
    EulerProductSpec,
    divergence_scan,
    euler_partial_product,
    odd_primes_upto,
    sandwich_check,
)
from repzeta.local_sl2 import evaluate_local, sl2_local_factor
from repzeta.rootsys import build_root_datum


def riemann_zeta_ref(s: float) -> float:
    """zeta(s) for s > 1 by Euler-Maclaurin; relative error below 1e-10.

    Direct sum to M = 100 plus the integral term, half-term, and three
    Bernoulli corrections; the first omitted term bounds the error.
    """
    if s <= 1:
        raise ValueError("zeta reference needs s > 1")
    m = 100
    total = math.fsum(float(n) ** (-s) for n in range(1, m + 1))
    total += m ** (1.0 - s) / (s - 1.0)
    total -= 0.5 * m ** (-s)
    # Bernoulli corrections B2/2! s M^{-s-1}, B4/4! s(s+1)(s+2) M^{-s-3}, ...
    total += (1.0 / 12.0) * s * m ** (-s - 1.0)
    total -= (1.0 / 720.0) * s * (s + 1.0) * (s + 2.0) * m ** (-s - 3.0)
    total += (1.0 / 30240.0) * s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) * m ** (-s - 5.0)
    return total


def test_odd_primes():
    assert odd_primes_upto(2) == []
    assert odd_primes_upto(20) == [3, 5, 7, 11, 13, 17, 19]
    assert len(odd_primes_upto(10_000)) == 1228  # pi(10^4) = 1229 minus the prime 2


def test_zeta_reference_against_direct_sums():
    assert riemann_zeta_ref(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-12)
    assert riemann_zeta_ref(4.0) == pytest.approx(math.pi ** 4 / 90, rel=1e-12)
    # direct-sum oracle at s = 10 (tail below 1e-13 by 40 terms)
    direct = sum(n ** -10.0 for n in range(40, 0, -1))
    assert riemann_zeta_ref(10.0) == pytest.approx(direct, rel=1e-12)
    assert riemann_zeta_ref(10.0) == pytest.approx(1.0009945751, abs=1e-9)
    with pytest.raises(ValueError):
        riemann_zeta_ref(1.0)


def test_single_factor_product():
    spec = EulerProductSpec(prime_bound=3)
    assert euler_partial_product(spec, 2.5) == pytest.approx(
        evaluate_local(sl2_local_factor(3), 2.5), rel=1e-12
    )


def test_empty_product():
    assert euler_partial_product(EulerProductSpec(prime_bound=2), 3.0) == 1.0


def test_excluded_places():
    full = euler_partial_product(EulerProductSpec(prime_bound=10), 2.5)
    without5 = euler_partial_product(
        EulerProductSpec(prime_bound=10, excluded=frozenset({5})), 2.5
    )
    assert without5 == pytest.approx(full / evaluate_local(sl2_local_factor(5), 2.5), rel=1e-12)


def test_product_against_brute_force():
    spec = EulerProductSpec(prime_bound=100)
    brute = 1.0
    for p in odd_primes_upto(100):
        brute *= evaluate_local(sl2_local_factor(p), 2.5)
    assert euler_partial_product(spec, 2.5) == pytest.approx(brute, rel=1e-10)


def test_scan_mode_gate():
    spec = EulerProductSpec(prime_bound=50)
    with pytest.raises(ValueError):
        euler_partial_product(spec, 2.0)
    assert euler_partial_product(spec, 2.0, scan=True) > 1.0
    with pytest.raises(ValueError):
        euler_partial_product(spec, 1.0, scan=True)


def test_archimedean_factor():
    datum = build_root_datum("A", 1)
    spec = EulerProductSpec(prime_bound=3, archimedean=(datum, 2), archimedean_bound=500)
    plain = euler_partial_product(EulerProductSpec(prime_bound=3), 3.0)
    arch = sum(n ** -3.0 for n in range(500, 0, -1))
    assert euler_partial_product(spec, 3.0) == pytest.approx(plain * arch ** 2, rel=1e-10)


def test_sandwich_grid():
    for s in (2.1, 2.25, 2.5, 2.75, 3.0):
        for bound in (100, 1000):
            assert sandwich_check(bound, s), (bound, s)
    with pytest.raises(ValueError):
        sandwich_check(100, 2.0)


def test_monotone_in_prime_bound():
    values = [
        euler_partial_product(EulerProductSpec(prime_bound=b), 2.5) for b in (10, 100, 1000)
    ]
    assert values[0] < values[1] < values[2]


def test_cauchy_tail():
    a = euler_partial_product(EulerProductSpec(prime_bound=1000), 2.25)
    b = euler_partial_product(EulerProductSpec(prime_bound=10_000), 2.25)
    assert abs(b - a) < 10 * 1000 ** (2 - 2.25)


def test_divergence_scan():
    scan = divergence_scan((100, 1000))
    assert scan.strictly_increasing and scan.growth_ratio > 1.05
    single = divergence_scan((500,))
    assert single.diverging is None
    full = divergence_scan((100, 1000, 10_000))
    assert full.diverging and full.growth_ratio > 1.15
    assert list(full.products) == sorted(full.products)
    with pytest.raises(ValueError):
        divergence_scan((100, 100))


def test_boundary_blowup_window():
    """Near s = 2 the log partial product sits in the sandwich exponent window.

    Per-factor bounds give exactly 0.5 < log_prod / log_zeta_partial < 100
    at any fixed truncation; the lower comparison is checked with the
    0.1 slack (0.4) as well since that is the stated window.
    """
    bound = 1000
    primes = odd_primes_upto(bound)
    for s in (2.05, 2.1, 2.2):
        log_prod = math.log(
            euler_partial_product(EulerProductSpec(prime_bound=bound), s, scan=True)
        )
        log_zeta_partial = -sum(math.log(1.0 - float(p) ** (1.0 - s)) for p in primes)
        assert (0.5 - 0.1) * log_zeta_partial < log_prod < 100.0 * log_zeta_partial
        assert 0.5 * log_zeta_partial < log_prod  # the exact sandwich lower edge


def test_sieve_budget(monkeypatch):
    monkeypatch.setattr(euler_global, "SIEVE_BUDGET", 100)
    assert odd_primes_upto(100)[-1] == 97
    with pytest.raises(BudgetExceededError):
        odd_primes_upto(101)
    with pytest.raises(BudgetExceededError):
        euler_partial_product(EulerProductSpec(prime_bound=1000), 2.5)


def test_product_past_the_float_range_is_inf():
    # near the pole a factor is about 1 / ((s - 1) log p): 47 of them stay finite, 48 do not
    s = 1.0000001
    assert math.isfinite(euler_partial_product(EulerProductSpec(prime_bound=223), s, scan=True))
    assert euler_partial_product(EulerProductSpec(prime_bound=227), s, scan=True) == math.inf


@pytest.mark.parametrize(
    "call",
    [
        lambda: euler_partial_product(EulerProductSpec(prime_bound=1000), 2.5),
        lambda: sandwich_check(1000, 2.5),
        lambda: divergence_scan((10, 100, 1000)),
    ],
    ids=["product", "sandwich", "scan"],
)
def test_one_sieve_and_one_factor_per_prime(count_calls, call):
    """Each function sieves once and builds one factor and one value per odd prime <= 1000."""
    sieves = count_calls(euler_global, "odd_primes_upto")
    factors = count_calls(euler_global, "sl2_local_factor")
    values = count_calls(euler_global, "evaluate_local")
    call()
    assert sieves == [1000]
    assert factors == odd_primes_upto(1000)
    assert len(values) == len(odd_primes_upto(1000))

import ast
import inspect
import math

import pytest
from ast_names import names

from repzeta import euler_global, local_sl2
from repzeta.errors import BudgetExceededError
from repzeta.euler_global import euler_report, odd_primes_upto
from repzeta.local_sl2 import evaluate_local, factor_columns


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


def product(bound, s):
    """The partial product over the odd primes <= bound at s, from a one-row report."""
    rows, _ = euler_report(bound, [s], ())
    return rows[0][1]


def scan(bounds):
    """The divergence scan of a report with no s-values, whose prime bound is then unused."""
    return euler_report(2, [], bounds)[1]


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
    [[z]] = evaluate_local(factor_columns((3,)), [2.5])
    assert product(3, 2.5) == pytest.approx(z, rel=1e-12)


def test_empty_product():
    assert product(2, 3.5) == 1.0
    with pytest.raises(ValueError, match="need at least one odd prime"):
        product(2, 3.0)  # the sandwich at s in (2, 3] needs a prime


def test_product_against_brute_force():
    brute = 1.0
    for p in odd_primes_upto(100):
        [[z]] = evaluate_local(factor_columns((p,)), [2.5])
        brute *= z
    assert product(100, 2.5) == pytest.approx(brute, rel=1e-10)


def test_exponents_at_most_one_rejected():
    assert product(50, 2.0) > 1.0
    with pytest.raises(ValueError):
        product(50, 1.0)


def test_sandwich_grid():
    grid = [2.0, 2.1, 2.25, 2.5, 2.75, 3.0]
    for bound in (100, 1000):
        rows, _ = euler_report(bound, grid, ())
        assert [ok for _, _, ok in rows] == [None, True, True, True, True, True], bound


def test_monotone_in_prime_bound():
    values = [product(b, 2.5) for b in (10, 100, 1000)]
    assert values[0] < values[1] < values[2]


def test_cauchy_tail():
    a = product(1000, 2.25)
    b = product(10_000, 2.25)
    assert abs(b - a) < 10 * 1000 ** (2 - 2.25)


def test_divergence_scan():
    two = scan((100, 1000))
    assert two["strictly_increasing"] and two["growth_ratio"] > 1.05
    assert scan((500,))["diverging"] is None
    full = scan((100, 1000, 10_000))
    assert full["diverging"] and full["growth_ratio"] > 1.15
    assert full["products"] == sorted(full["products"])
    with pytest.raises(ValueError):
        scan((100, 100))


def test_boundary_blowup_window():
    """Near s = 2 the log partial product sits in the sandwich exponent window.

    Per-factor bounds give exactly 0.5 < log_prod / log_zeta_partial < 100
    at any fixed truncation; the lower comparison is checked with the
    0.1 slack (0.4) as well since that is the stated window.
    """
    bound = 1000
    primes = odd_primes_upto(bound)
    for s in (2.05, 2.1, 2.2):
        log_prod = math.log(product(bound, s))
        log_zeta_partial = -sum(math.log(1.0 - float(p) ** (1.0 - s)) for p in primes)
        assert (0.5 - 0.1) * log_zeta_partial < log_prod < 100.0 * log_zeta_partial
        assert 0.5 * log_zeta_partial < log_prod  # the exact sandwich lower edge


def test_sieve_budget(monkeypatch):
    monkeypatch.setattr(euler_global, "SIEVE_BUDGET", 100)
    assert odd_primes_upto(100)[-1] == 97
    with pytest.raises(BudgetExceededError):
        odd_primes_upto(101)
    with pytest.raises(BudgetExceededError):
        product(1000, 2.5)


def test_product_past_the_float_range_is_inf():
    # near the pole a factor is about 1 / ((s - 1) log p): 47 of them stay finite, 48 do not
    s = 1.0000001
    assert math.isfinite(product(223, s))
    assert product(227, s) == math.inf


@pytest.mark.parametrize(
    "s_grid,scan_bounds",
    [([3.5], ()), ([2.5], ()), ([], (10, 100, 1000))],
    ids=["product", "sandwich", "scan"],
)
def test_one_sieve_and_one_factor_per_prime(count_calls, evaluator_calls, s_grid, scan_bounds):
    """A rows-only or scan-only report: one sieve to 1000, one column build whose q column is
    the sieve's odd primes, no per-prime factor, and one evaluator call that values them all
    at the report's one exponent."""
    sieves = count_calls(euler_global, "odd_primes_upto")
    builds = count_calls(euler_global, "factor_columns")
    factors = count_calls(local_sl2, "sl2_local_factor")
    euler_report(1000, s_grid, scan_bounds)
    assert sieves == [1000]
    assert builds == [odd_primes_upto(1000)]
    assert factors == []
    assert evaluator_calls == [(odd_primes_upto(1000), s_grid or [euler_global.BOUNDARY_S])]


def test_euler_global_names_no_per_prime_factor():
    """The report values its primes from columns: `euler_global` names no per-prime factor
    builder, factor type or one-q ratio."""
    mentioned = names(ast.parse(inspect.getsource(euler_global)))
    assert {"factor_columns", "evaluate_local", "one_minus_ratios"} <= mentioned  # the scan works
    assert not mentioned & {"_build_factor", "sl2_local_factor", "LocalFactorSL2", "_one_minus_ratio"}

"""Euler products of SL2 local factors and the zeta(s-1) sandwich.

Only rational primes are assembled: the global statement reduces place
by place to the one-factor sandwich, which is what gets tested.  The
factor at 2 is omitted, exactly as the comparison argument does.
"""

from __future__ import annotations

import bisect
import math
from itertools import repeat
from typing import Any, Sequence

from .errors import BudgetExceededError
from .local_sl2 import _build_factor, _one_minus_ratio, evaluate_local

SIEVE_BUDGET = 1_000_000  # largest prime bound sieved (one byte per integer)
BOUNDARY_S = 2.0  # the exponent at which the global product stops converging
DIVERGENCE_THRESHOLD = 1.15  # growth ratio across a scan that counts as divergence


def _check_sieve(bound: int) -> None:
    if bound > SIEVE_BUDGET:
        raise BudgetExceededError(f"prime bound {bound} exceeds the sieve budget {SIEVE_BUDGET}")


def odd_primes_upto(bound: int) -> list[int]:
    _check_sieve(bound)
    if bound < 3:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i:: i] = b"\x00" * len(range(i * i, bound + 1, i))
    return [i for i in range(3, bound + 1) if sieve[i]]


def _exp(log_product: float) -> float:
    try:
        return math.exp(log_product)
    except OverflowError:  # near s = 1: past the float range, where the product rounds to inf
        return math.inf


def euler_report(
    prime_bound: int, s_grid: Sequence[float], scan_bounds: Sequence[int]
) -> tuple[list[tuple[float, float, bool | None]], dict[str, Any] | None]:
    """One `euler` report: a row (s, partial product, sandwich verdict) per s, and the scan.

    A row's partial product runs over the odd primes <= prime_bound; it
    needs s > 1, and converges as the bound grows only for s > 2.  Its
    sandwich verdict, for s in (2, 3], is
    prod (1-p^(1-s))^(-1/2) < partial product < prod (1-p^(1-s))^(-100)
    over the same primes; outside (2, 3] it is None.  The scan, given
    any bounds, holds the partial products at BOUNDARY_S over the primes
    <= each bound: unbounded growth across the grid is the finite
    witness for divergence, and a single bound yields no verdict.

    Every argument is checked before any work.  Then one sieve up to the
    largest bound builds each prime's factor once (the sieve proves each
    prime, so no factor checks its q again), and one
    `evaluate_local` call values them all at the report's distinct
    exponents, so each log Z_p(s) is taken once per distinct exponent;
    every product is the `math.fsum` of a prefix of one list of logs,
    correctly rounded, so it does not depend on the order of the primes.
    """
    bounds = tuple(scan_bounds)
    if s_grid and prime_bound < 2:
        raise ValueError("prime bound must be >= 2")
    for s in s_grid:
        if not s > 1:  # also rejects NaN
            raise ValueError("every local factor diverges at s <= 1")
        _check_sieve(prime_bound)
        if 2 < s <= 3 and prime_bound < 3:
            raise ValueError("need at least one odd prime")
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError("prime bounds must strictly increase")
    for bound in bounds:
        if bound < 2:
            raise ValueError("prime bound must be >= 2")
        _check_sieve(bound)

    primes = odd_primes_upto(max([*bounds, prime_bound] if s_grid else bounds, default=2))
    exponents = list(dict.fromkeys([*s_grid, BOUNDARY_S] if bounds else s_grid))  # distinct
    values = evaluate_local(list(map(_build_factor, primes)), exponents)
    logs = {s: list(map(math.log, column)) for s, column in zip(exponents, values)}

    count = bisect.bisect_right(primes, prime_bound)
    rows: list[tuple[float, float, bool | None]] = []
    for s in s_grid:
        log_product = math.fsum(logs[s][:count])
        verdict = None
        if 2 < s <= 3:
            log_zeta = -math.fsum(map(math.log, map(_one_minus_ratio, primes[:count], repeat(s))))
            verdict = 0.5 * log_zeta < log_product < 100.0 * log_zeta
        rows.append((s, _exp(log_product), verdict))
    if not bounds:
        return rows, None
    products = [_exp(math.fsum(logs[BOUNDARY_S][: bisect.bisect_right(primes, b)])) for b in bounds]
    increasing = all(a < b for a, b in zip(products, products[1:]))
    ratio = products[-1] / products[0] if len(products) > 1 else None
    return rows, {
        "prime_bounds": list(bounds),
        "products": products,
        "strictly_increasing": increasing,
        "growth_ratio": ratio,
        "threshold": DIVERGENCE_THRESHOLD,
        "diverging": None if ratio is None else increasing and ratio > DIVERGENCE_THRESHOLD,
    }

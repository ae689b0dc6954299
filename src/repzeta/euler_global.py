"""Euler products of SL2 local factors and the zeta(s-1) sandwich.

Only rational primes are assembled: the global statement reduces place
by place to the one-factor sandwich, which is what gets tested.  The
factor at 2 and any excluded places are omitted, exactly as the
comparison argument does.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import BudgetExceededError
from .local_sl2 import _one_minus_ratio, evaluate_local, sl2_local_factor
from .rootsys import RootDatum
from .witten import enumerate_dimensions

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


@dataclass(frozen=True)
class EulerProductSpec:
    """Finite places: odd primes <= prime_bound minus the excluded set.

    An optional archimedean factor (root datum, multiplicity) is
    evaluated from a truncated census; it is always flagged as truncated
    and never participates in divergence certificates.
    """

    prime_bound: int
    excluded: frozenset[int] = field(default_factory=frozenset)
    archimedean: tuple[RootDatum, int] | None = None
    archimedean_bound: int = 2000

    def __post_init__(self) -> None:
        if self.prime_bound < 2:
            raise ValueError("prime bound must be >= 2")
        if self.archimedean is not None and self.archimedean[1] < 0:
            raise ValueError("archimedean multiplicity must be nonnegative")
        if self.archimedean_bound < 1:
            raise ValueError("archimedean census bound must be >= 1")


def _check_exponent(s: float, scan: bool) -> None:
    if s <= 1:
        raise ValueError("every local factor diverges at s <= 1")
    if s <= 2 and not scan:
        raise ValueError("1 < s <= 2 is allowed only in scan mode (divergent product region)")


def _check_sandwich(prime_bound: int, s: float) -> None:
    if not 2 < s <= 3:
        raise ValueError("sandwich comparison is stated for s in (2, 3]")
    if prime_bound < 3:
        raise ValueError("need at least one odd prime")


def _check_scan(bounds: tuple[int, ...]) -> None:
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError("prime bounds must strictly increase")
    for bound in bounds:
        EulerProductSpec(prime_bound=bound)
        _check_sieve(bound)


def _exp(log_product: float) -> float:
    try:
        return math.exp(log_product)
    except OverflowError:  # near s = 1: past the float range, where the product rounds to inf
        return math.inf


@dataclass(frozen=True)
class DivergenceScan:
    prime_bounds: tuple[int, ...]
    products: tuple[float, ...]
    strictly_increasing: bool
    growth_ratio: float | None
    threshold: float
    diverging: bool | None  # None: single point, no evidence either way


class PrimeTable:
    """The odd primes up to one bound, with log Z_p(s) at each of a set of exponents.

    It sieves once, builds each prime's `sl2_local_factor` once and
    computes each log Z_p(s) once; every product, sandwich and scan of
    one report reads it.  A product over the primes <= b is the `fsum`
    of a prefix of one list, and `fsum` is correctly rounded, so it
    equals the product computed from a table of its own.  The table
    checks only the sieve budget; callers check s and the bounds first.
    """

    def __init__(self, bound: int, exponents: Iterable[float]) -> None:
        self.primes = odd_primes_upto(bound)
        self.logs: dict[float, list[float]] = {s: [] for s in exponents}
        for p in self.primes:
            factor = sl2_local_factor(p)
            for s, logs in self.logs.items():
                logs.append(math.log(evaluate_local(factor, s)))

    def _count(self, bound: int) -> int:
        return bisect.bisect_right(self.primes, bound)

    def partial_product(self, spec: EulerProductSpec, s: float) -> float:
        count = self._count(spec.prime_bound)
        logs = [lg for p, lg in zip(self.primes[:count], self.logs[s]) if p not in spec.excluded]
        if spec.archimedean is not None:
            datum, copies = spec.archimedean
            census = enumerate_dimensions(datum, spec.archimedean_bound)
            logs.append(copies * math.log(census.zeta(s)))
        return _exp(math.fsum(logs))

    def sandwich(self, prime_bound: int, s: float) -> bool:
        count = self._count(prime_bound)
        log_product = math.fsum(self.logs[s][:count])
        log_zeta_term = math.fsum(-math.log(_one_minus_ratio(p, s)) for p in self.primes[:count])
        return 0.5 * log_zeta_term < log_product < 100.0 * log_zeta_term

    def scan(self, bounds: tuple[int, ...]) -> DivergenceScan:
        logs = self.logs[BOUNDARY_S]
        products = tuple(_exp(math.fsum(logs[: self._count(bound)])) for bound in bounds)
        increasing = all(a < b for a, b in zip(products, products[1:]))
        ratio = products[-1] / products[0] if len(products) > 1 else None
        return DivergenceScan(
            prime_bounds=bounds,
            products=products,
            strictly_increasing=increasing,
            growth_ratio=ratio,
            threshold=DIVERGENCE_THRESHOLD,
            diverging=None if ratio is None else increasing and ratio > DIVERGENCE_THRESHOLD,
        )


def euler_partial_product(spec: EulerProductSpec, s: float, scan: bool = False) -> float:
    """Product of local factor values at s over the odd primes of `spec`.

    Needs s > 2 for a convergent product; 1 < s <= 2 is allowed only in
    scan mode (finite partial products on the divergent boundary).
    Factors are combined through a correctly rounded sum of logs
    (`math.fsum`), so the result does not depend on the order of the
    places.
    """
    _check_exponent(s, scan)
    return PrimeTable(spec.prime_bound, (s,)).partial_product(spec, s)


def sandwich_check(prime_bound: int, s: float) -> bool:
    """prod (1-p^(1-s))^(-1/2) < partial product < prod (1-p^(1-s))^(-100).

    Both comparison products run over the same odd primes <= prime_bound,
    each as the `fsum` of its logs; the partial product is
    `euler_partial_product`'s, from the same log Z_p(s).  Stated for s in
    (2, 3].
    """
    _check_sandwich(prime_bound, s)
    return PrimeTable(prime_bound, (s,)).sandwich(prime_bound, s)


def divergence_scan(prime_bounds: Sequence[int]) -> DivergenceScan:
    """Partial products at BOUNDARY_S over a growing prime range.

    Each product is `euler_partial_product` at BOUNDARY_S over the primes
    <= one bound: the `fsum` of a prefix of one list of log Z_p(2), from
    one sieve up to the largest bound.  Unbounded growth across the grid
    is the finite witness for divergence; a single-point grid yields no
    verdict.
    """
    bounds = tuple(prime_bounds)
    _check_scan(bounds)
    return PrimeTable(max(bounds, default=2), (BOUNDARY_S,)).scan(bounds)


def euler_report(
    prime_bound: int, s_grid: Sequence[float], scan_bounds: Sequence[int]
) -> tuple[list[tuple[float, float, bool | None]], DivergenceScan | None]:
    """One `euler` report: a row (s, partial product, sandwich verdict) per s, and the scan.

    The rows are `euler_partial_product` (in scan mode for s <= 2) and,
    for s in (2, 3], `sandwich_check` at prime_bound; the scan, given any
    bounds, is `divergence_scan`.  Every argument is checked first, in the
    order those calls would check it, so a report raises what they
    raise; then one table up to the largest bound serves every row and
    the scan.
    """
    bounds = tuple(scan_bounds)
    spec = EulerProductSpec(prime_bound=prime_bound) if s_grid else None
    for s in s_grid:
        _check_exponent(s, scan=s <= 2)
        _check_sieve(prime_bound)
        if 2 < s <= 3:
            _check_sandwich(prime_bound, s)
    if bounds:
        _check_scan(bounds)
    largest = max([*bounds, prime_bound] if s_grid else bounds, default=2)
    table = PrimeTable(largest, [*s_grid, BOUNDARY_S] if bounds else s_grid)
    rows = [
        (s, table.partial_product(spec, s), table.sandwich(prime_bound, s) if 2 < s <= 3 else None)
        for s in s_grid
    ]
    return rows, table.scan(bounds) if bounds else None

"""Euler products of SL2 local factors and the zeta(s-1) sandwich.

Only rational primes are assembled: the global statement reduces place
by place to the one-factor sandwich, which is what gets tested.  The
factor at 2 and any excluded places are omitted, exactly as the
comparison argument does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import BudgetExceededError
from .local_sl2 import _one_minus_ratio, evaluate_local, sl2_local_factor
from .rootsys import RootDatum
from .witten import enumerate_dimensions

SIEVE_BUDGET = 1_000_000  # largest prime bound sieved (one byte per integer)
BOUNDARY_S = 2.0  # the exponent at which the global product stops converging
DIVERGENCE_THRESHOLD = 1.15  # growth ratio across a scan that counts as divergence


def odd_primes_upto(bound: int) -> list[int]:
    if bound > SIEVE_BUDGET:
        raise BudgetExceededError(f"prime bound {bound} exceeds the sieve budget {SIEVE_BUDGET}")
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

    def primes(self) -> list[int]:
        return [p for p in odd_primes_upto(self.prime_bound) if p not in self.excluded]


def euler_partial_product(spec: EulerProductSpec, s: float, scan: bool = False) -> float:
    """Product of local factor values at s over the primes listed by `spec`.

    Needs s > 2 for a convergent product; 1 < s <= 2 is allowed only in
    scan mode (finite partial products on the divergent boundary).
    Factors are combined through a correctly rounded sum of logs
    (`math.fsum`), so the result does not depend on the order of the
    places.
    """
    if s <= 1:
        raise ValueError("every local factor diverges at s <= 1")
    if s <= 2 and not scan:
        raise ValueError("1 < s <= 2 is allowed only in scan mode (divergent product region)")
    logs = []
    for p in spec.primes():
        logs.append(math.log(evaluate_local(sl2_local_factor(p), s)))
    if spec.archimedean is not None:
        datum, copies = spec.archimedean
        census = enumerate_dimensions(datum, spec.archimedean_bound)
        logs.append(copies * math.log(census.zeta(s)))
    log_product = math.fsum(logs)
    try:
        return math.exp(log_product)
    except OverflowError:  # near s = 1: past the float range, where the product rounds to inf
        return math.inf


def sandwich_check(prime_bound: int, s: float) -> bool:
    """prod (1-p^(1-s))^(-1/2) < partial product < prod (1-p^(1-s))^(-100).

    Both comparison products run over the same odd primes; stated for
    s in (2, 3].
    """
    if not 2 < s <= 3:
        raise ValueError("sandwich comparison is stated for s in (2, 3]")
    if prime_bound < 3:
        raise ValueError("need at least one odd prime")
    spec = EulerProductSpec(prime_bound=prime_bound)
    log_product = math.fsum(
        math.log(evaluate_local(sl2_local_factor(p), s)) for p in spec.primes()
    )
    log_zeta_term = math.fsum(-math.log(_one_minus_ratio(p, s)) for p in spec.primes())
    return 0.5 * log_zeta_term < log_product < 100.0 * log_zeta_term


@dataclass(frozen=True)
class DivergenceScan:
    prime_bounds: tuple[int, ...]
    products: tuple[float, ...]
    strictly_increasing: bool
    growth_ratio: float | None
    threshold: float
    diverging: bool | None  # None: single point, no evidence either way


def divergence_scan(prime_bounds: Sequence[int]) -> DivergenceScan:
    """Partial products at BOUNDARY_S over a growing prime range.

    Unbounded growth across the grid is the finite witness for
    divergence; a single-point grid yields no verdict.
    """
    bounds = tuple(prime_bounds)
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError("prime bounds must strictly increase")
    products = tuple(
        euler_partial_product(EulerProductSpec(prime_bound=bound), BOUNDARY_S, scan=True)
        for bound in bounds
    )
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

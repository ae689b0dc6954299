"""The explicit zeta function of SL2 over a local ring with odd residue field.

The factor splits into a fixed head (level-1 representations, q+4 of
them) and three tail families whose degree and multiplicity both scale
by q per congruence level:

    head: 1, q, (q-3)/2 x (q+1), 2 x (q+1)/2, (q-1)/2 x (q-1), 2 x (q-1)/2
    tail: 4q x (q^2-1)/2,  (q^2-1)/2 x (q^2-q),  (q-1)^2/2 x (q^2+q)

summed against the geometric series 1/(1 - q^(1-s)).  Everything here is
exact in q; evaluation goes to floats only at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import prime_power
from .census import DegreeCensus


@dataclass(frozen=True)
class LocalFactorSL2:
    """Symbolic local factor: unmerged head terms plus geometric tail bases.

    head_terms keeps the formula's terms in order, including coefficients
    that vanish for small q (the (q+1)-term at q=3), for traceability.
    """

    q: int
    head_terms: tuple[tuple[int, int], ...]  # (degree, multiplicity)
    tail_terms: tuple[tuple[int, int], ...]  # (base degree, base multiplicity)

    def head_census(self) -> DegreeCensus:
        pairs = [(d, m) for d, m in self.head_terms if m > 0]
        bound = max(d for d, _ in pairs)
        return DegreeCensus.from_pairs(pairs, bound)


def sl2_local_factor(q: int) -> LocalFactorSL2:
    if q % 2 == 0 or prime_power(q) is None:
        raise ValueError(f"q={q}: the explicit SL2 factor needs an odd prime power >= 3")
    head = (
        (1, 1),
        (q, 1),
        (q + 1, (q - 3) // 2),
        ((q + 1) // 2, 2),
        (q - 1, (q - 1) // 2),
        ((q - 1) // 2, 2),
    )
    tail = (
        ((q * q - 1) // 2, 4 * q),
        (q * q - q, (q * q - 1) // 2),
        (q * q + q, (q - 1) ** 2 // 2),
    )
    if sum(m for _, m in head) != q + 4:
        raise AssertionError(f"q={q}: head multiplicities do not sum to q+4")
    return LocalFactorSL2(q=q, head_terms=head, tail_terms=tail)


def _one_minus_ratio(q: int, s: float) -> float:
    """1 - q^(1-s) as -expm1((1-s) log q), which keeps full precision near s = 1."""
    return -math.expm1((1.0 - s) * math.log(q))


def evaluate_local(factor: LocalFactorSL2, s: float) -> float:
    """Head sum plus tail/(1 - q^(1-s)); needs s > 1 for the tail to converge."""
    if s <= 1:
        raise ValueError("s must exceed 1 (the tail ratio is q^(1-s))")
    head = math.fsum(m * float(d) ** (-s) for d, m in factor.head_terms if m)
    tail = math.fsum(m * float(d) ** (-s) for d, m in factor.tail_terms)
    return head + tail / _one_minus_ratio(factor.q, s)


def evaluate_local_exact(factor: LocalFactorSL2, s: int) -> Fraction:
    """Exact rational value at an integer exponent s >= 2."""
    if s <= 1:
        raise ValueError("s must exceed 1")
    q = factor.q
    head = sum(Fraction(m, d ** s) for d, m in factor.head_terms if m)
    tail = sum(Fraction(m, d ** s) for d, m in factor.tail_terms)
    ratio = Fraction(q ** (s - 1) - 1, q ** (s - 1))  # 1 - q^(1-s)
    return head + tail / ratio


def sl2_quotient_order(q: int, k: int) -> int:
    """|SL2(O/pi^k)| = q^(3(k-1)) * (q^3 - q)."""
    return q ** (3 * (k - 1)) * (q ** 3 - q)


def irrep_count(q: int, k: int) -> int:
    """Number of irreducibles of SL2(O/pi^k): (q+4) + (q^2+3q)(q^(k-1)-1)/(q-1)."""
    if q % 2 == 0 or prime_power(q) is None:
        raise ValueError(f"q={q}: need an odd prime power >= 3")
    if k < 1:
        raise ValueError("level k must be >= 1")
    return (q + 4) + (q * q + 3 * q) * (q ** (k - 1) - 1) // (q - 1)


@dataclass(frozen=True)
class LevelCensus:
    """Exact census of SL2(O/pi^k): head at level 1, scaled tails at 2..k."""

    q: int
    level: int
    census: DegreeCensus
    by_level: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


def level_census(q: int, k: int) -> LevelCensus:
    factor = sl2_local_factor(q)
    if k < 1:
        raise ValueError("level k must be >= 1")
    per_level: list[tuple[int, tuple[tuple[int, int], ...]]] = [
        (1, tuple((d, m) for d, m in factor.head_terms if m))
    ]
    pairs: list[tuple[int, int]] = list(per_level[0][1])
    for level in range(2, k + 1):
        scale = q ** (level - 2)
        fam = tuple((d * scale, m * scale) for d, m in factor.tail_terms)
        per_level.append((level, fam))
        pairs.extend(fam)
    census = DegreeCensus.from_pairs(pairs, max(d for d, _ in pairs))
    lc = LevelCensus(q=q, level=k, census=census, by_level=tuple(per_level))
    if census.total_count != irrep_count(q, k):
        raise AssertionError(f"q={q}, k={k}: census count differs from irrep_count")
    if census.mass != sl2_quotient_order(q, k):
        raise AssertionError(f"q={q}, k={k}: census mass differs from the group order")
    return lc


def factor_bounds_check(q: int, s: float) -> tuple[bool, bool]:
    """Sandwich at one place: (1-q^(1-s))^(-1/2) < Z_q(s) < (1-q^(1-s))^(-100).

    Proven for odd q and s in [2, 3].  At integer s the comparison is done
    in exact rational arithmetic (the -1/2 power by squaring); otherwise in
    double precision.
    """
    if q % 2 == 0 or prime_power(q) is None:
        raise ValueError(f"q={q}: need an odd prime power >= 3")
    if not (2.0 <= s <= 3.0):
        raise ValueError("the sandwich bounds are stated only for s in [2, 3]")
    factor = sl2_local_factor(q)
    if float(s).is_integer():
        si = int(s)
        z = evaluate_local_exact(factor, si)
        one_minus = Fraction(q ** (si - 1) - 1, q ** (si - 1))
        lower_ok = z * z * one_minus > 1
        upper_ok = z * one_minus ** 100 < 1
        return (bool(lower_ok), bool(upper_ok))
    z = evaluate_local(factor, s)
    x = _one_minus_ratio(q, s)
    return (z > x ** -0.5, z < x ** -100.0)


def pole_witness(q: int, epsilons: tuple[float, ...] = (0.1, 0.05, 0.025)) -> list[float]:
    """Values eps * Z_q(1 + eps); bounded as eps shrinks (simple-pole behavior)."""
    factor = sl2_local_factor(q)
    return [eps * evaluate_local(factor, 1.0 + eps) for eps in epsilons]

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
import sys
from fractions import Fraction
from itertools import chain, repeat
from operator import add, attrgetter, itemgetter, mul, neg, truediv
from typing import Iterable, Iterator, NamedTuple, Sequence

from .arith import prime_power
from .census import DegreeCensus
from .errors import BudgetExceededError

ORDER_BITS_BUDGET = 10_000  # bits of |SL2(O/pi^k)| in a level census; bounds the level


Terms = tuple[tuple[int, int], ...]


class LocalFactorSL2(NamedTuple):
    """Symbolic local factor: unmerged head terms plus geometric tail bases.

    head_terms keeps the formula's terms in order, including coefficients
    that vanish for small q (the (q+1)-term at q=3), for traceability.
    `sl2_local_factor` checks q as it builds one; the level census,
    irreducible count, evaluator and sandwich bounds take the factor, so
    a report checks q once.  A plain `NamedTuple`, cheap to build: an
    `euler` report builds one per odd prime.
    """

    q: int
    head_terms: Terms  # (degree, multiplicity)
    tail_terms: Terms  # (base degree, base multiplicity)


def sl2_local_factor(q: int) -> LocalFactorSL2:
    """The factor at odd q; its largest degree q^2 + q must be a finite float."""
    if q * q + q > sys.float_info.max:
        raise ValueError(f"q={q}: the degree q^2 + q of the factor is past the float range")
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
    if sum(map(itemgetter(1), head)) != q + 4:
        raise AssertionError(f"q={q}: head multiplicities do not sum to q+4")
    return LocalFactorSL2(q, head, tail)


def _one_minus_ratio(q: int, s: float) -> float:
    """1 - q^(1-s) as -expm1((1-s) log q), which keeps full precision near s = 1."""
    return -math.expm1((1.0 - s) * math.log(q))


def _flat_terms(groups: Iterable[Terms]) -> tuple[list[float], list[float]]:
    """The float degrees and the float multiplicities of the terms of every group, in order."""
    terms = list(chain.from_iterable(groups))
    return list(map(float, map(itemgetter(0), terms))), list(map(float, map(itemgetter(1), terms)))


def _term_sums(
    degrees: list[float], multiplicities: list[float], s: float, width: int
) -> Iterator[float]:
    """The `math.fsum` of each run of `width` terms m * d^(-s): one sum per factor."""
    terms = map(mul, multiplicities, map(pow, degrees, repeat(-s)))
    return map(math.fsum, zip(*[terms] * width))


def evaluate_local(
    factors: Sequence[LocalFactorSL2], exponents: Sequence[float]
) -> list[list[float]]:
    """Z_q(s) = head sum + tail sum / (1 - q^(1-s)) of every factor at every exponent.

    Returns one column per exponent, in order, holding one value per
    factor, in order.  Every exponent must exceed 1, for the tail to
    converge; all are checked before any work.  Each factor's head and
    tail are `math.fsum`s of its terms m * float(d)^(-s), correctly
    rounded, so the order of the terms does not matter (a head term of
    multiplicity 0, the (q+1)-term at q = 3, adds an exact 0), and
    1 - q^(1-s) is -expm1((1-s) log q), which keeps full precision near
    s = 1.  The float degrees and multiplicities of all the factors'
    terms, and their log q, are built as flat columns once per call;
    each exponent then values every factor through `map` and `zip`, so
    a report's factors cost one call.
    """
    for s in exponents:
        if not s > 1:  # also rejects NaN
            raise ValueError("s must exceed 1 (the tail ratio is q^(1-s))")
    head_d, head_m = _flat_terms(map(attrgetter("head_terms"), factors))
    tail_d, tail_m = _flat_terms(map(attrgetter("tail_terms"), factors))
    # every factor has the formula's 6 head and 3 tail terms
    head_width = len(factors[0].head_terms) if factors else 0
    tail_width = len(factors[0].tail_terms) if factors else 0
    log_q = list(map(math.log, map(attrgetter("q"), factors)))
    columns = []
    for s in exponents:
        heads = _term_sums(head_d, head_m, s, head_width)
        tails = _term_sums(tail_d, tail_m, s, tail_width)
        ratios = map(neg, map(math.expm1, map(mul, repeat(1.0 - s), log_q)))
        columns.append(list(map(add, heads, map(truediv, tails, ratios))))
    return columns


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


def irrep_count(factor: LocalFactorSL2, k: int) -> int:
    """Number of irreducibles of SL2(O/pi^k): (q+4) + (q^2+3q)(q^(k-1)-1)/(q-1)."""
    q = factor.q
    if k < 1:
        raise ValueError("level k must be >= 1")
    return (q + 4) + (q * q + 3 * q) * (q ** (k - 1) - 1) // (q - 1)


def level_census(factor: LocalFactorSL2, k: int) -> DegreeCensus:
    """Exact census of SL2(O/pi^k): head at level 1, tails scaled by q^(j-2) at levels j = 2..k.

    Past ORDER_BITS_BUDGET bits of q^(3k) it raises; q^(3k) bounds the
    group order, the largest number of the census.
    """
    q = factor.q
    if k < 1:
        raise ValueError("level k must be >= 1")
    if 3 * k * q.bit_length() > ORDER_BITS_BUDGET:
        raise BudgetExceededError(
            f"level {k} at q={q} needs about {3 * k * q.bit_length()} bits for the group "
            f"order; the budget is {ORDER_BITS_BUDGET}"
        )
    pairs = [(d, m) for d, m in factor.head_terms if m]
    for level in range(2, k + 1):
        scale = q ** (level - 2)
        pairs.extend((d * scale, m * scale) for d, m in factor.tail_terms)
    census = DegreeCensus.from_pairs(pairs, max(d for d, _ in pairs))
    if census.total_count != irrep_count(factor, k):
        raise AssertionError(f"q={q}, k={k}: census count differs from irrep_count")
    if census.mass != sl2_quotient_order(q, k):
        raise AssertionError(f"q={q}, k={k}: census mass differs from the group order")
    return census


def factor_bounds_check(factor: LocalFactorSL2, s: float) -> tuple[bool, bool]:
    """Sandwich at one place: (1-q^(1-s))^(-1/2) < Z_q(s) < (1-q^(1-s))^(-100).

    Proven for odd q and s in [2, 3].  At integer s the comparison is done
    in exact rational arithmetic (the -1/2 power by squaring); otherwise in
    double precision.
    """
    if not (2.0 <= s <= 3.0):
        raise ValueError("the sandwich bounds are stated only for s in [2, 3]")
    q = factor.q
    if float(s).is_integer():
        si = int(s)
        z = evaluate_local_exact(factor, si)
        one_minus = Fraction(q ** (si - 1) - 1, q ** (si - 1))
        lower_ok = z * z * one_minus > 1
        upper_ok = z * one_minus ** 100 < 1
        return (bool(lower_ok), bool(upper_ok))
    [[z]] = evaluate_local([factor], [s])
    x = _one_minus_ratio(q, s)
    return (z > x ** -0.5, z < x ** -100.0)

"""The explicit zeta function of SL2 over a local ring with odd residue field.

The factor splits into a fixed head (level-1 representations, q+4 of
them) and three tail families whose degree and multiplicity both scale
by q per congruence level:

    head: 1, q, (q-3)/2 x (q+1), 2 x (q+1)/2, (q-1)/2 x (q-1), 2 x (q-1)/2
    tail: 4q x (q^2-1)/2,  (q^2-1)/2 x (q^2-q),  (q-1)^2/2 x (q^2+q)

summed against the geometric series 1/(1 - q^(1-s)).  Everything here is
exact in q; evaluation goes to floats only at the end.

`factor_columns` is the one place these nine terms are written: it
writes them as int columns over a sequence of q, which `evaluate_local`
values and an `euler` report builds once from its sieve.  The factor at
one q is those columns at the one-q column (q,), checked
(`sl2_local_factor`); the level census, the irreducible count, the exact
value and the sandwich bounds read each term of it as ((d,), (m,)).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import repeat
from operator import add, mul, neg, truediv
from typing import Iterable, Iterator, NamedTuple, Sequence

from .arith import prime_power
from .census import DegreeCensus
from .errors import BudgetExceededError

ORDER_BITS_BUDGET = 10_000  # bits of |SL2(O/pi^k)| in a level census; bounds the level


TermColumns = tuple[tuple[Sequence[int], Sequence[int]], ...]


class FactorColumns(NamedTuple):
    """The factors at a sequence of q as columns, one entry per q, in order.

    `head` and `tail` hold one (degrees, multiplicities) pair of int
    columns per term of the formula, in the formula's order, a term
    whose multiplicity vanishes (the (q+1)-term at q = 3) included;
    `log_q` is `math.log` of each q, the column every ratio 1 - q^(1-s)
    reads.  At a one-q column it is the record of one factor, the one
    `sl2_local_factor` returns.
    """

    q: Sequence[int]
    log_q: list[float]
    head: TermColumns
    tail: TermColumns


def factor_columns(qs: Sequence[int]) -> FactorColumns:
    """The nine terms of the factor at every q of `qs`, each written once, as int columns.

    The q column is `qs` itself.  Nothing here checks q: its callers
    have (`sl2_local_factor`) or sieved each q as an odd prime.
    """
    ones = [1] * len(qs)
    twos = [2] * len(qs)
    half_down = [(q - 1) // 2 for q in qs]
    half_square = [(q * q - 1) // 2 for q in qs]
    head = (
        (ones, ones),
        (qs, ones),
        ([q + 1 for q in qs], [(q - 3) // 2 for q in qs]),
        ([(q + 1) // 2 for q in qs], twos),
        ([q - 1 for q in qs], half_down),
        (half_down, twos),
    )
    tail = (
        (half_square, [4 * q for q in qs]),
        ([q * q - q for q in qs], half_square),
        ([q * q + q for q in qs], [(q - 1) ** 2 // 2 for q in qs]),
    )
    return FactorColumns(qs, list(map(math.log, qs)), head, tail)


def sl2_local_factor(q: int) -> FactorColumns:
    """The factor at odd q: the one-q columns `factor_columns((q,))`, checked.

    q must be an odd prime power whose largest degree q^2 + q is a
    finite float, and the head multiplicities must sum to q + 4.  The
    level census, irreducible count, exact value and sandwich bounds
    take this record, so a report checks q and builds its columns once.
    """
    if q * q + q > sys.float_info.max:
        raise ValueError(f"q={q}: the degree q^2 + q of the factor is past the float range")
    if q % 2 == 0 or prime_power(q) is None:
        raise ValueError(f"q={q}: the explicit SL2 factor needs an odd prime power >= 3")
    factor = factor_columns((q,))
    if sum(m for _, (m,) in factor.head) != q + 4:
        raise AssertionError(f"q={q}: head multiplicities do not sum to q+4")
    return factor


def one_minus_ratios(log_q: Iterable[float], s: float) -> Iterator[float]:
    """1 - q^(1-s) for each log q, as -expm1((1-s) log q), which keeps full precision near s = 1."""
    return map(neg, map(math.expm1, map(mul, repeat(1.0 - s), log_q)))


def evaluate_local(columns: FactorColumns, exponents: Sequence[float]) -> list[list[float]]:
    """Z_q(s) = head sum + tail sum / (1 - q^(1-s)) of every factor at every exponent.

    `columns` is `factor_columns(qs)`.  Returns one column per exponent,
    in order, holding one value per q, in order.  Every exponent must
    exceed 1, for the tail to converge; all are checked before any work.
    Each factor's head and tail are `math.fsum`s of its terms
    m * float(d)^(-s), correctly rounded, so the order of the terms does
    not matter (a head term of multiplicity 0, the (q+1)-term at q = 3,
    adds an exact 0), and 1 - q^(1-s) comes from `one_minus_ratios`.
    The float term columns are built once per call; each exponent then
    maps every term column once and zips the nine maps, so the values of
    all the factors of a report cost one call.
    """
    for s in exponents:
        if not s > 1:  # also rejects NaN
            raise ValueError("s must exceed 1 (the tail ratio is q^(1-s))")
    head, tail = (
        [(list(map(float, d)), list(map(float, m))) for d, m in terms]
        for terms in (columns.head, columns.tail)
    )
    values = []
    for s in exponents:
        heads, tails = (
            map(math.fsum, zip(*[map(mul, m, map(pow, d, repeat(-s))) for d, m in terms]))
            for terms in (head, tail)
        )
        ratios = one_minus_ratios(columns.log_q, s)
        values.append(list(map(add, heads, map(truediv, tails, ratios))))
    return values


def evaluate_local_exact(factor: FactorColumns, s: int) -> Fraction:
    """Exact rational value of a one-q factor (`sl2_local_factor`) at an integer s >= 2."""
    if s <= 1:
        raise ValueError("s must exceed 1")
    [q] = factor.q
    head = sum(Fraction(m, d ** s) for (d,), (m,) in factor.head if m)
    tail = sum(Fraction(m, d ** s) for (d,), (m,) in factor.tail)
    ratio = Fraction(q ** (s - 1) - 1, q ** (s - 1))  # 1 - q^(1-s)
    return head + tail / ratio


def sl2_quotient_order(q: int, k: int) -> int:
    """|SL2(O/pi^k)| = q^(3(k-1)) * (q^3 - q)."""
    return q ** (3 * (k - 1)) * (q ** 3 - q)


def irrep_count(factor: FactorColumns, k: int) -> int:
    """Number of irreducibles of SL2(O/pi^k): (q+4) + (q^2+3q)(q^(k-1)-1)/(q-1)."""
    [q] = factor.q
    if k < 1:
        raise ValueError("level k must be >= 1")
    return (q + 4) + (q * q + 3 * q) * (q ** (k - 1) - 1) // (q - 1)


def level_census(factor: FactorColumns, k: int) -> DegreeCensus:
    """Exact census of SL2(O/pi^k): head at level 1, tails scaled by q^(j-2) at levels j = 2..k.

    Past ORDER_BITS_BUDGET bits of q^(3k) it raises; q^(3k) bounds the
    group order, the largest number of the census.
    """
    [q] = factor.q
    if k < 1:
        raise ValueError("level k must be >= 1")
    if 3 * k * q.bit_length() > ORDER_BITS_BUDGET:
        raise BudgetExceededError(
            f"level {k} at q={q} needs about {3 * k * q.bit_length()} bits for the group "
            f"order; the budget is {ORDER_BITS_BUDGET}"
        )
    pairs = [(d, m) for (d,), (m,) in factor.head if m]
    for level in range(2, k + 1):
        scale = q ** (level - 2)
        pairs.extend((d * scale, m * scale) for (d,), (m,) in factor.tail)
    census = DegreeCensus.from_pairs(pairs, max(d for d, _ in pairs))
    if census.total_count != irrep_count(factor, k):
        raise AssertionError(f"q={q}, k={k}: census count differs from irrep_count")
    if census.mass != sl2_quotient_order(q, k):
        raise AssertionError(f"q={q}, k={k}: census mass differs from the group order")
    return census


def factor_bounds_check(factor: FactorColumns, s: float) -> tuple[bool, bool]:
    """Sandwich at one place: (1-q^(1-s))^(-1/2) < Z_q(s) < (1-q^(1-s))^(-100).

    Proven for odd q and s in [2, 3]; `factor` is what `sl2_local_factor`
    returns.  At integer s the comparison is done in exact rational
    arithmetic (the -1/2 power by squaring); otherwise `sandwich_verdicts`
    compares the float value of those same columns in double precision.
    """
    if not (2.0 <= s <= 3.0):
        raise ValueError("the sandwich bounds are stated only for s in [2, 3]")
    [q] = factor.q
    if float(s).is_integer():
        si = int(s)
        z = evaluate_local_exact(factor, si)
        one_minus = Fraction(q ** (si - 1) - 1, q ** (si - 1))
        lower_ok = z * z * one_minus > 1
        upper_ok = z * one_minus ** 100 < 1
        return (bool(lower_ok), bool(upper_ok))
    [[z]] = evaluate_local(factor, [s])
    return sandwich_verdicts(factor, s, z)


def sandwich_verdicts(factor: FactorColumns, s: float, z: float) -> tuple[bool, bool]:
    """The float sandwich at the one-q factor: whether the value z of Z_q(s) lies above
    (1-q^(1-s))^(-1/2) and below (1-q^(1-s))^(-100), in double precision, the ratio
    1-q^(1-s) taken from the factor's `log_q`."""
    [x] = one_minus_ratios(factor.log_q, s)
    return (z > x ** -0.5, z < x ** -100.0)

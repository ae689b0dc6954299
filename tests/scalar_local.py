"""The scalar local-factor evaluator, the oracle for `repzeta.local_sl2`'s column one.

Independent of `repzeta`: it reads a factor's `q`, `head_terms` and
`tail_terms` and values one factor at one exponent, as `evaluate_local`
did before it took a report's factors as columns.  Each sum is a
`math.fsum` of the terms m * float(d)^(-s), a head term of multiplicity
0 skipped, and the tail is divided by 1 - q^(1-s), computed as
-expm1((1-s) log q).  `math.fsum` is correctly rounded, so the column
evaluator, which sums the same terms, must agree with this one bit for
bit.
"""

from __future__ import annotations

import math
from typing import Any


def one_minus_ratio(q: int, s: float) -> float:
    """1 - q^(1-s) as -expm1((1-s) log q), which keeps full precision near s = 1."""
    return -math.expm1((1.0 - s) * math.log(q))


def evaluate_local_scalar(factor: Any, s: float) -> float:
    """Head sum plus tail/(1 - q^(1-s)) of one factor; needs s > 1 for the tail to converge."""
    if not s > 1:  # also rejects NaN
        raise ValueError("s must exceed 1 (the tail ratio is q^(1-s))")
    head = math.fsum(m * float(d) ** (-s) for d, m in factor.head_terms if m)
    tail = math.fsum(m * float(d) ** (-s) for d, m in factor.tail_terms)
    return head + tail / one_minus_ratio(factor.q, s)

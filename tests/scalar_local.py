"""The scalar local-factor evaluator, the oracle for `repzeta.local_sl2`'s column one.

Independent of `repzeta`: it writes the nine terms of the factor at q
itself, from the formula in `local_sl2`'s module docstring, and values
one factor at one exponent, as `evaluate_local` did before it took a
report's factors as columns.  Each sum is a `math.fsum` of the terms
m * float(d)^(-s), a head term of multiplicity 0 skipped, and the tail
is divided by 1 - q^(1-s), computed as -expm1((1-s) log q).
`math.fsum` is correctly rounded, so the column evaluator, which sums
the same terms, must agree with this one bit for bit.
"""

from __future__ import annotations

import math


def one_minus_ratio(q: int, s: float) -> float:
    """1 - q^(1-s) as -expm1((1-s) log q), which keeps full precision near s = 1."""
    return -math.expm1((1.0 - s) * math.log(q))


def evaluate_local_scalar(q: int, s: float) -> float:
    """Head sum plus tail/(1 - q^(1-s)) of the factor at odd q; needs s > 1 for the tail to
    converge."""
    if not s > 1:  # also rejects NaN
        raise ValueError("s must exceed 1 (the tail ratio is q^(1-s))")
    # (multiplicity, degree): 1, q, (q-3)/2 x (q+1), 2 x (q+1)/2, (q-1)/2 x (q-1), 2 x (q-1)/2
    head = [(1, 1), (1, q), ((q - 3) // 2, q + 1), (2, (q + 1) // 2), ((q - 1) // 2, q - 1),
            (2, (q - 1) // 2)]
    # 4q x (q^2-1)/2, (q^2-1)/2 x (q^2-q), (q-1)^2/2 x (q^2+q)
    tail = [(4 * q, (q * q - 1) // 2), ((q * q - 1) // 2, q * q - q),
            ((q - 1) ** 2 // 2, q * q + q)]
    head_sum = math.fsum(m * float(d) ** (-s) for m, d in head if m)
    tail_sum = math.fsum(m * float(d) ** (-s) for m, d in tail)
    return head_sum + tail_sum / one_minus_ratio(q, s)

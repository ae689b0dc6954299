"""Integer arithmetic shared by the formula side and the oracles."""

from __future__ import annotations

import math

from .errors import BudgetExceededError

TRIAL_DIVISION_BUDGET = 1_000_000  # odd trial divisors per prime_power call


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k for a prime p and k >= 1, else None.

    Trial division by 2 and the odd numbers up to sqrt(n); the least
    divisor found is the prime p.  An odd n that passes the first
    TRIAL_DIVISION_BUDGET odd divisors below its square root raises
    BudgetExceededError.
    """
    if n < 2:
        return None
    p = 2
    if n % 2:
        root = math.isqrt(n)
        stop = min(root, 2 * TRIAL_DIVISION_BUDGET + 1)
        p = 3
        while p <= stop and n % p:
            p += 2
        if p > stop:
            if stop < root:
                raise BudgetExceededError(
                    f"{n} has no divisor among the first {TRIAL_DIVISION_BUDGET} odd "
                    "trial divisors; that is the trial-division budget"
                )
            return (n, 1)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None

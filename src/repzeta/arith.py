"""Integer arithmetic shared by the formula side and the oracles."""

from __future__ import annotations


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k for a prime p and k >= 1, else None.

    Trial division by 2 and the odd numbers up to sqrt(n); the least
    divisor found is the prime p.
    """
    if n < 2:
        return None
    p = 2
    if n % 2:
        p = 3
        while p * p <= n and n % p:
            p += 2
        if p * p > n:
            return (n, 1)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None

"""Degree censuses of the symmetric and alternating groups.

Symmetric-group degrees come from one sweep of Young's branching rule:
the degree of a partition of k is the sum of the degrees of the
partitions of k - 1 it covers, so each level is built from the last with
big-int additions only.  Alternating degrees follow the restriction
rules: a conjugate pair of partitions contributes one irreducible of the
shared degree, a self-conjugate partition splits into two of half the
degree.  An A_k census is read from level k of one sweep (`an_census`),
and its zeta value is the census's own `DegreeCensus.zeta`.
"""

from __future__ import annotations

import math
from typing import Iterator

from .census import DegreeCensus

MAX_K = 36

Partition = tuple[int, ...]


def young_levels(kmax: int) -> Iterator[tuple[int, dict[Partition, int]]]:
    """(k, degrees) for k = 1..kmax: every partition of k with its S_k degree.

    Level k + 1 adds a box to each addable row of each partition of k,
    so d_lam is the sum of d_mu over the mu = lam - box.  Each level is
    checked against the mass identity sum(deg^2) = k!.  A kmax outside
    1..MAX_K raises ValueError at the first `next`, before any level is
    built.
    """
    if not 1 <= kmax <= MAX_K:
        raise ValueError(f"k must be in 1..{MAX_K}")
    level: dict[Partition, int] = {(1,): 1}
    for k in range(1, kmax + 1):
        if k > 1:
            below, level = level, {}
            get = level.get
            for mu, deg in below.items():
                above = k  # longer than any row of mu, so row 0 is addable
                for i, row in enumerate(mu):
                    if row < above:
                        lam = mu[:i] + (row + 1,) + mu[i + 1 :]
                        level[lam] = get(lam, 0) + deg
                    above = row
                lam = mu + (1,)
                level[lam] = get(lam, 0) + deg
        if sum(deg * deg for deg in level.values()) != math.factorial(k):
            raise AssertionError("S_k mass identity failed")
        yield k, level


def _self_conjugate(lam: Partition) -> bool:
    """Each row of lam is as long as the column of the same index."""
    return all(row == sum(part > i for part in lam) for i, row in enumerate(lam))


def an_census(k: int, degrees: dict[Partition, int]) -> DegreeCensus:
    """The A_k census from level k of `young_levels`; mass sum(deg^2) = k!/2.

    A self-conjugate partition splits into two halves of equal degree
    (that degree is always even for k >= 2).  The other partitions come
    in conjugate pairs of equal degree, one irreducible per pair.  Only a
    partition with as many rows as columns can be self-conjugate, so
    only those are conjugated.
    """
    pairs: list[tuple[int, int]] = []
    paired: dict[int, int] = {}  # degree -> partitions in conjugate pairs
    for lam, deg in degrees.items():
        if lam[0] == len(lam) and _self_conjugate(lam):
            if deg % 2:
                raise AssertionError(f"self-conjugate partition {lam} has odd degree {deg}")
            pairs.append((deg // 2, 2))
        else:
            paired[deg] = paired.get(deg, 0) + 1
    pairs.extend((deg, count // 2) for deg, count in paired.items())
    census = DegreeCensus.from_pairs(pairs, max(d for d, _ in pairs))
    if 2 * census.mass != math.factorial(k):
        raise AssertionError("A_k mass identity failed")
    return census


def rbound_check(census: DegreeCensus, s: float) -> bool:
    """Verify R_n <= c*n^s + 1 with c = Z(s) - 1 at every census degree.

    R_n is the census's `running_count`.  The census must come from a
    perfect group (the caller asserts it); the right-hand side gets a
    hair of upward slack so float rounding can never produce a spurious
    failure.
    """
    if not 0 < s < 1:
        raise ValueError("the bound is stated for 0 < s < 1")
    c = census.zeta(s) - 1.0
    return all(
        running <= c * float(deg) ** s * (1.0 + 1e-12) + 1.0 + 1e-9
        for deg, running in zip(census.degrees, census.running_count)
    )

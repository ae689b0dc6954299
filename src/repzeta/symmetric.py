"""Degree censuses of the symmetric and alternating groups.

Symmetric-group degrees come from the hook length formula.  Alternating
degrees follow the restriction rules: a conjugate pair of partitions
contributes one irreducible of the shared degree, a self-conjugate
partition splits into two of half the degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .census import DegreeCensus

MAX_K = 36

Partition = tuple[int, ...]


def partitions(k: int) -> Iterator[Partition]:
    """All partitions of k, descending parts, lexicographically decreasing."""

    def rec(n: int, maxpart: int) -> Iterator[Partition]:
        if n == 0:
            yield ()
            return
        for first in range(min(n, maxpart), 0, -1):
            for rest in rec(n - first, first):
                yield (first,) + rest

    return rec(k, k)


def conjugate_partition(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def hook_degree(lam: Partition, conj: Partition | None = None) -> int:
    """Hook length formula: k! / product of hook lengths.

    `conj` is the conjugate partition of `lam`, for a caller that has it.
    """
    k = sum(lam)
    t = conjugate_partition(lam) if conj is None else conj
    r = math.factorial(k)
    for i, row in enumerate(lam):
        for j in range(row):
            r //= (row - j) + (t[j] - i) - 1
    return r


@dataclass(frozen=True)
class PartitionTable:
    """Partitions of k with hook degrees and the conjugation pairing."""

    k: int
    items: tuple[tuple[Partition, int, Partition], ...]  # (partition, degree, conjugate)
    self_conjugate: tuple[Partition, ...]

    @property
    def partition_count(self) -> int:
        return len(self.items)


def build_partition_table(k: int) -> PartitionTable:
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in 1..{MAX_K}")
    items = []
    selfconj = []
    for lam in partitions(k):
        conj = conjugate_partition(lam)
        items.append((lam, hook_degree(lam, conj), conj))
        if conj == lam:
            selfconj.append(lam)
    return PartitionTable(k=k, items=tuple(items), self_conjugate=tuple(selfconj))


def sn_degrees(k: int) -> DegreeCensus:
    """Exact degree census of S_k; mass identity sum(deg^2) = k!."""
    table = build_partition_table(k)
    census = DegreeCensus.from_pairs(
        ((deg, 1) for _, deg, _ in table.items), max(deg for _, deg, _ in table.items)
    )
    if census.mass != math.factorial(k):
        raise AssertionError("S_k mass identity failed")
    return census


def an_degrees(k: int) -> DegreeCensus:
    """Exact degree census of A_k; mass identity sum(deg^2) = k!/2.

    Non-self-conjugate partitions contribute once per conjugate pair;
    each self-conjugate partition splits into two halves of equal degree
    (that degree is always even for k >= 2).
    """
    if k < 2:
        raise ValueError("alternating census needs k >= 2")
    table = build_partition_table(k)
    pairs: list[tuple[int, int]] = []
    seen: set[Partition] = set()
    for lam, deg, conj in table.items:
        if lam in seen:
            continue
        if conj == lam:
            if deg % 2:
                raise AssertionError(f"self-conjugate partition {lam} has odd degree {deg}")
            pairs.append((deg // 2, 2))
        else:
            seen.add(conj)
            pairs.append((deg, 1))
        seen.add(lam)
    census = DegreeCensus.from_pairs(pairs, max(d for d, _ in pairs))
    if 2 * census.mass != math.factorial(k):
        raise AssertionError("A_k mass identity failed")
    return census


def ak_zeta(k: int, s: float, census: DegreeCensus | None = None) -> float:
    """Finite zeta value of A_k at s; only simple k >= 5 on the trend API.

    `census` is `an_degrees(k)`, for a caller that has computed it already.
    """
    if k < 5:
        raise ValueError("the trend API needs k >= 5 (simple alternating groups)")
    if s <= 0:
        raise ValueError("s must be positive")
    if census is None:
        census = an_degrees(k)
    return census.zeta(s)


def rbound_check(census: DegreeCensus, s: float) -> bool:
    """Verify R_n <= c*n^s + 1 with c = Z(s) - 1 at every census degree.

    The census must come from a perfect group (the caller asserts it);
    the right-hand side gets a hair of upward slack so float rounding can
    never produce a spurious failure.
    """
    if not 0 < s < 1:
        raise ValueError("the bound is stated for 0 < s < 1")
    c = census.zeta(s) - 1.0
    running = 0
    for deg, mult in census.entries:
        running += mult
        rhs = c * float(deg) ** s * (1.0 + 1e-12) + 1.0 + 1e-9
        if running > rhs:
            return False
    return True

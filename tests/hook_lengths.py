"""The hook-length oracle for the S_k / A_k censuses.

Independent of `repzeta.symmetric`'s branching sweep: every partition of
k is enumerated directly, its degree is k! over the product of its hook
lengths, and the A_k census pairs each partition with its full conjugate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from repzeta.census import DegreeCensus
from repzeta.symmetric import MAX_K

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


@lru_cache(maxsize=None)
def build_partition_table(k: int) -> PartitionTable:
    """The hook table of k, built once per test session (the tables are immutable)."""
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


def an_degrees_by_pairing(k: int) -> DegreeCensus:
    """The A_k census from the hook table: one irreducible per conjugate pair,
    two of half the degree per self-conjugate partition."""
    table = build_partition_table(k)
    pairs: list[tuple[int, int]] = []
    seen: set[Partition] = set()
    for lam, deg, conj in table.items:
        if lam in seen:
            continue
        if conj == lam:
            assert deg % 2 == 0, (lam, deg)
            pairs.append((deg // 2, 2))
        else:
            seen.add(conj)
            pairs.append((deg, 1))
        seen.add(lam)
    return DegreeCensus.from_pairs(pairs, max(d for d, _ in pairs))

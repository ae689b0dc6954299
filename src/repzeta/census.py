"""Degree censuses: exact multisets of irreducible degrees.

A DegreeCensus is the common currency between closed formulas and the
brute-force side: both produce one, and tests compare them column by
column.  It is two int columns, the sorted degrees and their
multiplicities, built from a dict of degree -> multiplicity by sorting
its int keys; it never holds (degree, multiplicity) pair tuples.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice, repeat
from operator import lt, mul
from typing import Iterable


@dataclass(frozen=True)
class DegreeCensus:
    """Strictly increasing degrees and their multiplicities, complete up to `bound`.

    `degrees[i]` occurs `multiplicities[i]` times.  `bound` is the
    guarantee: every irreducible of degree <= bound is counted.  For a
    full census of a finite group, bound is the largest degree.
    """

    degrees: tuple[int, ...]
    multiplicities: tuple[int, ...]
    bound: int

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ValueError("census bound must be >= 1")
        if len(self.degrees) != len(self.multiplicities):
            raise ValueError("census degrees and multiplicities must have equal length")
        degrees = self.degrees
        if degrees and (degrees[0] < 1 or not all(map(lt, degrees, islice(degrees, 1, None)))):
            raise ValueError("census degrees must be strictly increasing")
        if min(self.multiplicities, default=1) < 1:
            raise ValueError("census multiplicities must be >= 1")

    @classmethod
    def from_counts(cls, counts: dict[int, int], bound: int) -> "DegreeCensus":
        """The census of a dict degree -> multiplicity: its int keys sorted, their values read off."""
        degrees = tuple(sorted(counts))
        return cls(degrees, tuple(map(counts.__getitem__, degrees)), bound)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], bound: int) -> "DegreeCensus":
        """Merge (degree, multiplicity) pairs, dropping zero multiplicities, then `from_counts`."""
        merged: dict[int, int] = {}
        for deg, mult in pairs:
            if mult == 0:
                continue
            merged[deg] = merged.get(deg, 0) + mult
        return cls.from_counts(merged, bound)

    @property
    def total_count(self) -> int:
        return self.running_count[-1] if self.degrees else 0

    @property
    def mass(self) -> int:
        """Sum of multiplicity * degree^2 (the |G| mass for a full census)."""
        return sum(map(mul, self.multiplicities, map(mul, self.degrees, self.degrees)))

    def zeta(self, s: float) -> float:
        """Truncated zeta value: sum of multiplicity * degree^(-s).

        `math.fsum` rounds the sum of the float terms correctly, so the
        result does not depend on the order of the terms.  A term
        m * float(d) ** (-s) is rounded before the sum, with u = 2^-53:
        float(d) once d > 2^53 (relative error u, which the power turns
        into |s| u), libm `pow` (at most one ulp, so 2u), and the product
        with m (u, and u more for float(m) once m > 2^53).  So a term that
        is a normal float is within (|s| + 4) u of its exact value, and as
        every term is positive the result is within (|s| + 5) u of the
        exact sum, relatively, to first order in u.
        """
        powers = map(pow, map(float, self.degrees), repeat(-s))
        return math.fsum(map(mul, self.multiplicities, powers))

    @cached_property
    def running_count(self) -> tuple[int, ...]:
        """R_n at each census degree, in column order: the running sum of the multiplicities."""
        return tuple(accumulate(self.multiplicities))

    def count_upto(self, n: int) -> int:
        """R_n: number of irreducibles of degree <= n, by bisection of the census degrees."""
        i = bisect_right(self.degrees, n)
        return self.running_count[i - 1] if i else 0

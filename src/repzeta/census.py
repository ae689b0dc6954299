"""Degree censuses: exact multisets of irreducible degrees.

A DegreeCensus is the common currency between closed formulas and the
brute-force side: both produce one, and tests compare them entry by
entry.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import itemgetter
from typing import Iterable


@dataclass(frozen=True)
class DegreeCensus:
    """Sorted (degree, multiplicity) pairs, complete up to `bound`.

    `bound` is the guarantee: every irreducible of degree <= bound is
    counted.  For a full census of a finite group, bound is the largest
    degree.
    """

    entries: tuple[tuple[int, int], ...]
    bound: int

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ValueError("census bound must be >= 1")
        prev = 0
        for deg, mult in self.entries:
            if deg <= prev:
                raise ValueError("census degrees must be strictly increasing")
            if mult < 1:
                raise ValueError("census multiplicities must be >= 1")
            prev = deg

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], bound: int) -> "DegreeCensus":
        merged: dict[int, int] = {}
        for deg, mult in pairs:
            if mult == 0:
                continue
            merged[deg] = merged.get(deg, 0) + mult
        return cls(entries=tuple(sorted(merged.items())), bound=bound)

    @property
    def total_count(self) -> int:
        return self.running_count[-1] if self.entries else 0

    @property
    def mass(self) -> int:
        """Sum of multiplicity * degree^2 (the |G| mass for a full census)."""
        return sum(m * d * d for d, m in self.entries)

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
        return math.fsum(m * float(d) ** (-s) for d, m in self.entries)

    @cached_property
    def running_count(self) -> tuple[int, ...]:
        """R_n at each census degree, in entry order: the running sum of the multiplicities."""
        return tuple(accumulate(map(itemgetter(1), self.entries)))

    def count_upto(self, n: int) -> int:
        """R_n: number of irreducibles of degree <= n, by bisection of the census degrees."""
        i = bisect_right(self.entries, n, key=itemgetter(0))
        return self.running_count[i - 1] if i else 0

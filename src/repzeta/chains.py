"""Chains of root subsystems and the elementary convergence lemma.

A chain is modeled by its (rank, positive-root-count) stage summaries;
every counting bound downstream depends only on those.  The nested
geometric series

    sum over 1 <= b_1 < ... < b_k of exp(a_1 b_1 + ... + a_k b_k)

converges iff every suffix sum of the exponent vector is negative, in
which case it equals the product of t/(1-t) over t = exp(suffix sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Rational
from typing import Union

Number = Union[int, float, Rational]


@dataclass(frozen=True)
class ChainSpec:
    """Strictly increasing stages (rank, kappa), last stage = ambient system."""

    stages: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("chain needs at least one stage")
        prev_rank, prev_kappa = 0, 0
        for rank, kappa in self.stages:
            if rank < 1 or kappa < 1:
                raise ValueError("stages are nonempty subsystems: rank and kappa >= 1")
            if kappa <= prev_kappa:
                raise ValueError("stage kappa must strictly increase (proper inclusions)")
            if rank < prev_rank:
                raise ValueError("stage ranks cannot decrease")
            prev_rank, prev_kappa = rank, kappa
        if len(self.stages) > self.stages[-1][0]:
            raise ValueError("chain length exceeds ambient rank")


@dataclass(frozen=True)
class ExponentVector:
    values: tuple[Number, ...]

    def __post_init__(self) -> None:
        for v in self.values:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError("exponents must be finite")

    def suffix_sums(self) -> list[Number]:
        out: list[Number] = []
        acc: Number = 0
        for v in reversed(self.values):
            acc = acc + v
            out.append(acc)
        out.reverse()
        return out


def chain_exponents(chain: ChainSpec, s: Number) -> ExponentVector:
    """Per-stage exponents a_i = (rank_i - rank_{i-1}) - s*(kappa_i - kappa_{i-1}).

    Exact when s is a Fraction or int; stage 0 is the empty system.
    """
    prev_rank, prev_kappa = 0, 0
    values = []
    for rank, kappa in chain.stages:
        values.append((rank - prev_rank) - s * (kappa - prev_kappa))
        prev_rank, prev_kappa = rank, kappa
    return ExponentVector(tuple(values))


def suffix_converges(a: ExponentVector) -> bool:
    """True iff every suffix sum a_i + ... + a_k is strictly negative."""
    return all(t < 0 for t in a.suffix_sums())


def chain_product_value(a: ExponentVector) -> float:
    """Closed form of the nested sum; requires convergence."""
    if not suffix_converges(a):
        raise ValueError("exponent vector has a nonnegative suffix sum; series diverges")
    value = 1.0
    for t in a.suffix_sums():
        e = math.exp(float(t))
        value *= e / (1.0 - e)
    return value


def chain_truncated_sum(a: ExponentVector, B: int) -> float:
    """Direct nested summation over 1 <= b_1 < ... < b_k <= B.

    This is the brute-force oracle for chain_product_value.  The nesting is
    evaluated level by level with suffix accumulators (an exact
    reorganization of the same finite sum), never via the geometric-series
    closed form.
    """
    k = len(a.values)
    if B < k:
        raise ValueError(f"need B >= k = {k}")
    # tail[c] = sum over c <= b_i < ... < b_k <= B of exp(sum a_j b_j), levels i..k
    tail = [1.0] * (B + 2)
    for i in range(k - 1, -1, -1):
        coef = float(a.values[i])
        new = [0.0] * (B + 2)
        for c in range(B, 0, -1):
            new[c] = new[c + 1] + math.exp(coef * c) * tail[c + 1]
        tail = new
    return tail[1]

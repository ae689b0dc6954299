"""Desk-scale orbit-method machinery for split eigenvalue data.

The model: degree-d data over Z_p (unramified, so the uniformizer is p
and q = p), an eigenvalue vector of trace zero, and the increasing chain
of root subsystems of A_{d-1}

    stage i (1 <= i <= k):  e_s - e_t present  iff  val_p(iota_s - iota_t) >= k - i.

The representation dimension attached to the pair (x, k) is
q^(sum_i |Phi+ \\ Psi_i|); the independent check computes the index of the
centralizer of exp(p x) on L/p^k L through a Smith normal form of
p*ad(x), and the two must agree as dimension^2 * |kernel| = p^((d^2-1)k).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetExceededError
from .linalg import smith_exponents

Stage = tuple[int, int]  # (rank, positive-root count)

ORACLE_DEGREE_BUDGET = 4  # largest matrix size d for centralizer_index_oracle


def _partition_by_valuation(
    eigenvalues: Sequence[int], p: int, threshold: int
) -> tuple[tuple[int, ...], ...]:
    """Blocks of indices whose pairwise differences have valuation >= threshold.

    Congruence mod p^threshold is an equivalence, so this is a set
    partition of {0..d-1}.
    """
    mod = p ** threshold
    blocks: dict[int, list[int]] = {}
    for idx, value in enumerate(eigenvalues):
        blocks.setdefault(value % mod, []).append(idx)
    return tuple(tuple(b) for b in sorted(blocks.values()))


def _stage_summary(blocks: tuple[tuple[int, ...], ...], d: int) -> Stage:
    rank = d - len(blocks)
    kappa = sum(len(b) * (len(b) - 1) // 2 for b in blocks)
    return (rank, kappa)


def psi_chain(eigenvalues: Sequence[int], d: int, p: int, k: int) -> tuple[Stage, ...]:
    """(rank, kappa) summaries of the stages i = 1..k; stage k is all of A_{d-1}."""
    if len(eigenvalues) != d:
        raise ValueError(f"expected {d} eigenvalues, got {len(eigenvalues)}")
    if k < 1:
        raise ValueError("level k must be >= 1")
    if sum(eigenvalues) % p ** k:
        raise ValueError("eigenvalues must sum to zero (mod p^k): trace-zero data")
    stages = []
    for i in range(1, k + 1):
        blocks = _partition_by_valuation(eigenvalues, p, k - i)
        stages.append(_stage_summary(blocks, d))
    full = (d - 1, d * (d - 1) // 2)
    if stages[-1] != full:
        raise AssertionError("stage k must be the full system")
    return tuple(stages)


@dataclass(frozen=True)
class OrbitDatum:
    """Split eigenvalue data (integers mod p^(k+2), zero trace) plus its chain."""

    d: int
    p: int
    k: int
    eigenvalues: tuple[int, ...]
    chain: tuple[Stage, ...]


def make_orbit_datum(d: int, p: int, k: int, eigenvalues: Sequence[int]) -> OrbitDatum:
    if d < 2:
        raise ValueError("degree d must be >= 2")
    mod = p ** (k + 2)
    eigs = tuple(x % mod for x in eigenvalues)
    if sum(eigs) % mod:
        raise ValueError("eigenvalues must sum to zero mod p^(k+2)")
    chain = psi_chain(eigs, d, p, k)
    return OrbitDatum(d=d, p=p, k=k, eigenvalues=eigs, chain=chain)


def orbit_dimension(datum: OrbitDatum) -> int:
    """q^(sum over stages of |Phi+ \\ Psi_i|), q = p in the unramified model."""
    kappa_full = datum.d * (datum.d - 1) // 2
    deficiency = sum(kappa_full - kappa for _, kappa in datum.chain)
    return datum.p ** deficiency


def _ad_matrix(eigenvalues: Sequence[int], p: int) -> list[list[int]]:
    """The matrix of p*ad(x), x = diag(eigenvalues), on the trace-zero lattice.

    Basis: E_st (s != t) in row-major order, then H_i = E_ii - E_{i+1,i+1}.
    Each column is read off the nonzero entries e at (a, b) of its basis
    element, as [x, E] = sum (x_a - x_b) e E_ab.  A diagonal entry of the
    bracket at (a, a) counts towards H_a, ..., H_{d-2}, since the H
    coordinates of a trace-zero diagonal are its partial sums.
    """
    x = eigenvalues
    d = len(x)
    offdiag = [(s, t) for s in range(d) for t in range(d) if s != t]
    position = {st: idx for idx, st in enumerate(offdiag)}
    basis = [((s, t, 1),) for s, t in offdiag]
    basis += [((i, i, 1), (i + 1, i + 1, -1)) for i in range(d - 1)]
    matrix = [[0] * len(basis) for _ in basis]
    for col, entries in enumerate(basis):
        trace = 0
        for a, b, e in entries:
            value = p * (x[a] - x[b]) * e
            if a != b:
                matrix[position[a, b]][col] += value
            elif value:
                trace += value
                for i in range(a, d - 1):
                    matrix[len(offdiag) + i][col] += value
        if trace:
            raise AssertionError("ad(x) left the trace-zero lattice")
    return matrix


def centralizer_index_oracle(datum: OrbitDatum) -> int:
    """Index of the centralizer of exp(p x) on L/p^k L, by Smith normal form.

    Builds the matrix of p*ad(x) on the trace-zero lattice (`_ad_matrix`)
    and counts its kernel mod p^k from the elementary divisors.  The p*ad
    normalization reflects that the group is exp(p L).  The result is
    asserted to be a perfect square (its square root is the orbit
    dimension).
    """
    d, p, k = datum.d, datum.p, datum.k
    if d > ORACLE_DEGREE_BUDGET:  # the ad matrix has (d^2 - 1)^2 entries
        raise BudgetExceededError(f"centralizer oracle supports d <= {ORACLE_DEGREE_BUDGET}")
    kernel_exp = sum(smith_exponents(_ad_matrix(datum.eigenvalues, p), p, k))
    index_exp = (d * d - 1) * k - kernel_exp
    if index_exp % 2:
        raise AssertionError("centralizer index is not a perfect square")
    return p ** index_exp

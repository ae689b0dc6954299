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
from itertools import product
from typing import Sequence

from .errors import BudgetExceededError
from .linalg import det_int, smith_exponents

Stage = tuple[int, int]  # (rank, positive-root count)

ORACLE_DEGREE_BUDGET = 4  # largest matrix size d for centralizer_index_oracle
CENSUS_BUDGET = 20_000  # trace-zero vectors per census_vs_bound


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


def chain_count_bound(chain: Sequence[Stage], d: int, q: int) -> int:
    """q^(sum over the given stages of ((d-1) - rank))."""
    exponent = 0
    for rank, _ in chain:
        if rank > d - 1:
            raise ValueError("stage rank exceeds d - 1")
        exponent += (d - 1) - rank
    return q ** exponent


def kernel_cokernel_size(T: Sequence[Sequence[int]], p: int, r: int) -> tuple[int, int]:
    """(|ker|, |cok|) of an injective integer map tensored with Z/p^r.

    Kernel from the elementary divisors directly; cokernel through the
    image index.  The two must be equal (the exact-sequence count).
    """
    if det_int(T) == 0:
        raise ValueError("matrix must be injective (nonzero determinant)")
    n = len(T)
    exponents = smith_exponents(T, p, r)
    ker = p ** sum(exponents)
    image_size = p ** sum(r - e for e in exponents)
    cok = p ** (n * r) // image_size
    if ker != cok:
        raise AssertionError("kernel/cokernel sizes differ")
    return (ker, cok)


@dataclass(frozen=True)
class ChainGroup:
    """One fiber of the census: every vector sharing the full stage chain."""

    stages: tuple[Stage, ...]  # summaries for i = 0..k (stage 0 included)
    size: int
    bound: int  # exact per-step lifting bound
    bound_rank_only: int  # q^(sum (d-1-rank)); ignores the mod-p trace degeneracy
    trace_degenerate: bool


@dataclass(frozen=True)
class CensusBoundReport:
    d: int
    p: int
    k: int
    vector_count: int
    groups: tuple[ChainGroup, ...]
    all_within: bool


def census_vs_bound(d: int, p: int, k: int) -> CensusBoundReport:
    """Group all trace-zero vectors mod p^k by their full stage chain.

    Grouping uses the actual partitions at stages i = 0..k (stage 0, the
    congruence mod p^k itself, is what the lift-counting argument
    consumes).  Each group size is compared with the exact lifting bound:
    step i contributes p^(#blocks - 1), or p^(#blocks) when every block
    size is divisible by p so the trace condition degenerates.  The
    rank-only bound q^(sum((d-1) - rank)) agrees except in those
    degenerate steps.
    """
    if d > 3:
        raise ValueError("census enumeration supports d <= 3")
    total = p ** (k * (d - 1))
    if total > CENSUS_BUDGET:
        raise BudgetExceededError(f"{total} vectors exceed the census budget {CENSUS_BUDGET}")
    mod = p ** k
    sizes: dict[tuple, int] = {}
    for prefix in product(range(mod), repeat=d - 1):
        last = (-sum(prefix)) % mod
        vec = prefix + (last,)
        key = tuple(_partition_by_valuation(vec, p, k - i) for i in range(0, k + 1))
        sizes[key] = sizes.get(key, 0) + 1
    groups = []
    all_within = True
    for key, size in sorted(sizes.items()):
        partitions = key
        summaries = tuple(_stage_summary(blocks, d) for blocks in partitions)
        # lift step i = 1..k consumes the partition at stage k - i
        exponent = 0
        degenerate = False
        for i in range(1, k + 1):
            blocks = partitions[k - i]
            indep = any(len(b) % p for b in blocks)
            if not indep:
                degenerate = True
            exponent += len(blocks) - (1 if indep else 0)
        bound = p ** exponent
        rank_only = chain_count_bound(summaries, d, p)
        within = size <= bound
        all_within = all_within and within
        groups.append(
            ChainGroup(
                stages=summaries,
                size=size,
                bound=bound,
                bound_rank_only=rank_only,
                trace_degenerate=degenerate,
            )
        )
    return CensusBoundReport(
        d=d, p=p, k=k, vector_count=total, groups=tuple(groups), all_within=all_within
    )

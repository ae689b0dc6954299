"""Desk-scale orbit-method formula for split eigenvalue data.

The model: degree-d data over Z_p (unramified, so the uniformizer is p
and q = p), an eigenvalue vector of trace zero, and the increasing chain
of root subsystems of A_{d-1}

    stage i (1 <= i <= k):  e_s - e_t present  iff  val_p(iota_s - iota_t) >= k - i.

The representation dimension attached to the pair (x, k) is
q^(sum_i |Phi+ \\ Psi_i|).  Its independent check, the centralizer index
from a Smith form of p*ad(x), is oracle-side code in `finite_oracle`; the
two must agree as dimension^2 = index.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

Stage = tuple[int, int]  # (rank, positive-root count)


def _stage(eigenvalues: Sequence[int], d: int, mod: int) -> Stage:
    """(rank, kappa) of the root subsystem joining indices congruent mod `mod`.

    Congruence is an equivalence, so its blocks partition {0..d-1}: the
    rank is d - #blocks and kappa is the sum of C(size, 2).  Only the
    block sizes matter, so the blocks are counted by residue.
    """
    counts: dict[int, int] = {}
    for value in eigenvalues:
        residue = value % mod
        counts[residue] = counts.get(residue, 0) + 1
    return (d - len(counts), sum(c * (c - 1) for c in counts.values()) // 2)


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
        stages.append(_stage(eigenvalues, d, p ** (k - i)))
    if stages[-1] != (d - 1, d * (d - 1) // 2):
        raise AssertionError("stage k must be the full system")
    return tuple(stages)


class OrbitDatum(NamedTuple):
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
    return OrbitDatum(d, p, k, eigs, psi_chain(eigs, d, p, k))


def orbit_dimension(datum: OrbitDatum) -> int:
    """q^(sum over stages of |Phi+ \\ Psi_i|), q = p in the unramified model."""
    kappa_full = datum.d * (datum.d - 1) // 2
    deficiency = sum(kappa_full - kappa for _, kappa in datum.chain)
    return datum.p ** deficiency

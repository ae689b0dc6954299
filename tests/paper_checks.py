"""Checks of paper statements that no repzeta report carries.

Each function states one result of the paper in executable form, from
the library's exact data: the class-count growth bound, the orbit-method
lifting bound, the kernel = cokernel count, the divergence of the Witten
zeta function at its abscissa, and the Levi subsystems of the
convergence lemma.  The tests choose every size, so nothing here has a
budget or a range check.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from itertools import combinations, product

from repzeta.linalg import det_int, smith_exponents
from repzeta.rootsys import weyl_dimension

GammaSeries = namedtuple("GammaSeries", "q delta counts")  # counts: (k, class count of U/U_k)
GammaEstimate = namedtuple("GammaEstimate", "gamma crude_rho_bound")
ChainGroup = namedtuple("ChainGroup", "stages size bound bound_rank_only trace_degenerate")


def gamma_estimate(series):
    """Growth rate gamma = log_q(g_k / g_(k-1)) of the last two class counts.

    The increment cancels the k-offset constant of log_q(g_k) / k.  The
    crude abscissa lower bound is 2 gamma / (delta - gamma).
    """
    (k_prev, g_prev), (k_last, g_last) = series.counts[-2:]
    gamma = math.log(g_last / g_prev) / ((k_last - k_prev) * math.log(series.q))
    bound = 2 * gamma / (series.delta - gamma) if series.delta > gamma else math.inf
    return GammaEstimate(gamma, bound)


def partition_by_valuation(eigenvalues, p, threshold):
    """Blocks of indices whose pairwise differences have valuation >= threshold.

    Congruence mod p^threshold is an equivalence, so this is a set
    partition of {0..d-1}, sorted so that it can serve as a key.
    """
    mod = p ** threshold
    blocks = {}
    for idx, value in enumerate(eigenvalues):
        blocks.setdefault(value % mod, []).append(idx)
    return tuple(tuple(b) for b in sorted(blocks.values()))


def stage_summary(blocks, d):
    """(rank, kappa) of the root subsystem whose blocks are given."""
    return (d - len(blocks), sum(len(b) * (len(b) - 1) // 2 for b in blocks))


def chain_count_bound(chain, d, q):
    """q^(sum over the given (rank, kappa) stages of ((d-1) - rank))."""
    return q ** sum(d - 1 - rank for rank, _ in chain)


def census_vs_bound(d, p, k):
    """Every trace-zero vector mod p^k, grouped by its stage partitions i = 0..k.

    Each `ChainGroup` holds its (rank, kappa) stages, its size and two
    bounds.  In the exact lifting bound, step i = 1..k consumes the
    partition at stage k - i and contributes p^(#blocks - 1), or
    p^#blocks when p divides every block size, so that the trace
    condition degenerates.  The rank-only bound `chain_count_bound`
    differs only at those steps.
    """
    mod = p ** k
    sizes = Counter()
    for prefix in product(range(mod), repeat=d - 1):
        vec = prefix + (-sum(prefix) % mod,)
        sizes[tuple(partition_by_valuation(vec, p, k - i) for i in range(k + 1))] += 1
    groups = []
    for partitions, size in sorted(sizes.items()):
        stages = tuple(stage_summary(blocks, d) for blocks in partitions)
        steps = partitions[:k]
        free = [any(len(b) % p for b in blocks) for blocks in steps]
        bound = p ** sum(len(blocks) - f for blocks, f in zip(steps, free))
        rank_only = chain_count_bound(stages, d, p)
        groups.append(ChainGroup(stages, size, bound, rank_only, not all(free)))
    return groups


def kernel_cokernel_size(T, p, r):
    """(|ker|, |cok|) of an injective integer map T tensored with Z/p^r.

    The kernel comes from the local Smith exponents.  The cokernel does
    not: it is p^(nr) over the image T (Z/p^r)^n counted by brute force
    where (p^r)^n <= 700, and otherwise the index of T Z^n + p^r Z^n in
    Z^n, the gcd of the n x n minors of [T | p^r I].
    """
    if det_int(T) == 0:
        raise ValueError("matrix must be injective (nonzero determinant)")
    n, mod = len(T), p ** r
    ker = p ** sum(smith_exponents(T, p, r))
    if mod ** n <= 700:
        image = {
            tuple(sum(a * v for a, v in zip(row, vec)) % mod for row in T)
            for vec in product(range(mod), repeat=n)
        }
        return ker, mod ** n // len(image)
    columns = [list(col) for col in zip(*T)] + [
        [mod * (i == j) for i in range(n)] for j in range(n)
    ]
    return ker, math.gcd(*(det_int(pick) for pick in combinations(columns, n)))


def dyadic_block_sum(datum, s, j):
    """Sum of dim^(-s) over the highest weights with 2^j < a_i <= 2^(j+1) for all i."""
    block = range(2 ** j + 1, 2 ** (j + 1) + 1)
    return math.fsum(
        float(weyl_dimension(datum, a)) ** (-s) for a in product(block, repeat=datum.rank)
    )


def levi_subsystem(datum, simple_subset):
    """(rank, kappa) of the Levi subsystem on a set of 1-based simple roots.

    A positive root lies in the Levi iff its support lies in the set.
    """
    allowed = {i - 1 for i in simple_subset}
    kappa = sum(
        all(j in allowed for j, c in enumerate(row) if c) for row in datum.positive_roots
    )
    return (len(allowed), kappa)


def all_irreducible_types(max_rank):
    """Every simply connected simple type of rank <= max_rank, series by series.

    Stated from the classification, not from `rootsys`' own rank rules.
    """
    first = {"A": 1, "B": 2, "C": 3, "D": 4}
    types = [(series, r) for series, lo in first.items() for r in range(lo, max_rank + 1)]
    exceptional = (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))
    return types + [(series, r) for series, r in exceptional if r <= max_rank]

"""Checks of paper statements that no repzeta report carries.

Each function states one result of the paper in executable form, from
the library's exact data: the class-count growth bound, the orbit-method
lifting bound, the kernel = cokernel count, the divergence of the Witten
zeta function at its abscissa, and the convergence lemma with the Levi
chains it is applied to.  The tests choose every size, so nothing here
has a budget or a range check.

The convergence lemma: for an exponent vector a = (a_1, ..., a_k), the
nested geometric series

    sum over 1 <= b_1 < ... < b_k of exp(a_1 b_1 + ... + a_k b_k)

converges iff every suffix sum of a is negative, in which case it equals
the product of t/(1-t) over t = exp(suffix sum).  A chain of root
subsystems enters only through its (rank, kappa) stages.  No command
runs the lemma: its verdict depends only on the root datum,
`build_root_datum` asserts r/kappa = 2/h on every datum, and the
`witten` report echoes `r_over_kappa`.  Applied to every Levi chain of
every type up to rank 8, it puts the Witten abscissa at r/kappa.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from itertools import combinations, product

from dense_smith import sparse_rows
from repzeta.linalg import det_int, smith_exponents
from weyl_formula import weyl_dimension

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
    ker = p ** sum(smith_exponents(sparse_rows(T), p, r))
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


def group_dimension(series, rank):
    """dim G of the simply connected simple group, from the classification's table."""
    classical = {
        "A": rank * (rank + 2),
        "B": rank * (2 * rank + 1),
        "C": rank * (2 * rank + 1),
        "D": rank * (2 * rank - 1),
    }
    if series in classical:
        return classical[series]
    return {("E", 6): 78, ("E", 7): 133, ("E", 8): 248, ("F", 4): 52, ("G", 2): 14}[series, rank]


def check_chain(stages):
    """Raise ValueError unless the (rank, kappa) stages are a chain of root subsystems.

    The stages are nonempty and strictly increasing (proper inclusions),
    and the last one is the ambient system.
    """
    if not stages:
        raise ValueError("chain needs at least one stage")
    prev_rank, prev_kappa = 0, 0
    for rank, kappa in stages:
        if rank < 1 or kappa < 1:
            raise ValueError("stages are nonempty subsystems: rank and kappa >= 1")
        if kappa <= prev_kappa:
            raise ValueError("stage kappa must strictly increase (proper inclusions)")
        if rank < prev_rank:
            raise ValueError("stage ranks cannot decrease")
        prev_rank, prev_kappa = rank, kappa
    if len(stages) > stages[-1][0]:
        raise ValueError("chain length exceeds ambient rank")


def chain_exponents(stages, s):
    """Per-stage exponents a_i = (rank_i - rank_(i-1)) - s (kappa_i - kappa_(i-1)) of a chain.

    Exact when s is a Fraction or an int; stage 0 is the empty system.
    """
    check_chain(stages)
    prev_rank, prev_kappa = 0, 0
    values = []
    for rank, kappa in stages:
        values.append((rank - prev_rank) - s * (kappa - prev_kappa))
        prev_rank, prev_kappa = rank, kappa
    return tuple(values)


def suffix_sums(a):
    """[a_i + ... + a_k for i = 1..k]."""
    out = []
    acc = 0
    for v in reversed(a):
        acc = acc + v
        out.append(acc)
    out.reverse()
    return out


def suffix_converges(a):
    """True iff every suffix sum a_i + ... + a_k is strictly negative."""
    return all(t < 0 for t in suffix_sums(a))


def chain_product_value(a):
    """Closed form of the nested sum; requires convergence."""
    if not suffix_converges(a):
        raise ValueError("exponent vector has a nonnegative suffix sum; series diverges")
    value = 1.0
    for t in suffix_sums(a):
        e = math.exp(float(t))
        value *= e / (1.0 - e)
    return value


def chain_truncated_sum(a, B):
    """Direct nested summation over 1 <= b_1 < ... < b_k <= B.

    This is the brute-force oracle for chain_product_value.  The nesting is
    evaluated level by level with suffix accumulators (an exact
    reorganization of the same finite sum), never via the geometric-series
    closed form.
    """
    k = len(a)
    if B < k:
        raise ValueError(f"need B >= k = {k}")
    # tail[c] = sum over c <= b_i < ... < b_k <= B of exp(sum a_j b_j), levels i..k
    tail = [1.0] * (B + 2)
    for i in range(k - 1, -1, -1):
        coef = float(a[i])
        new = [0.0] * (B + 2)
        for c in range(B, 0, -1):
            new[c] = new[c + 1] + math.exp(coef * c) * tail[c + 1]
        tail = new
    return tail[1]

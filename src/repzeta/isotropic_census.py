"""Block-unipotent families in SL_m(Z/p^N) and exact conjugacy censuses.

The family: M_Y = I + p^k diag(X, Z) + upper-right block Y, reduced mod
p^N with N = 3k + 2t, where the m diagonal entries of diag(X, Z) have
pairwise difference valuation <= t and the determinant is adjusted to 1.
One representative is kept per residue of Y mod p^k.

Conjugacy between two family members is decided exactly: the intertwiner
equation W M1 = M2 W is linear in W, its solution set mod p^N is a
module presented by a local Smith form, and M1 ~ M2 in GL iff that
module contains a matrix invertible mod p.  The generators of full order
p^N are columns of the Smith form's right factor V, which is invertible,
so they are already independent mod p: the scan for an invertible
intertwiner runs on them directly, with no second elimination.
GL-conjugacy merges at least as much as SL-conjugacy, so a lower bound
certified on GL-classes is valid for the SL census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

from .arith import prime_power
from .errors import BudgetExceededError
from .linalg import det_int, kernel_generators_local, mat_mul_mod, valuation

Mat = tuple[tuple[int, ...], ...]

RANK_BUDGET = 12


@dataclass(frozen=True)
class CensusFamily:
    m: int
    q: int
    k: int
    t: int
    modulus_exp: int  # N = 3k + 2t
    x_diag: tuple[int, ...]
    z_diag: tuple[int, ...]
    y_reps: tuple[Mat, ...]

    @property
    def modulus(self) -> int:
        return self.q ** self.modulus_exp

    def class_count_floor(self) -> int:
        """The certified target: q^((m^2/4 - m + 1) k)."""
        exp = (self.m * self.m // 4 - self.m + 1) * self.k
        return self.q ** max(exp, 0)


def _choose_diagonal(m: int, p: int, k: int, t: int, N: int) -> list[int]:
    """Diagonal entries with pairwise valuation <= t and det M_Y = 1.

    The first m-1 entries run through lexicographic candidates; the last
    is forced by the determinant condition prod(1 + p^k d_i) = 1 mod p^N,
    then the valuation constraint is re-checked on the full tuple.
    """
    pN = p ** N
    pk = p ** k
    for candidate in combinations(range(p ** (t + 1)), m - 1):
        prod_rest = 1
        for d in candidate:
            prod_rest = prod_rest * (1 + pk * d) % pN
        inv = pow(prod_rest, -1, pN)
        # 1 + p^k d_last = inv  (inv = 1 mod p^k, so d_last is well defined mod p^(N-k))
        if (inv - 1) % pk:
            raise AssertionError("determinant correction not divisible by p^k")
        d_last = (inv - 1) // pk % p ** (N - k)
        entries = list(candidate) + [d_last]
        ok = True
        for a, b in combinations(entries, 2):
            if a == b or valuation(a - b, p, t + 1) > t:
                ok = False
                break
        if ok:
            return entries
    raise ValueError("no admissible diagonal found (exhausted candidates)")


def build_census_family(
    m: int, q: int, k: int, t: int, rep_budget: int = 500_000
) -> CensusFamily:
    """Deterministic family at (m, q, k, t); modulus exponent N = 3k + 2t.

    Requires m even >= 2, q an odd prime, k >= t >= 1, and q^(t+1) > m so
    that the m diagonal entries can have pairwise difference valuation
    <= t (which is what the block deductions consume).
    """
    if m < 2 or m % 2:
        raise ValueError("m must be even and >= 2")
    if q == 2 or prime_power(q) != (q, 1):
        raise ValueError("q must be an odd prime")
    if t < 1:
        raise ValueError("t must be >= 1")
    if k < t:
        raise ValueError(f"need k >= t (got k={k} < t={t})")
    if q ** (t + 1) <= m:
        raise ValueError(
            f"cannot place {m} diagonal entries with pairwise valuation <= {t} "
            f"over residue characteristic {q} (need q^(t+1) > m)"
        )
    rep_count = q ** (m * m // 4 * k)
    if rep_count > rep_budget:
        raise BudgetExceededError(
            f"family would hold {rep_count} representatives; budget is {rep_budget}"
        )
    N = 3 * k + 2 * t
    entries = _choose_diagonal(m, q, k, t, N)
    half = m // 2
    x_diag = tuple(entries[:half])
    z_diag = tuple(entries[half:])
    pN = q ** N
    pk = q ** k

    base = [[0] * m for _ in range(m)]
    for i in range(half):
        base[i][i] = (1 + pk * x_diag[i]) % pN
        base[half + i][half + i] = (1 + pk * z_diag[i]) % pN

    reps = []
    for y_flat in product(range(pk), repeat=half * half):
        mat = [row[:] for row in base]
        for idx, val in enumerate(y_flat):
            mat[idx // half][half + idx % half] = val
        reps.append(tuple(tuple(r) for r in mat))
    family = CensusFamily(
        m=m, q=q, k=k, t=t, modulus_exp=N, x_diag=x_diag, z_diag=z_diag, y_reps=tuple(reps)
    )
    for mat in (reps[0], reps[-1]):
        if det_int(mat) % pN != 1:
            raise AssertionError("family member with determinant != 1")
    return family


@dataclass(frozen=True)
class IntertwinerModule:
    """Solution module of W M1 = M2 W over Z/p^N, in diagonalized form.

    Each generator has additive order p^exponent; generators of full
    order p^N are exactly the ones visible mod p.
    """

    modulus_exp: int
    generators: tuple[Mat, ...]
    exponents: tuple[int, ...]

    def full_order_generators(self) -> list[Mat]:
        return [g for g, e in zip(self.generators, self.exponents) if e == self.modulus_exp]


def conjugacy_module(
    M1: Sequence[Sequence[int]], M2: Sequence[Sequence[int]], p: int, N: int
) -> IntertwinerModule:
    """Solve the linear system W M1 - M2 W = 0 over Z/p^N."""
    m = len(M1)
    dim = m * m
    coeff = [[0] * dim for _ in range(dim)]
    for i in range(m):
        for j in range(m):
            row = i * m + j
            for a in range(m):
                coeff[row][i * m + a] = (coeff[row][i * m + a] + M1[a][j]) % (p ** N)
            for b in range(m):
                coeff[row][b * m + j] = (coeff[row][b * m + j] - M2[i][b]) % (p ** N)
    gens = kernel_generators_local(coeff, p, N)
    mats = []
    exps = []
    for e, vec in gens:
        mats.append(tuple(tuple(vec[r * m + c] for c in range(m)) for r in range(m)))
        exps.append(e)
    return IntertwinerModule(modulus_exp=N, generators=tuple(mats), exponents=tuple(exps))


@dataclass(frozen=True)
class ConjugacyResult:
    status: str  # "conjugate" | "not_conjugate" | "unknown"
    witness: Mat | None = None


def are_conjugate(
    M1: Sequence[Sequence[int]],
    M2: Sequence[Sequence[int]],
    p: int,
    N: int,
    rank_budget: int = RANK_BUDGET,
) -> ConjugacyResult:
    """Decide GL(Z/p^N)-conjugacy of M1 and M2 by exact linear algebra.

    The intertwiner module contains a matrix invertible mod p iff some
    F_p-combination of its full-order generators is invertible mod p; the
    generators of lower order vanish mod p.  That span is scanned
    projectively (first nonzero coefficient = 1) over the generators as
    the Smith form gives them.  Each is a column of the invertible right
    factor V, so they are independent mod p and their count is the span's
    dimension, which the budget bounds.  Independence is not needed for
    the decision itself: a projective scan over any spanning set meets
    every nonzero element of the span up to a unit, and a unit does not
    change invertibility, so no rank check runs here.  A witness is the
    same combination of the generators mod p^N; it is verified against
    both the intertwining identity and unit determinant before being
    returned.  If the span dimension exceeds the budget the outcome is an
    explicit "unknown", never a guess.
    """
    m = len(M1)
    pN = p ** N
    M1t = tuple(tuple(x % pN for x in row) for row in M1)
    M2t = tuple(tuple(x % pN for x in row) for row in M2)
    if M1t == M2t:
        ident = tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))
        return ConjugacyResult(status="conjugate", witness=ident)
    full = conjugacy_module(M1t, M2t, p, N).full_order_generators()
    if not full:
        return ConjugacyResult(status="not_conjugate")
    rho = len(full)
    if rho > rank_budget:
        return ConjugacyResult(status="unknown")
    reduced = [[[x % p for x in row] for row in g] for g in full]

    # projective scan: first nonzero coefficient normalized to 1
    for lead in range(rho):
        for rest in product(range(p), repeat=rho - lead - 1):
            cand = [list(row) for row in reduced[lead]]
            for coef, gen in zip(rest, reduced[lead + 1:]):
                if coef:
                    for crow, grow in zip(cand, gen):
                        for c in range(m):
                            crow[c] += coef * grow[c]
            if det_int(cand) % p:  # invertible mod p
                coeffs = (1,) + rest
                w = tuple(
                    tuple(
                        sum(a * g[r][c] for a, g in zip(coeffs, full[lead:])) % pN
                        for c in range(m)
                    )
                    for r in range(m)
                )
                _verify_witness(w, M1t, M2t, p, pN)
                return ConjugacyResult(status="conjugate", witness=w)
    return ConjugacyResult(status="not_conjugate")


def _verify_witness(w: Mat, M1: Mat, M2: Mat, p: int, pN: int) -> None:
    if mat_mul_mod(w, M1, pN) != mat_mul_mod(M2, w, pN):
        raise AssertionError("witness does not intertwine")
    if det_int(w) % p == 0:
        raise AssertionError("witness is not invertible mod p")


@dataclass(frozen=True)
class ClassCountReport:
    classes_found: int
    bound: int
    certified: bool  # full sample, no unknown outcomes, count >= bound
    exhaustive: bool
    unknown_pairs: int
    assignments: tuple[int, ...]  # class id per sampled representative
    witnesses: tuple[tuple[int, int, Mat], ...]  # (member index, rep index, conjugator)


def distinct_class_count(
    family: CensusFamily,
    sample: Sequence[int] | None = None,
    rank_budget: int = RANK_BUDGET,
) -> ClassCountReport:
    """Greedy partition of family representatives by pairwise conjugacy.

    Processes members in index order and joins the first existing class
    whose representative is decided conjugate; any "unknown" outcome
    poisons the certificate (the count is then only a lower bound).
    """
    indices = list(range(len(family.y_reps))) if sample is None else list(sample)
    exhaustive = sample is None
    p = family.q
    N = family.modulus_exp
    reps: list[int] = []
    assignment: list[int] = []
    unknown = 0
    witnesses: list[tuple[int, int, Mat]] = []
    for idx in indices:
        mat = family.y_reps[idx]
        placed = False
        for cid, rep_idx in enumerate(reps):
            result = are_conjugate(family.y_reps[rep_idx], mat, p, N, rank_budget=rank_budget)
            if result.status == "conjugate":
                assignment.append(cid)
                witnesses.append((idx, rep_idx, result.witness))
                placed = True
                break
            if result.status == "unknown":
                unknown += 1
        if not placed:
            assignment.append(len(reps))
            reps.append(idx)
    bound = family.class_count_floor()
    certified = exhaustive and unknown == 0 and len(reps) >= bound
    return ClassCountReport(
        classes_found=len(reps),
        bound=bound,
        certified=certified,
        exhaustive=exhaustive,
        unknown_pairs=unknown,
        assignments=tuple(assignment),
        witnesses=tuple(witnesses),
    )


@dataclass(frozen=True)
class GammaSeries:
    """Class counts gamma_bar(U/U_k) for consecutive levels of one family."""

    q: int
    delta: int  # dim of the ambient group
    counts: tuple[tuple[int, int], ...]  # (k, gamma_bar_k)

    def __post_init__(self) -> None:
        values = [g for _, g in self.counts]
        if any(g < 1 for g in values):
            raise ValueError("class counts must be positive")
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValueError("class counts must be nondecreasing in the level")


@dataclass(frozen=True)
class GammaEstimate:
    gamma: float  # last-increment slope log_q(g_k / g_{k-1})
    gamma_cumulative: float  # log_q(g_k) / k
    crude_rho_bound: float  # 2 gamma / (delta - gamma)


def gamma_estimate(series: GammaSeries) -> GammaEstimate:
    """Growth-rate estimate and the crude abscissa lower bound 2g/(d-g).

    The increment form cancels the k-offset constant hidden in the
    cumulative ratio; both are reported.
    """
    if len(series.counts) < 2:
        raise ValueError("need at least two (k, count) points")
    (k_prev, g_prev), (k_last, g_last) = series.counts[-2], series.counts[-1]
    if k_last <= k_prev:
        raise ValueError("levels must increase")
    lq = math.log(series.q)
    gamma = math.log(g_last / g_prev) / ((k_last - k_prev) * lq)
    cumulative = math.log(g_last) / (k_last * lq)
    bound = 2 * gamma / (series.delta - gamma) if series.delta > gamma else math.inf
    return GammaEstimate(gamma=gamma, gamma_cumulative=cumulative, crude_rho_bound=bound)


def block_structure_ok(
    witness: Mat, family: CensusFamily
) -> bool:
    """Check the forced conjugator shape: C = 0 mod p^(2k+t), A and D diagonal mod p^k."""
    m, p, k, t = family.m, family.q, family.k, family.t
    half = m // 2
    pc = p ** (2 * k + t)
    pk = p ** k
    for i in range(half, m):
        for j in range(half):
            if witness[i][j] % pc:
                return False
    for block_row in (0, half):
        for i in range(block_row, block_row + half):
            for j in range(block_row, block_row + half):
                if i != j and witness[i][j] % pk:
                    return False
    return True

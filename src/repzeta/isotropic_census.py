"""Block-unipotent families in SL_m(Z/p^N) and exact conjugacy censuses.

The family: M_Y = I + p^k diag(X, Z) + upper-right block Y, reduced mod
p^N with N = 3k + 2t, where the m diagonal entries of diag(X, Z) have
pairwise difference valuation <= t and the determinant is adjusted to 1.
One representative is kept per residue of Y mod p^k.  The family does not
store its q^(m^2 k/4) members: member i is built from the base-p^k digits
of i when it is read, so a sampled census builds only the members it
samples.  FAMILY_BUDGET still bounds the family's size, which is what an
exhaustive census walks.

Conjugacy between two family members is decided exactly: the intertwiner
equation W M1 = M2 W is linear in W, its solution set mod p^N is a
module presented by a local Smith form, and M1 ~ M2 in GL iff that
module contains a matrix invertible mod p.  The generators of full order
p^N are columns of the Smith form's right factor V, which is invertible,
so they are already independent mod p: the scan for an invertible
intertwiner runs on them directly, with no second elimination.

A class count tests pairs only within buckets of equal `conjugacy_key`:
the centralizer's module type and the local Smith exponents of the
shifts M - (1 + p^k d) I.  Both are GL-conjugation invariants, so
conjugate members always share a bucket; the greedy partition meets the
representatives of a bucket in the global order, and its assignments
and witnesses are those of testing every pair.

GL-conjugacy merges at least as much as SL-conjugacy, so a lower bound
certified on GL-classes is valid for the SL census.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import NamedTuple, Sequence

from .arith import prime_power
from .errors import BudgetExceededError
from .linalg import det_int, mat_mul_mod, smith_exponents, smith_local, valuation

Mat = tuple[tuple[int, ...], ...]

RANK_BUDGET = 12  # mod-p span dimension an are_conjugate scan may search
PAIR_BUDGET = 20_000  # are_conjugate calls per class count
FAMILY_BUDGET = 500_000  # representatives per census family


class FamilyMembers:
    """The members M_Y of a family, each built from its index when read.

    Member i has for its Y block the base-p^k digits of i, row-major with
    the last entry fastest: the order of product(range(p^k), repeat=half^2).
    Iteration and `reversed` come from `__len__` and `__getitem__`.
    """

    __slots__ = ("base", "pk", "half")

    def __init__(self, base: Mat, pk: int, half: int) -> None:
        self.base = base  # the member with Y = 0
        self.pk = pk
        self.half = half

    def __len__(self) -> int:
        return self.pk ** (self.half * self.half)

    def __getitem__(self, index: int) -> Mat:
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("family member index out of range")
        half = self.half
        rows = [list(row) for row in self.base]
        for pos in reversed(range(half * half)):
            index, digit = divmod(index, self.pk)
            rows[pos // half][half + pos % half] = digit
        return tuple(tuple(row) for row in rows)


class CensusFamily(NamedTuple):
    m: int
    q: int
    k: int
    t: int
    modulus_exp: int  # N = 3k + 2t
    x_diag: tuple[int, ...]
    z_diag: tuple[int, ...]
    y_reps: FamilyMembers

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


def build_census_family(m: int, q: int, k: int, t: int) -> CensusFamily:
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
    if rep_count > FAMILY_BUDGET:
        raise BudgetExceededError(
            f"family would hold {rep_count} representatives; budget is {FAMILY_BUDGET}"
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

    reps = FamilyMembers(base=tuple(tuple(r) for r in base), pk=pk, half=half)
    family = CensusFamily(
        m=m, q=q, k=k, t=t, modulus_exp=N, x_diag=x_diag, z_diag=z_diag, y_reps=reps
    )
    for mat in (reps[0], reps[-1]):
        if det_int(mat) % pN != 1:
            raise AssertionError("family member with determinant != 1")
    return family


def _intertwiner_system(
    M1: Sequence[Sequence[int]], M2: Sequence[Sequence[int]]
) -> list[dict[int, int]]:
    """Sparse rows of the linear map W -> W M1 - M2 W on row-major W, unreduced.

    Row i*m + j has the nonzero M1[a][j] at column i*m + a and -M2[i][b] at b*m + j.
    """
    m = len(M1)
    rows = []
    for i, m2_row in enumerate(M2):
        for j in range(m):
            row = {i * m + a: x for a, m1_row in enumerate(M1) if (x := m1_row[j])}
            for b, y in enumerate(m2_row):
                if y:
                    row[b * m + j] = row.get(b * m + j, 0) - y
            rows.append(row)
    return rows


def conjugacy_module(
    M1: Sequence[Sequence[int]], M2: Sequence[Sequence[int]], p: int, N: int
) -> list[Mat]:
    """The full-order solutions of W M1 - M2 W = 0 over Z/p^N, as matrices.

    They are the columns t of the local Smith form's right factor V with
    exponent N, reshaped row-major; the solutions of lower order vanish
    mod p, so these span the module's reduction mod p.
    """
    m = len(M1)
    smith = smith_local(_intertwiner_system(M1, M2), p, N)
    v = smith.right
    return [
        tuple(tuple(v[r * m + c][t] for c in range(m)) for r in range(m))
        for t, e in enumerate(smith.exponents)
        if e == N
    ]


class ConjugacyResult(NamedTuple):
    status: str  # "conjugate" | "not_conjugate" | "unknown"
    witness: Mat | None = None


def are_conjugate(
    M1: Sequence[Sequence[int]], M2: Sequence[Sequence[int]], p: int, N: int
) -> ConjugacyResult:
    """Decide GL(Z/p^N)-conjugacy of M1 and M2 by exact linear algebra.

    The intertwiner module contains a matrix invertible mod p iff some
    F_p-combination of its full-order generators is invertible mod p; the
    generators of lower order vanish mod p.  That span is scanned
    projectively (first nonzero coefficient = 1) over the generators as
    the Smith form gives them.  Each is a column of the invertible right
    factor V, so they are independent mod p and their count is the span's
    dimension, which RANK_BUDGET bounds.  Independence is not needed for
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
    full = conjugacy_module(M1t, M2t, p, N)
    if not full:
        return ConjugacyResult(status="not_conjugate")
    rho = len(full)
    if rho > RANK_BUDGET:
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


def conjugacy_key(mat: Mat, family: CensusFamily) -> tuple[tuple[int, ...], ...]:
    """GL_m(Z/p^N)-conjugacy invariants of a matrix, for bucketing a census.

    The first entry is the local Smith exponents of the linear map
    X -> X M - M X, whose kernel is the centralizer of M, so they fix the
    centralizer's module type; the others are the local Smith exponents
    of M - (1 + p^k d) I for each diagonal entry d of the family.  If
    M' = W M W^-1 then X -> W X W^-1 conjugates the first map into the
    one of M', and M' - cI = W (M - cI) W^-1 has the Smith form of
    M - cI, so conjugate matrices have equal keys.  Neither part alone
    separates the classes of the `certify` samples.  Both maps go to the
    Smith form as sparse rows, unreduced.
    """
    p, N = family.q, family.modulus_exp
    pk = p ** family.k
    key = [smith_exponents(_intertwiner_system(mat, mat), p, N)]
    for d in family.x_diag + family.z_diag:
        c = 1 + pk * d
        shifted = [{j: x for j, x in enumerate(row) if x} | {i: row[i] - c}
                   for i, row in enumerate(mat)]
        key.append(smith_exponents(shifted, p, N))
    return tuple(key)


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
    family: CensusFamily, sample: Sequence[int] | None = None
) -> ClassCountReport:
    """Greedy partition of family representatives by pairwise conjugacy.

    Processes members in index order and joins the first existing class
    whose representative is decided conjugate; any "unknown" outcome
    poisons the certificate (the count is then only a lower bound).

    Each member is first given its `conjugacy_key`, and `are_conjugate`
    runs only against the representatives of classes with the same key.
    Conjugate members share a key, so a representative with another key
    is one the unbucketed partition would have found not conjugate; the
    representatives with the member's key are met in the global order.
    Hence the first conjugate representative, its witness and so the
    assignments are those of testing every pair.  A skipped pair is
    decided by its key, so it is never an unknown: `unknown_pairs` can
    only fall, and where testing every pair meets no unknown the
    certificate is the same.  More than PAIR_BUDGET `are_conjugate` calls
    raise BudgetExceededError.
    """
    indices = list(range(len(family.y_reps))) if sample is None else list(sample)
    exhaustive = sample is None
    p = family.q
    N = family.modulus_exp
    reps: list[tuple[int, Mat]] = []  # (member index, member) per class
    buckets: dict[tuple[tuple[int, ...], ...], list[int]] = {}  # key -> class ids
    assignment: list[int] = []
    tested = unknown = 0
    witnesses: list[tuple[int, int, Mat]] = []
    for idx in indices:
        mat = family.y_reps[idx]
        bucket = buckets.setdefault(conjugacy_key(mat, family), [])
        placed = None
        for cid in bucket:
            if tested >= PAIR_BUDGET:
                raise BudgetExceededError(
                    f"class count needs more than {PAIR_BUDGET} conjugacy tests"
                )
            tested += 1
            rep_idx, rep_mat = reps[cid]
            result = are_conjugate(rep_mat, mat, p, N)
            if result.status == "conjugate":
                witnesses.append((idx, rep_idx, result.witness))
                placed = cid
                break
            unknown += result.status == "unknown"
        if placed is None:
            placed = len(reps)
            bucket.append(placed)
            reps.append((idx, mat))
        assignment.append(placed)
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

"""Exact linear algebra over Z, Z/m, F_p and Z/p^M.

Everything here is pure-integer arithmetic.  The local Smith form is
the workhorse shared by the centralizer oracle, the conjugacy keys and
the intertwiner-module solver (and, test-side, the base-change
kernel/cokernel counts): over the local ring Z/p^M every matrix
diagonalizes to diag(p^e1, ...) by invertible row/column operations,
with nondecreasing exponents.  Its inputs are sparse (p*ad(x) is a
diagonal, an intertwiner system has about one entry in ten nonzero), so
they arrive as sparse rows: n dicts from a column in 0..n-1 to an
integer.  The one elimination, `_eliminate`, alone reduces them mod
p^M; it keeps each row a dict of its nonzero residues, permutes the
columns through a position table instead of moving them, and takes the
pivot of a dense scan (least valuation, first in row-major order).
`smith_local` also returns the right factor V, which only the
intertwiner-module solver reads; `smith_exponents` runs the same
elimination without V for the callers that read the exponents alone.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence

Matrix = list[list[int]]
SparseRow = Mapping[int, int]  # column -> entry; a column not in it holds 0


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul_mod(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], mod: int) -> Matrix:
    """a*b mod `mod`: each entry is a row of a dotted with a column of b, the columns read once."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) % mod for col in cols] for row in a]


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (Bareiss, fraction-free)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _minor(rows: Sequence[Sequence[int]], i: int, j: int) -> list[list[int]]:
    return [[rows[r][c] for c in range(len(rows)) if c != j] for r in range(len(rows)) if r != i]


def mat_inv_mod(rows: Sequence[Sequence[int]], mod: int) -> Matrix:
    """Inverse of a square matrix over Z/m via adjugate; det must be a unit."""
    n = len(rows)
    d = det_int(rows) % mod
    dinv = pow(d, -1, mod)  # raises ValueError when det is not invertible
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = det_int(_minor(rows, i, j))
            if (i + j) % 2:
                c = -c
            adj[j][i] = c % mod
    return [[(adj[i][j] * dinv) % mod for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# prime-field linear algebra
# ---------------------------------------------------------------------------

def rref_mod_p(rows: Iterable[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p; returns (nonzero rows, pivot columns)."""
    mat = [[x % p for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def kernel_mod_p(rows: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Basis of the right kernel of a matrix over F_p."""
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref_mod_p(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-red[r][fc]) % p
        basis.append(vec)
    return basis


def charpoly_mod_p(a: Sequence[Sequence[int]], p: int) -> list[int]:
    """Coefficients of det(xI - A) over F_p, ascending order, monic.

    Hessenberg reduction by similarity, then the standard leading-minor
    recurrence; O(n^3) field operations.
    """
    n = len(a)
    h = [[x % p for x in row] for row in a]
    for j in range(n - 2):
        pivot = next((i for i in range(j + 1, n) if h[i][j]), None)
        if pivot is None:
            continue
        if pivot != j + 1:
            h[j + 1], h[pivot] = h[pivot], h[j + 1]
            for row in h:
                row[j + 1], row[pivot] = row[pivot], row[j + 1]
        inv = pow(h[j + 1][j], -1, p)
        for i in range(j + 2, n):
            f = (h[i][j] * inv) % p
            if f:
                hi, hj1 = h[i], h[j + 1]
                for c in range(n):
                    hi[c] = (hi[c] - f * hj1[c]) % p
                for row in h:
                    row[j + 1] = (row[j + 1] + f * row[i]) % p
    # charp[m] = det(xI - H_m) for the leading m x m block
    polys: list[list[int]] = [[1]]
    for m in range(1, n + 1):
        hmm = h[m - 1][m - 1]
        prev = polys[m - 1]
        cur = [0] + prev  # x * prev
        for idx, coef in enumerate(prev):
            cur[idx] = (cur[idx] - hmm * coef) % p
        sub = 1
        for i in range(1, m):
            sub = (sub * h[m - i][m - i - 1]) % p
            if sub == 0:
                break
            coef = (h[m - 1 - i][m - 1] * sub) % p
            if coef:
                low = polys[m - 1 - i]
                for idx, c0 in enumerate(low):
                    cur[idx] = (cur[idx] - coef * c0) % p
        cur = [c % p for c in cur]
        polys.append(cur)
    return polys[n]


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder over F_p, descending coefficients, den[0] != 0.

    The remainder keeps its leading zeros: it has len(den) - 1 entries.
    """
    num = num[:]
    inv = pow(den[0], -1, p)
    tail = den[1:]
    quot = []
    for i in range(len(num) - len(tail)):
        q = num[i] * inv % p
        quot.append(q)
        if q:
            for j, d in enumerate(tail, i + 1):
                num[j] = (num[j] - q * d) % p
    return quot, num[len(quot):]


def _squarefree_part(f: list[int], p: int) -> list[int]:
    """f / gcd(f, f') over F_p, descending coefficients, 1 <= deg f < p."""
    n = len(f) - 1
    a, b = f, [c * (n - i) % p for i, c in enumerate(f[:-1])]
    while b:
        r = _poly_divmod(a, b, p)[1]
        while r and not r[0]:
            r.pop(0)
        a, b = b, r
    return _poly_divmod(f, a, p)[0]


def poly_roots_mod_p(coeffs: Sequence[int], p: int) -> list[int]:
    """All roots in F_p of a polynomial given in ascending coefficients.

    Returns them in ascending order, each once; the zero polynomial has
    every x as a root.  When deg f < p, every multiplicity m of an
    irreducible factor q of f is at most deg f < p, and q' is nonzero
    (deg q < p), so q divides f' exactly m - 1 times.  Then f / gcd(f, f')
    keeps each root of f exactly once, and its degree is the number of
    distinct roots when f splits.  The scan evaluates that part at
    x = 0, 1, ... by Horner's rule and divides out X - x at each root; it
    stops when the part is constant, and reads the root of a linear part
    as -b/a.  When deg f >= p the squarefree step is skipped, so the scan
    divides out every power of X - x.
    """
    f = [c % p for c in reversed(coeffs)]
    while f and not f[0]:
        f.pop(0)
    if not f:
        return list(range(p))
    if len(f) - 1 < p:
        f = _squarefree_part(f, p)
    roots = []
    x = 0
    while len(f) > 2 and x < p:
        acc = 0
        for c in f:
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
            while True:
                quot, rem = _poly_divmod(f, [1, -x % p], p)
                if rem[0]:
                    break
                f = quot
        x += 1
    if len(f) == 2:
        roots.append(-f[1] * pow(f[0], -1, p) % p)
    return roots


# ---------------------------------------------------------------------------
# local Smith form over Z/p^M
# ---------------------------------------------------------------------------

class SmithLocal(NamedTuple):
    """U*A*V = diag(p^e_0, ..., p^e_{n-1}) mod p^M for some invertible U.

    Exponents are nondecreasing.  Exponent M is a cap: it means the true
    elementary divisor is divisible by p^M (possibly the entry is 0 over
    Z).  Only V is kept: column t of A*V is 0 mod p^e_t, so p^(M-e_t)
    times column t of V generates a cyclic summand Z/p^e_t of ker(A mod
    p^M), and the columns with e_t = M are the kernel vectors visible
    mod p.
    """

    exponents: tuple[int, ...]
    right: tuple[tuple[int, ...], ...]


def _eliminate(
    rows: Sequence[SparseRow], p: int, precision: int, v: Matrix | None
) -> tuple[int, ...]:
    """Local Smith exponents of an n x n matrix; column operations go to `v` if given.

    A arrives as n sparse rows (a column outside 0..n-1 raises ValueError)
    and is reduced here only: each row is copied into a dict of its
    nonzero residues mod p^M, and an entry that becomes 0 is dropped at
    once, so the pivot search and the row steps touch only nonzero entries.
    Columns of A are never moved: `pos[c]` is the current position of
    column c and `col_at[j]` the column at position j, and a column swap
    exchanges two of each.  Rows are swapped in place.  V stays dense and
    is swapped and updated by position.

    Pivots are chosen with minimal valuation, first in row-major order of
    the current positions on ties, which makes the exponent sequence
    nondecreasing and the whole procedure deterministic.  A row's entries
    come in no position order, so the search reads each row whole: an
    entry not divisible by p^best has a lower valuation and becomes the
    best, and in the best's own row an entry divisible by p^best but not
    by p^(best+1) ties with it and wins if it sits further left (a test
    against p^best alone cannot tell a tie from a greater valuation).
    Every entry left after a step is a multiple of that step's pivot, so
    the search stops after the first row that holds an entry of the
    previous pivot's valuation.

    Row operations are applied to A only, as U is not kept.  The pivot
    row is not scaled by the inverse w of its unit part; row i subtracts
    (x / p^e)·w times it instead, e the pivot's valuation, which leaves
    the same residues.  Column operations are applied to V only: after
    the row step column t of A is zero below the pivot, so on A they
    would only clear row t, which is never read again.  So w (a modular
    `pow`) is taken only when a row below holds the pivot column or V
    gets a column operation (the pivot row holds another column); a
    diagonal matrix without V, such as p*ad(x), takes none.
    """
    n = len(rows)
    pm = p ** precision
    a = []
    for row in rows:
        if row and (min(row) < 0 or max(row) >= n):
            raise ValueError("the local Smith form expects n rows with columns in 0..n-1")
        a.append({c: y for c, x in row.items() if (y := x % pm)})
    pos = list(range(n))
    col_at = list(range(n))
    exps = [precision] * n
    floor = 0
    for t in range(n):
        best_i, best_c, best_val = -1, -1, precision
        pb = pm  # p^best_val: every nonzero entry has a lower valuation than M
        for i in range(t, n):
            for c, x in a[i].items():
                if x % pb:
                    best_i, best_c = i, c
                    best_val = 0
                    while x % p == 0:
                        x //= p
                        best_val += 1
                    pb = p ** best_val
                elif i == best_i and x % (pb * p) and pos[c] < pos[best_c]:
                    best_c = c
            if best_val == floor:
                break
        if best_i < 0:
            break
        if best_val < floor:
            raise AssertionError("local Smith exponents not sorted")
        floor = exps[t] = best_val
        if best_i != t:
            a[t], a[best_i] = a[best_i], a[t]
        at = a[t]
        j0 = pos[best_c]
        if j0 != t:
            c_t = col_at[t]
            col_at[t], col_at[j0] = best_c, c_t
            pos[best_c], pos[c_t] = t, j0
            if v is not None:
                for row in v:
                    row[t], row[j0] = row[j0], row[t]
        w = 0  # the inverse of the pivot's unit part, taken when first needed
        for i in range(t + 1, n):
            row = a[i]
            x = row.get(best_c)
            if x:
                w = w or pow(at[best_c] // pb, -1, pm)
                q = x // pb * w
                for c, z in at.items():
                    y = (row.get(c, 0) - q * z) % pm
                    if y:
                        row[c] = y
                    else:
                        row.pop(c, None)
        if v is not None and len(at) > 1:
            w = w or pow(at[best_c] // pb, -1, pm)
            col_ops = [(pos[c], z * w % pm // pb) for c, z in at.items() if c != best_c]
            for row in v:
                vt = row[t]
                if vt:
                    for j, q in col_ops:
                        row[j] = (row[j] - q * vt) % pm
    return tuple(exps)


def smith_local(rows: Sequence[SparseRow], p: int, precision: int) -> SmithLocal:
    """Diagonalize an n x n matrix, given as n sparse rows, over Z/p^M, keeping V."""
    v = identity_matrix(len(rows))
    exponents = _eliminate(rows, p, precision, v)
    return SmithLocal(exponents=exponents, right=tuple(tuple(r) for r in v))


def smith_exponents(rows: Sequence[SparseRow], p: int, precision: int) -> tuple[int, ...]:
    """The exponents of `smith_local(rows, p, precision)`, without building V."""
    return _eliminate(rows, p, precision, None)

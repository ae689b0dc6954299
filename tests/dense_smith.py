"""The dense local Smith elimination, the oracle for `repzeta.linalg`'s sparse one.

Independent of `repzeta`: it has its own `valuation`, keeps A as dense
rows and swaps its columns physically.  The pivot rule is the one the
sparse elimination must reproduce: least valuation, first in row-major
order of the current column positions, and since every entry left after
a step is a multiple of that step's pivot, the scan stops at the first
entry of the previous pivot's valuation.  So the exponents and the
right factor V of both eliminations agree on every input.

`repzeta`'s Smith forms take sparse rows; `sparse_rows` turns a dense
test input into them and `dense_rows` turns them back.  The dense
constructions the sparse builders replaced, `dense_intertwiner_system`
and `dense_shift`, are kept here as the builders' oracles.
"""

from __future__ import annotations

from typing import Mapping, Sequence

Matrix = list[list[int]]


def sparse_rows(rows: Sequence[Sequence[int]]) -> list[dict[int, int]]:
    """The sparse rows of a dense matrix: each row a dict of its nonzero entries."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def dense_rows(rows: Sequence[Mapping[int, int]], mod: int | None = None) -> Matrix:
    """The n x n matrix of n sparse rows, each entry reduced mod `mod` if given."""
    n = len(rows)
    if any(c not in range(n) for row in rows for c in row):
        raise ValueError("a sparse row has a column outside 0..n-1")
    dense = [[row.get(c, 0) for c in range(n)] for row in rows]
    return dense if mod is None else [[x % mod for x in row] for row in dense]


def dense_intertwiner_system(
    M1: Sequence[Sequence[int]], M2: Sequence[Sequence[int]], p: int, N: int
) -> Matrix:
    """Coefficients of the linear map W -> W M1 - M2 W on row-major W, mod p^N."""
    m = len(M1)
    pN = p ** N
    dim = m * m
    coeff = [[0] * dim for _ in range(dim)]
    for i in range(m):
        for j in range(m):
            row = coeff[i * m + j]
            for a in range(m):
                row[i * m + a] = (row[i * m + a] + M1[a][j]) % pN
            for b in range(m):
                row[b * m + j] = (row[b * m + j] - M2[i][b]) % pN
    return coeff


def dense_shift(mat: Sequence[Sequence[int]], c: int, pN: int) -> Matrix:
    """mat - cI, reduced mod pN."""
    return [[(x - c if i == j else x) % pN for j, x in enumerate(row)] for i, row in enumerate(mat)]


def valuation(x: int, p: int, cap: int) -> int:
    """p-adic valuation of x, with val(0) reported as `cap`."""
    x = abs(x)
    if x == 0:
        return cap
    v = 0
    while x % p == 0 and v < cap:
        x //= p
        v += 1
    return v


def _pivot(
    a: Matrix, t: int, p: int, precision: int, floor: int
) -> tuple[tuple[int, int] | None, int]:
    """Row-major first entry of least valuation in a[t:, t:], given that none is below `floor`."""
    best, best_val = None, precision
    n = len(a)
    for i in range(t, n):
        row = a[i]
        for j in range(t, n):
            x = row[j]
            if x:
                if x % p:
                    return (i, j), 0
                val = valuation(x, p, best_val)
                if val < best_val:
                    if val == floor:
                        return (i, j), val
                    best, best_val = (i, j), val
    return best, best_val


def dense_smith(
    rows: Sequence[Sequence[int]], p: int, precision: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(exponents, V) of a square matrix over Z/p^M by dense elimination.

    Row operations go to A only; column operations go to V only: after
    the row step column t of A is zero below the pivot, so on A they
    would only clear row t, which is never read again.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("the local Smith form expects a square matrix")
    pm = p ** precision
    a = [[x % pm for x in row] for row in rows]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    exps = [precision] * n
    floor = 0
    for t in range(n):
        best, best_val = _pivot(a, t, p, precision, floor)
        if best is None:
            break
        floor = best_val
        i0, j0 = best
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
            for row in v:
                row[t], row[j0] = row[j0], row[t]
        pv = p ** best_val
        unit = a[t][t] // pv
        w = pow(unit, -1, pm)
        at = a[t] = [(x * w) % pm for x in a[t]]
        for i in range(t + 1, n):
            x = a[i][t]
            if x:
                q = x // pv
                a[i] = [(y - q * z) % pm for y, z in zip(a[i], at)]
        col_ops = [(j, at[j] // pv) for j in range(t + 1, n) if at[j]]
        for row in v:
            vt = row[t]
            if vt:
                for j, q in col_ops:
                    row[j] = (row[j] - q * vt) % pm
        exps[t] = best_val
    return tuple(exps), tuple(tuple(r) for r in v)

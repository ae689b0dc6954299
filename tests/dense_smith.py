"""The dense local Smith elimination, the oracle for `repzeta.linalg`'s sparse one.

Independent of `repzeta`: it has its own `valuation`, keeps A as dense
rows and swaps its columns physically.  The pivot rule is the one the
sparse elimination must reproduce: least valuation, first in row-major
order of the current column positions, and since every entry left after
a step is a multiple of that step's pivot, the scan stops at the first
entry of the previous pivot's valuation.  So the exponents and the
right factor V of both eliminations agree on every input.
"""

from __future__ import annotations

from typing import Sequence

Matrix = list[list[int]]


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

"""Exact root-system data for the simple types A-G.

A RootDatum stores, for each positive coroot, the row of its values on
the fundamental weights.  Those rows are exactly the coefficients of the
coroot in the simple-coroot basis, so they are enumerated by root-string
closure on the dual Cartan matrix.  Everything downstream (the census
walk in `witten`) works from these integer rows alone, and every datum
built has r/kappa = 2/h, the Witten abscissa, checked exactly.  Since
dim G = r(h + 1) for every simple type, that check is also the
closure's root count against the dimension table.

ROOT_BUDGET bounds the positive roots of a datum.  The closure's time
grows about as r^3.5 and the Cartan matrix has r^2 entries, so
`build_root_datum` checks the count r*h/2 before it builds either.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import BudgetExceededError

ROOT_BUDGET = 1_000  # positive roots of one root datum

# series -> (valid rank?, the rule as the error message states it, h(rank))
_TYPES = {
    "A": (lambda r: r >= 1, "rank >= 1", lambda r: r + 1),
    "B": (lambda r: r >= 2, "rank >= 2", lambda r: 2 * r),
    "C": (lambda r: r >= 3, "rank >= 3", lambda r: 2 * r),
    "D": (lambda r: r >= 4, "rank >= 4", lambda r: 2 * r - 2),
    "E": (lambda r: r in (6, 7, 8), "rank in {6, 7, 8}", {6: 12, 7: 18, 8: 30}.get),
    "F": (lambda r: r == 4, "rank == 4", lambda r: 12),
    "G": (lambda r: r == 2, "rank == 2", lambda r: 6),
}

SERIES = tuple(_TYPES)


def coxeter_number(series: str, rank: int) -> int:
    """The Coxeter number h of (series, rank); ValueError for an unknown series or invalid rank.

    A rank is an int and not a bool, though bool is a subclass of int.
    """
    if series not in SERIES:
        raise ValueError(f"unknown series {series!r}; expected one of {SERIES}")
    valid, rule, h = _TYPES[series]
    if not isinstance(rank, int) or isinstance(rank, bool) or not valid(rank):
        raise ValueError(f"invalid rank {rank} for series {series}: need {rule}")
    return h(rank)


def cartan_matrix(series: str, rank: int) -> list[list[int]]:
    """Cartan matrix with entries M[i][j] = <alpha_i, alpha_j^vee>, Bourbaki numbering."""
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def join(i: int, j: int, a: int = -1, b: int = -1) -> None:
        m[i][j] = a
        m[j][i] = b

    if series in ("A", "B", "C"):
        for i in range(rank - 1):
            join(i, i + 1)
        if series == "B" and rank >= 2:
            join(rank - 2, rank - 1, -2, -1)  # alpha_rank short
        if series == "C":
            join(rank - 2, rank - 1, -1, -2)  # alpha_rank long
    elif series == "D":
        for i in range(rank - 3):
            join(i, i + 1)
        join(rank - 3, rank - 2)
        join(rank - 3, rank - 1)
    elif series == "E":
        edges = [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
        if rank >= 7:
            edges.append((5, 6))
        if rank == 8:
            edges.append((6, 7))
        for i, j in edges:
            join(i, j)
    elif series == "F":
        join(0, 1)
        join(1, 2, -2, -1)  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        join(2, 3)
    elif series == "G":
        join(0, 1, -1, -3)  # alpha_1 short
    return m


def positive_roots_from_cartan(cartan: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """All positive roots as coefficient vectors over the simple roots.

    Root-string closure level by level: beta + alpha_i is a root iff
    q = p - <beta, alpha_i^vee> >= 1, where p counts how far the string
    extends below beta.
    """
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    known = set(simple)
    level = list(simple)
    out = list(simple)
    while level:
        nxt: list[tuple[int, ...]] = []
        for beta in level:
            for i in range(rank):
                pairing = sum(beta[j] * cartan[j][i] for j in range(rank))
                p = 0
                probe = list(beta)
                while True:
                    probe[i] -= 1
                    if probe[i] < 0 or tuple(probe) not in known:
                        break
                    p += 1
                if p - pairing >= 1:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in known:
                        known.add(cand)
                        nxt.append(cand)
                        out.append(cand)
        level = nxt
    return out


class RootDatum(NamedTuple):
    """Positive-coroot rows for one irreducible simply connected type.

    positive_roots[j] is the vector (alpha^vee(w_1), ..., alpha^vee(w_r))
    for one positive coroot alpha^vee evaluated on the fundamental
    weights; rho_values[j] is its sum, alpha^vee(rho).
    """

    series: str
    rank: int
    positive_roots: tuple[tuple[int, ...], ...]
    rho_values: tuple[int, ...]
    kappa: int
    coxeter_number: int


def build_root_datum(series: str, rank: int) -> RootDatum:
    """The root datum of (series, rank); rejects invalid pairs, asserts r/kappa = 2/h.

    A datum with more than ROOT_BUDGET positive roots (r*h/2, known
    before any closure) raises BudgetExceededError before its Cartan
    matrix is built.
    """
    h = coxeter_number(series, rank)
    roots = rank * h // 2
    if roots > ROOT_BUDGET:
        raise BudgetExceededError(f"{series}{rank} has {roots} positive roots, over the budget {ROOT_BUDGET}")

    cartan = cartan_matrix(series, rank)
    # coroots of Phi = roots of the dual system (transposed Cartan matrix)
    dual = [list(col) for col in zip(*cartan)]
    rows = positive_roots_from_cartan(dual)
    rows.sort(key=lambda r: (sum(r), r))

    kappa = len(rows)
    if rank * h != 2 * kappa:
        raise AssertionError(f"{series}{rank}: r/kappa != 2/h")
    for row in rows:
        if min(row) < 0 or max(row) == 0:
            raise AssertionError(f"{series}{rank}: bad coroot row {row}")

    return RootDatum(
        series=series,
        rank=rank,
        positive_roots=tuple(rows),
        rho_values=tuple(sum(r) for r in rows),
        kappa=kappa,
        coxeter_number=h,
    )

"""Witten zeta data: degree censuses of G(C) and abscissa fits.

The census enumerator walks highest-weight vectors depth-first and cuts a
branch as soon as the dimension exceeds the bound; this is complete
because the Weyl dimension is strictly increasing in every coordinate.
The walk is incremental: it keeps every coroot's value alpha^vee(lambda + rho)
and, when coordinate i steps up by one, adds alpha^vee(w_i) to each value
it touches, so a node costs one product and one exact division.  Every
step of every coordinate is a node, and a walk of more than NODE_BUDGET
nodes raises BudgetExceededError.

The walk visits one weight of each pair {lambda, sigma lambda}, where sigma
is the involution of the Dynkin diagram (`_diagram_involution`), and counts
it twice.  sigma permutes the simple coroots, hence the positive coroots,
and fixes rho, so it permutes the factors alpha^vee(lambda + rho) of the
Weyl product and dim V(lambda) = dim V(sigma lambda).  Of a pair i < j = sigma i
of coordinates, j decides: while every pair decided so far is tied
(lambda_i = lambda_j), coordinate j runs only from 0 to lambda_i.  A weight
with lambda_j < lambda_i at its first untied pair stands for its mirror too,
which the walk never reaches; a weight tied at every pair is fixed by
sigma and counts once.  The bound on lambda_j is an upper one, so 0 stays
allowed at every later coordinate and every node still has a leaf below it.

Truncated zeta values of a census are `DegreeCensus.zeta`, which uses
`math.fsum`, so it does not depend on the order of the terms.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .census import DegreeCensus
from .errors import BudgetExceededError
from .rootsys import RootDatum

NODE_BUDGET = 2_000_000  # lattice nodes per census walk
FIT_POINTS = 16  # geometric sample points of an abscissa fit
FIT_MIN_DISTINCT = 8  # distinct degrees a census needs for an abscissa fit


class AbscissaEstimate(NamedTuple):
    """Least-squares slope of log R_n against log n, with its standard error."""

    slope: float
    standard_error: float
    sample_points: tuple[tuple[float, float], ...]
    window: str


def _diagram_involution(datum: RootDatum) -> tuple[int, ...]:
    """The Dynkin-diagram involution sigma as a permutation of the coordinates.

    A_r reverses its chain, D_r swaps its two end nodes r-2 and r-1, and E6
    swaps 0 with 5 and 2 with 4 (Bourbaki numbering from 0); every other type
    has the identity.  Raises AssertionError unless sigma maps the set of
    positive-coroot rows onto itself.
    """
    r = datum.rank
    sigma = list(range(r))
    if datum.series == "A":
        sigma.reverse()
    elif datum.series == "D":
        sigma[r - 2], sigma[r - 1] = r - 1, r - 2
    elif datum.series == "E" and r == 6:
        sigma = [5, 1, 4, 3, 2, 0]
    rows = set(datum.positive_roots)
    if {tuple(row[k] for k in sigma) for row in rows} != rows:
        raise AssertionError(f"{datum.series}{r}: {sigma} does not permute the positive coroots")
    return tuple(sigma)


def enumerate_dimensions(datum: RootDatum, bound: int) -> DegreeCensus:
    """Census of all irreducible degrees <= bound, with multiplicities.

    Depth-first over coefficient vectors; a prefix is abandoned once its
    zero-padded dimension exceeds the bound (monotone pruning), so no
    a-priori box is needed.  Of each pair {lambda, sigma lambda} only one
    weight is walked (see the module docstring).
    """
    if bound < 1:
        raise ValueError("census bound must be >= 1")
    last = datum.rank - 1
    forms = list(datum.rho_values)  # alpha_j^vee(lambda + rho); lambda = 0 at the root
    touch = [
        [(j, row[pos]) for j, row in enumerate(datum.positive_roots) if row[pos]]
        for pos in range(datum.rank)
    ]
    # mirror[j] = i for the pair i < j = sigma i that coordinate j decides, -1 elsewhere
    mirror = [i if i < j else -1 for j, i in enumerate(_diagram_involution(datum))]
    coords = [0] * datum.rank  # the walked prefix, read at each pair's coordinate i
    den = math.prod(datum.rho_values)
    counts: dict[int, int] = {}
    left = NODE_BUDGET

    def walk(pos: int, d: int, tied: bool) -> None:
        # on entry coordinates pos.. are 0, d <= bound is the dimension of the forms, and tied
        # says that every pair decided before pos has lambda_i = lambda_j; a node is counted
        # before its subwalk, or at the last coordinate by the loop index, which ends at the
        # nodes left
        nonlocal left
        t = touch[pos]
        i = mirror[pos] if tied else -1
        top = coords[i] if i >= 0 else left  # lambda_pos < lambda_i unties the pair
        if pos == last:
            w = 1 if tied and i < 0 else 2
            steps = 0  # the range is empty when lambda_i = 0
            for steps in range(1, min(top, left) + 1):
                counts[d] = counts.get(d, 0) + w
                for j, c in t:
                    forms[j] += c
                d = math.prod(forms) // den
                if d > bound:
                    break
            else:
                # lambda_pos = min(top, left) is inside the bound: the budget is spent unless
                # it is the tied leaf lambda_pos = lambda_i, fixed by sigma, with a node left
                if top >= left:
                    raise BudgetExceededError(f"census walk exceeds {NODE_BUDGET} nodes")
                counts[d] = counts.get(d, 0) + 1
                left -= 1
            left -= steps
        else:
            sub = tied and i < 0  # lambda_pos < lambda_i unties; an unpaired pos passes the tie on
            for steps in range(1, left + 1):
                left -= 1
                coords[pos] = steps - 1
                if steps > top:  # lambda_pos = lambda_i: the pair stays tied and ends here
                    walk(pos + 1, d, True)
                    steps -= 1
                    break
                walk(pos + 1, d, sub)
                for j, c in t:
                    forms[j] += c
                d = math.prod(forms) // den
                if d > bound:
                    break
            else:
                raise BudgetExceededError(f"census walk exceeds {NODE_BUDGET} nodes")
        for j, c in t:
            forms[j] -= c * steps

    walk(0, 1, True)
    # counts is already merged and every count is >= 1: the census sorts its int keys
    return DegreeCensus.from_counts(counts, bound)


def abscissa_estimate(census: DegreeCensus) -> AbscissaEstimate:
    """Fit log R_n ~ slope * log n at FIT_POINTS geometric points in [sqrt(N), N].

    Upper-half sampling damps the constants visible at small n; the lim-sup
    definition itself is not computable from a truncation, so this is an
    estimator with a reported standard error.
    """
    if len(census.degrees) < FIT_MIN_DISTINCT:
        raise ValueError(
            f"census has {len(census.degrees)} distinct degrees; need >= {FIT_MIN_DISTINCT}"
        )
    n_hi = census.bound
    n_lo = max(1.0, math.sqrt(n_hi))

    samples: list[tuple[float, float]] = []
    for i in range(FIT_POINTS):
        frac = i / (FIT_POINTS - 1)
        n = max(1, round(n_lo * (n_hi / n_lo) ** frac))
        r_n = census.count_upto(n)
        if r_n == 0:
            continue
        samples.append((math.log(n), math.log(r_n)))
    if len(samples) < 3:
        raise ValueError("too few usable sample points for a slope fit")

    m = len(samples)
    mean_x = sum(x for x, _ in samples) / m
    mean_y = sum(y for _, y in samples) / m
    sxx = sum((x - mean_x) ** 2 for x, _ in samples)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in samples)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ssr = sum((y - (slope * x + intercept)) ** 2 for x, y in samples)
    stderr = math.sqrt(ssr / (m - 2) / sxx) if m > 2 else 0.0
    return AbscissaEstimate(
        slope=slope,
        standard_error=stderr,
        sample_points=tuple(samples),
        window=f"{FIT_POINTS} geometric points in [{n_lo:.6g}, {n_hi}]",
    )

"""Witten zeta data: degree censuses of G(C) and abscissa fits.

The census enumerator walks highest-weight vectors depth-first and cuts a
branch as soon as the dimension exceeds the bound; this is complete
because the Weyl dimension is strictly increasing in every coordinate.
The walk is incremental: it keeps every coroot's value alpha^vee(lambda + rho)
and, when coordinate i steps up by one, adds alpha^vee(w_i) to each value
it touches, so a node costs one product and one exact division.  Every
step of every coordinate is a node, and a walk of more than NODE_BUDGET
nodes raises BudgetExceededError.
Truncated zeta values of a census are `DegreeCensus.zeta`, which uses
`math.fsum`, so it does not depend on the order of the terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .census import DegreeCensus
from .errors import BudgetExceededError
from .rootsys import RootDatum

NODE_BUDGET = 2_000_000  # lattice nodes per census walk
FIT_POINTS = 16  # geometric sample points of an abscissa fit
FIT_MIN_DISTINCT = 8  # distinct degrees a census needs for an abscissa fit


@dataclass(frozen=True)
class AbscissaEstimate:
    """Least-squares slope of log R_n against log n, with its standard error."""

    slope: float
    standard_error: float
    sample_points: tuple[tuple[float, float], ...]
    window: str


def enumerate_dimensions(datum: RootDatum, bound: int) -> DegreeCensus:
    """Census of all irreducible degrees <= bound, with multiplicities.

    Depth-first over coefficient vectors; a prefix is abandoned once its
    zero-padded dimension exceeds the bound (monotone pruning), so no
    a-priori box is needed.
    """
    if bound < 1:
        raise ValueError("census bound must be >= 1")
    last = datum.rank - 1
    forms = list(datum.rho_values)  # alpha_j^vee(lambda + rho); lambda = 0 at the root
    touch = [
        [(j, row[pos]) for j, row in enumerate(datum.positive_roots) if row[pos]]
        for pos in range(datum.rank)
    ]
    den = math.prod(datum.rho_values)
    counts: dict[int, int] = {}
    left = NODE_BUDGET

    def walk(pos: int, d: int) -> None:
        # on entry coordinates pos.. are 0 and d <= bound is the dimension of the forms; a node
        # is counted before its subwalk, or at the last coordinate by the loop index, which
        # ends at the nodes left
        nonlocal left
        t = touch[pos]
        for steps in range(1, left + 1):
            if pos == last:
                counts[d] = counts.get(d, 0) + 1
            else:
                left -= 1
                walk(pos + 1, d)
            for j, c in t:
                forms[j] += c
            d = math.prod(forms) // den
            if d > bound:
                break
        else:
            raise BudgetExceededError(f"census walk exceeds {NODE_BUDGET} nodes")
        if pos == last:
            left -= steps
        for j, c in t:
            forms[j] -= c * steps

    walk(0, 1)
    # counts is already merged and every count is >= 1, so from_pairs would only re-merge it
    return DegreeCensus(entries=tuple(sorted(counts.items())), bound=bound)


def abscissa_estimate(census: DegreeCensus) -> AbscissaEstimate:
    """Fit log R_n ~ slope * log n at FIT_POINTS geometric points in [sqrt(N), N].

    Upper-half sampling damps the constants visible at small n; the lim-sup
    definition itself is not computable from a truncation, so this is an
    estimator with a reported standard error.
    """
    if len(census.entries) < FIT_MIN_DISTINCT:
        raise ValueError(
            f"census has {len(census.entries)} distinct degrees; need >= {FIT_MIN_DISTINCT}"
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

"""Witten zeta data: degree censuses of G(C), dyadic block sums, abscissa fits.

The census enumerator walks highest-weight vectors depth-first and cuts a
branch as soon as the dimension exceeds the bound; this is complete
because the Weyl dimension is strictly increasing in every coordinate.
The walk is incremental: it keeps every coroot's value alpha^vee(lambda + rho)
and, when coordinate i steps up by one, adds alpha^vee(w_i) to each value
it touches, so a node costs one product and one exact division.
Truncated zeta values of a census are `DegreeCensus.zeta`.  It and the
dyadic block sums use `math.fsum`, which rounds correctly, so neither
depends on the order of its terms.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import product

from .census import DegreeCensus
from .errors import BudgetExceededError
from .rootsys import RootDatum, weyl_dimension

DYADIC_BLOCK_BUDGET = 1 << 21


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

    def walk(pos: int, d: int) -> None:
        # on entry coordinates pos.. are 0 and d is the dimension of the forms
        steps = 0
        t = touch[pos]
        while d <= bound:
            if pos == last:
                counts[d] = counts.get(d, 0) + 1
            else:
                walk(pos + 1, d)
            for j, c in t:
                forms[j] += c
            steps += 1
            d = math.prod(forms) // den
        for j, c in t:
            forms[j] -= c * steps

    walk(0, 1)
    # counts is already merged and every count is >= 1, so from_pairs would only re-merge it
    return DegreeCensus(entries=tuple(sorted(counts.items())), bound=bound)


def abscissa_estimate(
    census: DegreeCensus, points: int = 16, min_distinct: int = 8
) -> AbscissaEstimate:
    """Fit log R_n ~ slope * log n at geometric sample points in [sqrt(N), N].

    Upper-half sampling damps the constants visible at small n; the lim-sup
    definition itself is not computable from a truncation, so this is an
    estimator with a reported standard error.
    """
    if len(census.entries) < min_distinct:
        raise ValueError(
            f"census has {len(census.entries)} distinct degrees; need >= {min_distinct}"
        )
    n_hi = census.bound
    n_lo = max(1.0, math.sqrt(n_hi))
    degrees = [d for d, _ in census.entries]
    cumulative = []
    running = 0
    for _, m in census.entries:
        running += m
        cumulative.append(running)

    samples: list[tuple[float, float]] = []
    for i in range(points):
        frac = i / (points - 1) if points > 1 else 1.0
        n = max(1, round(n_lo * (n_hi / n_lo) ** frac))
        idx = bisect.bisect_right(degrees, n)
        r_n = cumulative[idx - 1] if idx else 0
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
        window=f"{points} geometric points in [{n_lo:.6g}, {n_hi}]",
    )


def dyadic_block_sum(
    datum: RootDatum, s: float, j: int, budget: int = DYADIC_BLOCK_BUDGET
) -> float:
    """Sum of dim^(-s) over the dyadic block 2^j < a_i <= 2^(j+1) (all i)."""
    if j < 0 or j > 12:
        raise ValueError("dyadic block index must satisfy 0 <= j <= 12")
    size = (2 ** j) ** datum.rank
    if size > budget:
        raise BudgetExceededError(
            f"dyadic block has {size} terms; budget is {budget}"
        )
    lo, hi = 2 ** j + 1, 2 ** (j + 1)
    return math.fsum(
        float(weyl_dimension(datum, coeffs)) ** (-s)
        for coeffs in product(range(lo, hi + 1), repeat=datum.rank)
    )

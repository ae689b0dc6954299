"""The plain Weyl dimension formula, the oracle of the census walk.

Independent of `repzeta.witten`'s pruned, sigma-paired lattice walk:
each dimension is one product over the positive coroots of
alpha^vee(lambda + rho) / alpha^vee(rho), taken from the coroot rows of
the root datum alone.  The naive full-cube census and the dyadic blocks
of `paper_checks` call it.
"""

from __future__ import annotations

from typing import Sequence


def weyl_dimension(datum, weight: Sequence[int]) -> int:
    """Exact dimension of the irreducible with the given highest weight.

    Each coroot row's sum is its value on rho; the product of the
    shifted values is divided by theirs once, exactly, at the end.
    """
    if len(weight) != datum.rank:
        raise ValueError(f"weight length {len(weight)} != rank {datum.rank}")
    shifted = []
    for a in weight:
        if not isinstance(a, int) or a < 0:
            raise ValueError("weight coefficients must be nonnegative integers")
        shifted.append(a + 1)
    num = 1
    den = 1
    for row in datum.positive_roots:
        num *= sum(c * s for c, s in zip(row, shifted))
        den *= sum(row)
    if num % den:
        raise AssertionError("Weyl dimension did not come out integral")
    return num // den

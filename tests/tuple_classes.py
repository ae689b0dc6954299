"""The tuple-product oracle for the conjugacy classes of a finite matrix group.

Independent of `repzeta.finite_oracle`'s index tables: the orbit sweep
conjugates the element tuples themselves, g^-1 * x * g with two tuple
products per step and the inverse from `linalg.mat_inv_mod`, in the
order the indexed sweep must reproduce (elements in BFS order, each
orbit grown breadth-first over the generators in order).
"""

from __future__ import annotations

from repzeta.finite_oracle import FiniteMatrixGroup, Flat, _mul, _to_flat, _to_rows
from repzeta.linalg import mat_inv_mod


def tuple_inverse(a: Flat, n: int, m: int) -> Flat:
    return _to_flat(mat_inv_mod(_to_rows(a, n), m), m)


def tuple_conjugacy_classes(
    group: FiniteMatrixGroup,
) -> tuple[list[Flat], list[int], dict[Flat, int]]:
    """(representatives, sizes, class_of) from the tuple-product orbit sweep."""
    n, m = group.n, group.modulus
    gen_pairs = [(g, tuple_inverse(g, n, m)) for g in group.generators]
    class_of: dict[Flat, int] = {}
    reps: list[Flat] = []
    sizes: list[int] = []
    for x in group.elements:
        if x in class_of:
            continue
        cid = len(reps)
        reps.append(x)
        class_of[x] = cid
        orbit = [x]
        head = 0
        while head < len(orbit):
            y = orbit[head]
            head += 1
            for g, ginv in gen_pairs:
                z = _mul(_mul(ginv, y, n, m), g, n, m)
                if z not in class_of:
                    class_of[z] = cid
                    orbit.append(z)
        sizes.append(len(orbit))
    return reps, sizes, class_of

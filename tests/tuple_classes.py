"""The tuple-product oracle for the conjugacy classes of a finite matrix group.

Independent of `repzeta.finite_oracle`'s index tables and of its
kernels: elements are multiplied by this module's own plain product, an
element's inverse is its last power before the identity, and the orbit
sweep conjugates the element tuples themselves, g^-1 * x * g with two
tuple products per step, in the order the indexed sweep must reproduce
(elements in BFS order, each orbit grown breadth-first over the
generators in order).
"""

from __future__ import annotations

from repzeta.finite_oracle import FiniteMatrixGroup, Flat


def tuple_product(a: Flat, b: Flat, n: int, m: int) -> Flat:
    """The row-major product of two n x n matrices over Z/m."""
    return tuple(
        sum(a[i * n + k] * b[k * n + j] for k in range(n)) % m
        for i in range(n)
        for j in range(n)
    )


def tuple_order_and_inverse(a: Flat, n: int, m: int) -> tuple[int, Flat]:
    """(order of a, a^-1) by powering a until it reaches the identity."""
    ident = tuple(int(i % (n + 1) == 0) for i in range(n * n))
    order, prev, cur = 1, ident, a
    while cur != ident:
        prev = cur
        cur = tuple_product(cur, a, n, m)
        order += 1
    return order, prev


def tuple_inverse(a: Flat, n: int, m: int) -> Flat:
    return tuple_order_and_inverse(a, n, m)[1]


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
                z = tuple_product(tuple_product(ginv, y, n, m), g, n, m)
                if z not in class_of:
                    class_of[z] = cid
                    orbit.append(z)
        sizes.append(len(orbit))
    return reps, sizes, class_of

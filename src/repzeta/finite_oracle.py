"""Brute-force ground truth for finite matrix groups over Z/m.

generate_group enumerates the group by breadth-first closure from the
identity, under GROUP_BUDGET; it is the only enumeration here, and
abelianization_order closes each candidate commutator subgroup with it.
Conjugacy classes come from generator-conjugation orbit sweeps (the
orbit of an element under conjugation by the generators is its full
class), and each class is the orbit list its sweep builds, its least
element index first: a class's size and representative are read from
that list, and the BFS list is the group's element list, so nothing is
built twice.  Character degrees come from the Burnside-Dixon algorithm
run modulo a prime l = 1 (mod exponent(G)) with l > 2*sqrt(|G|), so
every step is exact integer arithmetic.

On the Dixon path only the BFS multiplies elements.  It keeps the index
of each element times each generator (the right tables) and its tree
(parent and generator step), so conjugation tables, class-matrix rows,
element orders and inverses are read from those tables by index: a
generator's inverse is the element the generator's right table sends to
the identity, and a class representative's powers are walked along its
BFS word through the right tables until they reach the identity, which
gives its order and, one step before, its inverse.

The eigenspace split never builds a full class matrix (Schneider's
refinement): a subspace kept in reduced-echelon form is acted on through
the class-matrix rows at its pivot columns only, and each row costs |C_i|
table walks.  A subspace on which a class matrix acts as a scalar lambda*I
is kept as it is: its characteristic polynomial has the one root lambda,
the kernel of the zero matrix is the whole subspace, and the rref of an
echelon basis is that basis, so the split would return it unchanged.
Every basis the split keeps is therefore the identity at its pivot
columns: the start space is the identity, `rref_mod_p` returns reduced
echelon form, and a subspace kept whole is unchanged.  So the action
matrix and the embedding of an eigenvector take dot products over the
columns off the pivots only (`_through_pivots`), and the first split of
the start space takes none.

Most class matrices act as scalars on most subspaces, so each subspace
of dimension > 1 that a split makes carries one probe u = sum_t r_t b_t,
its r_t nonzero residues from a generator seeded with PROBE_SEED, built
once with the subspace.  For class i the split first reads M_i u at the
pivots, `dim` dot products against the action matrix's dim^2, and builds
the action matrix only if M_i u is not a multiple of u, which proves M_i
is not scalar there.  If it is a multiple, the subspace is kept whole for
now.  When that probed pass leaves a subspace of dimension > 1, an exact
pass splits every such subspace class by class with no probe.  A skip
only postpones a split and never makes one, and every split made is the
exact eigenspace split.  The common eigenspaces of the class matrices
are lines, so both passes end at the same lines, whatever the order of
the splits or the probes, and the degrees are sorted into the census.
The resulting table is certified by the second orthogonality relation
over F_l, one entry of each mirror pair (`_second_orthogonality`).

Elements are flat row-major tuples; the product of two 2x2 elements is
one fused expression, and other sizes go through `linalg.mat_mul_mod`.

centralizer_indices is the orbit-method oracle: for each (eigenvalues,
p, k) of a batch, the index of the centralizer of exp(p x), x =
diag(eigenvalues), on L/p^k L, from the Smith form of p*ad(x).  It
takes the eigenvalues alone, so it cannot read the psi chain that
`orbit_method` builds from them.  Within one call it eliminates one
p*ad(x) mod p^k per permutation class, its diagonal sorted: reordering
the root basis conjugates the diagonal by a permutation matrix, which
keeps its Smith exponents.  Nothing is kept between calls.
"""

from __future__ import annotations

import math
import operator
import random
from collections import Counter
from typing import Callable, Iterable, NamedTuple, Sequence

from .arith import prime_power
from .census import DegreeCensus
from .errors import BudgetExceededError
from .linalg import (
    charpoly_mod_p,
    det_int,
    identity_matrix,
    kernel_mod_p,
    mat_inv_mod,
    mat_mul_mod,
    poly_roots_mod_p,
    rref_mod_p,
    smith_exponents,
)

GROUP_BUDGET = 200_000  # elements per enumerated group
CLASS_BUDGET = 400  # conjugacy classes per Dixon run
ORACLE_DEGREE_BUDGET = 4  # largest matrix size d for centralizer_indices
PROBE_SEED = 1  # seeds the probe coefficients of the Dixon split

Flat = tuple[int, ...]


def _to_flat(rows: Sequence[Sequence[int]], m: int) -> Flat:
    return tuple(x % m for row in rows for x in row)


def _to_rows(flat: Flat, n: int) -> list[list[int]]:
    return [list(flat[i * n:(i + 1) * n]) for i in range(n)]


def _mul(a: Flat, b: Flat, n: int, m: int) -> Flat:
    if n == 2:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return (
            (a0 * b0 + a1 * b2) % m,
            (a0 * b1 + a1 * b3) % m,
            (a2 * b0 + a3 * b2) % m,
            (a2 * b1 + a3 * b3) % m,
        )
    return _to_flat(mat_mul_mod(_to_rows(a, n), _to_rows(b, n), m), m)


def _inv(a: Flat, n: int, m: int) -> Flat:
    return _to_flat(mat_inv_mod(_to_rows(a, n), m), m)


class FiniteMatrixGroup(NamedTuple):
    """Fully enumerated matrix group over Z/m, elements in BFS order.

    `elements` is the BFS queue itself, the identity first; nothing is
    ever removed from it.  `right[s][k]` is the index of
    elements[k] * generators[s]; for k >= 1,
    elements[k] = elements[parent[k]] * generators[step[k]].
    """

    modulus: int
    n: int
    generators: tuple[Flat, ...]
    elements: list[Flat]
    right: tuple[list[int], ...]
    parent: list[int]
    step: list[int]

    @property
    def order(self) -> int:
        return len(self.elements)


class ClassData(NamedTuple):
    """Conjugacy classes as their member lists, in order of their least element index.

    `class_ids[k]` is the class of element index k.  `members[j]` holds
    the element indices of class j in the order its orbit sweep found
    them, so its representative, the class's least index, comes first:
    class j has `len(members[j])` elements and representative
    `members[j][0]`, and there are `len(members)` classes.
    """

    class_ids: list[int]
    members: list[list[int]]


def generate_group(
    modulus: int, n: int, generators: Sequence[Sequence[Sequence[int]]]
) -> FiniteMatrixGroup:
    """Breadth-first closure from the identity under right multiplication."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    gens = []
    for g in generators:
        flat = _to_flat(g, modulus)
        d = det_int(_to_rows(flat, n)) % modulus
        if math.gcd(d, modulus) != 1:
            raise ValueError(f"generator with determinant {d} is not invertible mod {modulus}")
        gens.append(flat)
    ident = _to_flat(identity_matrix(n), modulus)
    index = {ident: 0}
    queue = [ident]  # the BFS queue is also the element list: nothing leaves it
    parent = [0]
    step = [-1]  # the identity is the root: no step leads to it
    products: list[int] = []  # products[k * r + s]: index of e_k * g_s
    r = len(gens)
    head = 0
    while head < len(queue):
        cur = queue[head]
        for g in gens:
            nxt = _mul(cur, g, n, modulus)
            k = index.get(nxt)
            if k is None:
                if len(queue) >= GROUP_BUDGET:
                    raise BudgetExceededError(
                        f"group enumeration exceeded budget {GROUP_BUDGET}; "
                        f"reached {len(queue)} elements"
                    )
                k = len(queue)
                index[nxt] = k
                queue.append(nxt)
                parent.append(head)
                step.append(len(products) - head * r)
            products.append(k)
        head += 1
    return FiniteMatrixGroup(
        modulus=modulus,
        n=n,
        generators=tuple(gens),
        elements=queue,
        right=tuple(products[s::r] for s in range(r)),
        parent=parent,
        step=step,
    )


def sl2_generators(modulus: int) -> list[list[list[int]]]:
    """S and T, which generate SL2(Z/m) for every m."""
    return [[[0, modulus - 1], [1, 0]], [[1, 1], [0, 1]]]


def sl2_group(modulus: int) -> FiniteMatrixGroup:
    return generate_group(modulus, 2, sl2_generators(modulus))


def _word(group: FiniteMatrixGroup, k: int) -> list[int]:
    """Generator steps s_1..s_L of the BFS tree path: elements[k] = g_s1 * ... * g_sL."""
    word = []
    while k:
        word.append(group.step[k])
        k = group.parent[k]
    word.reverse()
    return word


def _order_and_inverse(group: FiniteMatrixGroup, k: int, word: list[int]) -> tuple[int, int]:
    """The order of elements[k] and the index of its inverse, from the right tables.

    `word` is k's BFS word, so walking an index along it through the right
    tables multiplies by elements[k]: from k the walk visits the powers
    x, x^2, ... and stops at the identity (index 0); the power before it
    is x^-1.
    """
    right = group.right
    order, prev, cur = 1, 0, k
    while cur:
        prev = cur
        for s in word:
            cur = right[s][cur]
        order += 1
    return order, prev


def _conjugation_tables(group: FiniteMatrixGroup) -> list[list[int]]:
    """tables[s][k] is the index of g_s^-1 e_k g_s.

    The table of left multiplication by g^-1 follows the BFS tree,
    g^-1 e_k = (g^-1 e_parent[k]) g_step[k], from g^-1, the element g's
    right table sends to the identity; conjugation by g is that table
    followed by g's right table.
    """
    right = group.right
    links = list(zip(group.parent, group.step))[1:]
    tables = []
    for row in right:
        left = [row.index(0)]
        for p, s in links:
            left.append(right[s][left[p]])
        tables.append(list(map(row.__getitem__, left)))
    return tables


def conjugacy_classes(group: FiniteMatrixGroup) -> ClassData:
    """Orbit sweeps: class of x = orbit of x under conjugation by generators.

    The sweep runs on element indices and reads the conjugation tables;
    each orbit list it grows is kept as its class's member list.
    """
    conj = _conjugation_tables(group)
    class_ids = [-1] * group.order
    members: list[list[int]] = []
    for x in range(group.order):
        if class_ids[x] >= 0:
            continue
        cid = len(members)
        class_ids[x] = cid
        orbit = [x]
        for y in orbit:  # the loop also visits what it appends: a breadth-first sweep
            for table in conj:
                z = table[y]
                if class_ids[z] < 0:
                    class_ids[z] = cid
                    orbit.append(z)
        members.append(orbit)
    if sum(map(len, members)) != group.order:
        raise AssertionError("class sizes do not sum to the group order")
    return ClassData(class_ids=class_ids, members=members)


def dixon_prime(order: int, exponent: int) -> int:
    """Least prime l = 1 (mod exponent) with l > 2*sqrt(order)."""
    floor = 2 * math.isqrt(order)
    ell = exponent + 1
    while ell <= floor or prime_power(ell) != (ell, 1):
        ell += exponent
    return ell


def _class_row(
    group: FiniteMatrixGroup,
    classes: ClassData,
    words: list[list[int]],
    i: int,
    j: int,
    ell: int,
) -> list[int]:
    """Row j of M_i, where (M_i)[j][k] = a_ij^k = #{(x, y) in C_i x C_j : x*y = rep_k}, mod l.

    h_k a_ij^k and h_j a_{i*k}^j both count the pairs (x, z) in C_i x C_k
    with x^-1 z in C_j, so (M_i)[j][k] = (h_j/h_k) #{u in C_i : u rep_j in C_k}:
    |C_i| products u rep_j and no inversions.  None is multiplied out:
    `classes.members[i]` holds the element indices of C_i, and each is
    walked through the right tables along rep_j's BFS word `words[j]`;
    h_j and h_k are the lengths of the member lists.
    """
    members = classes.members
    cur = members[i]
    for s in words[j]:
        cur = list(map(group.right[s].__getitem__, cur))
    hj = len(members[j])
    row = [0] * len(members)
    for k, cnt in Counter(map(classes.class_ids.__getitem__, cur)).items():
        row[k] = hj * cnt // len(members[k]) % ell
    return row


def _through_pivots(
    basis: list[list[int]], pivots: list[int], rows: dict[int, list[int]], ell: int
) -> tuple[list[list[int]], Callable[[Sequence[int]], list[int]]]:
    """The action matrix of a class matrix on a subspace, and the subspace's embedding.

    `basis` is the identity at its pivot columns P (reduced-echelon form)
    and `rows[p]` is row p of the class matrix M.  M stabilizes the
    subspace, so the coordinates of M b_t in the basis are its entries at
    the pivots: act[s][t] = rows[p_s] . b_t = rows[p_s][p_t] plus the sum
    over the columns k outside P.  `embed(kvec)` is sum_t kvec[t] b_t,
    whose entry at p_t is kvec[t]; only the columns outside P take a dot
    product.  On the identity basis (P = every column) neither does any.
    """
    pivot_set = set(pivots)
    off = [k for k in range(len(basis[0])) if k not in pivot_set]
    off_rows = [[b[k] for k in off] for b in basis]
    act = []
    for p in pivots:
        row = rows[p]
        row_off = [row[k] for k in off]
        act.append([
            (row[q] + sum(map(operator.mul, row_off, b))) % ell
            for q, b in zip(pivots, off_rows)
        ])
    off_columns = list(zip(*off_rows))

    def embed(kvec: Sequence[int]) -> list[int]:
        vec = [0] * len(basis[0])
        for p, x in zip(pivots, kvec):
            vec[p] = x
        for k, col in zip(off, off_columns):
            vec[k] = sum(map(operator.mul, kvec, col)) % ell
        return vec

    return act, embed


class _Subspace(NamedTuple):
    """A subspace of the class algebra met by the split.

    `basis` is in reduced-echelon form with pivot columns `pivots`.  A
    subspace of dimension > 1 that a probed split makes carries its probe
    u = sum_t r_t b_t, every r_t a nonzero residue, built once when the
    subspace is made; the start space, the 1-dim subspaces and those of
    the exact fallback pass carry None.
    """

    basis: list[list[int]]
    pivots: list[int]
    probe: list[int] | None


def _probe(basis: list[list[int]], rng: random.Random, ell: int) -> list[int]:
    """sum_t r_t b_t over F_l, each r_t drawn from 1..l-1."""
    coeffs = [rng.randrange(1, ell) for _ in basis]
    return [sum(map(operator.mul, coeffs, col)) % ell for col in zip(*basis)]


def _probe_is_eigenvector(rows: dict[int, list[int]], subspace: _Subspace, ell: int) -> bool:
    """Whether M u is a multiple of the probe u, read at the pivots only.

    M stabilizes the subspace, so M u lies in it and is fixed by its
    entries at the pivots, where the basis is the identity: `dim` dot
    products rows[p] . u, against dim^2 for the action matrix.  If M acts
    as lambda*I, M u = lambda u; so False proves M is not scalar there.
    """
    u, pivots = subspace.probe, subspace.pivots
    image = [sum(map(operator.mul, rows[p], u)) % ell for p in pivots]
    coords = [u[p] for p in pivots]
    s = next(s for s, x in enumerate(coords) if x)  # u is not 0
    return all(y * coords[s] % ell == image[s] * x % ell for x, y in zip(coords, image))


def _eigenspaces(
    subspace: _Subspace, rows: dict[int, list[int]], ell: int, rng: random.Random | None
) -> list[_Subspace]:
    """The exact split of a subspace into the eigenspaces of one class matrix M.

    `rows[p]` is row p of M at each pivot p.  An action matrix lambda*I
    returns the subspace itself, which is what the split would return (one
    root, the whole kernel, the same echelon basis).  With `rng`, each new
    subspace of dimension > 1 gets its probe.
    """
    basis, pivots = subspace.basis, subspace.pivots
    dim = len(basis)
    act, embed = _through_pivots(basis, pivots, rows, ell)
    lam = act[0][0]
    if act == [[lam if r == t else 0 for t in range(dim)] for r in range(dim)]:
        return [subspace]
    parts = []
    for lam in poly_roots_mod_p(charpoly_mod_p(act, ell), ell):
        shifted = [[(act[r][t] - (lam if r == t else 0)) % ell for t in range(dim)]
                   for r in range(dim)]
        ambient = [embed(kvec) for kvec in kernel_mod_p(shifted, ell)]
        if not ambient:
            continue
        # the rref puts the new pivots on the leftmost classes, whose
        # representatives have the shortest BFS words: cheap class rows
        eig_basis, eig_pivots = rref_mod_p(ambient, ell)
        if len(eig_basis) != len(ambient):
            raise AssertionError("eigenspace basis degenerated")
        probe = _probe(eig_basis, rng, ell) if rng is not None and len(eig_basis) > 1 else None
        parts.append(_Subspace(eig_basis, eig_pivots, probe))
    if sum(len(part.basis) for part in parts) != dim:
        raise AssertionError("class matrix failed to diagonalize over F_l")
    return parts


def _split_pass(
    group: FiniteMatrixGroup,
    classes: ClassData,
    words: list[list[int]],
    ell: int,
    class_order: list[int],
    subspaces: list[_Subspace],
    rng: random.Random | None,
) -> list[_Subspace]:
    """Split the subspaces by the class matrices in `class_order`, one class at a time.

    The rows of M_i are built at the pivots of the subspaces of dimension
    > 1 only.  A subspace with a probe is split only when M_i moves the
    probe off its line; otherwise it is kept whole, for a later class or
    the fallback.  Every other subspace is split exactly.
    """
    for i in class_order:
        if all(len(sub.basis) == 1 for sub in subspaces):
            break
        rows: dict[int, list[int]] = {}  # rows of M_i built so far
        new_subspaces = []
        for sub in subspaces:
            if len(sub.basis) == 1:
                new_subspaces.append(sub)
                continue
            for p in sub.pivots:
                if p not in rows:
                    rows[p] = _class_row(group, classes, words, i, p, ell)
            if sub.probe is not None and _probe_is_eigenvector(rows, sub, ell):
                new_subspaces.append(sub)  # M_i may act as a scalar here: split later
                continue
            new_subspaces.extend(_eigenspaces(sub, rows, ell, rng))
        subspaces = new_subspaces
    return subspaces


def _second_orthogonality(
    table: list[list[int]], inverse_class: list[int], sizes: list[int], order: int, ell: int
) -> None:
    """Assert sum_chi chi(g_i) chi(g_{j*}) = delta_ij |G|/h_i mod l for every i, j.

    With a = j*, entry (i, j) is the sum S(i, a) of columns i and a of the
    table, which is symmetric, and its target |G|/h_i when a = i* (else 0)
    is symmetric too, since inverse classes have equal sizes.  So entry
    (i, j) and its mirror (j*, i*) are one sum against one target, and
    only S(i, a) with a >= i is computed.
    """
    columns = list(zip(*table))
    c = len(columns)
    for i, column in enumerate(columns):
        want = [0] * (c - i)
        if inverse_class[i] >= i:
            want[inverse_class[i] - i] = order // sizes[i] % ell
        if [sum(map(operator.mul, column, other)) % ell for other in columns[i:]] != want:
            raise AssertionError("character table fails the second orthogonality relation")


def character_degrees(group: FiniteMatrixGroup) -> DegreeCensus:
    """Burnside-Dixon character degrees, exact.

    1. split the class algebra over F_l into 1-dim common eigenspaces of
       the class matrices (`_split_pass`): a probed pass that splits a
       subspace by M_i only when its probe shows M_i is not scalar there,
       then, if a subspace of dimension > 1 is left, an exact pass over
       every class; each split reads the action matrix from the
       class-matrix rows at the subspace's pivot columns only
       (Schneider's refinement),
    2. read each eigenvector as the central character
       (omega_i = h_i chi(g_i)/d), already normalized: omega(1) = 1 puts
       its rref pivot on the identity class 0, where rref makes it 1,
    3. recover d from d^2 = |G| / sum_i omega_i omega_{i*} / h_i, unique
       below sqrt(|G|) because l > 2*sqrt(|G|),
    4. certify the table by the second orthogonality relation over F_l.
    """
    classes = conjugacy_classes(group)
    c = len(classes.members)
    if c > CLASS_BUDGET:
        raise BudgetExceededError(f"{c} conjugacy classes exceed the Dixon budget {CLASS_BUDGET}")
    order = group.order
    sizes = [len(m) for m in classes.members]
    reps = [m[0] for m in classes.members]
    words = [_word(group, k) for k in reps]
    # order is a class function, so the representatives' orders give the exponent
    walks = [_order_and_inverse(group, k, w) for k, w in zip(reps, words)]
    ell = dixon_prime(order, math.lcm(*(o for o, _ in walks)))

    by_size = sorted(range(1, c), key=lambda i: (sizes[i], i))
    start = [_Subspace(identity_matrix(c), list(range(c)), None)]
    subspaces = _split_pass(group, classes, words, ell, by_size, start, random.Random(PROBE_SEED))
    if any(len(sub.basis) != 1 for sub in subspaces):  # a probe missed a split: redo it exactly
        unprobed = [_Subspace(sub.basis, sub.pivots, None) for sub in subspaces]
        subspaces = _split_pass(group, classes, words, ell, by_size, unprobed, None)
    if any(len(sub.basis) != 1 for sub in subspaces):
        raise AssertionError("class algebra did not split into 1-dim eigenspaces")

    inverse_class = [classes.class_ids[inv] for _, inv in walks]
    h_inv = [pow(h % ell, -1, ell) for h in sizes]
    degrees: list[int] = []
    table: list[list[int]] = []  # chi(g_i) = d omega_i / h_i, mod l
    isq = math.isqrt(order)
    for sub in subspaces:
        omega = sub.basis[0]  # an rref row, or the trivial group's [1]
        if omega[0] != 1:
            raise AssertionError("eigenvector is not 1 on the identity class")
        total = 0
        for i in range(c):
            total = (total + omega[i] * omega[inverse_class[i]] % ell * h_inv[i]) % ell
        t = order % ell * pow(total, -1, ell) % ell
        deg = next((d for d in range(1, isq + 1) if d * d % ell == t), None)
        if deg is None:
            raise AssertionError("no admissible degree for an eigenvector")
        degrees.append(deg)
        table.append([deg * w % ell * hi % ell for w, hi in zip(omega, h_inv)])

    if len(degrees) != c:
        raise AssertionError("degree count != class count")
    if sum(d * d for d in degrees) != order:
        raise AssertionError("sum of squared degrees != group order")
    _second_orthogonality(table, inverse_class, sizes, order, ell)
    return DegreeCensus.from_pairs(((d, 1) for d in degrees), max(degrees))


def abelianization_order(group: FiniteMatrixGroup) -> int:
    """|G / [G,G]| via the normal closure of the generator commutators.

    H = <N> is closed by `generate_group`, under its budget.  H is normal
    once g^-1 h g lies in H for every h in N and every generator g of G:
    conjugation by g then maps the finite H into, hence onto, itself.
    Until then the conjugates outside H join N.  Cross-validates the
    Dixon output: the number of degree-1 characters equals this order.
    """
    n, m = group.n, group.modulus
    gens = group.generators
    inverses = [_inv(g, n, m) for g in gens]
    normal_gens = list(dict.fromkeys(
        _mul(_mul(ai, bi, n, m), _mul(a, b, n, m), n, m)
        for a, ai in zip(gens, inverses)
        for b, bi in zip(gens, inverses)
    ))
    while True:
        closure = generate_group(m, n, [_to_rows(h, n) for h in normal_gens])
        members = set(closure.elements)
        new = [conj for g, gi in zip(gens, inverses) for h in normal_gens
               if (conj := _mul(_mul(gi, h, n, m), g, n, m)) not in members]
        if not new:
            if group.order % closure.order:
                raise AssertionError("commutator subgroup order does not divide |G|")
            return group.order // closure.order
        normal_gens.extend(dict.fromkeys(new))


def _ad_diagonal(eigenvalues: Sequence[int], p: int) -> list[int]:
    """The diagonal of p*ad(x), x = diag(eigenvalues), on the root spaces, unreduced.

    Basis: E_st (s != t) in row-major order, then H_i = E_ii - E_{i+1,i+1}.
    ad(x) acts on each root space E_st by x_s - x_t and kills the Cartan
    part, so p*ad(x) is diagonal: p(x_s - x_t) for the i-th root, then
    d - 1 zeros.
    """
    x = eigenvalues
    return [p * (xs - xt) for s, xs in enumerate(x) for t, xt in enumerate(x) if s != t]


def _ad_matrix(diagonal: Sequence[int], d: int) -> list[dict[int, int]]:
    """The sparse rows of p*ad(x) from its `_ad_diagonal`: {i: y} per root, d - 1 empty rows."""
    return [{i: y} for i, y in enumerate(diagonal)] + [{} for _ in range(d - 1)]


def centralizer_indices(samples: Iterable[tuple[Sequence[int], int, int]]) -> list[int]:
    """Index of the centralizer of exp(p x) on L/p^k L, by Smith normal form, per sample.

    Each sample is (eigenvalues, p, k).  The Smith form of p*ad(x)
    (`_ad_matrix`), d = len(eigenvalues), gives its kernel mod p^k from
    the elementary divisors.  The p*ad normalization reflects that the
    group is exp(p L).  Each result is asserted to be a perfect square
    (its square root is the orbit dimension).

    The elimination reads p*ad(x) only mod p^k, and reordering the root
    basis conjugates the diagonal p*ad(x) by a permutation matrix, which
    leaves its Smith exponents unchanged.  So within one call each
    permutation class is eliminated once: the key is (p, k, the diagonal
    mod p^k sorted; its length fixes d), the matrix eliminated is that
    sorted diagonal, whichever sample came first, and the kernel
    exponents are kept in a dict that lives only as long as the call.
    """
    kernel_exps: dict[tuple[int, ...], int] = {}
    indices = []
    for eigenvalues, p, k in samples:
        d = len(eigenvalues)
        if d > ORACLE_DEGREE_BUDGET:  # bounds p*ad(x): d^2 - 1 sparse rows, at most d^2 - d entries
            raise BudgetExceededError(f"centralizer oracle supports d <= {ORACLE_DEGREE_BUDGET}")
        pk = p ** k
        key = (p, k, *sorted([y % pk for y in _ad_diagonal(eigenvalues, p)]))
        kernel_exp = kernel_exps.get(key)
        if kernel_exp is None:
            kernel_exp = kernel_exps[key] = sum(smith_exponents(_ad_matrix(key[2:], d), p, k))
        index_exp = (d * d - 1) * k - kernel_exp
        if index_exp % 2:
            raise AssertionError("centralizer index is not a perfect square")
        indices.append(p ** index_exp)
    return indices

import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_smith import dense_rows, dense_smith, sparse_rows, valuation
from repzeta import isotropic_census, linalg
from repzeta.finite_oracle import _ad_diagonal, _ad_matrix
from repzeta.isotropic_census import _intertwiner_system, build_census_family, conjugacy_key
from repzeta.linalg import (
    charpoly_mod_p,
    det_int,
    kernel_mod_p,
    mat_inv_mod,
    mat_mul_mod,
    poly_roots_mod_p,
    rref_mod_p,
    smith_exponents,
    smith_local,
)


def brute_charpoly(a, p):
    """Interpolation oracle: evaluate det(xI - A) at n+1 points, Lagrange."""
    n = len(a)

    def det_mod(rows):
        m = [r[:] for r in rows]
        det = 1
        for c in range(n):
            piv = next((r for r in range(c, n) if m[r][c] % p), None)
            if piv is None:
                return 0
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = -det
            det = det * m[c][c] % p
            inv = pow(m[c][c], -1, p)
            for r in range(c + 1, n):
                f = m[r][c] * inv % p
                if f:
                    for cc in range(c, n):
                        m[r][cc] = (m[r][cc] - f * m[c][cc]) % p
        return det % p

    def polymul(x, y):
        out = [0] * (len(x) + len(y) - 1)
        for i, xv in enumerate(x):
            for j, yv in enumerate(y):
                out[i + j] = (out[i + j] + xv * yv) % p
        return out

    xs = list(range(n + 1))
    ys = [det_mod([[((x if i == j else 0) - a[i][j]) % p for j in range(n)] for i in range(n)])
          for x in xs]
    coeffs = [0] * (n + 1)
    for i, xi in enumerate(xs):
        num = [1]
        den = 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = polymul(num, [(-xj) % p, 1])
            den = den * (xi - xj) % p
        scale = ys[i] * pow(den, -1, p) % p
        for idx, c in enumerate(num):
            coeffs[idx] = (coeffs[idx] + scale * c) % p
    return coeffs


def test_valuation():
    assert valuation(0, 3, 7) == 7
    assert valuation(9, 3, 7) == 2
    assert valuation(-54, 3, 7) == 3
    assert valuation(5, 3, 7) == 0


def test_det_int_against_permanent_expansion():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        # cofactor oracle
        def cof(rows):
            if len(rows) == 1:
                return rows[0][0]
            total = 0
            for j in range(len(rows)):
                minor = [[r[c] for c in range(len(rows)) if c != j] for r in rows[1:]]
                term = rows[0][j] * cof(minor)
                total += -term if j % 2 else term
            return total

        assert det_int(m) == cof(m)


def test_det_int_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for case in range(200):
        n = rng.randint(1, 5)
        # small entries make zero pivots and singular matrices common
        span = 1 if case % 3 == 0 else 9
        m = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        if case % 7 == 0 and n > 1:
            m[-1] = list(m[0])
        assert det_int(m) == sympy.Matrix(m).det(), m


def test_smith_local_against_sympy():
    """Local exponents are the p-valuations of the integer invariant factors, capped at M."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(11)
    for case in range(200):
        p = rng.choice((2, 3, 5, 7))
        precision = rng.randint(1, 4)
        n = rng.randint(1, 5)
        # powers of p in the entries make every exponent up to M occur
        m = [[rng.randint(-9, 9) * p ** rng.randint(0, precision) for _ in range(n)]
             for _ in range(n)]
        if case % 4 == 0 and n > 1:
            m[-1] = list(m[0])  # singular over Z
        elif case % 4 == 1:
            m = [[x * p for x in row] for row in m]
        factors = invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)
        expected = tuple(valuation(int(d), p, precision) for d in factors)
        assert smith_local(sparse_rows(m), p, precision).exponents == expected, (p, precision, m)


def test_mat_inv_mod_roundtrip():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 4)
        mod = rng.choice([5, 9, 27, 49])
        while True:
            m = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
            try:
                inv = mat_inv_mod(m, mod)
                break
            except ValueError:
                continue
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert mat_mul_mod(m, inv, mod) == ident
        assert mat_mul_mod(inv, m, mod) == ident


def test_mat_mul_mod_matches_triple_loop():
    """Random rectangular products, rows as tuples or lists, entries of either sign."""
    rng = random.Random(33)
    for _ in range(200):
        n, k, m = (rng.randint(1, 5) for _ in range(3))
        mod = rng.choice([2, 7, 9, 27, 125, 3 ** 10])
        a, b = ([rng.choice((list, tuple))(rng.randrange(-2 * mod, 2 * mod) for _ in range(cols))
                 for _ in range(rows)] for rows, cols in ((n, k), (k, m)))
        naive = [[0] * m for _ in range(n)]
        for i in range(n):
            for j in range(m):
                for t in range(k):
                    naive[i][j] += a[i][t] * b[t][j]
                naive[i][j] %= mod
        assert mat_mul_mod(a, b, mod) == naive, (a, b, mod)


def test_rref_and_kernel_mod_p():
    a = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    red, pivots = rref_mod_p(a, 5)
    assert len(red) == 2 and pivots == [0, 1]
    for vec in kernel_mod_p(a, 5):
        for row in a:
            assert sum(r * v for r, v in zip(row, vec)) % 5 == 0


def test_charpoly_against_interpolation_oracle():
    rng = random.Random(3)
    for _ in range(80):
        p = rng.choice([13, 73, 101])
        n = rng.randint(1, 7)
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        assert charpoly_mod_p(a, p) == brute_charpoly(a, p)


def test_poly_roots():
    # (x - 2)(x - 5) = x^2 - 7x + 10 over F_13
    assert poly_roots_mod_p([10, -7 % 13, 1], 13) == [2, 5]


def scan_roots(coeffs, p):
    """Oracle: evaluate the polynomial at every x in F_p at its full degree."""
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def poly_from_roots(lead, roots, p):
    """Ascending coefficients of lead * prod (X - r) over F_p."""
    poly = [lead % p]
    for r in roots:
        poly = [(a - r * b) % p for a, b in zip([0] + poly, poly + [0])]
    return poly


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 73, 337, 1093])
def test_poly_roots_match_full_scan(p):
    """The squarefree scan returns the full scan's list on split, non-split,
    non-monic, unreduced, zero and constant polynomials, and at degree >= p."""
    rng = random.Random(p)
    cases = [[], [0], [0, 0, 0], [5], [p], [3, 0, 0], [0, 1], [p - 1, 1]]
    for _ in range(150):
        # split, with repeated roots drawn from a few values, any leading coefficient
        pool = [rng.randrange(p) for _ in range(rng.randint(1, 4))]
        roots = [rng.choice(pool) for _ in range(rng.randint(1, 9))]
        split = poly_from_roots(rng.randrange(1, p), roots, p)
        cases.append(split)
        # times a random quadratic, irreducible or not, and with unreduced coefficients
        cases.append(poly_mul(split, [rng.randrange(p), rng.randrange(p), rng.randrange(1, p)], p))
        cases.append([c + p * rng.randint(-2, 2) for c in split])
        if p <= 13:  # degree >= p: the squarefree step is skipped
            high = [rng.randrange(p) for _ in range(rng.randint(1, 3))]
            cases.append(poly_from_roots(rng.randrange(1, p), high * (p // len(high) + 1), p))
        # random coefficients with zero leading terms
        cases.append([rng.randrange(p) for _ in range(rng.randint(0, 8))] + [0] * rng.randint(0, 2))
    for coeffs in cases:
        assert poly_roots_mod_p(coeffs, p) == scan_roots(coeffs, p), (coeffs, p)


def test_poly_roots_match_full_scan_on_dixon_charpolys(monkeypatch):
    """Every characteristic polynomial the Dixon split of SL2(Z/m), m <= 13, factors."""
    import repzeta.finite_oracle as finite_oracle

    seen = []

    def record(coeffs, p):
        seen.append((list(coeffs), p))
        return poly_roots_mod_p(coeffs, p)

    monkeypatch.setattr(finite_oracle, "poly_roots_mod_p", record)
    for m in range(2, 14):
        finite_oracle.character_degrees(finite_oracle.sl2_group(m))
    assert len(seen) > 50
    assert max(len(coeffs) for coeffs, _ in seen) > 10
    for coeffs, p in seen:
        assert poly_roots_mod_p(coeffs, p) == scan_roots(coeffs, p), (coeffs, p)


def columns(rows):
    return [list(col) for col in zip(*rows)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2),
    st.lists(st.integers(min_value=-40, max_value=40), min_size=9, max_size=9),
)
def test_smith_local_reconstruction(pidx, entries):
    """V is invertible and A*V = U^-1 * diag(p^e) for an invertible U.

    Column t of A*V is p^e_t times a vector c_t; the c_t with e_t < M are
    independent mod p, so they extend to an invertible U^-1.
    """
    p = (2, 3, 5)[pidx]
    precision = 4
    pm = p ** precision
    a = [entries[0:3], entries[3:6], entries[6:9]]
    smith = smith_local(sparse_rows(a), p, precision)
    assert list(smith.exponents) == sorted(smith.exponents)
    v = [list(r) for r in smith.right]
    assert det_int(v) % p  # invertible mod p, hence over Z/p^M
    quotients = []
    for e, col in zip(smith.exponents, columns(mat_mul_mod(a, v, pm))):
        assert all(x % p ** e == 0 for x in col)
        if e < precision:
            quotients.append([x // p ** e for x in col])
    reduced, _ = rref_mod_p(quotients, p)
    assert len(reduced) == len(quotients)


def test_kernel_generators_against_brute_force():
    """Brute-force kernel counts over small rings validate the Smith route.

    The kernel has p^(sum e) elements, and p^(M-e_t) times column t of V
    lies in it.
    """
    rng = random.Random(4)
    for _ in range(25):
        p = rng.choice([2, 3])
        precision = rng.choice([1, 2])
        pm = p ** precision
        n = rng.randint(1, 3)
        a = [[rng.randrange(pm) for _ in range(n)] for _ in range(n)]
        brute = 0
        for vec in product(range(pm), repeat=n):
            if all(sum(r * v for r, v in zip(row, vec)) % pm == 0 for row in a):
                brute += 1
        smith = smith_local(sparse_rows(a), p, precision)
        assert p ** sum(smith.exponents) == brute
        for e, col in zip(smith.exponents, columns(smith.right)):
            vec = [x * p ** (precision - e) for x in col]
            for row in a:
                assert sum(r * v for r, v in zip(row, vec)) % pm == 0


@st.composite
def local_square_matrices(draw, primes=(2, 3, 5), max_precision=3, max_n=5):
    """(p, M, A) with A square over Z/p^M, some rows zeroed, scaled by p or repeated."""
    p = draw(st.sampled_from(primes))
    precision = draw(st.integers(1, max_precision))
    pm = p ** precision
    n = draw(st.integers(1, max_n))
    entry = st.integers(0, pm - 1)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    index = st.integers(0, n - 1)
    for i in draw(st.lists(index, max_size=n)):
        rows[i] = [0] * n
    for i in draw(st.lists(index, max_size=n)):
        rows[i] = [p * x % pm for x in rows[i]]
    for i, j in draw(st.lists(st.tuples(index, index), max_size=n)):
        rows[i] = list(rows[j])
    return p, precision, rows


@settings(max_examples=120, deadline=None)
@given(local_square_matrices())
@example((3, 2, [[0, 0, 0], [0, 0, 0], [0, 0, 0]]))
@example((3, 2, [[1, 2, 4], [1, 2, 4], [1, 2, 4]]))
@example((5, 3, [[5, 10], [5, 10]]))
@example((2, 1, [[1]]))
def test_full_order_kernel_generators_independent_mod_p(case):
    """Kernel generators of order p^M are columns of the invertible Smith
    factor V, so they reduce mod p to independent vectors."""
    p, precision, rows = case
    smith = smith_local(sparse_rows(rows), p, precision)
    full = [col for e, col in zip(smith.exponents, columns(smith.right)) if e == precision]
    reduced, _ = rref_mod_p(full, p)
    assert len(reduced) == len(full)


def assert_matches_dense(rows, p, precision):
    """Sparse rows get the dense elimination's exponents and, entry by entry, its V."""
    exponents, right = dense_smith(dense_rows(rows), p, precision)
    smith = smith_local(rows, p, precision)
    assert smith.exponents == exponents, (p, precision, rows)
    assert smith.right == right, (p, precision, rows)
    assert smith_exponents(rows, p, precision) == exponents, (p, precision, rows)


@settings(max_examples=300, deadline=None)
@given(local_square_matrices(primes=(2, 3, 5, 7), max_precision=5, max_n=6))
@example((7, 5, [[0] * 6 for _ in range(6)]))
@example((2, 1, [[0]]))
@example((5, 4, [[25, 50, 0], [0, 125, 5], [625, 0, 0]]))
@example((3, 2, [[0, 3, 1], [0, 0, 0], [3, 1, 0]]))  # a unit after a non-unit in its row
@example((5, 3, [[25, 5, 0], [0, 0, 5], [5, 0, 0]]))  # ties of valuation 1 across rows
def test_smith_forms_match_dense_oracle(case):
    """`smith_local` (exponents and V) and `smith_exponents` against the dense elimination."""
    p, precision, rows = case
    assert_matches_dense(sparse_rows(rows), p, precision)


@st.composite
def ad_matrices(draw):
    """(p, k, p*ad(x)) for x = diag(eigenvalues) of trace 0, d = 2..4, differences of every valuation."""
    d = draw(st.integers(2, 4))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    k = draw(st.integers(1, 3))
    eigs = [p ** draw(st.integers(0, k)) * draw(st.integers(-p, p)) for _ in range(d - 1)]
    return p, k, _ad_matrix(_ad_diagonal(eigs + [-sum(eigs)], p), d)


@settings(max_examples=120, deadline=None)
@given(ad_matrices())
def test_smith_forms_match_dense_oracle_on_ad_matrices(case):
    """p*ad(x) is a diagonal with d - 1 zero rows: most rows are empty."""
    p, k, rows = case
    assert_matches_dense(rows, p, k)


def test_smith_forms_match_dense_oracle_on_census_systems(monkeypatch):
    """Every intertwiner system and every matrix `conjugacy_key` builds, as built, among the
    first 9 members of the (4,3,1,1) family: sparse rows, unreduced."""
    family = build_census_family(4, 3, 1, 1)
    p, N = family.q, family.modulus_exp
    members = [family.y_reps[i] for i in range(9)]
    for m1, m2 in product(members, repeat=2):
        assert_matches_dense(_intertwiner_system(m1, m2), p, N)
    built = []
    exponents = isotropic_census.smith_exponents
    monkeypatch.setattr(isotropic_census, "smith_exponents",
                        lambda rows, p, N: built.append(rows) or exponents(rows, p, N))
    for mat in members:
        conjugacy_key(mat, family)
    assert len(built) == 9 * (1 + family.m)
    assert any(x < 0 for rows in built for row in rows for x in row.values())
    for rows in built:
        assert_matches_dense(rows, p, N)


@pytest.fixture
def count_pows(monkeypatch):
    """Every `pow` call `linalg` makes, as its argument tuple; the Smith form's are its inverses."""
    calls = []

    def counting(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(linalg, "pow", counting, raising=False)
    return calls


def test_smith_forms_of_ad_matrices_take_no_inverse(count_pows):
    """p*ad(x) is a diagonal: no row below a pivot holds its column, and no pivot row another."""
    rng = random.Random(7)
    for _ in range(50):
        d, p, k = rng.randint(2, 4), rng.choice((2, 3, 5, 7)), rng.randint(1, 3)
        eigs = [rng.randrange(p ** (k + 2)) for _ in range(d - 1)]
        rows = _ad_matrix(_ad_diagonal(eigs + [-sum(eigs)], p), d)
        exponents = dense_smith(dense_rows(rows), p, k)[0]
        assert smith_exponents(rows, p, k) == smith_local(rows, p, k).exponents == exponents
    assert count_pows == []


@pytest.mark.parametrize(
    "rows,exponents_only,with_v",
    [
        ([{0: 1}, {0: 1}], 1, 1),  # the row below holds the pivot column
        ([{0: 1, 1: 1}, {1: 1}], 0, 1),  # the pivot row holds another column: V needs w
        ([{0: 3}, {1: 1}], 0, 0),
    ],
    ids=["row-below", "column-op", "neither"],
)
def test_smith_forms_take_the_pivot_inverse_only_when_used(count_pows, rows, exponents_only,
                                                           with_v):
    smith_exponents(rows, 3, 2)
    assert len(count_pows) == exponents_only
    count_pows.clear()
    smith_local(rows, 3, 2)
    assert len(count_pows) == with_v
    assert all(args[1:] == (-1, 9) for args in count_pows)


@pytest.mark.parametrize(
    "rows",
    [[{0: 1, 2: 1}, {1: 1}], [{-1: 1}, {}], [{0: 1}, {1: 2, 5: 0}], [{}, {}, {-3: 3}]],
    ids=["past-n", "negative", "past-n-zero", "negative-last-row"],
)
def test_smith_forms_reject_columns_out_of_range(rows):
    with pytest.raises(ValueError) as full:
        smith_local(rows, 3, 2)
    with pytest.raises(ValueError) as exponents_only:
        smith_exponents(rows, 3, 2)
    assert str(full.value) == str(exponents_only.value)

import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repzeta.linalg import (
    charpoly_mod_p,
    det_int,
    kernel_generators_local,
    kernel_mod_p,
    mat_inv_mod,
    mat_mul_mod,
    poly_roots_mod_p,
    rref_mod_p,
    smith_local,
    valuation,
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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2),
    st.lists(st.integers(min_value=-40, max_value=40), min_size=9, max_size=9),
)
def test_smith_local_reconstruction(pidx, entries):
    p = (2, 3, 5)[pidx]
    precision = 4
    pm = p ** precision
    a = [entries[0:3], entries[3:6], entries[6:9]]
    smith = smith_local(a, p, precision)
    ua = mat_mul_mod([list(r) for r in smith.left], a, pm)
    uav = mat_mul_mod(ua, [list(r) for r in smith.right], pm)
    expected = [
        [(p ** smith.exponents[i] if i == j else 0) % pm for j in range(3)] for i in range(3)
    ]
    assert uav == expected
    assert list(smith.exponents) == sorted(smith.exponents)
    # transforms invertible over Z/p^M
    mat_inv_mod([list(r) for r in smith.left], pm)
    mat_inv_mod([list(r) for r in smith.right], pm)


def test_kernel_generators_against_brute_force():
    """Brute-force kernel counts over small rings validate the Smith route."""
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
        gens = kernel_generators_local(a, p, precision)
        size = 1
        for e, _ in gens:
            size *= p ** e
        assert size == brute
        for _, vec in gens:
            for row in a:
                assert sum(r * v for r, v in zip(row, vec)) % pm == 0


@st.composite
def local_square_matrices(draw):
    """(p, M, A) with A square over Z/p^M, some rows zeroed, scaled by p or repeated."""
    p = draw(st.sampled_from((2, 3, 5)))
    precision = draw(st.integers(1, 3))
    pm = p ** precision
    n = draw(st.integers(1, 5))
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
    """Generators of order p^M are columns of the invertible Smith factor V,
    so they reduce mod p to independent vectors."""
    p, precision, rows = case
    full = [vec for e, vec in kernel_generators_local(rows, p, precision) if e == precision]
    reduced, _ = rref_mod_p(full, p)
    assert len(reduced) == len(full)

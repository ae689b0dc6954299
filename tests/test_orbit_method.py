import random
from itertools import product

import pytest

from dense_smith import dense_rows, sparse_rows
from paper_checks import census_vs_bound, chain_count_bound, kernel_cokernel_size
from paper_checks import partition_by_valuation, stage_summary
from repzeta import finite_oracle
from repzeta.errors import BudgetExceededError
from repzeta.finite_oracle import ORACLE_DEGREE_BUDGET, centralizer_indices
from repzeta.linalg import smith_exponents, valuation
from repzeta.orbit_method import make_orbit_datum, orbit_dimension, psi_chain


def random_datum(rng, d=None, p=None, k=None):
    d = d or rng.choice((2, 3))
    p = p or rng.choice((3, 5, 7))
    k = k or rng.randint(1, 3)
    mod = p ** (k + 2)
    eigs = [rng.randrange(mod) for _ in range(d - 1)]
    eigs.append((-sum(eigs)) % mod)
    return make_orbit_datum(d, p, k, eigs)


def test_psi_chain_examples():
    # unit difference: empty until the last stage
    assert psi_chain((1, -1), 2, 3, 2) == ((0, 0), (1, 1))
    # i = k always captures everything
    assert psi_chain((1, 2), 2, 3, 1) == ((1, 1),)
    # (0, 5, -5) over p=5: every difference has valuation 1, so all roots
    # enter at stage i = 2 (val >= k - i with k = 3)
    assert psi_chain((0, 5, -5), 3, 5, 3) == ((0, 0), (2, 3), (2, 3))


def test_psi_chain_validation():
    with pytest.raises(ValueError):
        psi_chain((1, 1), 2, 3, 1)  # nonzero trace
    with pytest.raises(ValueError):
        psi_chain((1, -1, 0), 2, 3, 1)  # wrong length


def test_psi_chain_monotone_and_entry_stage():
    rng = random.Random(5)
    for _ in range(60):
        datum = random_datum(rng)
        kappas = [kappa for _, kappa in datum.chain]
        assert kappas == sorted(kappas)
        assert datum.chain[-1] == (datum.d - 1, datum.d * (datum.d - 1) // 2)
        # every root enters exactly at stage max(1, k - val(difference))
        for s in range(datum.d):
            for t in range(s + 1, datum.d):
                val = valuation(datum.eigenvalues[s] - datum.eigenvalues[t], datum.p, datum.k)
                entry = max(1, datum.k - val)
                present = [kappa for _, kappa in datum.chain]
                for i in range(1, datum.k + 1):
                    in_stage = val >= datum.k - i
                    assert in_stage == (i >= entry)


def block_chain(eigenvalues, d, p, k):
    """psi_chain's stages from the actual blocks of each stage partition."""
    return tuple(
        stage_summary(partition_by_valuation(eigenvalues, p, k - i), d) for i in range(1, k + 1)
    )


def test_psi_chain_matches_block_partitions():
    """Every trace-zero vector mod p^k, and a random lift of each mod p^(k+2)."""
    rng = random.Random(17)
    for d, p, k in product((2, 3), (2, 3, 5), (1, 2, 3)):
        mod, lift = p ** k, p ** (k + 2)
        for prefix in product(range(mod), repeat=d - 1):
            vec = prefix + (-sum(prefix) % mod,)
            assert psi_chain(vec, d, p, k) == block_chain(vec, d, p, k), (vec, p, k)
            lifted = [x + mod * rng.randrange(p * p) for x in prefix]
            lifted.append(-sum(lifted) % lift)
            datum = make_orbit_datum(d, p, k, lifted)
            assert datum.chain == block_chain(datum.eigenvalues, d, p, k), (lifted, p, k)


def test_orbit_dimension_examples():
    assert orbit_dimension(make_orbit_datum(2, 3, 1, (1, -1))) == 1
    datum = make_orbit_datum(2, 3, 2, (1, -1))
    assert orbit_dimension(datum) == 3
    assert centralizer_indices([(datum.eigenvalues, 3, 2)]) == [9]
    # val_5(2 - (-3)) = 1, so the deficiency sum is 2, not 3
    datum2 = make_orbit_datum(3, 5, 2, (1, 2, -3))
    assert orbit_dimension(datum2) == 25
    assert centralizer_indices([(datum2.eigenvalues, 5, 2)]) == [5 ** 4]


def test_a1_closed_form():
    """For d = 2 the exponent is max(0, k - 1 - val(difference))."""
    rng = random.Random(11)
    for _ in range(80):
        p = rng.choice((3, 5))
        k = rng.randint(1, 4)
        mod = p ** (k + 2)
        a = rng.randrange(mod)
        datum = make_orbit_datum(2, p, k, (a, (-a) % mod))
        val = valuation(2 * a, p, k)
        assert orbit_dimension(datum) == p ** max(0, k - 1 - val)


def assert_dimension_formula_matches_oracle(datum):
    dim = orbit_dimension(datum)
    [index] = centralizer_indices([(datum.eigenvalues, datum.p, datum.k)])
    assert dim * dim == index
    # equivalent statement: dim^2 * |ker| = p^((d^2-1) k)
    full = datum.p ** ((datum.d ** 2 - 1) * datum.k)
    assert dim * dim * (full // index) == full


def test_dimension_formula_oracle_equality_50_random():
    rng = random.Random(6)
    for _ in range(50):
        assert_dimension_formula_matches_oracle(random_datum(rng))


def test_dimension_formula_oracle_equality_50_random_d4():
    """The largest degree the oracle accepts, d = ORACLE_DEGREE_BUDGET = 4."""
    rng = random.Random(8)
    for _ in range(50):
        datum = random_datum(rng, d=ORACLE_DEGREE_BUDGET)
        assert_dimension_formula_matches_oracle(datum)


def dense_ad_matrix(x, p):
    """p*ad(x) on the trace-zero lattice for a d x d integer matrix x, from matrix brackets.

    Basis: E_st (s != t) in row-major order, then H_i = E_ii - E_{i+1,i+1};
    column j holds the coordinates of p[x, b_j].
    """
    d = len(x)
    dim = d * d - 1
    offdiag = [(s, t) for s in range(d) for t in range(d) if s != t]
    matrix = [[0] * dim for _ in range(dim)]
    for col in range(dim):
        mat = [[0] * d for _ in range(d)]
        if col < len(offdiag):
            s, t = offdiag[col]
            mat[s][t] = 1
        else:
            i = col - len(offdiag)
            mat[i][i] = 1
            mat[i + 1][i + 1] = -1
        bracket = [[a - b for a, b in zip(row, other)]
                   for row, other in zip(mat_mul(x, mat), mat_mul(mat, x))]
        assert sum(bracket[i][i] for i in range(d)) == 0
        coords = [bracket[s][t] for s, t in offdiag]
        partial = 0
        for i in range(d - 1):
            partial += bracket[i][i]
            coords.append(partial)
        for row in range(dim):
            matrix[row][col] = p * coords[row]
    return matrix


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def diag(values):
    return [[v if s == t else 0 for t in range(len(values))] for s, v in enumerate(values)]


def test_ad_matrix_matches_dense_construction():
    rng = random.Random(31)
    for d, p, k in product((2, 3, 4), (2, 3, 5, 7), (1, 2, 3)):
        for _ in range(3):
            datum = random_datum(rng, d=d, p=p, k=k)
            dense = dense_ad_matrix(diag(datum.eigenvalues), datum.p)
            diagonal = finite_oracle._ad_diagonal(datum.eigenvalues, datum.p)
            assert dense_rows(finite_oracle._ad_matrix(diagonal, d)) == dense


def random_sl_pair(rng, d, steps):
    """(g, g^-1) for g in SL_d(Z), a product of `steps` elementary matrices I + c E_st."""
    g, g_inv = diag([1] * d), diag([1] * d)
    for _ in range(steps):
        s, t = rng.sample(range(d), 2)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        for row in g:  # g <- g (I + c E_st): column t gains c * column s
            row[t] += c * row[s]
        g_inv[s] = [a - c * b for a, b in zip(g_inv[s], g_inv[t])]  # (I - c E_st) g^-1
    return g, g_inv


def test_conjugated_dense_ad_matrix_has_the_oracle_smith_exponents():
    """p*ad(g x g^-1), built densely, against the oracle's diagonal p*ad(x).

    Ad(g) maps the trace-zero lattice onto itself for g in SL_d(Z), so the
    two matrices differ by unimodular changes of basis and share their
    Smith exponents; the conjugated one is dense, so its exponents are
    not read off a diagonal.
    """
    rng = random.Random(43)
    dense_cases, exponents = 0, set()
    for d, p, k in product((2, 3, 4), (3, 5, 7), (1, 2, 3)):
        for _ in range(4):
            # multiples of p^j, j <= k, so the differences take every valuation
            eigs = [p ** rng.randint(0, k) * rng.randint(-p, p) for _ in range(d - 1)]
            eigs.append(-sum(eigs))
            g, g_inv = random_sl_pair(rng, d, 3 * d)
            assert mat_mul(g, g_inv) == diag([1] * d)
            y = mat_mul(mat_mul(g, diag(eigs)), g_inv)
            dense_cases += any(y[s][t] for s in range(d) for t in range(d) if s != t)
            rows = finite_oracle._ad_matrix(finite_oracle._ad_diagonal(eigs, p), d)
            expected = smith_exponents(rows, p, k)
            assert smith_exponents(sparse_rows(dense_ad_matrix(y, p)), p, k) == expected, (eigs, g)
            exponents.add((d, p, k, expected))
    assert dense_cases > 90  # most conjugates are not diagonal
    assert len(exponents) > 40  # and data of one (d, p, k) differ in their exponents


def trace_zero_batch():
    """Every trace-zero vector mod p^k for d = 2, 3, p = 3, 5, k = 1, 2, each with a lift.

    The lift adds p^k * r to each entry (r < p^2) and stays trace-zero mod
    p^(k+2), so its p*ad(x) differs unreduced but agrees mod p^k; the batch
    is shuffled so that repeated reduced matrices do not sit side by side.
    """
    rng = random.Random(23)
    batch = []
    for d, p, k in product((2, 3), (3, 5), (1, 2)):
        mod, lift = p ** k, p ** (k + 2)
        for prefix in product(range(mod), repeat=d - 1):
            batch.append((prefix + (-sum(prefix) % mod,), p, k))
            lifted = [x + mod * rng.randrange(p * p) for x in prefix]
            batch.append((tuple(lifted) + (-sum(lifted) % lift,), p, k))
    rng.shuffle(batch)
    return batch


def test_centralizer_indices_batch_matches_one_call_per_sample():
    batch = trace_zero_batch()
    single = [index for sample in batch for index in centralizer_indices([sample])]
    assert centralizer_indices(batch) == single
    assert len(set(single)) > 5  # the batch is not one index repeated


def reduced(rows, p, k):
    """(p, k, the dense matrix of `rows` mod p^k), hashable."""
    return p, k, tuple(map(tuple, dense_rows(rows, p ** k)))


def test_centralizer_indices_eliminates_each_reduced_matrix_once_per_call(monkeypatch):
    """One `smith_exponents` call per distinct (p, k, p*ad(x) mod p^k) of a call; none kept."""
    batch = trace_zero_batch()
    ad = finite_oracle._ad_matrix
    distinct = {reduced(ad(finite_oracle._ad_diagonal(e, p), len(e)), p, k) for e, p, k in batch}
    assert len(distinct) < len(batch) // 2  # the batch repeats reduced matrices
    eliminated = []

    def counting(rows, p, precision):
        eliminated.append(reduced(rows, p, precision))
        return smith_exponents(rows, p, precision)

    monkeypatch.setattr(finite_oracle, "smith_exponents", counting)
    first = centralizer_indices(batch)
    assert len(eliminated) == len(distinct)
    assert set(eliminated) == distinct
    second = centralizer_indices(batch)
    assert second == first
    assert len(eliminated) == 2 * len(distinct)  # the second call eliminates them all again
    assert set(eliminated[len(distinct):]) == distinct


def test_oracle_budget():
    datum = make_orbit_datum(5, 3, 1, (1, 2, 3, 4, (-10) % 27))
    with pytest.raises(BudgetExceededError):
        centralizer_indices([(datum.eigenvalues, datum.p, datum.k)])
    with pytest.raises(BudgetExceededError):  # checked per sample, not only on the first
        centralizer_indices([((1, -1), 3, 1), (datum.eigenvalues, datum.p, datum.k)])


def test_chain_count_bound_examples():
    assert chain_count_bound(((0, 0), (1, 1)), 2, 3) == 3
    assert chain_count_bound(((1, 1), (1, 1)), 2, 5) == 1
    assert chain_count_bound(((1, 1), (2, 3)), 3, 3) == 3


def test_kernel_cokernel_examples():
    p = 5
    assert kernel_cokernel_size([[p, 0], [0, p * p]], p, 3) == (p ** 3, p ** 3)
    assert kernel_cokernel_size([[1, 0], [0, 1]], p, 4) == (1, 1)
    with pytest.raises(ValueError):
        kernel_cokernel_size([[1, 1], [1, 1]], p, 2)


def test_kernel_cokernel_random_and_brute():
    rng = random.Random(7)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 6)
        p = rng.choice((2, 3, 5))
        r = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        try:
            ker, cok = kernel_cokernel_size(mat, p, r)
        except ValueError:
            continue
        assert ker == cok
        checked += 1
        # brute-force the kernel count when the ring is small enough
        mod = p ** r
        if mod ** n <= 700:
            brute = sum(
                1
                for vec in product(range(mod), repeat=n)
                if all(sum(a * v for a, v in zip(row, vec)) % mod == 0 for row in mat)
            )
            assert brute == ker


def test_census_examples():
    groups = census_vs_bound(2, 3, 2)
    assert sum(g.size for g in groups) == 9
    assert all(g.size <= g.bound for g in groups)
    summaries = {g.stages[1:] for g in groups}
    assert ((0, 0), (1, 1)) in summaries and ((1, 1), (1, 1)) in summaries
    # the nonzero vectors share the chain with stage-0 empty; bound q = 3
    nonzero = next(g for g in census_vs_bound(2, 3, 1) if g.stages[0] == (0, 0))
    assert nonzero.size == 2 and nonzero.bound == 3
    # p | d: the all-congruent group is trace-degenerate and needs the exact bound
    degen = [g for g in census_vs_bound(3, 3, 1) if g.trace_degenerate]
    assert degen and all(g.size <= g.bound for g in degen)
    assert any(g.size > g.bound_rank_only for g in degen)


def test_census_grid_all_within():
    grid = [
        (2, 3, 1), (2, 3, 2), (2, 3, 3), (2, 5, 2), (2, 7, 2),
        (3, 3, 1), (3, 3, 2), (3, 5, 1), (3, 5, 2), (3, 7, 1),
    ]
    for d, p, k in grid:
        groups = census_vs_bound(d, p, k)
        assert all(g.size <= g.bound for g in groups), (d, p, k)
        assert sum(g.size for g in groups) == p ** (k * (d - 1))

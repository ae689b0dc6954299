import math
import random
from itertools import combinations, product

import pytest

from repzeta.isotropic_census import (
    GammaSeries,
    are_conjugate,
    block_structure_ok,
    build_census_family,
    conjugacy_module,
    distinct_class_count,
    gamma_estimate,
)
from repzeta.linalg import det_int, rref_mod_p, valuation


@pytest.fixture(scope="module")
def family4311():
    return build_census_family(4, 3, 1, 1)


@pytest.fixture(scope="module")
def partition4311(family4311):
    return distinct_class_count(family4311)


def test_family_parameters(family4311):
    fam = family4311
    assert fam.modulus_exp == 5
    assert len(fam.y_reps) == 81  # q^((m^2/4) k)
    diag = fam.x_diag + fam.z_diag
    for a, b in combinations(diag, 2):
        assert valuation(a - b, 3, fam.t + 1) <= fam.t


def test_family_4321_shape():
    fam = build_census_family(4, 3, 2, 1)
    assert fam.modulus_exp == 8
    assert len(fam.y_reps) == 3 ** 8


def test_family_m2_edge():
    fam = build_census_family(2, 3, 2, 1)
    assert fam.class_count_floor() == 1
    assert len(fam.y_reps) == 9


def test_family_rejections():
    with pytest.raises(ValueError):
        build_census_family(4, 3, 1, 2)  # k < t
    with pytest.raises(ValueError):
        build_census_family(3, 3, 1, 1)  # odd m
    with pytest.raises(ValueError):
        build_census_family(4, 9, 1, 1)  # q not prime
    with pytest.raises(ValueError):
        build_census_family(10, 3, 1, 1)  # cannot fit 10 residues mod 3^2


def test_determinants_are_one(family4311):
    # det of a block-triangular member is independent of Y; verify honestly
    mod = family4311.modulus
    for mat in (family4311.y_reps[0], family4311.y_reps[40], family4311.y_reps[80]):
        assert det_int([list(r) for r in mat]) % mod == 1


def test_identity_module_is_full():
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    module = conjugacy_module(ident, ident, 3, 5)
    assert len(module.generators) == 16
    assert set(module.exponents) == {5}


def test_self_conjugacy(family4311):
    result = are_conjugate(family4311.y_reps[7], family4311.y_reps[7], 3, 5)
    assert result.status == "conjugate"


def test_explicit_diagonal_conjugator(family4311):
    """Y' = A Y D^(-1) with diagonal units A, D gives conjugate members."""
    fam = family4311
    mod = fam.modulus
    half = fam.m // 2
    a_diag, d_diag = (1, 2), (2, 2)
    d_inv = tuple(pow(x, -1, 3) for x in d_diag)
    for idx in (1, 13, 50):
        mat = fam.y_reps[idx]
        y = [[mat[r][half + c] % 3 for c in range(half)] for r in range(half)]
        y_prime = [
            [(a_diag[r] * y[r][c] * d_inv[c]) % 3 for c in range(half)] for r in range(half)
        ]
        # locate the representative whose Y block reduces to y_prime mod 3
        target = None
        for j, cand in enumerate(fam.y_reps):
            block = [[cand[r][half + c] % 3 for c in range(half)] for r in range(half)]
            if block == y_prime:
                target = j
                break
        assert target is not None
        result = are_conjugate(fam.y_reps[idx], fam.y_reps[target], 3, 5)
        assert result.status == "conjugate"
        assert block_structure_ok(result.witness, fam)


def test_non_conjugate_pair_has_no_invertible_intertwiner(family4311, partition4311):
    """For members of different classes the module's mod-p part misses GL."""
    fam = family4311
    assignments = partition4311.assignments
    first_of = {}
    pair = None
    for idx, cid in enumerate(assignments):
        if cid in first_of:
            continue
        if first_of:
            pair = (next(iter(first_of.values())), idx)
            break
        first_of[cid] = idx
    assert pair is not None
    a, b = pair
    result = are_conjugate(fam.y_reps[a], fam.y_reps[b], 3, 5)
    assert result.status == "not_conjugate"
    module = conjugacy_module(fam.y_reps[a], fam.y_reps[b], 3, 5)
    # intertwiners exist (the exponent pattern is nonzero) but none is invertible
    assert module.exponents
    for gen in module.full_order_generators():
        assert det_int(gen) % 3 == 0


def test_full_order_generators_independent_mod_p(family4311):
    """The scan's span dimension is the generator count: no rank check needed."""
    fam = family4311
    rng = random.Random(23)
    pairs = [tuple(rng.sample(range(81), 2)) for _ in range(36)]
    for a, b in pairs + [(a, a) for a, _ in pairs[:4]]:
        full = conjugacy_module(fam.y_reps[a], fam.y_reps[b], 3, 5).full_order_generators()
        reduced, _ = rref_mod_p([[x for row in g for x in row] for g in full], 3)
        assert len(reduced) == len(full)


def test_symmetry_and_transitivity(family4311):
    rng = random.Random(17)
    picks = rng.sample(range(81), 8)
    fam = family4311
    statuses = {}
    for a, b in combinations(picks, 2):
        r1 = are_conjugate(fam.y_reps[a], fam.y_reps[b], 3, 5)
        r2 = are_conjugate(fam.y_reps[b], fam.y_reps[a], 3, 5)
        assert r1.status == r2.status
        statuses[(a, b)] = r1.status

    def status(a, b):
        return statuses[(a, b) if (a, b) in statuses else (b, a)]

    for a, b, c in combinations(picks, 3):
        if status(a, b) == "conjugate" and status(b, c) == "conjugate":
            assert status(a, c) == "conjugate"


def scaling_orbit_count(p, half):
    """Burnside count of Y (mod p) orbits under Y -> A Y D^(-1), diagonal units.

    This is the independent oracle for the class count of the k = 1
    family: the block deductions force conjugate members into one
    scaling orbit, and diagonal conjugators realize every orbit merge.
    """
    units = [u for u in range(1, p)]
    total = 0
    count = 0
    for a in product(units, repeat=half):
        for d in product(units, repeat=half):
            fixed = 1
            for r in range(half):
                for c in range(half):
                    scale = a[r] * pow(d[c], -1, p) % p
                    fixed *= p if scale == 1 else 1
            total += fixed
            count += 1
    return total // count


def test_full_partition_certificate(family4311, partition4311):
    report = partition4311
    assert report.exhaustive and report.unknown_pairs == 0
    assert report.bound == 3
    assert report.classes_found >= report.bound
    assert report.certified
    # independent oracle: orbits of the diagonal scaling action
    assert report.classes_found == scaling_orbit_count(3, 2)


def test_partition_witness_blocks(family4311, partition4311):
    fam = family4311
    assert partition4311.witnesses
    for _, _, witness in partition4311.witnesses:
        assert block_structure_ok(witness, fam)


def test_small_families_certified():
    for q in (3, 5):
        fam = build_census_family(2, q, 1, 1)
        report = distinct_class_count(fam)
        assert report.certified
        assert report.classes_found >= 1 == report.bound


def test_subsample_not_certified(family4311):
    report = distinct_class_count(family4311, sample=range(10))
    assert not report.exhaustive
    assert not report.certified


def test_rank_budget_yields_unknown(family4311, partition4311):
    """Starving the scan budget must surface an explicit unknown, not a guess."""
    fam = family4311
    # find a decided-conjugate pair of distinct members from the partition
    idx, rep_idx, _ = next(w for w in partition4311.witnesses if w[0] != w[1])
    full = are_conjugate(fam.y_reps[rep_idx], fam.y_reps[idx], 3, 5)
    assert full.status == "conjugate"
    starved = are_conjugate(fam.y_reps[rep_idx], fam.y_reps[idx], 3, 5, rank_budget=1)
    assert starved.status == "unknown"
    assert starved.witness is None
    # and a starved census run is flagged, never silently certified
    report = distinct_class_count(fam, sample=range(12), rank_budget=1)
    assert report.unknown_pairs > 0
    assert not report.certified


def test_gamma_series_from_oracle_counts(sl2_groups, sl2_z27_classes):
    """Wire the brute-force class counts straight into the gamma pipeline."""
    from repzeta.finite_oracle import conjugacy_classes
    from repzeta.rootsys import build_root_datum

    counts = tuple(
        (k, n)
        for k, n in (
            (1, conjugacy_classes(sl2_groups[3]).count),
            (2, conjugacy_classes(sl2_groups[9]).count),
            (3, sl2_z27_classes.count),
        )
    )
    assert counts == ((1, 7), (2, 25), (3, 79))
    delta = build_root_datum("A", 1).dimension
    est = gamma_estimate(GammaSeries(q=3, delta=delta, counts=counts))
    # consistent with the known local abscissa 1 up to estimator slack
    assert 0.95 <= est.gamma <= 1.15
    assert 0.9 <= est.crude_rho_bound <= 1.2


def test_gamma_estimates():
    series = GammaSeries(q=3, delta=3, counts=((1, 7), (2, 25), (3, 79)))
    est = gamma_estimate(series)
    assert est.gamma == pytest.approx(math.log(79 / 25) / math.log(3), rel=1e-12)
    assert est.gamma == pytest.approx(1.047, abs=2e-3)
    assert est.crude_rho_bound == pytest.approx(1.073, abs=2e-3)
    two = gamma_estimate(GammaSeries(q=3, delta=3, counts=((1, 7), (2, 25))))
    assert two.gamma == pytest.approx(math.log(25 / 7) / math.log(3), rel=1e-12)
    const = gamma_estimate(GammaSeries(q=3, delta=3, counts=((1, 5), (2, 5))))
    assert const.gamma == 0.0 and const.crude_rho_bound == 0.0
    with pytest.raises(ValueError):
        gamma_estimate(GammaSeries(q=3, delta=3, counts=((1, 7),)))
    with pytest.raises(ValueError):
        GammaSeries(q=3, delta=3, counts=((1, 7), (2, 5)))

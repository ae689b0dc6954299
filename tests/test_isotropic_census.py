import json
import math
import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_smith import dense_intertwiner_system, dense_rows, dense_shift, valuation
from paper_checks import GammaSeries, gamma_estimate
from repzeta import isotropic_census
from repzeta.cli import main
from repzeta.isotropic_census import (
    FamilyMembers,
    are_conjugate,
    block_structure_ok,
    build_census_family,
    conjugacy_key,
    conjugacy_module,
    distinct_class_count,
)
from repzeta.errors import BudgetExceededError
from repzeta.linalg import det_int, mat_inv_mod, mat_mul_mod, rref_mod_p, smith_local

# the census8 jobs of the certify benchmark workload: (m, q, k, t) and sample size
CERTIFY_CENSUS8 = (
    ((4, 3, 1, 1), 20),
    ((4, 5, 1, 1), 15),
    ((4, 7, 1, 1), 5),
    ((4, 3, 2, 1), 10),
    ((2, 3, 2, 1), None),
    ((2, 3, 3, 1), None),
    ((2, 5, 2, 1), None),
    ((2, 7, 1, 1), None),
)


@lru_cache(maxsize=None)
def cached_family(m, q, k, t):
    return build_census_family(m, q, k, t)


@lru_cache(maxsize=None)
def cached_partition(m, q, k, t):
    """The exhaustive class count of a family."""
    return distinct_class_count(cached_family(m, q, k, t))


@pytest.fixture(scope="module")
def family4311():
    return cached_family(4, 3, 1, 1)


@pytest.fixture(scope="module")
def partition4311():
    return cached_partition(4, 3, 1, 1)


def test_family_parameters(family4311):
    fam = family4311
    assert fam.modulus_exp == 5
    assert len(fam.y_reps) == 81  # q^((m^2/4) k)
    diag = fam.x_diag + fam.z_diag
    for a, b in combinations(diag, 2):
        assert valuation(a - b, 3, fam.t + 1) <= fam.t


@pytest.mark.parametrize(
    "params, diagonal",
    [((2, 3, 1, 1), (1, 20)),
     ((4, 3, 1, 1), (0, 1, 3, 26)),
     ((4, 5, 1, 1), (0, 1, 2, 407)),
     ((4, 3, 2, 1), (0, 1, 2, 303))],
    ids=["2311", "4311", "4511", "4321"],
)
def test_census_diagonals_are_pinned(params, diagonal):
    """The first admissible diagonal: lexicographic candidates, the last entry forced by det = 1.

    A p^t modulus in the pairwise check, or no pairwise check at all,
    picks another diagonal (or none) at one of these parameters.
    """
    family = cached_family(*params)
    assert family.x_diag + family.z_diag == diagonal


def test_family_4321_shape():
    fam = build_census_family(4, 3, 2, 1)
    assert fam.modulus_exp == 8
    assert len(fam.y_reps) == 3 ** 8


def eager_members(family):
    """Every member of a family, enumerated with itertools.product as a tuple."""
    m, half = family.m, family.m // 2
    pN, pk = family.modulus, family.q ** family.k
    diag = family.x_diag + family.z_diag
    members = []
    for y_flat in product(range(pk), repeat=half * half):
        mat = [[(1 + pk * diag[i]) % pN if i == j else 0 for j in range(m)] for i in range(m)]
        for idx, val in enumerate(y_flat):
            mat[idx // half][half + idx % half] = val
        members.append(tuple(tuple(row) for row in mat))
    return tuple(members)


@pytest.mark.parametrize("params", [(2, 3, 2, 1), (4, 3, 1, 1), (4, 5, 1, 1)])
def test_members_built_on_demand_match_eager_enumeration(params):
    family = cached_family(*params)
    members = family.y_reps
    assert isinstance(members, FamilyMembers)
    eager = eager_members(family)
    size = len(eager)
    assert len(members) == size
    for i, mat in enumerate(eager):
        assert members[i] == mat
        assert members[i - size] == mat
    assert tuple(members) == eager
    for index in (size, size + 7, -size - 1):
        with pytest.raises(IndexError):
            members[index]


def test_sampled_census8_builds_only_sampled_members(monkeypatch, capsys):
    """census8 --sample builds each sampled member once, plus the two det checks."""
    built = []
    build = FamilyMembers.__getitem__

    def counting(self, index):
        built.append(index)
        return build(self, index)

    monkeypatch.setattr(FamilyMembers, "__getitem__", counting)
    sample = 10
    argv = ["census8", "--m", "4", "--q", "3", "--k", "2", "--t", "1", "--sample", str(sample)]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)["result"]
    assert report["representatives"] == 3 ** 8 and report["sampled"] == sample
    assert len(built) <= sample + report["classes_found"] + 2
    assert set(built) <= set(range(sample)) | {-1}


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
    # every solution has full order: all 16 Smith exponents are N = 5
    assert len(conjugacy_module(ident, ident, 3, 5)) == 16


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
    system = isotropic_census._intertwiner_system(fam.y_reps[a], fam.y_reps[b])
    # intertwiners exist (the exponent pattern is nonzero) but none is invertible
    assert any(smith_local(system, 3, 5).exponents)
    for gen in conjugacy_module(fam.y_reps[a], fam.y_reps[b], 3, 5):
        assert det_int(gen) % 3 == 0


def test_full_order_generators_independent_mod_p(family4311):
    """The scan's span dimension is the generator count: no rank check needed."""
    fam = family4311
    rng = random.Random(23)
    pairs = [tuple(rng.sample(range(81), 2)) for _ in range(36)]
    for a, b in pairs + [(a, a) for a, _ in pairs[:4]]:
        full = conjugacy_module(fam.y_reps[a], fam.y_reps[b], 3, 5)
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


def test_rank_budget_yields_unknown(monkeypatch, family4311, partition4311):
    """Starving the scan budget must surface an explicit unknown, not a guess."""
    fam = family4311
    # find a decided-conjugate pair of distinct members from the partition
    idx, rep_idx, _ = next(w for w in partition4311.witnesses if w[0] != w[1])
    full = are_conjugate(fam.y_reps[rep_idx], fam.y_reps[idx], 3, 5)
    assert full.status == "conjugate"
    monkeypatch.setattr(isotropic_census, "RANK_BUDGET", 1)
    starved = are_conjugate(fam.y_reps[rep_idx], fam.y_reps[idx], 3, 5)
    assert starved.status == "unknown"
    assert starved.witness is None
    # and a starved census run is flagged, never silently certified
    report = distinct_class_count(fam, sample=range(12))
    assert report.unknown_pairs > 0
    assert not report.certified


def unbucketed_class_count(family, sample=None):
    """Oracle: the greedy partition testing each member against every class rep.

    Returns the report fields bucketing must keep, and the number of
    are_conjugate calls made.
    """
    indices = range(len(family.y_reps)) if sample is None else sample
    p, N = family.q, family.modulus_exp
    reps, assignment, witnesses = [], [], []
    unknown = calls = 0
    for idx in indices:
        mat = family.y_reps[idx]
        for cid, rep_idx in enumerate(reps):
            calls += 1
            result = are_conjugate(family.y_reps[rep_idx], mat, p, N)
            if result.status == "conjugate":
                assignment.append(cid)
                witnesses.append((idx, rep_idx, result.witness))
                break
            unknown += result.status == "unknown"
        else:
            assignment.append(len(reps))
            reps.append(idx)
    certified = sample is None and unknown == 0 and len(reps) >= family.class_count_floor()
    return (tuple(assignment), tuple(witnesses), unknown, certified), calls


def counted_class_count(monkeypatch, family, sample=None):
    """distinct_class_count and the outcomes of the are_conjugate calls it made."""
    outcomes = Counter()

    def counting(*args, **kwargs):
        result = are_conjugate(*args, **kwargs)
        outcomes[result.status] += 1
        return result

    monkeypatch.setattr(isotropic_census, "are_conjugate", counting)
    return distinct_class_count(family, sample=sample), outcomes


def assert_matches_oracle(monkeypatch, family, sample=None):
    report, outcomes = counted_class_count(monkeypatch, family, sample)
    fields, calls = unbucketed_class_count(family, sample)
    assert (report.assignments, report.witnesses, report.unknown_pairs, report.certified) == fields
    assert outcomes["conjugate"] == len(report.witnesses)
    assert sum(outcomes.values()) <= calls
    return outcomes, calls


def test_buckets_match_unbucketed_partition(monkeypatch, family4311):
    outcomes, calls = assert_matches_oracle(monkeypatch, family4311)
    assert sum(outcomes.values()) == 112 and calls == 882


@pytest.mark.parametrize("params, size", CERTIFY_CENSUS8)
def test_buckets_match_unbucketed_on_certify_jobs(monkeypatch, params, size):
    sample = None if size is None else list(range(size))
    assert_matches_oracle(monkeypatch, cached_family(*params), sample)


def test_starved_buckets_keep_assignments(monkeypatch, family4311):
    """A skipped pair is decided by its key, so bucketing only drops unknowns."""
    sample = list(range(12))
    monkeypatch.setattr(isotropic_census, "RANK_BUDGET", 1)
    report = distinct_class_count(family4311, sample=sample)
    (assignments, witnesses, unknown, _), _ = unbucketed_class_count(family4311, sample)
    assert (report.assignments, report.witnesses) == (assignments, witnesses)
    assert 0 < report.unknown_pairs <= unknown


@pytest.mark.parametrize("params", [(4, 3, 1, 1), (2, 3, 2, 1)])
def test_sparse_builders_equal_dense_builders(monkeypatch, params):
    """The intertwiner systems of the first nine members and the matrices `conjugacy_key`
    hands the Smith form equal, entry by entry mod p^N, the dense constructions."""
    fam = cached_family(*params)
    p, N, pN, pk = fam.q, fam.modulus_exp, fam.modulus, fam.q ** fam.k
    members = [fam.y_reps[i] for i in range(9)]
    for m1, m2 in product(members, repeat=2):
        system = isotropic_census._intertwiner_system(m1, m2)
        assert dense_rows(system, pN) == dense_intertwiner_system(m1, m2, p, N)
    built = []
    exponents = isotropic_census.smith_exponents
    monkeypatch.setattr(isotropic_census, "smith_exponents",
                        lambda rows, p, N: built.append(rows) or exponents(rows, p, N))
    for mat in members:
        built.clear()
        conjugacy_key(mat, fam)
        expected = [dense_intertwiner_system(mat, mat, p, N)]
        expected += [dense_shift(mat, 1 + pk * d, pN) for d in fam.x_diag + fam.z_diag]
        assert [dense_rows(rows, pN) for rows in built] == expected


def test_witness_pairs_share_keys(family4311, partition4311):
    fam = family4311
    keys = [conjugacy_key(mat, fam) for mat in fam.y_reps]
    assert len(set(keys)) == 14
    for idx, rep_idx, _ in partition4311.witnesses:
        assert keys[idx] == keys[rep_idx]


@settings(max_examples=60, deadline=None)
@given(
    params=st.sampled_from([(2, 3, 1, 1), (2, 5, 1, 1), (2, 3, 2, 1), (4, 3, 1, 1), (4, 5, 1, 1)]),
    data=st.data(),
)
def test_key_is_conjugation_invariant(params, data):
    fam = cached_family(*params)
    m, pN = fam.m, fam.modulus
    mat = fam.y_reps[data.draw(st.integers(0, len(fam.y_reps) - 1), label="member")]
    entry = st.integers(0, pN - 1)
    w = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m),
                  label="W")
    assume(det_int(w) % fam.q)
    conj = mat_mul_mod(mat_mul_mod(w, mat, pN), mat_inv_mod(w, pN), pN)
    assert conjugacy_key(conj, fam) == conjugacy_key(mat, fam)


def test_exhaustive_4511_certified():
    fam = cached_family(4, 5, 1, 1)
    report = cached_partition(4, 5, 1, 1)
    assert report.exhaustive and report.certified
    assert report.unknown_pairs == 0
    assert report.bound == 5
    assert report.classes_found >= report.bound
    assert report.classes_found == scaling_orbit_count(5, 2) == 19
    assert all(block_structure_ok(w, fam) for _, _, w in report.witnesses)


@pytest.mark.parametrize("q", [3, 5])
def test_exhaustive_4q11_meets_closed_count(q):
    """Exhaustive (4,q,1,1) finds q + 14 classes.

    Block-diagonal conjugators scale Y in M_2(F_q) by rows and columns.
    The orbits of that action are one per zero pattern whose support is a
    forest in K_{2,2} (the 15 proper subsets of the four entries) and
    q - 1 of full support, told apart by the cross-ratio
    y11 y22 / (y12 y21).  The count is checked here only; no key reads it.
    """
    assert cached_partition(4, q, 1, 1).classes_found == q + 14


def test_pair_budget_raises(monkeypatch, family4311):
    report, outcomes = counted_class_count(monkeypatch, family4311, sample=range(20))
    tested = sum(outcomes.values())
    assert tested == 12
    monkeypatch.setattr(isotropic_census, "PAIR_BUDGET", tested)
    assert distinct_class_count(family4311, sample=range(20)) == report
    monkeypatch.setattr(isotropic_census, "PAIR_BUDGET", tested - 1)
    with pytest.raises(BudgetExceededError):
        distinct_class_count(family4311, sample=range(20))


def test_gamma_series_from_oracle_counts(sl2_groups, sl2_z27_classes):
    """Wire the brute-force class counts straight into the gamma pipeline."""
    from repzeta.finite_oracle import conjugacy_classes
    from repzeta.rootsys import build_root_datum

    counts = tuple(
        (k, n)
        for k, n in (
            (1, len(conjugacy_classes(sl2_groups[3]).members)),
            (2, len(conjugacy_classes(sl2_groups[9]).members)),
            (3, len(sl2_z27_classes.members)),
        )
    )
    assert counts == ((1, 7), (2, 25), (3, 79))
    a1 = build_root_datum("A", 1)
    delta = 2 * a1.kappa + a1.rank
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


def test_family_budget_raises(monkeypatch):
    monkeypatch.setattr(isotropic_census, "FAMILY_BUDGET", 81)
    assert len(build_census_family(4, 3, 1, 1).y_reps) == 81
    monkeypatch.setattr(isotropic_census, "FAMILY_BUDGET", 80)
    with pytest.raises(BudgetExceededError):
        build_census_family(4, 3, 1, 1)

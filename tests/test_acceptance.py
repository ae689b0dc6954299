"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 9's endpoint
(Z_{A_30}(1) < 1.01) is asserted exactly as stated and fails honestly:
the degree-29 standard representation alone contributes 1/29 > 0.01, so
the computed value is about 1.0403.  See the test docstring.
"""

import math
import random
import time
from fractions import Fraction

from census_pairs import pairs
from hook_lengths import sn_degrees
from paper_checks import GammaSeries, all_irreducible_types, dyadic_block_sum, gamma_estimate
from paper_checks import chain_product_value, chain_truncated_sum, group_dimension
from paper_checks import kernel_cokernel_size, suffix_converges
from repzeta.euler_global import euler_report
from repzeta.finite_oracle import centralizer_indices, character_degrees, conjugacy_classes
from repzeta.isotropic_census import block_structure_ok, build_census_family, distinct_class_count
from repzeta.local_sl2 import factor_bounds_check, irrep_count, level_census, sl2_local_factor
from repzeta.local_sl2 import sl2_quotient_order
from repzeta.orbit_method import make_orbit_datum, orbit_dimension
from repzeta.rootsys import build_root_datum
from repzeta.symmetric import an_census, rbound_check, young_levels
from repzeta.witten import abscissa_estimate, enumerate_dimensions


class Criterion:
    """Times a criterion and prints one pass/fail line when it closes."""

    def __init__(self, label, limit_seconds):
        self.label = label
        self.limit = limit_seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.label} ({elapsed:.2f}s, limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.label}: {elapsed:.2f}s exceeded {self.limit}s"
        return False


def test_c1_root_data_identities():
    with Criterion("C1 exact root-data identities, rank <= 8", 1.0):
        for series, rank in all_irreducible_types(8):
            datum = build_root_datum(series, rank)
            dim = group_dimension(series, rank)
            assert datum.kappa == (dim - rank) // 2
            assert Fraction(datum.rank, datum.kappa) == Fraction(2, datum.coxeter_number)
        e8 = build_root_datum("E", 8)
        assert Fraction(e8.rank, e8.kappa) == Fraction(1, 15)


def test_c2_witten_riemann_identification():
    with Criterion("C2 A1 census at 10^6 and the Basel value", 10.0):
        census = enumerate_dimensions(build_root_datum("A", 1), 10 ** 6)
        assert census.total_count == 10 ** 6
        assert census.degrees[0] == 1 and census.degrees[-1] == 10 ** 6
        assert all(m == 1 for m in census.multiplicities)
        value = census.zeta(2.0)
        assert abs(value - math.pi ** 2 / 6) <= 2e-6


def test_c3_archimedean_abscissas_and_divergence_blocks():
    with Criterion("C3 abscissa slopes within 0.12 and dyadic blocks >= 0.3", 300.0):
        for series, rank in [("A", 1), ("A", 2), ("C", 3), ("G", 2)]:
            datum = build_root_datum(series, rank)
            census = enumerate_dimensions(datum, 10 ** 5)
            est = abscissa_estimate(census)
            target = datum.rank / datum.kappa
            assert abs(est.slope - target) <= 0.12, (series, rank, est.slope, target)
        a1 = build_root_datum("A", 1)
        for j in range(11):
            assert dyadic_block_sum(a1, 1.0, j) >= 0.3


def test_c4_convergence_lemma():
    with Criterion("C4 convergence lemma: closed form vs truncated sums", 30.0):
        rng = random.Random(20240808)
        for _ in range(100):
            k = rng.randint(1, 4)
            suffixes = [rng.uniform(-3.0, -0.3) for _ in range(k)]
            values = []
            for i in range(k):
                nxt = suffixes[i + 1] if i + 1 < k else 0.0
                values.append(suffixes[i] - nxt)
            vec = tuple(values)
            closed = chain_product_value(vec)
            truncated = chain_truncated_sum(vec, 80)
            assert abs(closed - truncated) / closed <= 1e-6
        # divergence detected whenever some suffix sum is >= 0
        divergent = 0
        while divergent < 25:
            k = rng.randint(1, 4)
            vec = tuple(rng.uniform(-1.5, 1.5) for _ in range(k))
            if suffix_converges(vec):
                continue
            divergent += 1
            assert chain_truncated_sum(vec, 80) / chain_truncated_sum(vec, 40) > 1.5


def test_c5_sl2_formula_vs_dixon_oracle():
    from repzeta.finite_oracle import sl2_group

    with Criterion("C5 SL2 formula vs Burnside-Dixon oracle", 600.0):
        groups = {m: sl2_group(m) for m in (3, 5, 9)}
        for modulus, (q, k) in ((3, (3, 1)), (9, (3, 2)), (5, (5, 1))):
            dixon = character_degrees(groups[modulus])
            assert pairs(dixon) == pairs(level_census(sl2_local_factor(q), k))
        assert len(conjugacy_classes(groups[3]).members) == 7 == irrep_count(sl2_local_factor(3), 1)
        assert len(conjugacy_classes(groups[9]).members) == 25 == irrep_count(sl2_local_factor(3), 2)
        assert len(conjugacy_classes(sl2_group(27)).members) == 79 == irrep_count(sl2_local_factor(3), 3)
        for q in (3, 5, 7, 9, 11, 13):
            factor = sl2_local_factor(q)
            for k in range(1, 7):
                census = level_census(factor, k)
                assert census.mass == sl2_quotient_order(q, k)
                assert census.total_count == irrep_count(factor, k)


def test_c6_orbit_dimension_vs_smith_oracle():
    with Criterion("C6 orbit dimension vs centralizer oracle + base change", 60.0):
        rng = random.Random(77)
        data = []
        for _ in range(50):
            d = rng.choice((2, 3))
            p = rng.choice((3, 5, 7))
            k = rng.randint(1, 3)
            mod = p ** (k + 2)
            eigs = [rng.randrange(mod) for _ in range(d - 1)]
            eigs.append((-sum(eigs)) % mod)
            data.append(make_orbit_datum(d, p, k, eigs))
        indices = centralizer_indices([(datum.eigenvalues, datum.p, datum.k) for datum in data])
        for datum, index in zip(data, indices):
            dim = orbit_dimension(datum)
            full = datum.p ** ((datum.d * datum.d - 1) * datum.k)
            assert dim * dim == index
            assert dim * dim * (full // index) == full
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


def test_c7_isotropic_census_certificate():
    with Criterion("C7 block-family census certificate at (4,3,1,1)", 300.0):
        family = build_census_family(4, 3, 1, 1)
        assert len(family.y_reps) == 81
        report = distinct_class_count(family)
        assert report.exhaustive and report.unknown_pairs == 0
        assert report.bound == 3  # q^((m^2/4 - m + 1) k)
        assert report.classes_found >= report.bound
        assert report.certified
        assert report.witnesses
        for _, _, witness in report.witnesses:
            assert block_structure_ok(witness, family)


def test_c8_gamma_pipeline():
    with Criterion("C8 gamma estimate and crude abscissa bound", 1.0):
        series = GammaSeries(q=3, delta=3, counts=((1, 7), (2, 25), (3, 79)))
        est = gamma_estimate(series)
        assert 0.95 <= est.gamma <= 1.15
        assert 0.9 <= est.crude_rho_bound <= 1.2


def test_c9_alternating_masses_and_rbound():
    with Criterion("C9a alternating mass identities and R-bound", 30.0):
        for k, degrees in young_levels(30):
            assert sn_degrees(k).mass == math.factorial(k)
            if k >= 2:
                census = an_census(k, degrees)
                assert 2 * census.mass == math.factorial(k)
            if 5 <= k <= 20:
                for s in (0.5, 0.9):
                    assert rbound_check(census, s)


def test_c9_alternating_trend_monotone():
    with Criterion("C9b alternating zeta strictly decreasing on 8..30", 30.0):
        values = [an_census(k, degrees).zeta(1.0) for k, degrees in young_levels(30) if k >= 8]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_c9_alternating_trend_endpoint():
    """Stated threshold Z_{A_30}(1) < 1.01; mathematically unattainable.

    The standard representation of A_30 has degree 29, so
    Z_{A_30}(1) >= 1 + 1/29 > 1.034; the computed value is ~1.0403.
    The assertion is kept at the stated tolerance and fails honestly.
    """
    with Criterion("C9c alternating zeta endpoint Z_A30(1) < 1.01", 30.0):
        *_, (k, degrees) = young_levels(30)
        value = an_census(k, degrees).zeta(1.0)
        assert value < 1.01, (
            f"Z_A30(1) = {value:.6f}; the degree-29 standard representation "
            "already contributes 1/29 = 0.0345, so the 1.01 threshold cannot hold"
        )


def test_c10_sandwich_and_divergence():
    with Criterion("C10 factor sandwich, boundary divergence, interior Cauchy", 60.0):
        odd_primes = [p for p in range(3, 98) if all(p % f for f in range(2, p))]
        for q in odd_primes:
            for tenths in range(20, 31):
                assert factor_bounds_check(sl2_local_factor(q), tenths / 10.0) == (True, True)
        _, scan = euler_report(2, [], (100, 1000, 10_000))
        assert scan["strictly_increasing"]
        assert scan["growth_ratio"] > 1.15
        [(_, a, _)], _ = euler_report(1000, [2.25], ())
        [(_, b, _)], _ = euler_report(10_000, [2.25], ())
        assert abs(b - a) < 10 * 1000 ** (2 - 2.25)

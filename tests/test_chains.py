import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper_checks import (
    all_irreducible_types,
    chain_exponents,
    chain_product_value,
    chain_truncated_sum,
    check_chain,
    levi_subsystem,
    suffix_converges,
    suffix_sums,
)
from repzeta.rootsys import build_root_datum


def convergent_vector(rng, k):
    """Random vector with every suffix sum in [-3, -0.3].

    Built from the suffix sums themselves, so positive entries appear
    naturally while convergence is guaranteed; the -0.3 floor keeps the
    B = 80 truncation error far below the 1e-6 comparison tolerance.
    """
    suffixes = [rng.uniform(-3.0, -0.3) for _ in range(k)]
    values = []
    for i in range(k):
        nxt = suffixes[i + 1] if i + 1 < k else 0.0
        values.append(suffixes[i] - nxt)
    return tuple(values)


def test_chain_spec_validation():
    check_chain(((1, 1), (2, 3)))
    with pytest.raises(ValueError):
        check_chain(())
    with pytest.raises(ValueError):
        check_chain(((2, 3), (1, 1)))
    with pytest.raises(ValueError):
        check_chain(((1, 1), (1, 1)))


def test_chain_exponents_a2():
    stages = ((1, 1), (2, 3))
    assert chain_exponents(stages, 1) == (0, -1)
    ev = chain_exponents(stages, Fraction(2, 3))
    assert ev == (Fraction(1, 3), Fraction(-1, 3))
    assert suffix_sums(ev) == [Fraction(0), Fraction(-1, 3)]
    # s = 0 gives the rank increments
    assert chain_exponents(stages, 0) == (1, 1)


def test_suffix_converges():
    assert suffix_converges((-1.0, -1.0))
    assert not suffix_converges((0.0,))
    assert suffix_converges((5.0, -6.0))
    assert not suffix_converges((-6.0, 5.0))


def test_closed_form_examples_against_truncation():
    for vec in [(-1.0,), (-1.0, -1.0), (-0.5, -0.5, -0.5), (5.0, -6.0)]:
        closed = chain_product_value(vec)
        truncated = chain_truncated_sum(vec, 80)
        assert truncated == pytest.approx(closed, rel=1e-6)
    # frozen spot values (computed from the truncated-sum oracle itself)
    assert chain_product_value((-1.0,)) == pytest.approx(0.5819767068693265)
    assert chain_product_value((-1.0, -1.0)) == pytest.approx(0.09108962229440014)


def test_closed_form_rejects_divergent():
    with pytest.raises(ValueError):
        chain_product_value((0.0,))


def test_truncated_sum_is_the_nested_sum():
    """Tiny cases, literally nested loops."""
    vec = (-0.7, 0.2, -1.1)
    B = 9
    brute = 0.0
    for b1 in range(1, B + 1):
        for b2 in range(b1 + 1, B + 1):
            for b3 in range(b2 + 1, B + 1):
                brute += math.exp(-0.7 * b1 + 0.2 * b2 - 1.1 * b3)
    assert chain_truncated_sum(vec, B) == pytest.approx(brute, rel=1e-12)
    with pytest.raises(ValueError):
        chain_truncated_sum(vec, 2)


def test_hundred_random_convergent_vectors():
    rng = random.Random(2024)
    for _ in range(100):
        k = rng.randint(1, 4)
        vec = convergent_vector(rng, k)
        closed = chain_product_value(vec)
        truncated = chain_truncated_sum(vec, 80)
        assert abs(closed - truncated) / closed <= 1e-6


def test_divergence_detected_operationally():
    """Whenever some suffix sum is >= 0 the doubled truncation keeps growing."""
    rng = random.Random(99)
    cases = [(0.0,), (-1.0, 1.0), (0.5, -0.2)]
    for _ in range(20):
        k = rng.randint(1, 4)
        values = [rng.uniform(-1.5, 1.5) for _ in range(k)]
        vec = tuple(values)
        if not suffix_converges(vec):
            cases.append(vec)
    for vec in cases:
        assert not suffix_converges(vec)
        grow = chain_truncated_sum(vec, 80) / chain_truncated_sum(vec, 40)
        assert grow > 1.5
    # and convergent ones settle (the worst B = 40 tail is ~e^(-0.3*40))
    for _ in range(20):
        vec = convergent_vector(rng, rng.randint(1, 4))
        grow = chain_truncated_sum(vec, 80) / chain_truncated_sum(vec, 40)
        assert grow < 1.0 + 1e-4


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 40)), min_size=1, max_size=5),
       st.fractions(min_value=Fraction(0), max_value=Fraction(3)))
def test_telescoping_identity_exact(raw_stages, s):
    stages = []
    rank, kappa = 0, 0
    for dr, dk in raw_stages:
        rank += dr
        kappa += dk + 1
        stages.append((max(rank, 1), kappa))
    stages = stages[: max(rank, 1)]
    if not stages:
        return
    try:
        check_chain(stages)
    except ValueError:
        return
    suffixes = suffix_sums(chain_exponents(stages, s))
    r_total, k_total = stages[-1]
    prev = [(0, 0)] + stages[:-1]
    for i, (pr, pk) in enumerate(prev):
        assert suffixes[i] == (r_total - pr) - s * (k_total - pk)


def test_levi_chain_boundary_criticality():
    """Suffix sums over Levi chains: negative just above r/kappa, zero at it.

    Every suffix sum of any chain depends only on its stage i-1, so
    checking all 2-stage chains (proper Levi, ambient) plus the 1-stage
    chain covers every chain.
    """
    eps = Fraction(1, 10 ** 6)
    for series, rank in all_irreducible_types(8):
        datum = build_root_datum(series, rank)
        ambient = (datum.rank, datum.kappa)
        ratio = Fraction(datum.rank, datum.kappa)
        full = (ambient,)
        assert suffix_converges(chain_exponents(full, ratio + eps))
        # at epsilon = 0 the full-chain suffix is exactly zero
        assert suffix_sums(chain_exponents(full, ratio))[0] == 0
        assert not suffix_converges(chain_exponents(full, ratio))
        indices = list(range(1, rank + 1))
        for size in range(1, rank):
            for subset in combinations(indices, size):
                stage = levi_subsystem(datum, subset)
                if stage == ambient:
                    continue
                chain = (stage, ambient)
                assert suffix_converges(chain_exponents(chain, ratio + eps)), (series, rank, subset)

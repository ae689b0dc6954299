"""The pairing registry: every closed formula, its oracle, and the side of every module.

`PAIRINGS` has one record per row of README's "Pairings" table, in
order.  Each field holds the backticked names of that row's cell, so the
registry holds no prose: `tests/test_readme.py` checks the table against
it cell by cell.  A callable is named `module.attribute`, where module is
a `src/repzeta` module or a test-side oracle module of `tests/`; a test
is named `tests/<file>::<function>`.

`SIDES` puts each `src/repzeta` module on one side of every pairing;
`tests/test_independence.py` reads the sides from it.  `cli`, which runs
both sides, and `__init__` are on none.

`ORACLE_IMPORTS` names, for each module of `tests/` that is not a test
file (`conftest` aside), every `repzeta` name it imports: `module.name`
for `from repzeta.module import name`, and `module` for `import
repzeta.module`.  A test-side oracle that imported the kernel it checks
would make its pairing circular, so `tests/test_independence.py` holds
each file to exactly its entry, and a new file needs one.
"""

from typing import NamedTuple


class Pairing(NamedTuple):
    formula: tuple[str, ...]  # the closed formula's callables
    oracle: tuple[str, ...]  # the independent check's callables
    tests: tuple[str, ...]  # the tier-1 tests that hold the two equal
    range: tuple[str, ...]  # the names the covered range cites
    shared: tuple[str, ...]  # what both sides read, so what the check does not cover


PAIRINGS = (
    Pairing(
        formula=("witten.enumerate_dimensions",),
        oracle=("weyl_formula.weyl_dimension",),
        tests=("tests/test_witten.py::test_enumeration_matches_naive_cube_oracle",),
        range=(),
        shared=("rootsys.build_root_datum",),
    ),
    Pairing(
        formula=("local_sl2.level_census",),
        oracle=("finite_oracle.character_degrees",),
        tests=(
            "tests/test_finite_oracle.py::test_dixon_degrees_match_formula",
            "tests/test_finite_oracle.py::test_dixon_degrees_match_formula_level3",
        ),
        range=(),
        shared=("census.DegreeCensus",),
    ),
    Pairing(
        formula=("local_sl2.level_census",),
        oracle=("finite_oracle.character_degrees",),
        tests=(
            "tests/test_finite_oracle.py::test_dixon_census_is_the_product_of_local_censuses",
            "tests/test_finite_oracle.py::test_dixon_census_of_an_even_modulus_is_the_product_with_its_2_part",
        ),
        range=("finite_oracle.character_degrees",),  # the 2-part's factor: oracle against oracle
        shared=("census.DegreeCensus",),
    ),
    Pairing(
        formula=("local_sl2.evaluate_local",),
        oracle=(),
        tests=("tests/test_local_sl2.py::test_truncation_converges_to_analytic_value",),
        range=(),
        shared=("local_sl2.sl2_local_factor",),
    ),
    Pairing(
        formula=("symmetric.young_levels", "symmetric.an_census"),
        oracle=("hook_lengths.build_partition_table", "hook_lengths.an_degrees_by_pairing"),
        tests=(
            "tests/test_symmetric.py::test_sweep_degrees_match_hook_lengths",
            "tests/test_symmetric.py::test_an_census_matches_conjugate_pairing",
        ),
        range=(),
        shared=("symmetric.MAX_K",),
    ),
    Pairing(
        formula=("orbit_method.orbit_dimension",),
        oracle=("finite_oracle.centralizer_indices",),
        tests=(
            "tests/test_orbit_method.py::test_dimension_formula_oracle_equality_50_random",
            "tests/test_orbit_method.py::test_dimension_formula_oracle_equality_50_random_d4",
        ),
        range=("finite_oracle.ORACLE_DEGREE_BUDGET",),
        shared=("orbit_method.make_orbit_datum",),
    ),
    Pairing(
        formula=(),
        oracle=("isotropic_census.distinct_class_count",),
        tests=("tests/test_isotropic_census.py::test_exhaustive_4q11_meets_closed_count",),
        range=(),
        shared=(),
    ),
    Pairing(
        formula=("euler_global.euler_report",),
        oracle=("scalar_local.evaluate_local_scalar",),
        tests=("tests/test_cli.py::test_euler_argv_fuzz",),
        range=(),
        shared=("local_sl2.sl2_local_factor",),
    ),
    Pairing(
        formula=("paper_checks.chain_product_value",),
        oracle=("paper_checks.chain_truncated_sum",),
        tests=(
            "tests/test_chains.py::test_closed_form_examples_against_truncation",
            "tests/test_chains.py::test_hundred_random_convergent_vectors",
        ),
        range=(),
        shared=(),
    ),
)

SIDES = {
    "witten": "formula",
    "rootsys": "formula",
    "local_sl2": "formula",
    "symmetric": "formula",
    "euler_global": "formula",
    "orbit_method": "formula",
    "finite_oracle": "oracle",
    "linalg": "oracle",
    "isotropic_census": "oracle",
    # data types, prime helpers and errors, no kernel
    "census": "shared",
    "arith": "shared",
    "errors": "shared",
}

ORACLE_IMPORTS = {
    "ast_names": (),
    "census_pairs": (),  # reads the two columns only
    "dense_smith": (),  # its own valuation and dense rows
    "hook_lengths": ("census.DegreeCensus", "symmetric.MAX_K"),  # not the branching sweep
    "pairings": (),
    "paper_checks": ("linalg.det_int", "linalg.smith_exponents"),
    "scalar_local": (),  # its own one-factor sums
    "tuple_classes": ("finite_oracle.FiniteMatrixGroup", "finite_oracle.Flat"),  # not _mul or _inv
    "weyl_formula": (),  # the coroot rows alone
}

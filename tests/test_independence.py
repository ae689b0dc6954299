"""The closed formulas and their brute-force oracles share no kernel.

Each formula is checked against an oracle computed another way; if the
two sides reached the same kernel, a fault in it would pass both and
the cross-check would be circular.  Each module's side is read from
`tests/pairings.py`, and the sides are checked on the import graph of
`src/repzeta`, built with `ast`, so nothing is imported; only the check
that the registry's names resolve imports them.  The test-side modules
(oracles and helpers) are held to the `repzeta` names the registry
lets each import.
"""

import ast
import importlib
from pathlib import Path

from ast_names import names
from pairings import ORACLE_IMPORTS, PAIRINGS, SIDES

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "repzeta"

FORMULA, ORACLE, SHARED = (
    {module for module, side in SIDES.items() if side == name} for name in ("formula", "oracle", "shared")
)


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _modules():
    return {path.stem for path in PACKAGE.glob("*.py")}


def _imports(module, modules):
    """The repzeta modules that `module` imports, relatively or by absolute name."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:  # from .x import y
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "repzeta":  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("repzeta."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("repzeta."))
    return found & modules


def _reach(graph, start):
    """Every module reached from `start` through one or more imports."""
    seen = set()
    todo = list(graph[start])
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph[name])
    return seen


def _graph():
    modules = _modules()
    return {module: _imports(module, modules) for module in modules}


def test_sides_are_named_modules():
    """Every module is on exactly one side but `cli`, which runs both, and `__init__`."""
    assert set(SIDES) == _modules() - {"cli", "__init__"}
    assert set(SIDES.values()) == {"formula", "oracle", "shared"}
    graph = _graph()
    assert "linalg" in graph["finite_oracle"]  # the scan sees relative imports
    assert "rootsys" in graph["witten"]


def test_formula_modules_never_reach_an_oracle():
    graph = _graph()
    for module in sorted(FORMULA):
        assert not _reach(graph, module) & ORACLE, module


def test_oracle_modules_never_reach_a_formula():
    graph = _graph()
    for module in sorted(ORACLE):
        assert not _reach(graph, module) & FORMULA, module


def test_the_sides_meet_only_in_shared_modules():
    graph = _graph()
    for formula in sorted(FORMULA):
        for oracle in sorted(ORACLE):
            common = (_reach(graph, formula) | {formula}) & (_reach(graph, oracle) | {oracle})
            assert common <= SHARED, (formula, oracle)


def _functions(tree):
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_finite_oracle_names_no_chain_or_valuation():
    """The centralizer oracle's module names no psi-chain function and no `valuation`.

    p*ad(x) is diagonal, so a sum of valuations along the psi chain could
    stand in for its Smith form; the pairing would then be circular.  The
    oracle takes the eigenvalues alone, so it cannot read a datum's chain.
    No module of the package defines a `valuation` at all: the Smith
    elimination's inline loop is the only one.
    """
    chain = {"psi_chain", "_stage", "orbit_dimension", "make_orbit_datum"}
    assert chain <= set(_functions(_tree("orbit_method")))
    for module in sorted(_modules()):
        defined = {node.name for node in ast.walk(_tree(module)) if isinstance(node, ast.FunctionDef)}
        assert "valuation" not in defined, module
    forbidden = chain | {"valuation"}
    tree = _tree("finite_oracle")
    assert "centralizer_indices" in _functions(tree)
    mentioned = names(tree)
    assert {"_ad_diagonal", "_ad_matrix", "smith_exponents"} <= mentioned  # the scan sees the oracle's calls
    assert not mentioned & forbidden


CENSUS_BUILDERS = {"DegreeCensus", "from_pairs", "from_counts"}


def _census_faults(tree):
    """(faults, builds): where a module reads a census's `.entries` or builds a census from
    pairs that it made from a dict's `.items()`, and how many census builds the scan saw.

    Such pairs are already merged, so `DegreeCensus.from_pairs` would only merge them
    again; the dict itself goes to `DegreeCensus.from_counts`.  A pair list passed by name
    is traced to every value assigned to that name in the same top-level definition.
    """
    faults = [f"line {node.lineno}: reads .entries" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "entries"]
    builds = 0
    for scope in tree.body:
        assigned = {}  # name -> the values assigned to it in this definition
        for node in ast.walk(scope):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, []).append(node.value)
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and names(node.func) & CENSUS_BUILDERS:
                builds += 1
                args = node.args + [keyword.value for keyword in node.keywords]
                sources = args + [value for arg in args if isinstance(arg, ast.Name)
                                  for value in assigned.get(arg.id, ())]
                if any("items" in names(source) for source in sources):
                    faults.append(f"line {node.lineno}: builds a census from .items() pairs")
    return faults, builds


def test_only_census_reads_or_merges_census_pairs():
    """No src module but `census` reads `.entries` or re-merges a dict's pairs into a census.

    A census is two int columns: a dict of counts goes to `DegreeCensus.from_counts`, and
    `from_pairs` takes only pairs that may still repeat a degree.
    """
    old = ast.parse(
        "def walk(counts, census):\n"
        "    n = len(census.entries)\n"
        "    pairs = list(counts.items())\n"
        "    DegreeCensus.from_pairs(pairs, n)\n"
        "    return DegreeCensus(entries=tuple(sorted(counts.items())), bound=n)\n"
    )
    assert _census_faults(old) == (["line 2: reads .entries", "line 4: builds a census from .items() pairs",
                                    "line 5: builds a census from .items() pairs"], 2)  # the scan sees all three
    builds = 0
    for module in sorted(_modules() - {"census"}):
        faults, found = _census_faults(_tree(module))
        assert not faults, (module, faults)
        builds += found
    assert builds >= 4  # witten's from_counts and the from_pairs of three more modules


def _repzeta_imports(tree):
    """The repzeta names a file imports: `x.y` for `from repzeta.x import y`, `x` for `import repzeta.x`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repzeta":
            module = node.module.partition(".")[2]
            found.update(f"{module}.{alias.name}" if module else alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[2] or alias.name for alias in node.names
                         if alias.name.split(".")[0] == "repzeta")
    return found


def test_test_side_modules_import_only_their_registered_names():
    """Each module of tests/ but the test files and conftest imports from repzeta exactly
    its `ORACLE_IMPORTS` names, so a test-side oracle cannot reach the kernel it checks."""
    helpers = {path.stem for path in TESTS.glob("*.py")
               if not path.stem.startswith("test_")} - {"conftest"}
    assert set(ORACLE_IMPORTS) == helpers
    for module in sorted(helpers):
        tree = ast.parse((TESTS / f"{module}.py").read_text(encoding="utf-8"))
        assert tuple(sorted(_repzeta_imports(tree))) == ORACLE_IMPORTS[module], module


def _registered_tree(oracle):
    """The parsed oracle file, once its repzeta imports are found to be its registry entry."""
    tree = ast.parse((TESTS / f"{oracle}.py").read_text(encoding="utf-8"))
    assert tuple(sorted(_repzeta_imports(tree))) == ORACLE_IMPORTS[oracle]
    return tree


def _imported_modules(tree):
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)} | {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    }


def test_tuple_oracle_names_no_finite_oracle_kernel():
    """tests/tuple_classes.py checks finite_oracle's tables with its own product and inverse."""
    tree = _registered_tree("tuple_classes")
    assert "finite_oracle.FiniteMatrixGroup" in ORACLE_IMPORTS["tuple_classes"]  # the scan sees the import
    assert not {"_mul", "_inv"} & names(tree)


def test_hook_length_oracle_names_only_max_k_from_symmetric():
    """tests/hook_lengths.py checks the branching sweep with its own partitions and hook degrees."""
    tree = _registered_tree("hook_lengths")
    assert {name for name in ORACLE_IMPORTS["hook_lengths"] if name.startswith("symmetric")} == {"symmetric.MAX_K"}
    symmetric = set(_functions(_tree("symmetric")))
    assert {"young_levels", "an_census"} <= symmetric  # the scan sees the sweep
    assert not symmetric & names(tree)


def test_weyl_formula_oracle_imports_no_repzeta_module():
    """tests/weyl_formula.py checks the census walk from the coroot rows alone."""
    assert ORACLE_IMPORTS["weyl_formula"] == ()
    assert "typing" in _imported_modules(_registered_tree("weyl_formula"))  # the scan sees the imports


def test_dense_smith_oracle_imports_no_repzeta_module():
    """tests/dense_smith.py checks linalg's sparse elimination with its own valuation and dense rows."""
    assert ORACLE_IMPORTS["dense_smith"] == ()
    assert "typing" in _imported_modules(_registered_tree("dense_smith"))  # the scan sees the imports


def test_scalar_local_oracle_imports_no_repzeta_module():
    """tests/scalar_local.py checks local_sl2's column evaluator with its own one-factor sums."""
    assert ORACLE_IMPORTS["scalar_local"] == ()
    assert "math" in _imported_modules(_registered_tree("scalar_local"))  # the scan sees the imports


def _resolve(name):
    """The object a registry name `module.attribute...` names, from src/repzeta or tests/."""
    module, *attributes = name.split(".")
    if (PACKAGE / f"{module}.py").exists():
        module = f"repzeta.{module}"
    else:
        assert (TESTS / f"{module}.py").exists(), name
    found = importlib.import_module(module)
    for attribute in attributes:
        found = getattr(found, attribute)
    return found


def test_registry_names_resolve_and_name_collected_tests():
    """Every callable the registry names imports, and every test it names is collected.

    pytest collects the top-level `test_*` functions of `tests/test_*.py`,
    so a test found here is collected; every pairing names one at least.
    """
    for pairing in PAIRINGS:
        for name in pairing.formula + pairing.oracle:
            assert callable(_resolve(name)), name
        for name in pairing.range + pairing.shared:
            _resolve(name)
        assert pairing.tests
        for test in pairing.tests:
            path, function = test.split("::")
            assert path.startswith("tests/test_") and function.startswith("test_"), test
            tree = ast.parse((TESTS.parent / path).read_text(encoding="utf-8"))
            assert function in _functions(tree), test


def test_pairing_callables_sit_on_their_side():
    """A pairing's formula callables are formula-side code, its oracle callables oracle-side.

    Test-side modules (the oracles under `tests/`) are on no side.
    """
    sided = 0
    for pairing in PAIRINGS:
        for side, callables in (("formula", pairing.formula), ("oracle", pairing.oracle)):
            for name in callables:
                module = name.split(".")[0]
                if module in SIDES:
                    assert SIDES[module] == side, name
                    sided += 1
    assert sided >= 10  # the scan sees the src callables

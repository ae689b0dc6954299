"""The closed formulas and their brute-force oracles share no kernel.

Each formula is checked against an oracle computed another way; if the
two sides reached the same kernel, a fault in it would pass both and
the cross-check would be circular.  The sides are read from the import
graph of `src/repzeta`, built with `ast`, so nothing is imported.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "repzeta"

FORMULA = {"witten", "rootsys", "local_sl2", "symmetric", "euler_global"}
ORACLE = {"finite_oracle", "linalg", "isotropic_census"}
SHARED = {"census", "arith", "errors"}  # data types, prime helpers and errors, no kernel

# orbit_method holds both sides: the orbit dimension from the psi chain,
# and the centralizer-index oracle through linalg's Smith form
ORBIT_FORMULA = ("make_orbit_datum", "orbit_dimension")
ORBIT_ORACLE = "centralizer_index_oracle"


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
    modules = _modules()
    assert FORMULA | ORACLE | SHARED <= modules
    assert not FORMULA & ORACLE and not (FORMULA | ORACLE) & SHARED
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


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _callees(functions, roots):
    """name -> names in its body, for `roots` and each function of the module they reach."""
    todo, seen = list(roots), {}
    while todo:
        name = todo.pop()
        if name not in seen:
            seen[name] = _names(functions[name])
            todo.extend(seen[name] & set(functions))
    return seen


def test_orbit_dimension_names_no_linalg_function():
    """Neither the orbit-dimension formula nor a function of its module it calls."""
    linalg = set(_functions(_tree("linalg")))
    functions = _functions(_tree("orbit_method"))
    oracle = _callees(functions, [ORBIT_ORACLE])
    assert linalg & set().union(*oracle.values())  # the oracle side does name one
    formula = _callees(functions, ORBIT_FORMULA)
    for name, names in formula.items():
        assert not names & linalg, name
    assert {"psi_chain", "_stage"} <= set(formula)


def test_centralizer_oracle_names_no_chain_or_valuation():
    """Neither the centralizer oracle nor a function of its module it calls.

    p*ad(x) is diagonal, so a sum of valuations along the psi chain could
    stand in for its Smith form; the pairing would then be circular.
    """
    forbidden = {"psi_chain", "_stage", "orbit_dimension", "make_orbit_datum", "chain", "valuation"}
    functions = _functions(_tree("orbit_method"))
    assert forbidden & set(functions)  # the scan sees the formula side's functions
    oracle = _callees(functions, [ORBIT_ORACLE])
    for name, names in oracle.items():
        assert not names & forbidden, name
    assert "_ad_matrix" in oracle


def _imported_from(tree, module):
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == module
        for alias in node.names
    }


def test_tuple_oracle_names_no_finite_oracle_kernel():
    """tests/tuple_classes.py checks finite_oracle's tables with its own product and inverse."""
    tree = ast.parse((TESTS / "tuple_classes.py").read_text(encoding="utf-8"))
    imported = _imported_from(tree, "repzeta.finite_oracle")
    assert "FiniteMatrixGroup" in imported  # the scan sees the import
    assert not {"_mul", "_inv"} & (imported | _names(tree))


def test_hook_length_oracle_names_only_max_k_from_symmetric():
    """tests/hook_lengths.py checks the branching sweep with its own partitions and hook degrees."""
    tree = ast.parse((TESTS / "hook_lengths.py").read_text(encoding="utf-8"))
    assert _imported_from(tree, "repzeta.symmetric") == {"MAX_K"}
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert not any(name.startswith("repzeta") for name in modules)
    symmetric = set(_functions(_tree("symmetric")))
    assert {"young_levels", "an_census"} <= symmetric  # the scan sees the sweep
    assert not symmetric & _names(tree)


def test_weyl_formula_oracle_imports_no_repzeta_module():
    """tests/weyl_formula.py checks the census walk from the coroot rows alone."""
    tree = ast.parse((TESTS / "weyl_formula.py").read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)} | {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    }
    assert "typing" in imported  # the scan sees the imports
    assert not any(name.startswith("repzeta") for name in imported)

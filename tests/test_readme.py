import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repzeta"
README = ROOT / "README.md"
ROW = re.compile(r"^\s*\| `(\w+)\.(\w+_BUDGET)` \| ([^|]+?) \|", re.MULTILINE)
FIXED = re.compile(r"`(\w+)\.([A-Z_]+)` \(([^)]+)\)")
NAMED_TEST = re.compile(r"`tests/(test_\w+\.py)::(test_\w+)`")


def _readme_value(text):
    """'200,000' -> 200000 and '2^21' -> 2097152."""
    if "^" in text:
        base, exp = text.split("^")
        return int(base) ** int(exp)
    return int(text.replace(",", ""))


def test_readme_budget_table_matches_constants():
    """Every *_BUDGET module constant has a README budget-table row of the same value."""
    constants = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.endswith("_BUDGET"):
                        module = importlib.import_module(f"repzeta.{path.stem}")
                        constants[f"{path.stem}.{target.id}"] = getattr(module, target.id)
    rows = {
        f"{module}.{name}": _readme_value(value.strip())
        for module, name, value in ROW.findall(README.read_text(encoding="utf-8"))
    }
    assert "isotropic_census.PAIR_BUDGET" in constants  # the scan found the constants
    assert rows == constants


def test_readme_fixed_parameters_match_constants():
    """Each `module.NAME` (value) of README's fixed-parameters sentence is that constant."""
    text = README.read_text(encoding="utf-8")
    sentence = text.split("Fixed parameters are", 1)[1].split("\n- ", 1)[0]
    stated = FIXED.findall(sentence)
    assert {f"{module}.{name}" for module, name, _ in stated} == {
        "witten.FIT_POINTS",
        "witten.FIT_MIN_DISTINCT",
        "euler_global.BOUNDARY_S",
        "euler_global.DIVERGENCE_THRESHOLD",
    }
    for module, name, value in stated:
        actual = getattr(importlib.import_module(f"repzeta.{module}"), name)
        assert actual == ast.literal_eval(value), (module, name)


def test_readme_pairing_table_names_collected_tests():
    """Every test the pairing table names is a top-level test function of a collected file.

    pytest collects `test_*` functions of the `tests/test_*.py` files, so a
    name that passes here is collected; one per row at least.
    """
    text = README.read_text(encoding="utf-8")
    table = text.split("\n## Pairings\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("|")][2:]  # past the header
    assert len(rows) == 8  # the section was parsed
    for row in rows:
        named = NAMED_TEST.findall(row.split(" | ")[2])
        assert named, row
        for filename, test in named:
            tree = ast.parse((ROOT / "tests" / filename).read_text(encoding="utf-8"))
            tests = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert test in tests, f"{filename}::{test}"


def _unreferenced_in_src():
    """'module.function' and 'module.Class.method' of each public function no src/ code names.

    A use is a name, an attribute or an import anywhere in src/ outside
    the function's own body.  Properties are data and are skipped.
    """
    defs = []
    refs = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((path.stem, node.name, node))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not any(
                        isinstance(d, ast.Name) and d.id == "property" for d in item.decorator_list
                    ):
                        defs.append((path.stem, f"{node.name}.{item.name}", item))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path.stem, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((path.stem, node.attr, node.lineno))
            elif isinstance(node, ast.alias):
                refs.append((path.stem, node.name, node.lineno))
    unreferenced = set()
    for module, qualname, node in defs:
        name = node.name
        if name.startswith("_"):
            continue
        if not any(
            ref == name and (where != module or not node.lineno <= line <= node.end_lineno)
            for where, ref, line in refs
        ):
            unreferenced.add(f"{module}.{qualname}")
    return unreferenced


def _readme_test_only_list():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Reached only by tests\n", 1)[1].split("\n## ", 1)[0]
    names = []
    for item in re.split(r"\n- ", section)[1:]:
        names += re.findall(r"`([\w.]+)`", item.split(":", 1)[0])
    return names


def test_readme_lists_every_function_reached_only_by_tests():
    listed = _readme_test_only_list()
    assert len(listed) == len(set(listed))
    assert "rootsys.weyl_dimension" in listed  # the section was parsed
    assert set(listed) == _unreferenced_in_src()

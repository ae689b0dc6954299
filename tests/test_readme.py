import ast
import importlib
import json
import re
from pathlib import Path

from ast_names import names
from pairings import PAIRINGS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repzeta"
README = ROOT / "README.md"
GOLDEN = ROOT / "tests" / "golden"
ROW = re.compile(r"^\s*\| `(\w+)\.(\w+_BUDGET)` \| ([^|]+?) \|", re.MULTILINE)
FIXED = re.compile(r"`(\w+)\.([A-Z_]+)` \(([^)]+)\)")
BACKTICKED = re.compile(r"`([^`]+)`")
MODULE_MAP_WORDS = 60


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


def test_readme_pairing_table_matches_registry():
    """README's Pairings table is `tests/pairings.py`, row by row and cell by cell.

    Each cell's backticked names, in order, are its record's field; the
    prose around them is README's alone.
    """
    text = README.read_text(encoding="utf-8")
    table = text.split("\n## Pairings\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("|")][2:]  # past the header
    assert len(rows) == len(PAIRINGS)
    for row, pairing in zip(rows, PAIRINGS):
        cells = row.strip()[2:-2].split(" | ")
        assert len(cells) == len(pairing._fields), row
        for field, cell in zip(pairing._fields, cells):
            assert tuple(BACKTICKED.findall(cell)) == getattr(pairing, field), (field, row)


def _boolean_fields(value, field=None):
    """The field of every boolean in a report: the last key on its path that is a name.

    So a table row's booleans are its column's, and the pairs under
    `bounds`, keyed by exponent, are `bounds`'s.
    """
    if isinstance(value, bool):
        return {field}
    if isinstance(value, dict):
        items = [(v, k if k.isidentifier() else field) for k, v in value.items()]
    elif isinstance(value, list):
        items = [(v, field) for v in value]
    else:
        return set()
    return set().union(*(_boolean_fields(v, f) for v, f in items))


def test_readme_lists_each_verdict_with_a_test_that_makes_it_false():
    """Each row of README's Verdicts table is a boolean field of the golden reports of its
    command, every such field has its row, and each row names collected top-level tests
    that name its field."""
    text = README.read_text(encoding="utf-8")
    table = text.split("\n## Verdicts\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip()[2:-2].split(" | ") for line in table.splitlines() if line.startswith("| `")]
    fields = {}  # command -> the fields of its rows
    for cells in rows:
        (field,), (command,) = BACKTICKED.findall(cells[0]), BACKTICKED.findall(cells[1])
        fields.setdefault(command, []).append(field)
    golden = {}  # command -> the boolean fields of its golden reports
    for path in GOLDEN.glob("*.json"):
        report = json.loads(path.read_text(encoding="utf-8"))
        golden.setdefault(report["command"], set()).update(_boolean_fields(report))
    assert {"bounds"} <= golden["local-sl2"] and {"match"} <= golden["orbit"]  # pairs and table rows
    assert golden.pop("witten") == set()  # witten prints no verdict
    assert all(len(set(listed)) == len(listed) for listed in fields.values())  # one row per field
    assert {command: set(listed) for command, listed in fields.items()} == golden
    for cells in rows:
        field, tests = BACKTICKED.findall(cells[0])[0], BACKTICKED.findall(cells[-1])
        assert tests, field
        for test in tests:
            path, function = test.split("::")
            assert path.startswith("tests/test_") and function.startswith("test_"), test
            source = (ROOT / path).read_text(encoding="utf-8")
            functions = {
                node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
            }
            assert function in functions, test
            assert field in ast.get_source_segment(source, functions[function]), (field, test)


def test_module_map_names_every_module():
    """README's module map has one row for each src/repzeta module but `__init__` and `errors`."""
    text = README.read_text(encoding="utf-8")
    table = text.split("\n## Module map\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE)
    assert "cli" in rows  # the table was parsed
    assert len(rows) == len(set(rows))
    assert set(rows) == {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "errors"}


def test_module_map_cells_stay_short():
    """Every module-map cell says what its module computes and what checks it in at most
    MODULE_MAP_WORDS words; the mechanism is told once, in the module's docstrings."""
    text = README.read_text(encoding="utf-8")
    table = text.split("\n## Module map\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip()[2:-2].split(" | ") for line in table.splitlines() if line.startswith("| `")]
    assert len(rows) > 10  # the table was parsed
    for module, *cells in rows:
        assert len(cells) == 2, module
        for cell in cells:
            assert len(cell.split()) <= MODULE_MAP_WORDS, (module, len(cell.split()))


def _walk_from_main():
    """(reached, public): what a walk by name from `cli.main` reaches, and what it could.

    Both hold 'module.function' and 'module.Class.method' names; `public`
    is every public top-level function and public method of src/, except
    properties, which are read as data.  The walk reads the names and
    attributes in each reached body and goes on into every function,
    method, class and module-level assignment of src/ of that name.  A
    reached class brings its decorators, bases, class-level statements
    and dunder methods, which run without being named.  Names are not
    resolved, so a name reaches every definition it could mean.
    """
    by_name = {}  # bare name -> [(qualified name, nodes to walk)]
    public = set()

    def define(name, qualname, nodes):
        by_name.setdefault(name, []).append((qualname, nodes))

    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                define(node.name, f"{module}.{node.name}", [node])
                if not node.name.startswith("_"):
                    public.add(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
                for item in methods:
                    qualname = f"{module}.{node.name}.{item.name}"
                    define(item.name, qualname, [item])
                    if not item.name.startswith("_") and not any(
                        isinstance(d, ast.Name) and d.id == "property" for d in item.decorator_list
                    ):
                        public.add(qualname)
                runs_unnamed = [item for item in node.body if item not in methods]
                runs_unnamed += [item for item in methods if item.name.startswith("__")]
                define(node.name, f"{module}.{node.name}",
                       runs_unnamed + node.decorator_list + node.bases)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        define(target.id, f"{module}.{target.id}", [node])
    reached = set()
    todo = [entry for entry in by_name["main"] if entry[0] == "cli.main"]
    while todo:
        qualname, nodes = todo.pop()
        if qualname not in reached:
            reached.add(qualname)
            for node in nodes:
                for name in names(node):
                    todo.extend(by_name.get(name, ()))
    return reached, public


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
    assert "linalg.mat_inv_mod" in listed  # the section was parsed
    reached, public = _walk_from_main()
    assert {"cli.cmd_census8", "isotropic_census.FamilyMembers", "linalg.mat_mul_mod"} <= reached
    assert set(listed) == public - reached

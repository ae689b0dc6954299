import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repzeta"
README = ROOT / "README.md"
ROW = re.compile(r"^\s*\| `(\w+)\.(\w+_BUDGET)` \| ([^|]+?) \|", re.MULTILINE)


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

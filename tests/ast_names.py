"""The one name walker of the tests that read source with `ast`."""

import ast


def names(node: ast.AST) -> set[str]:
    """Every bare name and attribute name that `node` mentions."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }

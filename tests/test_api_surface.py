"""Every public module-level function and class of the package has a caller
in the package or the benchmark, so no API exists only for the tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "rindep").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "bench").glob("*.py"))


def _references(tree: ast.AST) -> Counter:
    """Names, attribute names and dotted strings (``bench/spans.py`` names
    the functions it traces as "module.function") used in ``tree``."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            module, dot, name = node.value.partition(".")
            if dot and module.isidentifier() and name.isidentifier():
                names[name] += 1
    return names


def test_every_public_definition_has_a_caller_outside_tests():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    used = sum(map(_references, trees.values()), Counter())
    orphans = [
        f"{path.stem}.{node.name}"
        for path in PACKAGE
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and used[node.name] == _references(node)[node.name]  # only its own body uses it
    ]
    assert orphans == []

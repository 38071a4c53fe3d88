"""No dead helpers: every module-level function and class of the package is
named somewhere in the package besides its own definition, or is public
API listed in `tropctl.__all__`."""

import ast
from collections import Counter
from pathlib import Path

import tropctl

SRC = Path(tropctl.__file__).parent
# randgen builds random inputs for the tests and `selftest`; the tests call
# helpers of it (random_ascending_series) that nothing in the package does
EXEMPT = {"randgen"}


def _names(node) -> Counter:
    """How often each identifier is referred to inside node."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def test_every_definition_is_used_or_exported():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        if module in EXEMPT:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in tropctl.__all__:
                continue
            if named[node.name] - _names(node)[node.name] <= 0:
                unused.append(f"{module}.{node.name}")
    assert unused == []

"""No dead helpers: every module-level function and class of the package is
named somewhere in the package besides its own definition, or is public
API listed in `tropctl.__all__`; every method of a package class is named
somewhere in the package besides its own definition."""

import ast
import importlib
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


def _package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    return trees, sum((_names(tree) for tree in trees.values()), Counter())


def test_every_definition_is_used_or_exported():
    trees, named = _package()
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


def test_every_method_is_used():
    """Dunders are called by the language, and an override of a base-class
    method (such as `_Parser.error`) by the base class."""
    trees, named = _package()
    unused = []
    for module, tree in trees.items():
        if module in EXEMPT:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = getattr(importlib.import_module(f"tropctl.{module}"), cls.name).__mro__[1:]
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                if any(hasattr(base, node.name) for base in bases):
                    continue
                if named[node.name] - _names(node)[node.name] <= 0:
                    unused.append(f"{module}.{cls.name}.{node.name}")
    assert unused == []

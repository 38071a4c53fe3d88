"""No dead helpers: every module-level function and class of the package is
named somewhere in the package besides its own definition, or is public
API listed in `tropctl.__all__`; every method of a package class is reached
by attribute access somewhere in the package besides its own definition;
every module-level constant is read somewhere in the package, or is in
`tropctl.__all__`; every name a module imports is read in that module, or
is re-exported through `tropctl.__all__`."""

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


def _attributes(node) -> Counter:
    """How often each attribute name is reached as `x.name` inside node."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


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
    """A method counts as used only when reached as `x.method`: a bare name
    of the same spelling is some other variable.  Dunders are called by the
    language, and an override of a base-class method (such as
    `_Parser.error`) by the base class."""
    trees, _named = _package()
    reached = sum((_attributes(tree) for tree in trees.values()), Counter())
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
                if reached[node.name] - _attributes(node)[node.name] <= 0:
                    unused.append(f"{module}.{cls.name}.{node.name}")
    assert unused == []


def test_every_module_constant_is_read():
    """A non-dunder name assigned at module level, such as Q0 or a cap such
    as MAX_BITS, is read as a name or an attribute somewhere in the package."""
    trees, _named = _package()
    reads = Counter()
    for tree in trees.values():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                reads[sub.id] += 1
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                reads[sub.attr] += 1
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if not isinstance(name, ast.Name) or name.id.startswith("__"):
                        continue
                    if name.id not in tropctl.__all__ and not reads[name.id]:
                        unread.append(f"{module}.{name.id}")
    assert unread == []


def test_every_import_is_read():
    """A name bound by an import statement is read as a name in the module
    that imports it (`json` in `json.dumps` counts), unless `tropctl`
    re-exports it through `__all__`.  `from __future__` imports bind no name."""
    trees, _named = _package()
    unread = []
    for module, tree in trees.items():
        reads = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in reads and name not in tropctl.__all__:
                        unread.append(f"{module}.{name}")
    assert unread == []

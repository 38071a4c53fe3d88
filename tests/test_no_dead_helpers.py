"""No dead helpers: every module-level function and class of the package is
named somewhere in the package besides its own definition, or is public
API listed in `tropctl.__all__`, or, in `randgen`, is named in the tests;
every method of a package class is reached by attribute access somewhere
in the package besides its own definition; every module-level constant
is read somewhere in the package, or is in `tropctl.__all__`; every name a
module imports is read in that module, or, in `__init__`, is re-exported
through `tropctl.__all__`; every parameter with a default is passed by some
call in the package or the tests."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import tropctl

SRC = Path(tropctl.__file__).parent
TESTS = Path(__file__).parent


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


def _tests():
    return [ast.parse(p.read_text()) for p in sorted(TESTS.glob("*.py"))]


def _unused_definitions(trees, named, test_named) -> list[str]:
    """The module-level functions and classes of trees that no other code
    names: named counts the names in the package, test_named those in the
    tests.  randgen builds random inputs for the tests and `selftest`, so
    for it alone a name the tests use (random_ascending_series) counts."""
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in tropctl.__all__:
                continue
            uses = named[node.name] - _names(node)[node.name]
            if module == "randgen":
                uses += test_named[node.name]
            if uses <= 0:
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_definition_is_used_or_exported():
    trees, named = _package()
    test_named = sum((_names(tree) for tree in _tests()), Counter())
    assert _unused_definitions(trees, named, test_named) == []


def test_an_unused_randgen_function_is_reported():
    trees, _named = _package()
    planted = ast.parse("def random_unused_thing(rng):\n    return rng.random()\n").body[0]
    trees["randgen"].body.append(planted)
    named = sum((_names(tree) for tree in trees.values()), Counter())
    test_named = sum((_names(tree) for tree in _tests()), Counter())
    assert _unused_definitions(trees, named, test_named) == ["randgen.random_unused_thing"]


def test_every_method_is_used():
    """A method counts as used only when reached as `x.method`: a bare name
    of the same spelling is some other variable.  Dunders are called by the
    language, and an override of a base-class method (such as
    `_Parser.error`) by the base class."""
    trees, _named = _package()
    reached = sum((_attributes(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
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


def _unread_imports(trees) -> list[str]:
    """The names bound by an import statement that the importing module
    does not read as a name (`json` in `json.dumps` counts).  `__init__`
    imports the names of `tropctl.__all__` to re-export them, so there they
    count as read; in any other module they do not.  `from __future__`
    imports bind no name."""
    unread = []
    for module, tree in trees.items():
        reads = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        if module == "__init__":
            reads.update(tropctl.__all__)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in reads:
                        unread.append(f"{module}.{name}")
    return unread


def test_every_import_is_read():
    trees, _named = _package()
    assert _unread_imports(trees) == []


def test_an_unread_import_of_an_exported_name_is_reported():
    trees, _named = _package()
    trees["planted"] = ast.parse("from .errors import PreconditionError\n")
    assert _unread_imports(trees) == ["planted.PreconditionError"]


def _defaulted(fn, is_method):
    """(position, name) of each parameter of fn that has a default; the
    position counts positional arguments of a call (None for keyword-only),
    after the bound first parameter of a method that is not static."""
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    skip = 1 if is_method and not static and positional else 0
    out = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= len(positional) - len(args.defaults)]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passes(call, position, name) -> bool:
    """Whether call passes the parameter: by keyword, by position, or
    through a `*` or `**` argument that could hold it."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_passed():
    """A parameter with a default in a package function or method (randgen
    included) is passed by some call in the package or the tests: a setting
    that every caller leaves at its default is a constant.  Calls are matched
    by the called name; a class name, or `cls` inside the class, calls its
    `__init__`."""
    trees, _named = _package()
    tests = _tests()
    calls = {}
    for tree in [*trees.values(), *tests]:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(call)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                own = [c for c in ast.walk(cls) if isinstance(c, ast.Call) and getattr(c.func, "id", None) == "cls"]
                calls.setdefault(cls.name, []).extend(own)
    unpassed = []
    for module, tree in trees.items():
        methods = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            owner = methods.get(id(fn))
            called = owner if fn.name == "__init__" else fn.name
            for position, name in _defaulted(fn, owner is not None):
                if not any(_passes(call, position, name) for call in calls.get(called, [])):
                    unpassed.append(f"{module}.{fn.name}({name})")
    assert unpassed == []

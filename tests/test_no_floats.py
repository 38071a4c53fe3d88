"""No floats in the package: no module of `tropctl` writes a float literal
or calls `float(`, so every number it computes is an int or a Fraction and
every answer is exact.

`randgen` is exempt: its one float, in `rng.random() < 0.5`, only decides
which draw to make and never becomes a value of a curve, a series or a
report."""

import ast
from pathlib import Path

import tropctl

SRC = Path(tropctl.__file__).parent
EXEMPT = {"randgen"}


def _floats(trees) -> list[str]:
    """module:line of each float literal and each call of `float` in trees,
    a {module name: ast} dict."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            literal = isinstance(node, ast.Constant) and isinstance(node.value, float)
            call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
            if literal or call:
                found.append(f"{module}:{node.lineno}")
    return found


def _package():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.stem not in EXEMPT}


def test_no_module_writes_a_float():
    assert _floats(_package()) == []


def test_a_planted_float_is_reported():
    for planted in ("x = 0.5\n", "x = float('1')\n", "x = 1e3\n"):
        trees = _package()
        trees["laurent"].body.append(ast.parse(planted).body[0])
        assert len(_floats(trees)) == 1, planted

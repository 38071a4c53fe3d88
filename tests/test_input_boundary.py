"""One input boundary: `tropctl.inputs` is the only module of the package
that reads a file, parses JSON or measures the bit length of a number, and
`linalg` is linear algebra alone, with no input errors to raise.  A new
reader or bound belongs in `inputs`, where every file kind shares it."""

import ast
from pathlib import Path

import tropctl

SRC = Path(tropctl.__file__).parent


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _calls(tree) -> set[str]:
    """Which of open, json.load, json.loads (also imported by name) and
    bit_length the module calls."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("open", "load", "loads"):
            out.add(func.id)
        elif isinstance(func, ast.Attribute):
            if func.attr == "bit_length":
                out.add("bit_length")
            elif func.attr in ("load", "loads") and isinstance(func.value, ast.Name) and func.value.id == "json":
                out.add(f"json.{func.attr}")
    return out


def test_only_inputs_reads_files_and_bounds_numbers():
    trees = _trees()
    assert _calls(trees["inputs"]) == {"open", "json.loads", "bit_length"}  # what the guard looks for
    assert {module: calls for module, tree in trees.items() if module != "inputs" and (calls := _calls(tree))} == {}


def test_linalg_imports_nothing_from_errors():
    imported = set()
    for node in ast.walk(_trees()["linalg"]):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert [m for m in imported if m.rsplit(".", 1)[-1] == "errors"] == []

"""One report path: inside `tropctl.cli`, only `_run` loads a curve, builds
a report and catches a `TropctlError`.  Every command is a fields function
that `_run` calls, so a report's inputs, its error stamps and the exit code
of a batch are decided in one place."""

import ast
from pathlib import Path

import tropctl
from tropctl import errors

CLI = Path(tropctl.__file__).parent / "cli.py"
ERRORS = {name for name, value in vars(errors).items() if isinstance(value, type) and issubclass(value, errors.TropctlError)}


def _reached(tree) -> set[str]:
    """Which of the calls of _load_curve and _report, and the catching of a
    TropctlError (or a subclass), happen inside tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("_load_curve", "_report"):
            out.add(node.func.id)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(name, ast.Name) and name.id in ERRORS for name in caught):
                out.add("except TropctlError")
    return out


def _by_function(source: str) -> dict:
    """What each top-level function of the module reaches, and under the
    name "<module>" what the statements outside functions reach."""
    tree = ast.parse(source)
    out = {"<module>": set()}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = _reached(node)
        else:
            out["<module>"] |= _reached(node)
    return {name: reached for name, reached in out.items() if reached}


def test_only_run_loads_builds_reports_and_catches():
    assert _by_function(CLI.read_text()) == {"_run": {"_load_curve", "_report", "except TropctlError"}}


def test_a_handler_that_builds_its_own_report_is_found():
    planted = (
        "def _cmd_classify(args):\n"
        "    try:\n"
        "        curve, stamp = _load_curve(args.file)\n"
        "    except ValidationError as err:\n"
        "        return [_report('classify', [], {'error': err.payload()})], err.exit_code\n"
    )
    found = _by_function(CLI.read_text() + "\n\n" + planted)
    assert found["_cmd_classify"] == {"_load_curve", "_report", "except TropctlError"}

"""One star per vertex: inside the package, only the series pass
`residues.phylo_stars` and `residues.xi_map` read a vertex's star with
`LocalModel.from_star`.  `resolve_by_phylo`, the `phylo` command and
`degeneration_compare` take their stars from that pass, and `compare`'s
evaluation points build models over those stars' slots, so no command reads
a star twice."""

import ast
from pathlib import Path

import tropctl

SRC = Path(tropctl.__file__).parent
ALLOWED = {"residues.phylo_stars", "residues.xi_map"}


def _callers(sources: dict) -> set[str]:
    """"module.function" (or "module.Class.method") of each top-level
    function or method of the sources that calls `from_star`."""
    out = set()
    for module, source in sources.items():
        scopes = []
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                scopes += [(f"{module}.{node.name}.{sub.name}", sub) for sub in node.body if isinstance(sub, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                scopes.append((f"{module}.{node.name}", node))
        for name, scope in scopes:
            for sub in ast.walk(scope):
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) and sub.func.attr == "from_star":
                    out.add(name)
    return out


def _package() -> dict:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_only_the_series_pass_and_xi_map_read_a_star():
    assert _callers(_package()) == ALLOWED


def test_a_second_reader_of_a_star_is_found():
    sources = _package()
    sources["cli"] += (
        "\n\ndef _phylo_leaves(image, series_map):\n"
        "    return {vid: LocalModel.from_star(image, vid).finite for vid in sorted(series_map)}\n"
    )
    assert _callers(sources) - ALLOWED == {"cli._phylo_leaves"}

"""Code lines of each module of the tropctl package, and their total.

Run from the repository root as

    python tests/code_lines.py

A line counts when it holds a token other than a comment and lies outside
every module, class and function docstring: blank lines, comment lines and
docstrings do not count.  A token that spans lines, such as a triple-quoted
string that is not a docstring, counts on every line it spans.  It prints
one line `<count> <module>` per module of src/tropctl, in name order, and
last `<count> total`.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tropctl"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main():
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count} {path.stem}")
    print(f"{total} total")


if __name__ == "__main__":
    main()

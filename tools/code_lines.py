"""Count the code lines of Python modules.

A line is a code line when it holds a token other than a comment, NL,
NEWLINE, INDENT or DEDENT token, or a string that is a statement on its own
(a docstring, or any other bare string expression). A token that spans
lines, such as a triple-quoted string inside an expression, makes each line
it spans a code line.

Usage: python tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for .py files (default
src/entquant). Prints each module's count and then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in the module source."""
    bare = set()  # the lines of every string that is a statement on its own
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            bare.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED or (tok.type == tokenize.STRING and tok.start[0] in bare):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _modules(paths: list[str]) -> list[Path]:
    found = []
    for p in map(Path, paths):
        found += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    return found


def main(argv: list[str] | None = None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or ["src/entquant"]
    total = 0
    for path in _modules(paths):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Count the lines of every module under ``src/`` and ``tests/``: all of them, and those of code.

A line of code is one that holds a token of code: not blank, not a comment,
and not in a docstring (a string that opens a module, class or function
body, found with ``ast``).  A statement split over lines counts each of
them.  Prints one table per tree, with one row per module and a total::

    python scripts/src_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    nodes = [node for node in ast.walk(tree) if isinstance(node, _DOCUMENTED)]
    docs = [node.body[0] for node in nodes if ast.get_docstring(node) is not None]
    return {line for doc in docs for line in range(doc.lineno, doc.end_lineno + 1)}


def count(text: str) -> tuple[int, int]:
    """All lines of ``text``, and its lines of code."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def table(tree: Path) -> list[tuple[str, int, int]]:
    """One row per module under ``tree``, its dotted name, all lines and lines of code, then the total."""
    rows = []
    for path in sorted(tree.rglob("*.py")):
        name = ".".join(path.relative_to(tree).with_suffix("").parts)
        rows.append((name, *count(path.read_text(encoding="utf-8"))))
    return rows + [("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]


def main() -> None:
    for tree in ("src", "tests"):
        rows = table(ROOT / tree)
        width = max(len(r[0]) for r in rows)
        print(f"{tree + '/':<{width}}  {'lines':>5}  {'code':>5}")
        for name, lines, code in rows:
            print(f"{name:<{width}}  {lines:>5}  {code:>5}")


if __name__ == "__main__":
    main()

"""Count the lines of the sharpv package: all lines, and code lines.

A code line holds at least one Python token that is not a comment and
is not part of a docstring (the leading string of a module, class or
function). Blank lines, comment-only lines and docstring lines are not
code; a line with code and a trailing comment is.

    python tools/src_lines.py

prints the package total first, then each module's counts.

Standard library only.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    rows = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                rows.update(range(first.lineno, first.end_lineno + 1))
    return rows


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one Python file."""
    source = path.read_text()
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(rows - docstring_lines(ast.parse(source)))


def main() -> None:
    root = Path(__file__).resolve().parent.parent / "src" / "sharpv"
    counts = {path.name: count(path) for path in sorted(root.glob("*.py"))}
    total = sum(t for t, _ in counts.values())
    code = sum(c for _, c in counts.values())
    print(f"{root.name}: {len(counts)} files, {total} lines, {code} code lines")
    for name, (t, c) in counts.items():
        print(f"  {name}: {t} lines, {c} code lines")


if __name__ == "__main__":
    main()

"""Code lines of Python files: lines that hold code, not counting blank
lines, comment-only lines or docstrings.

    python3 tools/code_lines.py PATH...

Each PATH is a ``.py`` file or a directory, searched recursively for
``.py`` files.  It prints one ``<lines>  <file>`` row per file, in sorted
order, then the ``<lines>  total``.  A line counts when it holds a token
other than a comment (found with :mod:`tokenize`; a multi-line string
counts on every line it spans) and lies outside the docstrings of the
module, its classes and its functions (found with :mod:`ast`).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list | None = None) -> int:
    paths = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    if not paths:
        print("usage: python3 tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    files = sorted({f for p in paths for f in (p.rglob("*.py") if p.is_dir() else [p])})
    total = 0
    for f in files:
        count = code_lines(f.read_text())
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

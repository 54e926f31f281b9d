"""Count the code lines of the Python modules in a directory.

A code line is a source line that holds a token other than a comment or a
docstring (the string that opens a module, class or function body), as
Python's own tokenizer reads it; blank lines, comment lines and docstring
lines do not count, and a token spanning several lines counts on each.

    python3 scripts/code_lines.py src/selfattract

prints one line per module, ``<lines>  <module>``, and then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) of every docstring's first character."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add((first.lineno, first.col_offset))
    return out


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    skip = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in skip):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print("usage: code_lines.py DIR", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(Path(argv[0]).glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Count the code lines of each module of src/parabgk and their total.

A line counts when it holds a token that is neither a comment nor a
docstring: blank lines, comment lines and the lines of a module, class or
function docstring do not count. Only the standard library is used.

    python3 tools/code_lines.py [package directory]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Every line a module, class or function docstring spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines holding a token that is not a comment or docstring."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        spanned = range(token.start[0], token.end[0] + 1)
        lines.update(line for line in spanned if line not in docstrings)
    return len(lines)


def main(argv: list[str]) -> None:
    package = Path(argv[1] if len(argv) > 1 else
                   Path(__file__).resolve().parent.parent / "src" / "parabgk")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<16}{count:>6}")
    print(f"{'total':<16}{total:>6}")


if __name__ == "__main__":
    main(sys.argv)

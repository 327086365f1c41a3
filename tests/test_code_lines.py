"""The code-line counter of tools/code_lines.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# 15 code lines: the import, the class, the def, the 4 lines of the string
# that is not a docstring, total's 2, the return, the async def, the
# continued x's 2, the expression string and the last return.
SNIPPET = '''\
"""Module docstring
over two lines."""

import os  # a trailing comment

# a comment line


class Box:
    """Class docstring."""

    def pair(self):
        """Function
        docstring."""
        text = """a string

that is not a docstring
"""
        total = (1 +
                 # a comment inside the parentheses
                 2)
        return text, total


async def wait():
    """Async docstring."""
    x = 1 \\
        + 2
    "an expression string after the first statement"
    return x
'''


def test_counts_code_and_skips_comments_blanks_and_docstrings():
    assert code_lines.code_lines(SNIPPET) == 15


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    code_lines.main(["code_lines.py", str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "15"], ["b.py", "1"], ["total", "16"]]

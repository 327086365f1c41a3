"""numpy is the only runtime dependency: the package imports nothing else."""

import ast
import sys
from pathlib import Path

import parabgk

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "parabgk"}


def _absolute_imports(path):
    """Top-level names of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library_and_numpy():
    # every import counts, including one deferred into a function body
    sources = sorted(Path(parabgk.__path__[0]).glob("*.py"))
    assert len(sources) > 10
    foreign = sorted({(path.name, name) for path in sources
                      for name in _absolute_imports(path) if name not in ALLOWED})
    assert foreign == [], f"imports outside the standard library and numpy: {foreign}"

"""numpy is the only runtime dependency: the package imports nothing else,
neither the package nor its tests import a name they do not use, and a
package module imports another's private names only where listed."""

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


def _unused_imports(path):
    """Names one source file imports but never reads nor lists in __all__."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in node.targets)):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_no_unused_imports():
    package = Path(parabgk.__path__[0])
    # the package's __init__ imports exactly what it re-exports
    sources = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    sources += sorted(Path(__file__).parent.glob("*.py"))
    assert len(sources) > 20
    unused = sorted((path.name, name) for path in sources for name in _unused_imports(path))
    assert unused == [], f"imported and never used: {unused}"


# (module, private name) pairs that other package modules may import: the
# grid's number checks, and the window chain that runner's fine mode steps
PRIVATE_IMPORTS = {("grid", "_count"), ("grid", "_real"), ("parareal", "_window_chain")}


def _private_imports(path):
    """(module, name) of each private name one source file imports from
    another module of the package, relatively or by its absolute name."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            package, _, module = (node.module or "").rpartition(".")
            if node.level == 1 or package == "parabgk":
                yield from ((module, alias.name) for alias in node.names
                            if alias.name.startswith("_"))


def test_private_names_cross_modules_only_where_listed():
    # a private name is its module's own decision: another module that
    # reads it depends on how that module works inside
    sources = sorted(Path(parabgk.__path__[0]).glob("*.py"))
    imports = {(path.name, pair) for path in sources for pair in _private_imports(path)}
    stray = sorted((name, f"{module}.{private}") for name, (module, private) in imports
                   if (module, private) not in PRIVATE_IMPORTS)
    assert stray == [], f"private names imported from another module: {stray}"
    # and the list holds no pair that is no longer imported
    assert {pair for _, pair in imports} == PRIVATE_IMPORTS

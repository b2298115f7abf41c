"""The package and the tools import nothing outside the standard library.

Some third-party packages happen to be installed where the tests run, so
an accidental import of one would pass every other test here and break
the package, or a tool, wherever it is not installed.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pagecachesim"
TOOLS = ROOT / "tools"
ALLOWED = set(sys.stdlib_module_names) | {"pagecachesim"}


def imported_roots(path: Path):
    """(line, top-level module) of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TOOLS.glob("*.py")),
    ids=lambda path: path.name if path.parent == PACKAGE
    else "tools/" + path.name)
def test_imports_only_the_standard_library(path):
    foreign = ["line %d: %s" % (line, root)
               for line, root in imported_roots(path) if root not in ALLOWED]
    assert not foreign, "%s imports outside the standard library: %s" % (
        path.name, ", ".join(foreign))

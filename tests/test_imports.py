"""Every module of the package reads every name it imports, and imports
nothing from outside the standard library.

No linter ships with the project, so this parses each module with ``ast``.
``__init__.py`` is left out of the first check: its imports are the
package's re-exports.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "linkopt"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads.

    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing.
    A name read only inside a string (say a quoted annotation) counts as
    unused.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_checker_reports_names_never_read():
    source = (
        "import math\nimport os.path\nfrom .per import snr_min, payload_max\n"
        "from .energy import e0 as energy0\n"
        "def f(x: int) -> float:\n    return payload_max(os.path.sep, x)\n"
    )
    assert unused_imports(source) == ["energy0", "math", "snr_min"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def non_stdlib_imports(source: str) -> list[str]:
    """Modules named by an absolute import in ``source`` that are not part
    of the standard library; relative imports are the package's own."""
    tree = ast.parse(source)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted(name for name in names
                  if name.partition(".")[0] not in sys.stdlib_module_names)


def test_stdlib_checker_reports_third_party_modules():
    source = (
        "from __future__ import annotations\nimport math, os.path\n"
        "import scipy.integrate\nfrom numpy import exp\n"
        "from .per import snr_min\nfrom . import energy\n"
    )
    assert non_stdlib_imports(source) == ["numpy", "scipy.integrate"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda path: path.name)
def test_module_imports_only_the_standard_library(path):
    """Guards ``dependencies = []`` in pyproject.toml."""
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []

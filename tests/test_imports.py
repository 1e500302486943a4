"""Every module of the package reads every name it imports.

No linter ships with the project, so this parses each module with ``ast``.
``__init__.py`` is left out: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "linkopt"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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

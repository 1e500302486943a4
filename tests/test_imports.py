"""Every module of the package reads every name it imports, imports
nothing from outside the standard library, opens files in two places only,
copies no link per distance outside the battery, and the numeric oracles
live in ``linkopt.oracles`` alone.

No linter ships with the project, so this parses each module with ``ast``.
``__init__.py`` is left out of the first check: its imports are the
package's re-exports.
"""

import ast
import sys
from pathlib import Path

import pytest

import linkopt
from linkopt import oracles, per, validation

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


def open_callers(source: str) -> set[str]:
    """Names of the functions in ``source`` that call the builtin ``open``,
    ``<module>`` for a call outside any function; ``os.open`` is not it."""
    callers = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "open"):
            callers.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return callers


def test_open_checker_names_the_enclosing_function():
    source = (
        "import os\nopen('a')\ndef f():\n    def g():\n        open('b')\n"
        "    return os.open('c', 0)\nclass C:\n    def h(self):\n"
        "        return open\n"
    )
    assert open_callers(source) == {"<module>", "g"}


def test_only_the_out_stream_and_the_config_loader_open_files():
    """``cli._open_out`` opens every ``--out``; outside ``cli`` only
    ``config.load_config`` calls ``open``."""
    callers = {(path.name, name) for path in ALL_MODULES
               for name in open_callers(path.read_text(encoding="utf-8"))}
    assert callers == {("cli.py", "_open_out"), ("config.py", "load_config")}


def distance_copies(source: str) -> int:
    """Calls in ``source`` of a function or method named ``replace`` that
    set ``distance_m``: the per-distance copies of a link."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            count += name == "replace" and any(
                keyword.arg == "distance_m" for keyword in node.keywords)
    return count


def test_distance_copy_checker_counts_replace_calls_setting_the_distance():
    source = (
        "import dataclasses\nfrom dataclasses import replace\n"
        "a = replace(link, distance_m=d)\n"
        "b = dataclasses.replace(link, n0=1.0, distance_m=2.0)\n"
        "c = replace(link, n0=1.0)\nd = 'x'.replace('x', 'y')\n"
        "e = link.gain_at(distance_m)\n"
    )
    assert distance_copies(source) == 2


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "validation.py"],
    ids=lambda path: path.name)
def test_no_link_copied_per_distance(path):
    """A distance reaches the solver as its path gain,
    ``link_template.gain_at(d)``; only the battery, which feeds the public
    point helpers it checks, copies a link to a distance."""
    assert distance_copies(path.read_text(encoding="utf-8")) == 0


ORACLE_NAMES = (
    "_q_function", "ber", "awgn_per", "_awgn_cutoff",
    "CUTOFF_FLOOR", "_XGK", "_WGK", "_WGK_CENTRE", "_WG", "_NODES",
    "_KRONROD", "_GAUSS", "_GAUSS_ODD", "_ROUNDOFF", "QUAD_PANELS", "_qk21",
    "_gauss_kronrod", "_checked_quad", "_awgn_pers", "AwgnPerCurve",
    "waterfall_threshold_numeric",
    "per_rayleigh_exact", "_INVPHI", "_INVPHI2", "golden_section_min",
    "golden_section_min_relative", "_exp_or_inf", "_packet_energy_unbounded",
    "golden_payload", "_energy_curve_snr", "cubic_root_bisection",
)


def test_oracles_live_only_in_their_module():
    """Neither the closed forms nor the battery carries an oracle or an
    alias of one, and the package exports none of the AWGN or quadrature
    routes."""
    assert [n for n in ORACLE_NAMES if not hasattr(oracles, n)] == []
    for module in (per, validation):
        assert [n for n in ORACLE_NAMES if hasattr(module, n)] == []
    assert not {"QUAD_EPSREL", "QUAD_EPSABS"} & set(vars(per))
    dropped = {"ber", "awgn_per", "per_rayleigh_exact",
               "waterfall_threshold_numeric"}
    assert dropped.isdisjoint(linkopt.__all__)
    assert [n for n in sorted(dropped) if hasattr(linkopt, n)] == []

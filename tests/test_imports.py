"""Every name a package module imports is used in that module, and the
package's runtime dependencies are exactly what it imports.

A name is used when the module reads it (``np.array`` reads ``np``) or
lists it in ``__all__``. Star imports and ``__future__`` imports bind no
checked name.
"""

import ast
import re
import sys

import pytest

from conftest import ROOT

MODULES = sorted((ROOT / "src" / "lpwanleak").glob("*.py"))

# names imported for a reader outside the module, by module
KEPT = {
    # perfbench/tracer.py wraps guess_run where experiment looks it up
    "experiment": {"guess_run"},
}


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return imported - used


def test_unused_imports_finds_what_it_should():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .a import *\nfrom .b import c, d as e, f\n__all__ = ['f']\n"
              "np.zeros(1)\n")
    assert unused_imports(source) == {"os", "c", "e"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == KEPT.get(path.stem, set())


def third_party_imports(source: str) -> set[str]:
    """Top-level modules outside the standard library that ``source`` imports absolutely."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found - set(sys.stdlib_module_names)


def declared_dependencies(pyproject: str) -> set[str]:
    """Distribution names in the ``dependencies`` array of the ``[project]``
    table (read by hand: tomllib is 3.11+ and the package supports 3.10)."""
    table = ("\n" + pyproject).partition("\n[project]\n")[2].partition("\n[")[0]
    array = re.search(r'^dependencies\s*=\s*\[((?:"[^"]*"|[^]"])*)\]', table, re.M).group(1)
    return {re.match(r"[\w.-]+", spec).group(0).lower()
            for spec in re.findall(r'"([^"]+)"', array)}


def test_dependency_readers_find_what_they_should():
    assert third_party_imports("import os.path\nimport numpy.linalg as la\nfrom scipy import "
                               "special\nfrom . import cli\nfrom .traffic import Run\n"
                               "from __future__ import annotations\n") == {"numpy", "scipy"}
    pyproject = ('[project]\nname = "x"\ndependencies = [\n    "numpy>=1.22",\n'
                 '    "Foo_bar[extra] ; python_version < \'4\'",\n]\n\n'
                 '[project.optional-dependencies]\ntest = [\n    "pytest>=7",\n]\n')
    assert declared_dependencies(pyproject) == {"numpy", "foo_bar"}
    assert declared_dependencies('[project]\ndependencies = ["numpy"]\n') == {"numpy"}


def test_runtime_dependencies_are_the_package_imports():
    imported = set().union(*(third_party_imports(p.read_text(encoding="utf-8"))
                             for p in MODULES))
    declared = declared_dependencies((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert imported == declared == {"numpy"}

"""Every name a package module imports is used in that module.

A name is used when the module reads it (``np.array`` reads ``np``) or
lists it in ``__all__``. Star imports and ``__future__`` imports bind no
checked name.
"""

import ast

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

"""Every script in `demos/` runs against the installed package and prints
exactly its golden under `tests/golden/demos/`.

The demos are seeded, so their stdout is byte-stable. Regenerate a golden
(`python demos/NAME.py > tests/golden/demos/NAME.txt`) only for a change
that means to alter what the demo prints, and say which line changes and
why.
"""

import runpy

import pytest

from conftest import ROOT

DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_prints(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"{path.stem}.txt").read_bytes().decode()

"""Every script in `demos/` runs against the installed package and prints."""

import runpy

import pytest

from conftest import ROOT

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_prints(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()

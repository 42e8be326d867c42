"""Every script in `demos/` runs against the installed package and prints
exactly its golden under `tests/golden/demos/`, and the README's library
quickstart runs as written.

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


def test_readme_library_quickstart_runs(capsys):
    # the README's API example runs as written, so it cannot go stale
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md (Library quickstart)", "exec"), {"__name__": "__main__"})
    printed = [[float(v) for v in line.split()] for line in capsys.readouterr().out.splitlines()]
    assert list(map(len, printed)) == [4, 3]

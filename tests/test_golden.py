"""Byte-for-byte goldens of the CSV outputs that share the package's writer.

`tests/golden/` holds the costs, analyze and posterior CSVs of the command
line and the trace CSV that `write_trace_csv` writes for analyze. The CLI
outputs are compared without their first line, the `# lpwanleak ...`
provenance comment, which names the tool version and config hash; the trace
CSV is compared whole. Regenerate a golden only for a change that means to
alter that output, and say which column changes and why.
"""

import pathlib

from lpwanleak import IntervalModel, gen_run, to_timestamps
from lpwanleak.cli import main, write_trace_csv

from conftest import CONFIG_DIR, ROOT

GOLDEN = ROOT / "tests" / "golden"

ANALYZE_CFG = """\
[analyze]
slot_width = 2.0
slots = 10
alpha = 0.05
"""


def _cli_csv(out: pathlib.Path, *argv: str) -> str:
    assert main([*argv, "--seed", "5", "--out", str(out)]) == 0
    provenance, body = out.read_text().split("\n", 1)
    assert provenance.startswith("# lpwanleak ")
    return body


def golden_outputs(tmp: pathlib.Path) -> dict[str, str]:
    """Each golden file's name and the text the package writes for it now."""
    run = gen_run(IntervalModel(10, 1.0, 40.0, 0.3), 40, 21)
    trace = tmp / "trace.csv"
    write_trace_csv(trace, to_timestamps(run, slot_width=2.0, start=1000.0),
                    device="node-7", comment="seeded gen_run, 40 intervals")
    cfg = tmp / "analyze.cfg"
    cfg.write_text(ANALYZE_CFG)
    return {
        "trace.csv": trace.read_text(),
        "analyze.csv": _cli_csv(tmp / "analyze.csv", "analyze", str(trace),
                                "--config", str(cfg), "--format", "csv"),
        "costs.csv": _cli_csv(tmp / "costs.csv", "costs", "--config",
                              str(CONFIG_DIR / "cost_curves.cfg")),
        "posterior.csv": _cli_csv(tmp / "posterior.csv", "posterior",
                                  str(ROOT / "fixtures" / "table_noisy.json"),
                                  "--format", "csv"),
    }


def test_cli_csvs_match_golden(tmp_path):
    for name, text in golden_outputs(tmp_path).items():
        assert text == (GOLDEN / name).read_bytes().decode(), name

"""Byte-for-byte goldens of the CSV outputs that share the package's writer.

`tests/golden/` holds the costs, analyze and posterior CSVs of the command
line and the trace CSV that `write_trace_csv` writes for analyze. The CLI
outputs are compared without their first line, the `# lpwanleak ...`
provenance comment, which names the tool version and config hash; the trace
CSV is compared whole. Regenerate a golden only for a change that means to
alter that output, and say which column changes and why. The figure CSVs,
pinned byte for byte by the acceptance suite, are checked here against
their closed-form expected metrics.
"""

import csv
import pathlib
from statistics import NormalDist

import pytest

from lpwanleak import IntervalModel, gen_run, idealized_metrics, to_timestamps
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


FIGURES = ("figure_repro.csv", "figure_repro_incomplete.csv")


def _figure_rows(name: str) -> list[dict[str, float]]:
    with open(GOLDEN / name, newline="") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(ln for ln in fh if not ln.startswith("#"))]


def test_figure_rows_match_closed_form():
    # In idealized mode both metrics estimate known values: every row of both
    # figure CSVs, search rows included, must lie within a 3-sigma band
    # Bonferroni-widened over all the comparisons made here (z ~ 4.44).
    rows = [row for name in FIGURES for row in _figure_rows(name)]
    assert len(rows) == 152
    family = 2.0 * (1.0 - NormalDist().cdf(3.0))
    z = NormalDist().inv_cdf(1.0 - family / (2.0 * 2 * len(rows)))
    assert z == pytest.approx(4.44, abs=0.01)
    for row in rows:
        want = idealized_metrics(row["R_p"], row["P_tp"] * row["P_wf"],
                                 row["P_tn"] * row["P_f"])
        for (value, se), expected in zip((("guess_err", "guess_err_se"),
                                          ("ce_bits", "ce_bits_se")), want):
            dev = abs(row[value] - float(expected))
            assert dev <= z * row[se] + 1e-12, (row["R_p"], row["I"], value, dev, row[se])

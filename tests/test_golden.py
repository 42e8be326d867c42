"""Byte-for-byte goldens of the CSV outputs that share the package's writer.

`tests/golden/` holds the costs, analyze, posterior and chi-square sweep
CSVs of the command line and the trace CSV that the test helper
`trace_files.write_trace_csv` writes for analyze. The CLI outputs are
compared without their first line, the `# lpwanleak ...` provenance
comment, which names the tool version and config hash; the trace CSV is
compared whole. `trace_metrics.json` pins the exact and Monte-Carlo
trace metrics of every shipped fixture and of one overlapping table, and
with them the layout of the trace sampler's draws, as the `repr` of each
float. Regenerate a golden only for a change that means to alter that
output, and say which column changes and why. The figure CSVs,
pinned byte for byte by the acceptance suite, are checked here against
their closed-form expected metrics.
"""

import csv
import json
import pathlib
from statistics import NormalDist

import pytest

from lpwanleak import (
    CardinalityDistance,
    IntervalModel,
    average_error,
    average_error_mc,
    conditional_entropy,
    conditional_entropy_mc,
    gen_run,
    idealized_metrics,
    load_fixture,
)
from lpwanleak.cli import main

from conftest import CONFIG_DIR, FIXTURE_PATHS, ROOT
from trace_files import to_timestamps, write_trace_csv

GOLDEN = ROOT / "tests" / "golden"

ANALYZE_CFG = """\
[analyze]
slot_width = 2.0
slots = 10
alpha = 0.05
"""

# a chi-square sweep whose cells hold all six (truth, action) classes
# between them, mispredicted intervals included
CHISQ_CFG = """\
[model]
slots = 10
base_rate = 1.0

[knowledge]
tpr = 0.7
tnr = 0.99

[sweep]
anomaly_rates = 0.05, 0.2, 0.5, 0.9
intensities = 10, 40
n_intervals = 5000
detector = chi-square
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
    chisq_cfg = tmp / "chisq.cfg"
    chisq_cfg.write_text(CHISQ_CFG)
    return {
        "trace.csv": trace.read_text(),
        "analyze.csv": _cli_csv(tmp / "analyze.csv", "analyze", str(trace),
                                "--config", str(cfg), "--format", "csv"),
        "costs.csv": _cli_csv(tmp / "costs.csv", "costs", "--config",
                              str(CONFIG_DIR / "cost_curves.cfg")),
        "posterior.csv": _cli_csv(tmp / "posterior.csv", "posterior",
                                  str(ROOT / "fixtures" / "table_noisy.json"),
                                  "--format", "csv"),
        "chisq_sweep.csv": _cli_csv(tmp / "chisq_sweep.csv", "sweep", "--config",
                                    str(chisq_cfg), "--format", "csv"),
    }


def test_cli_csvs_match_golden(tmp_path):
    for name, text in golden_outputs(tmp_path).items():
        assert text == (GOLDEN / name).read_bytes().decode(), name


# two reals whose noisy outputs overlap in {1, 2}: the only instance here
# whose Monte-Carlo metrics depend on the per-real output draws
OVERLAP = {
    "name": "table_overlap", "tick": 1.0, "window": [0.0, 3.0],
    "prior": [{"trace": [1.0], "p": 0.5}, {"trace": [2.0], "p": 0.5}],
    "mechanism": {"type": "table", "rows": [
        {"real": [1.0], "outputs": [{"observed": [1.0], "q": 0.5},
                                    {"observed": [1.0, 2.0], "q": 0.5}]},
        {"real": [2.0], "outputs": [{"observed": [2.0], "q": 0.25},
                                    {"observed": [1.0, 2.0], "q": 0.75}]}]},
}


def trace_metrics_json(budget: int = 20_000) -> str:
    """Exact and Monte-Carlo trace metrics of every fixture, as float reprs.

    Instance k (the fixtures in sorted path order, then OVERLAP) draws its
    average-error samples from seed (k, 0) and its conditional-entropy
    samples from seed (k, 1).
    """
    dist = CardinalityDistance()
    doc = {}
    for k, source in enumerate([*FIXTURE_PATHS, OVERLAP]):
        fx = load_fixture(source)
        ae_mc, ae_se = average_error_mc(fx.prior, fx.mechanism, dist, budget=budget, seed=(k, 0))
        ce_mc, ce_se = conditional_entropy_mc(fx.prior, fx.mechanism, budget=budget, seed=(k, 1))
        values = {
            "average_error": average_error(fx.prior, fx.mechanism, dist, method="exact"),
            "average_error_mc": ae_mc, "average_error_se": ae_se,
            "conditional_entropy": conditional_entropy(fx.prior, fx.mechanism, method="exact"),
            "conditional_entropy_mc": ce_mc, "conditional_entropy_se": ce_se,
        }
        doc[fx.name] = {key: repr(v) for key, v in values.items()}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_trace_metrics_match_golden():
    assert trace_metrics_json() == (GOLDEN / "trace_metrics.json").read_bytes().decode()


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

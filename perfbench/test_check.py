"""Tests of the benchmark's own checker and span arithmetic.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check import (SWEEP_HEADER, band_z, check_analyze, check_sweep,  # noqa: E402
                   check_tracemc, expected_dispersion, read_sweep_csv)
from tracer import layer_metrics, tail_index  # noqa: E402
from workloads import REFERENCE_DIR, trace_counts  # noqa: E402


def _reference_text(name: str) -> str:
    with open(os.path.join(REFERENCE_DIR, f"{name}.csv")) as fh:
        return fh.read()


def _edit_rows(text: str, edit) -> str:
    """Apply ``edit(rows)`` to the data rows (lists of fields) of a sweep CSV."""
    lines = text.splitlines()
    head = [ln for ln in lines if ln.startswith("#")] + [SWEEP_HEADER]
    rows = [ln.split(",") for ln in lines if ln and not ln.startswith("#")][1:]
    rows = edit(rows)
    return "\n".join(head + [",".join(r) for r in rows]) + "\n"


COL = {name: i for i, name in enumerate(SWEEP_HEADER.split(","))}


@pytest.fixture(scope="module", params=["figure-sweep", "chisq-sweep"])
def sweep(request):
    text = _reference_text(request.param)
    return text, read_sweep_csv(text)


def test_reference_passes_against_itself(sweep):
    text, ref = sweep
    v = check_sweep(text, ref)
    assert (v.attempted, v.failed) == (76, 0)


def test_rejects_perturbed_guess_err(sweep):
    text, ref = sweep

    def perturb(rows):
        se = float(rows[5][COL["guess_err_se"]])
        rows[5][COL["guess_err"]] = repr(float(rows[5][COL["guess_err"]]) + 10 * se)
        return rows

    v = check_sweep(_edit_rows(text, perturb), ref)
    assert v.failed == 1 and "guess_err" in v.notes[0]


def test_accepts_guess_err_within_band(sweep):
    text, ref = sweep

    def nudge(rows):
        se = float(rows[5][COL["guess_err_se"]])
        rows[5][COL["guess_err"]] = repr(float(rows[5][COL["guess_err"]]) + 2 * se)
        return rows

    assert check_sweep(_edit_rows(text, nudge), ref).failed == 0


def test_rejects_nan_row(sweep):
    text, ref = sweep

    def nan_out(rows):
        for c in ("guess_err", "guess_err_se", "ce_bits", "ce_bits_se"):
            rows[7][COL[c]] = "nan"
        return rows

    assert check_sweep(_edit_rows(text, nan_out), ref).failed == 1


def test_rejects_dropped_row(sweep):
    text, ref = sweep
    v = check_sweep(_edit_rows(text, lambda rows: rows[:30] + rows[31:]), ref)
    assert v.failed == 1 and "0 rows" in v.notes[0]


def test_rejects_duplicated_and_extra_rows(sweep):
    text, ref = sweep
    assert check_sweep(_edit_rows(text, lambda rows: rows + [rows[0]]), ref).failed == 1

    def off_grid(rows):
        extra = list(rows[0])
        extra[COL["R_p"]] = "0.97"
        return rows + [extra]

    v = check_sweep(_edit_rows(text, off_grid), ref)
    assert (v.attempted, v.failed) == (77, 1)


def test_epsilon_may_shrink_but_not_grow():
    text = _reference_text("chisq-sweep")
    ref = read_sweep_csv(text)
    i = next(i for i, r in enumerate(ref) if r["epsilon"] != 0.0)

    def scale(factor):
        def edit(rows):
            rows[i][COL["epsilon"]] = repr(float(rows[i][COL["epsilon"]]) * factor)
            return rows
        return edit

    assert check_sweep(_edit_rows(text, scale(0.5)), ref).failed == 0
    assert check_sweep(_edit_rows(text, scale(1.5)), ref).failed == 1


def test_rejects_changed_grid_or_feasibility():
    text = _reference_text("figure-sweep")
    ref = read_sweep_csv(text)

    def flip(rows):
        rows[0][COL["feasible_optimal"]] = "0" if rows[0][COL["feasible_optimal"]] == "1" else "1"
        rows[1][COL["S"]] = "11"
        return rows

    assert check_sweep(_edit_rows(text, flip), ref).failed == 2


def _analyze_text(counts, alpha=0.05, flip=None, drop=None) -> str:
    d, thr, flagged, _ = expected_dispersion(counts, alpha)
    lines = ["# lpwanleak test", "interval,D,flagged,threshold"]
    for i in range(len(d)):
        if i == drop:
            continue
        flag = int(flagged[i]) ^ (i == flip)
        lines.append(f"{i},{float(d[i])!r},{flag},{thr!r}")
    return "\n".join(lines) + "\n"


def test_analyze_check():
    counts = trace_counts(np.random.default_rng(5), 200)
    counts[3] = 0  # an empty interval has D = nan and is never flagged
    counts[0, 0] = 1
    assert check_analyze(_analyze_text(counts), counts, 0.05).failed == 0
    assert check_analyze(_analyze_text(counts, flip=17), counts, 0.05).failed == 1
    v = check_analyze(_analyze_text(counts, drop=199), counts, 0.05)
    assert (v.attempted, v.failed) == (200, 1)


def _tracemc_doc(est_shift_se=0.0):
    with open(os.path.join(REFERENCE_DIR, "trace-mc.json")) as fh:
        ref = json.load(fh)
    rows = []
    for name, vals in ref.items():
        row = {"name": name}
        for metric, exact in vals.items():
            row[metric] = exact
            row[metric + "_se"] = 0.01
            row[metric + "_mc"] = exact + est_shift_se * 0.01
        rows.append(row)
    return {"budget": 1000, "priors": rows}, ref


def test_tracemc_check():
    doc, ref = _tracemc_doc(2.0)
    assert check_tracemc(doc, ref).failed == 0
    doc, ref = _tracemc_doc(10.0)
    v = check_tracemc(doc, ref)
    assert v.failed == v.attempted == 2 * len(ref) * 1000
    doc, ref = _tracemc_doc()
    doc["priors"][0]["average_error"] += 0.5
    doc["priors"][0]["average_error_mc"] += 0.5
    assert check_tracemc(doc, ref).failed == 1000


def test_band_widens_with_the_number_of_comparisons():
    assert band_z(1) >= 3.0
    assert band_z(14) < band_z(152) < 5.5
    # a correct sweep fails with probability FAMILY_ALPHA, not 1 - 0.9973**152
    per = 2 * (1 - 0.5 * (1 + math.erf(band_z(152) / math.sqrt(2))))
    assert per * 152 == pytest.approx(1e-4, rel=1e-3)


def test_tail_index_leaves_ten_samples_beyond():
    assert tail_index(76) == 65 and 76 - 1 - tail_index(76) == 10
    assert tail_index(5) == 4


def test_layer_self_times_add_up_to_the_covered_time():
    spans = [
        {"name": "cli.main", "start": 0.0, "end": 1.0, "parent": None, "id": None, "attrs": {}},
        {"name": "experiment.run_cell", "start": 0.1, "end": 0.9, "parent": 0, "id": "(1,)", "attrs": {}},
        {"name": "traffic.gen_run", "start": 0.2, "end": 0.5, "parent": 1, "id": "(1,)",
         "attrs": {"bytes": 80}},
        {"name": "obfuscator.solve_strategy", "start": 0.5, "end": 0.6, "parent": 1, "id": "(1,)",
         "attrs": {"path": "search"}},
    ]
    m, _ = layer_metrics(spans, wall_s=1.25, untraced_wall_s=1.0, output_bytes=10)
    assert m["cli.self_ms"] == pytest.approx(200.0)
    assert m["experiment.self_ms"] == pytest.approx(400.0)
    assert m["traffic.self_ms"] == pytest.approx(300.0)
    assert m["obfuscator.solve_strategy.search.calls"] == 1
    assert m["trace.uncovered_ms"] == pytest.approx(250.0)
    assert m["trace.overhead_ms"] == pytest.approx(250.0)

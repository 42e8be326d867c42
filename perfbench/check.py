"""Correctness checks for every output the benchmark's operations write.

* Sweeps are compared cell by cell with a reference CSV made at the
  pinned seed. Grid columns, ideal columns and ``feasible_optimal`` must
  match exactly; ``|epsilon|`` may only shrink; ``guess_err`` and
  ``ce_bits`` must lie within ``z`` combined standard errors of the
  reference row. A nan metric, a missing, duplicated or extra row fails
  its cell.
* ``analyze`` output is recomputed from the counts matrix the benchmark
  generated: dispersion D, the chi-square threshold and each verdict.
  Every mismatched or missing interval fails.
* trace-mc estimates must lie within ``z`` standard errors of the exact
  value, and the exact fixture values must match the reference.

``z`` is 3 per comparison, widened by a Bonferroni correction so that a
correct program fails one operation in 10^4 (``FAMILY_ALPHA``): a sweep
makes 152 comparisons, and 3 sigma on each would fail a correct sweep on
about a third of the seeds the benchmark is run with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

FAMILY_ALPHA = 1e-4

SWEEP_HEADER = ("R_p,I,S,lambda,P_tp,P_tn,budget,P_wf,P_f,epsilon,cost,"
                "feasible_optimal,guess_err,guess_err_se,ce_bits,ce_bits_se,"
                "ideal_guess_err,ideal_ce_bits")
EXACT_COLUMNS = ("R_p", "I", "S", "lambda", "P_tp", "P_tn", "budget",
                 "feasible_optimal", "ideal_guess_err", "ideal_ce_bits")
FINITE_COLUMNS = ("P_wf", "P_f", "epsilon", "cost", "guess_err", "guess_err_se",
                  "ce_bits", "ce_bits_se")
BANDED = (("guess_err", "guess_err_se"), ("ce_bits", "ce_bits_se"))


def band_z(comparisons: int, alpha: float = FAMILY_ALPHA) -> float:
    """Per-comparison band, in standard errors, for a family of comparisons."""
    return max(3.0, NormalDist().inv_cdf(1.0 - alpha / (2.0 * max(1, comparisons))))


@dataclass
class Verdict:
    """Outcome of checking one output: operations attempted and failed."""

    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)
    max_z: float = 0.0

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 10:
            self.notes.append(note)


def _data_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def read_sweep_csv(text: str) -> list[dict[str, float]]:
    lines = _data_lines(text)
    if not lines or lines[0] != SWEEP_HEADER:
        raise ValueError("sweep output lacks the pinned header")
    cols = SWEEP_HEADER.split(",")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(cols):
            raise ValueError(f"sweep row has {len(parts)} fields: {ln!r}")
        rows.append(dict(zip(cols, (float(p) for p in parts))))
    return rows


def check_sweep(text: str, reference: list[dict[str, float]]) -> Verdict:
    """One operation per reference cell; extra rows count as failed cells too."""
    verdict = Verdict(attempted=len(reference), failed=0)
    try:
        rows = read_sweep_csv(text)
    except ValueError as exc:
        verdict.fail(str(exc), len(reference))
        return verdict
    by_cell: dict[tuple[float, float], list[dict]] = {}
    for row in rows:
        by_cell.setdefault((row["R_p"], row["I"]), []).append(row)
    z = band_z(len(BANDED) * len(reference))
    for ref in reference:
        cell = (ref["R_p"], ref["I"])
        found = by_cell.pop(cell, [])
        if len(found) != 1:
            verdict.fail(f"cell {cell}: {len(found)} rows")
            continue
        row = found[0]
        bad = [c for c in EXACT_COLUMNS if row[c] != ref[c]]
        bad += [c for c in FINITE_COLUMNS if not math.isfinite(row[c])]
        if abs(row["epsilon"]) > abs(ref["epsilon"]) + 1e-12:
            bad.append("|epsilon| grew")
        for value, se in BANDED:
            width = math.hypot(row[se], ref[se])
            dev = abs(row[value] - ref[value])
            if width > 0:
                verdict.max_z = max(verdict.max_z, dev / width)
            if not dev <= z * width + 1e-12:
                bad.append(f"{value} {row[value]!r} vs {ref[value]!r} (band {z * width:.3g})")
        if bad:
            verdict.fail(f"cell {cell}: " + "; ".join(bad))
    for cell, extra in by_cell.items():
        verdict.attempted += len(extra)
        verdict.fail(f"cell {cell}: not in the reference grid", len(extra))
    return verdict


def count_search_cells(text: str) -> int:
    """Cells whose solver fell back to |epsilon| minimization."""
    return sum(1 for row in read_sweep_csv(text) if row["feasible_optimal"] == 0.0)


def expected_dispersion(counts: np.ndarray, alpha: float):
    """(D, threshold, flagged) of the classical Poisson dispersion test."""
    from scipy.stats import chi2

    c = np.asarray(counts, dtype=float)
    slots = c.shape[1]
    mean = c.mean(axis=1)
    var = c.var(axis=1, ddof=1)
    d = np.full(len(c), np.nan)
    np.divide(var, mean, out=d, where=mean > 0)
    thr = float(chi2.ppf(1.0 - alpha, slots - 1))
    stat = (slots - 1) * d
    flagged = np.where(np.isnan(stat), False, stat > thr)
    return d, thr, flagged, stat


def check_analyze(text: str, counts: np.ndarray, alpha: float) -> Verdict:
    """One operation per interval verdict."""
    d, thr, flagged, stat = expected_dispersion(counts, alpha)
    n = len(d)
    verdict = Verdict(attempted=n, failed=0)
    lines = _data_lines(text)
    if not lines or lines[0] != "interval,D,flagged,threshold":
        verdict.fail("analyze output lacks its header", n)
        return verdict
    rows = lines[1:]
    if len(rows) != n:
        verdict.fail(f"{len(rows)} intervals reported, {n} generated", abs(len(rows) - n))
    for i, ln in enumerate(rows[:n]):
        parts = ln.split(",")
        try:
            idx, got_d, got_flag, got_thr = int(parts[0]), float(parts[1]), int(parts[2]), float(parts[3])
        except (ValueError, IndexError):
            verdict.fail(f"line {i}: unparsable {ln!r}")
            continue
        same_d = (math.isnan(got_d) and math.isnan(d[i])) or math.isclose(got_d, d[i], rel_tol=1e-9)
        borderline = abs(stat[i] - thr) <= 1e-9 * thr
        same_flag = got_flag == int(flagged[i]) or borderline
        if idx != i or not same_d or not same_flag or not math.isclose(got_thr, thr, rel_tol=1e-12):
            verdict.fail(f"interval {i}: got {ln!r}, expected D={float(d[i])!r} "
                         f"flagged={int(flagged[i])} threshold={thr!r}")
    return verdict


def check_tracemc(doc: dict, reference: dict[str, dict[str, float]]) -> Verdict:
    """One operation per Monte-Carlo sample; an estimate that fails fails all its
    samples. Exact values are checked alongside."""
    priors = doc["priors"]
    budget = doc["budget"]
    verdict = Verdict(attempted=2 * len(priors) * budget, failed=0)
    z = band_z(2 * len(priors))
    for row in priors:
        name = row["name"]
        ref = reference.get(name)
        for metric in ("average_error", "conditional_entropy"):
            exact, est, se = row[metric], row[metric + "_mc"], row[metric + "_se"]
            bad = []
            if ref is not None and not math.isclose(exact, ref[metric], rel_tol=1e-9, abs_tol=1e-12):
                bad.append(f"exact {exact!r} vs reference {ref[metric]!r}")
            if not math.isfinite(est):
                bad.append(f"estimate {est!r}")
            elif math.isfinite(se):
                dev = abs(est - exact)
                if se > 0:
                    verdict.max_z = max(verdict.max_z, dev / se)
                if not dev <= z * se + 1e-12:
                    bad.append(f"estimate {est!r} vs exact {exact!r} (band {z * se:.3g})")
            if bad:
                verdict.fail(f"{name} {metric}: " + "; ".join(bad), budget)
    return verdict

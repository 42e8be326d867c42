"""The benchmark's four workloads: their inputs, commands and zero-work twins.

Every input is built from the workload seed before any timing starts, and
the program only ever sees the files written here. Each workload knows:

* ``prepare(seed, workdir)``: write the inputs, return a ``Prepared``;
* how one operation is run, as a child process and as a traced in-process
  run, with the output path it writes, and how many operations it completes;
* the zero-work command that measures set-up time.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")
FIXTURE_DIR = os.path.join(ROOT, "fixtures")
TRACEMC_JOB = os.path.join(HERE, "tracemc_job.py")

# the paper's complete-knowledge figure grid (configs/figure_repro.cfg)
FIGURE_GRID = """\
[model]
slots = 10
base_rate = 1.0

[sweep]
anomaly_rates = {rates}
intensities = {intensities}
n_intervals = {n_intervals}
detector = {detector}
alpha = 0.05

[knowledge]
tpr = {tpr}
tnr = {tnr}

[solver]
budget = 1.0
cost_denominator = base-plus-anomaly

[run]
seed = {seed}
format = csv
"""

# analyze-trace input size: intervals of the device under analysis
TRACE_INTERVALS = 30_000
TRACE_SLOTS = 10
TRACE_SLOT_WIDTH = 6.0
TRACE_DEVICE = "sensor-a"
TRACE_ALPHA = 0.05

# trace-mc: samples per Monte-Carlo estimator call, and the wide prior size
MC_BUDGET = 100_000
WIDE_TRACES = 120


@dataclass
class Prepared:
    """Generated inputs of one workload run; "{out}" marks the output path."""

    op_argv: list[str]            # one operation, as a child process
    setup_argv: list[str]         # the same command on a zero-work input
    ops_per_child: int            # operations one op_argv child completes
    traced_argv: list[str]        # the same operation, as tracer.py arguments
    counts: np.ndarray | None = None  # analyze-trace: the counts behind the trace


def lpwanleak_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "lpwanleak", *args]


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _sweep(seed: int, workdir: str, detector: str, tpr: float, tnr: float) -> Prepared:
    knobs = {"detector": detector, "tpr": tpr, "tnr": tnr, "seed": seed}
    cfg = _write(os.path.join(workdir, "sweep.cfg"), FIGURE_GRID.format(
        rates="0.05:0.95:0.05", intensities="10, 20, 30, 40", n_intervals=100_000, **knobs))
    # zero work: one cell of 1000 intervals (the least a sweep accepts)
    tiny_cfg = _write(os.path.join(workdir, "setup.cfg"), FIGURE_GRID.format(
        rates="0.5", intensities="10", n_intervals=1000, **knobs))
    args = ["sweep", "--seed", str(seed), "--format", "csv"]
    return Prepared(
        op_argv=lpwanleak_argv(*args, "--config", cfg, "--out", "{out}"),
        setup_argv=lpwanleak_argv(*args, "--config", tiny_cfg, "--out", "{out}"),
        ops_per_child=76,
        traced_argv=["--cli", "--", *args, "--config", cfg, "--out", "{out}"])


def prepare_figure_sweep(seed: int, workdir: str) -> Prepared:
    return _sweep(seed, workdir, "idealized", 1.0, 1.0)


def prepare_chisq_sweep(seed: int, workdir: str) -> Prepared:
    return _sweep(seed, workdir, "chi-square", 0.7, 0.99)


def trace_counts(rng: np.random.Generator, n: int) -> np.ndarray:
    """Obfuscated (n, slots) counts of the analyzed device.

    Baseline slots are Poisson(1); a fifth of the intervals carry an
    anomaly of intensity 20 in one slot; half of those are waterfilled
    (Poisson dummies into the other slots) and a tenth of the baselines get
    a fake burst. The first and the last slot are never empty, so the
    program's binning (anchored at the first message, trailing partial
    interval dropped) sees exactly these n intervals.
    """
    s = TRACE_SLOTS
    counts = rng.poisson(1.0, (n, s))
    anomalous = rng.random(n) < 0.2
    hot = rng.integers(0, s, n)
    counts[anomalous, hot[anomalous]] = rng.poisson(20.0, int(anomalous.sum()))
    waterfill = anomalous & (rng.random(n) < 0.5)
    add = rng.poisson(2.0, (n, s))
    add[np.arange(n), hot] = 0
    counts[waterfill] += add[waterfill]
    fake = ~anomalous & (rng.random(n) < 0.1)
    burst_slot = rng.integers(0, s, n)
    counts[fake, burst_slot[fake]] += rng.poisson(19.0, int(fake.sum()))
    counts[0, 0] = max(counts[0, 0], 1)
    counts[-1, -1] = max(counts[-1, -1], 1)
    return counts


def _timestamps(rng: np.random.Generator, counts: np.ndarray, start: float) -> np.ndarray:
    # each message lands strictly inside its slot
    flat = counts.ravel()
    slot = np.repeat(np.arange(flat.size), flat)
    offset = rng.uniform(0.05, 0.95, slot.size)
    return np.sort(start + (slot + offset) * TRACE_SLOT_WIDTH)


def write_trace(seed: int, workdir: str, n: int, name: str) -> tuple[str, np.ndarray]:
    """Write a two-device trace CSV; return its path and the analyzed counts."""
    rng = np.random.default_rng([seed, 11, n])
    counts = trace_counts(rng, n)
    # an epoch-scale start on the slot grid, so the binning origin is slot 0
    start = float(266_000_000 + rng.integers(0, 86_400)) * TRACE_SLOT_WIDTH
    ts_a = _timestamps(rng, counts, start)
    # the second device: plain Poisson traffic at half the rate, same window
    other = rng.poisson(0.5, counts.shape)
    ts_b = _timestamps(rng, other, start + 0.5 * TRACE_SLOT_WIDTH)
    ts = np.concatenate([ts_a, ts_b])
    dev = np.concatenate([np.zeros(ts_a.size, bool), np.ones(ts_b.size, bool)])
    order = np.argsort(ts, kind="stable")
    names = np.where(dev[order], "gateway-b", TRACE_DEVICE)
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(f"# synthetic two-device uplink trace, seed {seed}\n")
        fh.write("timestamp_s,device_id\n")
        fh.writelines(f"{t!r},{d}\n" for t, d in zip(ts[order].tolist(), names.tolist()))
    return path, counts


def prepare_analyze_trace(seed: int, workdir: str) -> Prepared:
    cfg = _write(os.path.join(workdir, "analyze.cfg"), (
        "[analyze]\n"
        f"device = {TRACE_DEVICE}\n"
        f"slot_width = {TRACE_SLOT_WIDTH}\n"
        f"slots = {TRACE_SLOTS}\n"
        f"alpha = {TRACE_ALPHA}\n"))
    trace, counts = write_trace(seed, workdir, TRACE_INTERVALS, "trace.csv")
    tiny, _ = write_trace(seed, workdir, 1, "setup_trace.csv")
    args = ["analyze", "--config", cfg, "--seed", str(seed), "--format", "csv"]
    return Prepared(
        op_argv=lpwanleak_argv(*args, trace, "--out", "{out}"),
        setup_argv=lpwanleak_argv(*args, tiny, "--out", "{out}"),
        ops_per_child=TRACE_INTERVALS,
        traced_argv=["--cli", "--", *args, trace, "--out", "{out}"],
        counts=counts)


def wide_prior(seed: int) -> dict:
    """A seeded table-mechanism fixture whose observations share few keys.

    120 distinct real traces of 1 to 3 messages on a 16-tick window. Each is
    observed through 2 to 4 outputs that add a subset of the dummy ticks
    (3, 7, 11, 15) it lacks, so some observations have several explanations.
    """
    rng = np.random.default_rng([seed, 13])
    window, pool = 15, (3.0, 7.0, 11.0, 15.0)
    reals: set[tuple[float, ...]] = set()
    while len(reals) < WIDE_TRACES:
        k = int(rng.integers(1, 4))
        reals.add(tuple(sorted(float(t) for t in rng.choice(window + 1, k, replace=False))))
    prior, rows = [], []
    for real, p in zip(sorted(reals), rng.dirichlet(np.ones(len(reals)))):
        free = [t for t in pool if t not in real]
        subsets = [tuple(t for b, t in enumerate(free) if mask >> b & 1)
                   for mask in range(1 << len(free))]
        picks = rng.choice(len(subsets), min(len(subsets), int(rng.integers(2, 5))),
                           replace=False)
        qs = rng.dirichlet(np.ones(len(picks)))
        prior.append({"trace": list(real), "p": float(p)})
        rows.append({"real": list(real), "outputs": [
            {"observed": sorted(real + subsets[int(i)]), "q": float(q)}
            for i, q in zip(picks, qs)]})
    return {"name": "wide_table", "tick": 1.0, "window": [0.0, float(window)],
            "prior": prior, "mechanism": {"type": "table", "rows": rows}}


def prepare_trace_mc(seed: int, workdir: str) -> Prepared:
    wide = _write(os.path.join(workdir, "wide_table.json"), json.dumps(wide_prior(seed)))
    fixtures = sorted(os.path.join(FIXTURE_DIR, f) for f in os.listdir(FIXTURE_DIR)
                      if f.endswith(".json"))
    job = ["--seed", str(seed), "--out", "{out}", *fixtures, wide]
    return Prepared(
        op_argv=[sys.executable, TRACEMC_JOB, "--budget", str(MC_BUDGET), *job],
        setup_argv=[sys.executable, TRACEMC_JOB, "--budget", "1", *job],
        ops_per_child=2 * MC_BUDGET * (len(fixtures) + 1),
        traced_argv=["--job", "--", "--budget", str(MC_BUDGET), *job])


WORKLOADS = {
    "figure-sweep": prepare_figure_sweep,
    "chisq-sweep": prepare_chisq_sweep,
    "analyze-trace": prepare_analyze_trace,
    "trace-mc": prepare_trace_mc,
}


def with_out(argv: list[str], out: str) -> list[str]:
    return [out if a == "{out}" else a for a in argv]

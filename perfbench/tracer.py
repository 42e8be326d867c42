"""Traced run: drive one workload in-process and time each layer's calls.

    python3 perfbench/tracer.py --spans S.json --cli -- sweep --config C --out O
    python3 perfbench/tracer.py --spans S.json --job -- --budget N --seed K --out O F...

The tracer imports the package, replaces the public functions of each
module where their callers look them up (``lpwanleak.experiment.gen_run``,
``lpwanleak.cli.read_trace_csv``, ``lpwanleak.traces.optimal_guess``, ...)
with wrappers that record a span, then runs ``lpwanleak.cli.main`` (or the
trace-mc job) on the given arguments. Spans (name, start, end, parent,
shared id, attributes) stay in memory and are written as JSON at the end.
The shared id of a span is the cell seed tuple of the ``run_cell`` call
it belongs to. Counts that need the call's result are taken after the
span has closed.

:func:`layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import statistics
import sys
import time

LAYERS = ("cli", "experiment", "traffic", "obfuscator", "attacker", "traces",
          "import", "client")


class Tracer:
    """In-memory span recorder; spans nest through an explicit stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, shared_id=None) -> int:
        parent = self._stack[-1] if self._stack else None
        if shared_id is None and parent is not None:
            shared_id = self.spans[parent]["id"]
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "id": shared_id, "attrs": {}})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def wrap(self, module, attr: str, name: str, describe=None, shared_id=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, shared_id(args, kwargs) if shared_id else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if describe is not None:
                self.spans[index]["attrs"] = describe(args, kwargs, result)
            return result

        setattr(module, attr, traced)


def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _solver_path(args, kwargs, strat) -> dict:
    if strat.degenerate:
        return {"path": "degenerate"}
    return {"path": "endpoint" if strat.feasible_optimal else "search"}


def _sweep_summary(args, kwargs, records) -> dict:
    failed = sum(1 for r in records
                 if r.error or not (math.isfinite(r.guess_err) and math.isfinite(r.ce_bits)))
    return {"cells": len(records), "cells_failed": failed}


def _count_lines(args, kwargs, result) -> dict:
    with open(args[0], "rb") as fh:
        return {"lines": sum(1 for _ in fh)}


def instrument(tracer: Tracer) -> None:
    """Wrap the cross-module calls of every layer (plus the traces inner loop)."""
    from lpwanleak import cli, experiment, traces

    w = tracer.wrap
    # experiment, as cli calls it
    w(cli, "run_sweep", "experiment.run_sweep", _sweep_summary)
    w(cli, "sweep_to_csv", "experiment.sweep_to_csv")
    w(experiment, "run_cell", "experiment.run_cell",
      shared_id=lambda a, k: repr(tuple(_arg(a, k, 6, "seed", 0))))
    # traffic, obfuscator and attacker, as run_cell calls them
    w(experiment, "gen_run", "traffic.gen_run",
      lambda a, k, run: {"bytes": int(run.counts.size) * 8})
    w(experiment, "solve_strategy", "obfuscator.solve_strategy", _solver_path)
    w(experiment, "apply_strategy", "obfuscator.apply_strategy",
      lambda a, k, run: {"dummies": int(run.counts.sum() - a[0].counts.sum())})
    w(experiment, "test_run", "attacker.test_run", lambda a, k, v: {"mode": a[1].mode})
    w(experiment, "guess_run", "attacker.guess_run")
    # cli's own read path and the attacker calls analyze makes
    w(cli, "read_trace_csv", "cli.read_trace_csv", _count_lines)
    w(cli, "bin_timestamps", "attacker.bin_timestamps")
    w(cli, "run_dispersion", "attacker.run_dispersion")
    w(cli, "chi_square_threshold", "attacker.chi_square_threshold")
    # traces: the estimators the client calls, and their per-key inner calls
    w(traces, "load_fixture", "traces.load_fixture")
    w(traces, "average_error", "traces.exact")
    w(traces, "conditional_entropy", "traces.exact")
    w(traces, "average_error_mc", "traces.average_error_mc",
      lambda a, k, r: {"samples": int(_arg(a, k, 3, "budget", 100_000))})
    w(traces, "conditional_entropy_mc", "traces.conditional_entropy_mc",
      lambda a, k, r: {"samples": int(_arg(a, k, 2, "budget", 100_000))})
    w(traces, "optimal_guess", "traces.optimal_guess")
    w(traces, "posterior_table", "traces.posterior_table")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced in-process run")
    parser.add_argument("--spans", required=True, help="where to write the spans JSON")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--cli", action="store_true", help="run lpwanleak.cli.main(rest)")
    mode.add_argument("--job", action="store_true", help="run the trace-mc job on rest")
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args, rest = parser.parse_args(argv[:split]), argv[split + 1:]

    tracer = Tracer()
    index = tracer.open("import.lpwanleak")
    import lpwanleak.cli  # noqa: F401  (pulls in every module)
    tracer.close(index)
    instrument(tracer)
    if args.cli:
        from lpwanleak import cli
        rc = tracer.call("cli.main", cli.main, rest)
    else:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracemc_job
        rc = tracer.call("client.tracemc_job", tracemc_job.main, rest)
    with open(args.spans, "w") as fh:
        json.dump({"rc": rc, "spans": tracer.spans}, fh)
    return rc


def _self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def tail_index(n: int) -> int:
    """Index (sorted ascending) of the highest percentile with >= 10 samples
    beyond it; the maximum when there are too few samples for one."""
    return n - 11 if n > 10 else n - 1


def layer_metrics(spans: list[dict], wall_s: float, untraced_wall_s: float,
                  output_bytes: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics (milliseconds and counts) and human-readable notes."""
    own = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def durations(name, pred=lambda s: True):
        return [1e3 * (spans[i]["end"] - spans[i]["start"]) for i in by_name.get(name, [])
                if pred(spans[i])]

    def p50(values):
        return statistics.median(values) if values else 0.0

    def tail(values):
        return sorted(values)[tail_index(len(values))] if values else 0.0

    def attr_sum(name, key):
        return sum(spans[i]["attrs"].get(key, 0) for i in by_name.get(name, []))

    def parent_is(name):
        return lambda s: s["parent"] is not None and spans[s["parent"]]["name"] == name

    m: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        layer_self[s["name"].split(".")[0]] += 1e3 * own[i]
    covered = sum(1e3 * (s["end"] - s["start"]) for s in spans if s["parent"] is None)
    m["trace.wall_ms"] = 1e3 * wall_s
    m["trace.untraced_wall_ms"] = 1e3 * untraced_wall_s
    m["trace.overhead_ms"] = 1e3 * (wall_s - untraced_wall_s)
    m["trace.uncovered_ms"] = 1e3 * wall_s - covered
    m["trace.spans"] = len(spans)
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = layer_self[layer]

    m["cli.main.self_ms"] = sum(1e3 * own[i] for i in by_name.get("cli.main", []))
    m["cli.read_trace_csv.ms"] = sum(durations("cli.read_trace_csv"))
    m["cli.read_trace_csv.lines"] = attr_sum("cli.read_trace_csv", "lines")
    m["cli.output_bytes"] = output_bytes

    gen = durations("traffic.gen_run")
    m["traffic.gen_run.ms_p50"] = p50(gen)
    m["traffic.gen_run.ms_tail"] = tail(gen)
    m["traffic.gen_run.calls"] = len(gen)
    m["traffic.gen_run.bytes_computed"] = attr_sum("traffic.gen_run", "bytes")

    solve = "obfuscator.solve_strategy"
    search = durations(solve, lambda s: s["attrs"].get("path") == "search")
    m["obfuscator.solve_strategy.endpoint.calls"] = len(
        durations(solve, lambda s: s["attrs"].get("path") == "endpoint"))
    m["obfuscator.solve_strategy.search.calls"] = len(search)
    m["obfuscator.solve_strategy.search.ms"] = sum(search)
    m["obfuscator.apply_strategy.ms"] = sum(durations("obfuscator.apply_strategy"))
    m["obfuscator.apply_strategy.dummies"] = attr_sum("obfuscator.apply_strategy", "dummies")

    for mode in ("idealized", "chi-square"):
        m[f"attacker.test_run.{mode}.ms"] = sum(
            durations("attacker.test_run", lambda s, mode=mode: s["attrs"].get("mode") == mode))
    m["attacker.guess_run.ms"] = sum(durations("attacker.guess_run"))
    m["attacker.bin_timestamps.ms"] = sum(durations("attacker.bin_timestamps"))
    m["attacker.run_dispersion.ms"] = sum(durations("attacker.run_dispersion"))

    cells = durations("experiment.run_cell")
    m["experiment.run_cell.ms_p50"] = p50(cells)
    m["experiment.run_cell.ms_tail"] = tail(cells)
    m["experiment.run_cell.self_ms"] = sum(1e3 * own[i] for i in by_name.get("experiment.run_cell", []))
    m["experiment.sweep_to_csv.ms"] = sum(durations("experiment.sweep_to_csv"))
    m["experiment.cells"] = attr_sum("experiment.run_sweep", "cells")
    m["experiment.cells_failed"] = attr_sum("experiment.run_sweep", "cells_failed")

    m["traces.average_error_mc.ms"] = sum(durations("traces.average_error_mc"))
    m["traces.conditional_entropy_mc.ms"] = sum(durations("traces.conditional_entropy_mc"))
    m["traces.exact.ms"] = sum(durations("traces.exact"))
    samples = (attr_sum("traces.average_error_mc", "samples")
               + attr_sum("traces.conditional_entropy_mc", "samples"))
    keys = (len(durations("traces.optimal_guess", parent_is("traces.average_error_mc")))
            + len(durations("traces.posterior_table", parent_is("traces.conditional_entropy_mc"))))
    m["traces.samples"] = samples
    m["traces.distinct_keys"] = keys
    m["traces.distinct_key_ratio"] = keys / samples if samples else 0.0
    m["traces.optimal_guess.calls"] = len(by_name.get("traces.optimal_guess", []))
    m["traces.posterior_table.calls"] = len(by_name.get("traces.posterior_table", []))

    notes = [f"{name} ms_tail: p{100 * (1 - 10 / len(v)):.0f} of {len(v)} calls"
             for name, v in (("traffic.gen_run", gen), ("experiment.run_cell", cells))
             if len(v) > 10]
    notes += [f"self-time sum {sum(layer_self.values()):.1f} ms + uncovered "
             f"{m['trace.uncovered_ms']:.1f} ms = traced wall {m['trace.wall_ms']:.1f} ms; "
             f"tracing overhead {m['trace.overhead_ms']:.1f} ms"]
    return m, notes


if __name__ == "__main__":
    raise SystemExit(main())

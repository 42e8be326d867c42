"""lpwanleak benchmark: one workload, one seed, one timed or traced run.

    python3 perfbench/run.py --workload figure-sweep --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): figure-sweep, chisq-sweep, analyze-trace,
trace-mc. Inputs are generated from ``--seed`` before any timing. Each
operation is one child process, run in a closed loop by a single client:
the next one starts when the previous one has exited, and the loop stops
before an operation that would likely end past ``--seconds`` (at least one
always runs). Every output is checked (``check.py``).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median child
wall time, spawn to exit), ``ops_per_s``, ``peak_rss_mb`` (median of each
child's own peak RSS, from ``os.wait4`` on its pid) and ``setup_s`` (median
of three runs of the same command on a zero-work input).
``--trace 1`` runs one untraced and one traced operation (``tracer.py``),
requires their outputs to be byte-identical, and reports per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 0 when every check passed, 1 when one failed, 2 when the run
could not be made (missing sources, a child exiting non-zero).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import (Verdict, check_analyze, check_sweep, check_tracemc,  # noqa: E402
                   count_search_cells, read_sweep_csv)
from tracer import layer_metrics, tail_index  # noqa: E402
from workloads import (REFERENCE_DIR, ROOT, TRACE_ALPHA, WORKLOADS,  # noqa: E402
                       Prepared, with_out)

TRACER = os.path.join(HERE, "tracer.py")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The run could not be made; no result is printed."""


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The program makes no BLAS-heavy calls, and a larger pool only spins up
    # threads at import that burn a second core while the child runs.
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], env: dict[str, str], log_path: str) -> Child:
    """Run one child to completion; wall time spawn to exit, its own peak RSS."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{' '.join(argv[1:4])} ... exited {proc.returncode}:\n{tail}")
    return Child(wall, usage.ru_maxrss / 1024.0)


def load_reference(workload: str):
    if workload in ("figure-sweep", "chisq-sweep"):
        with open(os.path.join(REFERENCE_DIR, f"{workload}.csv")) as fh:
            return read_sweep_csv(fh.read())
    if workload == "trace-mc":
        with open(os.path.join(REFERENCE_DIR, "trace-mc.json")) as fh:
            return json.load(fh)
    return None


def check_output(workload: str, path: str, prepared: Prepared, reference) -> Verdict:
    """Check the output of one child."""
    with open(path) as fh:
        text = fh.read()
    if workload == "analyze-trace":
        return check_analyze(text, prepared.counts, TRACE_ALPHA)
    if workload == "trace-mc":
        return check_tracemc(json.loads(text), reference)
    return check_sweep(text, reference)


def spread(values: list[float]) -> str:
    ordered = sorted(values)
    n = len(ordered)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        iqr = f"p25 {q1:.4g} p75 {q3:.4g}"
    else:
        iqr = "p25/p75 n/a"
    return (f"median {statistics.median(ordered):.4g}, {iqr}, "
            f"tail {ordered[tail_index(n)]:.4g}, n={n}")


def timed_run(workload: str, prepared: Prepared, seconds: float, env, workdir: str):
    reference = load_reference(workload)
    setup = [spawn(with_out(prepared.setup_argv, os.path.join(workdir, "setup.out")), env,
                   os.path.join(workdir, "setup.log")).wall_s
             for _ in range(SETUP_REPEATS)]
    ops: list[Child] = []
    attempted = failed = 0
    notes: list[str] = []
    max_z = 0.0
    while True:
        out = os.path.join(workdir, "op.out")
        ops.append(spawn(with_out(prepared.op_argv, out), env, os.path.join(workdir, "op.log")))
        verdict = check_output(workload, out, prepared, reference)
        attempted += verdict.attempted
        failed += verdict.failed
        notes += verdict.notes
        max_z = max(max_z, verdict.max_z)
        walls = [c.wall_s for c in ops]
        if sum(walls) + statistics.median(walls) > seconds:
            break
    walls = [c.wall_s for c in ops]
    rss = [c.peak_rss_mb for c in ops]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (prepared.ops_per_child * len(ops) / sum(walls), "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    lines = [f"wall_s       {spread(walls)} (s)",
             f"ops_per_s    {metrics['ops_per_s'][0]:.6g} (1/s; {prepared.ops_per_child} ops "
             f"per child x {len(ops)} children in {sum(walls):.3f} s)",
             f"peak_rss_mb  {spread(rss)} (MB)",
             f"setup_s      {spread(setup)} (s)",
             f"ops_failed_share {failed / attempted:.6g} ({failed}/{attempted})",
             f"check: largest deviation {max_z:.3f} combined standard errors"]
    return metrics, attempted, failed, lines + [f"FAILED: {n}" for n in notes]


def traced_run(workload: str, prepared: Prepared, env, workdir: str):
    reference = load_reference(workload)
    plain_out = os.path.join(workdir, "untraced.out")
    plain = spawn(with_out(prepared.op_argv, plain_out), env, os.path.join(workdir, "op.log"))
    verdict = check_output(workload, plain_out, prepared, reference)

    traced_out = os.path.join(workdir, "traced.out")
    spans_path = os.path.join(workdir, "spans.json")
    traced = spawn([sys.executable, TRACER, "--spans", spans_path,
                    *with_out(prepared.traced_argv, traced_out)],
                   env, os.path.join(workdir, "traced.log"))
    with open(spans_path) as fh:
        spans = json.load(fh)["spans"]
    with open(plain_out, "rb") as a, open(traced_out, "rb") as b:
        identical = a.read() == b.read()
    metrics, notes = layer_metrics(spans, traced.wall_s, plain.wall_s,
                                   os.path.getsize(traced_out))
    mismatches = [] if identical else ["traced output differs from the untraced output"]
    if workload in ("figure-sweep", "chisq-sweep"):
        with open(plain_out) as fh:
            search_cells = count_search_cells(fh.read())
        solves = metrics["obfuscator.solve_strategy.search.calls"]
        if solves != search_cells:
            mismatches.append(f"{solves} search-path solves, {search_cells} cells with "
                              "feasible_optimal=0")
        else:
            notes.append(f"search-path solves match {search_cells} cells with feasible_optimal=0")
    # a traced run that disagrees with the untraced one fails every operation
    failed = verdict.attempted if mismatches else verdict.failed
    problems = [f"FAILED: {n}" for n in verdict.notes + mismatches]
    units = {name: layer_unit(name) for name in metrics}
    lines = [f"{name:44s} {value:.6g} ({units[name]})" for name, value in metrics.items()]
    lines.append(f"traced output byte-identical to untraced: {identical}")
    return ({k: (v, units[k]) for k, v in metrics.items()}, verdict.attempted, failed,
            lines + notes + problems)


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "ms" or last.startswith("ms_") or last.endswith("_ms"):
        return "ms"
    if last.startswith("bytes") or last.endswith("bytes"):
        return "bytes"
    if last.endswith("ratio"):
        return "ratio"
    return "count"


def environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return (f"env: cpu={cpu!r} nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={versions['numpy']} "
            f"scipy={versions['scipy']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lpwanleak benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "lpwanleak", "cli.py")):
            raise BenchError(f"no lpwanleak sources under {os.path.join(ROOT, 'src')}")
        os.makedirs(workdir)
        try:
            prepared = WORKLOADS[args.workload](args.seed, workdir)
        except OSError as exc:
            raise BenchError(f"cannot build the {args.workload} inputs: {exc}") from exc
        env = child_env()
        if args.trace:
            metrics, attempted, failed, lines = traced_run(args.workload, prepared, env, workdir)
        else:
            metrics, attempted, failed, lines = timed_run(args.workload, prepared,
                                                          args.seconds, env, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run's work directory is still there

    print(environment())
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in lines:
        print(line)
    correct = failed == 0 and not any(line.startswith("FAILED") for line in lines)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

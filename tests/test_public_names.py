"""The names the benchmark and the package root promise stay importable.

`perfbench/tracer.py` times a run by replacing functions where their
callers look them up (`lpwanleak.cli.sweep_to_csv`, ...). Its own tests are
not collected here, so this file runs its `instrument` with a tracer that
only looks each name up, checks the argument positions its wrappers read,
runs the trace-mc job on one fixture, and runs each sweep workload's
one-cell config through the CLI: a renamed or dropped name, a reordered
signature or a config key the CLI stops taking fails here, not first in a
benchmark run.
"""

import importlib
import importlib.util
import inspect
import json
import sys

import pytest

import lpwanleak
from lpwanleak import cli

from conftest import ROOT

LIBRARY_MODULES = ("traffic", "attacker", "obfuscator", "traces", "experiment")


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up here
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load_perfbench("tracer")


def test_benchmark_tracer_finds_every_wrapped_name():
    tracer = _load_tracer()
    looked_up = []

    class LookupOnly(tracer.Tracer):
        def wrap(self, module, attr, name, describe=None, shared_id=None):
            looked_up.append((module.__name__, attr, getattr(module, attr)))

    tracer.instrument(LookupOnly())
    assert ("lpwanleak.cli", "sweep_to_csv", lpwanleak.sweep_to_csv) in looked_up
    assert all(callable(fn) for _, _, fn in looked_up)


@pytest.mark.parametrize("fn,position,name", [
    (lpwanleak.run_cell, 6, "seed"),
    (lpwanleak.average_error_mc, 3, "budget"),
    (lpwanleak.conditional_entropy_mc, 2, "budget"),
])
def test_benchmark_tracer_argument_positions(fn, position, name):
    # the tracer's span attributes read these arguments by position or name
    assert list(inspect.signature(fn).parameters)[position] == name


def test_benchmark_tracemc_job_runs(tmp_path):
    out = tmp_path / "tracemc.json"
    fixture = ROOT / "fixtures" / "fillto_two_messages.json"
    job = _load_perfbench("tracemc_job")
    assert job.main(["--budget", "200", "--seed", "1", "--out", str(out), str(fixture)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["budget"], doc["seed"]) == (200, 1)
    row, = doc["priors"]
    assert row["average_error"] == pytest.approx(0.4)
    assert abs(row["average_error_mc"] - 0.4) <= 4 * row["average_error_se"]
    assert abs(row["conditional_entropy_mc"] - row["conditional_entropy"]) \
        <= 4 * row["conditional_entropy_se"]


@pytest.mark.parametrize("prepare", ["prepare_figure_sweep", "prepare_chisq_sweep"])
def test_benchmark_sweep_configs_run(tmp_path, prepare):
    workloads = _load_perfbench("workloads")
    prepared = getattr(workloads, prepare)(1, str(tmp_path))
    out = tmp_path / "setup.csv"
    argv = workloads.with_out(prepared.setup_argv, str(out))
    assert argv[:3] == workloads.lpwanleak_argv()
    assert cli.main(argv[3:]) == 0
    assert out.read_text().splitlines()[1] == lpwanleak.SWEEP_CSV_HEADER


@pytest.mark.parametrize("name", LIBRARY_MODULES + ("cli",))
def test_module_all_names_exist(name):
    module = importlib.import_module(f"lpwanleak.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert hasattr(module, attr), f"lpwanleak.{name}.{attr}"


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_library_names_are_reexported(name):
    # the command line stays in lpwanleak.cli; everything else is at the root
    module = importlib.import_module(f"lpwanleak.{name}")
    for attr in module.__all__:
        assert getattr(lpwanleak, attr, None) is getattr(module, attr), attr
        assert attr in lpwanleak.__all__, attr


# every public name of the package and its command line; adding or dropping
# one is a deliberate edit here
PUBLIC_NAMES = [
    "ACTIONS", "COST_CSV_HEADER", "CardinalityDistance", "Config",
    "ConfigError", "CostModel", "CostPoint", "DETECTOR_MODES",
    "DataError", "DegenerateMetricError", "DetectorConfig", "FillToMechanism", "Fixture",
    "IdentityMechanism", "InconsistentObservationError", "InfeasibleTargetError",
    "IntervalModel", "KnowledgeModel", "Mechanism", "MetricsReport", "RUN_CSV_HEADER", "Run",
    "SWEEP_CSV_HEADER", "Strategy", "SweepSpec", "TableMechanism", "TracePrior",
    "anomaly_dispersion", "apply_strategy", "as_rng", "attacker", "average_error",
    "average_error_mc", "bin_timestamps", "binary_entropy_bits", "chi_square_threshold",
    "class_posteriors", "conditional_entropy", "conditional_entropy_mc", "cost_curves",
    "cost_curves_to_csv", "costs", "draw_actions", "draw_anomaly_flags",
    "ensemble_dispersion", "entry", "enumerate_observables",
    "expected_dispersion_fake", "expected_dispersion_waterfill", "experiment",
    "gen_run", "guess_run", "guessing_error_se", "idealized_metrics",
    "idealized_verdicts", "load_config", "load_fixture", "main", "obfuscator",
    "optimal_guess", "parse_config", "posterior_table", "power_cost", "read_trace_csv",
    "realized_cost", "run_cell", "run_dispersion", "run_sweep", "run_to_csv",
    "simulate_run", "solve_fake_rate", "solve_strategy", "solve_waterfill_rate",
    "strategy_json", "sweep_to_csv", "test_run", "traces", "traffic", "write_csv",
]


def test_public_names_are_pinned():
    assert sorted(set(lpwanleak.__all__) | set(cli.__all__)) == PUBLIC_NAMES

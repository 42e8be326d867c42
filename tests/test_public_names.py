"""The names the benchmark and the package root promise stay importable.

`perfbench/tracer.py` times a run by replacing functions where their
callers look them up (`lpwanleak.cli.sweep_to_csv`, ...). Its own tests are
not collected here, so this file runs its `instrument` with a tracer that
only looks each name up: a renamed or dropped name fails here, not first in
a benchmark run.
"""

import importlib
import importlib.util

import pytest

import lpwanleak

from conftest import ROOT

LIBRARY_MODULES = ("traffic", "attacker", "obfuscator", "traces", "experiment")


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_wrapped_name():
    tracer = _load_tracer()
    looked_up = []

    class LookupOnly(tracer.Tracer):
        def wrap(self, module, attr, name, describe=None, shared_id=None):
            looked_up.append((module.__name__, attr, getattr(module, attr)))

    tracer.instrument(LookupOnly())
    assert ("lpwanleak.cli", "sweep_to_csv", lpwanleak.sweep_to_csv) in looked_up
    assert all(callable(fn) for _, _, fn in looked_up)


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

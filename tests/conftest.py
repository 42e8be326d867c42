"""Shared paths and helpers for the test suite."""

import pathlib

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_PATHS = sorted((ROOT / "fixtures").glob("*.json"))
CONFIG_DIR = ROOT / "configs"


@pytest.fixture(scope="session")
def repo_root() -> pathlib.Path:
    return ROOT


def runs_equal(a, b) -> bool:
    """Whether two runs hold equal columns (``Run`` equality is identity)."""
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in a.__slots__)

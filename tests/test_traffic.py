"""Traffic model and run container tests."""

import io
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpwanleak import (
    ACTIONS,
    RUN_CSV_HEADER,
    IntervalModel,
    Run,
    bin_timestamps,
    costs,
    gen_run,
    idealized_verdicts,
    realized_cost,
    run_to_csv,
)

from conftest import runs_equal
from trace_files import to_timestamps

MODEL = IntervalModel(slots=10, base_rate=1.0, intensity=40.0, anomaly_rate=0.2)


@pytest.mark.parametrize("kwargs", [
    dict(slots=1, base_rate=1.0, intensity=40.0, anomaly_rate=0.2),
    dict(slots=10, base_rate=0.0, intensity=40.0, anomaly_rate=0.2),
    dict(slots=10, base_rate=-1.0, intensity=40.0, anomaly_rate=0.2),
    dict(slots=10, base_rate=1.0, intensity=0.5, anomaly_rate=0.2),
    dict(slots=10, base_rate=1.0, intensity=40.0, anomaly_rate=-0.1),
    dict(slots=10, base_rate=1.0, intensity=40.0, anomaly_rate=1.1),
    dict(slots=10, base_rate=float("nan"), intensity=40.0, anomaly_rate=0.2),
    dict(slots=10, base_rate=float("inf"), intensity=40.0, anomaly_rate=0.2),
    dict(slots=10, base_rate=1.0, intensity=float("nan"), anomaly_rate=0.2),
    dict(slots=10, base_rate=1.0, intensity=float("inf"), anomaly_rate=0.2),
    dict(slots=10, base_rate=1.0, intensity=1e200, anomaly_rate=0.2),
    dict(slots=10, base_rate=1e300, intensity=1.0, anomaly_rate=0.2),
])
def test_model_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        IntervalModel(**kwargs)


def test_model_rate_limit_is_where_slots_times_rate_squared_overflows():
    b = math.sqrt(sys.float_info.max) / 10
    assert IntervalModel(10, 1.0, b * (1 - 1e-15), 0.2).anomaly_slot_rate < b
    with pytest.raises(ValueError, match="overflows"):
        IntervalModel(10, 1.0, b * (1 + 1e-15), 0.2)


def test_anomaly_slot_rate():
    assert MODEL.anomaly_slot_rate == 40.0
    assert IntervalModel(10, 2.5, 4.0, 0.0).anomaly_slot_rate == 10.0


def test_gen_run_reproducible():
    a = gen_run(MODEL, 200, 11)
    b = gen_run(MODEL, 200, 11)
    assert runs_equal(a, b)
    assert not runs_equal(a, gen_run(MODEL, 200, 12))
    with pytest.raises(ValueError, match="n_intervals must be >= 0"):
        gen_run(MODEL, -1, 11)


def test_gen_run_columns_consistent():
    run = gen_run(MODEL, 500, 1)
    assert run.counts.shape == (500, 10)
    assert np.all(run.counts >= 0)
    assert np.all(run.dummy_counts == 0)
    assert np.all(run.action == 0)
    assert np.array_equal(run.is_anomaly, run.anomaly_slot >= 0)
    assert np.all(run.anomaly_slot < MODEL.slots)


def test_gen_run_anomaly_statistics():
    model = IntervalModel(5, 1.0, 20.0, 0.5)
    run = gen_run(model, 20_000, 2)
    frac = run.is_anomaly.mean()
    assert abs(frac - 0.5) < 0.02
    slots = run.anomaly_slot[run.is_anomaly]
    # boosted slot is uniform over the interval
    for s in range(5):
        assert abs(np.mean(slots == s) - 0.2) < 0.03


def test_run_indexing_and_slicing():
    run = gen_run(MODEL, 50, 5)
    with pytest.raises(TypeError):
        run[3]  # single intervals are read from the columns
    sub = run[10:20]
    assert isinstance(sub, Run)
    assert len(sub) == 10
    assert np.array_equal(sub.counts, run.counts[10:20])


def test_run_is_immutable():
    run = gen_run(MODEL, 10, 0)
    with pytest.raises(ValueError):
        run.counts[0, 0] = 99


def test_run_validation():
    with pytest.raises(ValueError):
        Run(np.zeros((3, 1), dtype=int), np.zeros((3, 1), dtype=int),
            np.zeros(3, dtype=bool), np.full(3, -1), np.zeros(3, dtype=int))
    counts = np.ones((3, 4), dtype=int)
    dummy = np.zeros((3, 4), dtype=int)
    dummy[0, 0] = 2  # dummy exceeds count
    with pytest.raises(ValueError):
        Run(counts, dummy, np.zeros(3, dtype=bool), np.full(3, -1), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        Run(counts, np.zeros((3, 4), dtype=int), np.zeros(3, dtype=bool),
            np.full(3, 2), np.zeros(3, dtype=int))  # slot set without anomaly flag
    with pytest.raises(ValueError):
        Run(counts, np.zeros((3, 4), dtype=int), np.zeros(3, dtype=bool),
            np.full(3, -1), np.full(3, 9))  # unknown action code
    flags = np.array([True, False, False])
    with pytest.raises(ValueError):
        Run(counts, np.zeros((3, 4), dtype=int), flags,
            np.array([4, -1, -1]), np.zeros(3, dtype=int))  # anomaly slot out of range
    with pytest.raises(ValueError):
        Run(counts, np.zeros((3, 4), dtype=int), flags,
            np.array([-1, -1, -1]), np.zeros(3, dtype=int))  # anomaly needs a slot
    with pytest.raises(ValueError):
        Run(counts, np.zeros((3, 3), dtype=int), np.zeros(3, dtype=bool),
            np.full(3, -1), np.zeros(3, dtype=int))  # dummy shape differs from counts


@pytest.mark.parametrize("code", [1.5, -0.5, 256.0])
@pytest.mark.parametrize("entry", ["Run", "idealized_verdicts", "realized_cost"])
def test_every_reader_of_action_codes_refuses_one_outside_actions(entry, code):
    # a fractional, negative or too large code is the documented error, never
    # truncated, wrapped or read as a plausible action
    action = [0, code]
    call = {"Run": lambda: Run(np.ones((2, 3), dtype=int), np.zeros((2, 3), dtype=int),
                               np.zeros(2, dtype=bool), np.full(2, -1), action),
            "idealized_verdicts": lambda: idealized_verdicts(np.zeros(2, dtype=bool), action),
            "realized_cost": lambda: realized_cost(action, costs(MODEL))}[entry]
    with pytest.raises(ValueError, match=r"action codes must be 0, 1 or 2 \(indices into ACTIONS\)"):
        call()


def test_csv_roundtrip():
    run = gen_run(MODEL, 40, 9)
    buf = io.StringIO()
    run_to_csv(run, buf, comment="tool 0.0 test")
    text = buf.getvalue()
    shape = "# shape intervals=40 slots=10\n"
    assert text.startswith("# tool 0.0 test\n" + shape + RUN_CSV_HEADER + "\n")


def test_csv_roundtrip_with_dummies_and_actions():
    counts = np.array([[3, 1, 0], [5, 2, 2]])
    dummy = np.array([[2, 0, 0], [0, 1, 1]])
    run = Run(counts, dummy, np.array([True, False]), np.array([0, -1]),
              np.array([1, 2]))
    buf = io.StringIO()
    run_to_csv(run, buf)
    assert buf.getvalue().splitlines() == [
        "# shape intervals=2 slots=3", RUN_CSV_HEADER,
        "0,0,3,2,1,0,waterfilled", "0,1,1,0,1,0,waterfilled", "0,2,0,0,1,0,waterfilled",
        "1,0,5,0,0,,fake-anomaly", "1,1,2,1,0,,fake-anomaly", "1,2,2,1,0,,fake-anomaly"]


def _run_csv_loop(run: Run, comment: str) -> str:
    # reference: the dump format, one numpy element at a time
    lines = [f"# {comment}", f"# shape intervals={len(run)} slots={run.slots}",
             RUN_CSV_HEADER]
    for i in range(len(run)):
        anom = bool(run.is_anomaly[i])
        slot = int(run.anomaly_slot[i]) if anom else ""
        for j in range(run.slots):
            lines.append(f"{i},{j},{int(run.counts[i, j])},{int(run.dummy_counts[i, j])},"
                         f"{int(anom)},{slot},{ACTIONS[int(run.action[i])]}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(slots=st.integers(2, 6), n=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_csv_dump_matches_loop_formatter(slots, n, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 200, (n, slots))
    dummy = rng.integers(0, counts + 1)
    is_anomaly = rng.random(n) < 0.5
    anomaly_slot = np.where(is_anomaly, rng.integers(0, slots, n), -1)
    run = Run(counts, dummy, is_anomaly, anomaly_slot, rng.integers(0, len(ACTIONS), n))
    buf = io.StringIO()
    run_to_csv(run, buf, comment="tool 0.0")
    assert buf.getvalue() == _run_csv_loop(run, "tool 0.0")


def test_to_timestamps_bins_back_to_counts():
    run = gen_run(IntervalModel(5, 2.0, 10.0, 0.3), 30, 4)
    ts = to_timestamps(run, slot_width=2.0)
    # the first slot holds a message, so the binning grid starts at slot 0
    assert run.counts[0, 0] > 0
    binned = bin_timestamps(ts, slot_width=2.0, slots=5)
    # trailing empty slots can shorten the grid by one interval
    assert len(binned) >= len(run) - 1
    assert np.array_equal(binned, run.counts[:len(binned)])


def _to_timestamps_loop(run, slot_width, start):
    # reference: the c messages of flat slot k, one slot at a time
    out = [(start + k * slot_width) + slot_width * (np.arange(c) + 0.5) / c
           for k, c in enumerate(run.counts.ravel().tolist()) if c]
    return np.concatenate(out) if out else np.empty(0)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 4), min_size=3, max_size=3), min_size=n, max_size=n)),
    zero=st.booleans(),
    slot_width=st.sampled_from([1.0, 0.1, 2.5, 1e-3, 60.0]),
    start=st.sampled_from([0.0, -3.7, 100.0, 1.6e9 + 0.25]),
)
def test_to_timestamps_matches_loop_reference(counts, zero, slot_width, start):
    counts = np.array(counts) * (not zero)  # all-zero runs too
    n = len(counts)
    run = Run(counts, np.zeros_like(counts), np.zeros(n, bool), np.full(n, -1),
              np.zeros(n, int))
    got = to_timestamps(run, slot_width=slot_width, start=start)
    want = _to_timestamps_loop(run, slot_width, start)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # bit for bit


def test_to_timestamps_ordering_and_bounds():
    run = gen_run(MODEL, 20, 6)
    ts = to_timestamps(run, slot_width=1.0, start=100.0)
    assert np.all(np.diff(ts) >= 0)
    assert ts[0] >= 100.0
    assert ts[-1] <= 100.0 + 20 * 10


@settings(max_examples=30, deadline=None)
@given(
    slots=st.integers(2, 6),
    rp=st.floats(0.0, 1.0),
    rates=st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=2, max_size=2),
    intensities=st.lists(st.floats(1.0, 50.0), min_size=2, max_size=2),
    n=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_gen_run_labels_ignore_slot_rates(slots, rp, rates, intensities, n, seed):
    # the anomaly coins are the first draws of the stream: the labels a
    # cell scores against do not move with the base rate or the intensity
    a = gen_run(IntervalModel(slots, rates[0], intensities[0], rp), n, seed)
    b = gen_run(IntervalModel(slots, rates[1], intensities[1], rp), n, seed)
    assert np.array_equal(a.is_anomaly, b.is_anomaly)


@settings(max_examples=30, deadline=None)
@given(
    slots=st.integers(2, 6),
    rate=st.sampled_from([0.5, 1.0, 3.0]),
    intensity=st.floats(1.0, 50.0),
    rp=st.floats(0.0, 1.0),
    n=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_gen_run_always_valid(slots, rate, intensity, rp, n, seed):
    model = IntervalModel(slots, rate, intensity, rp)
    run = gen_run(model, n, seed)
    assert len(run) == n
    assert run.counts.shape == (n, slots)
    assert np.all(run.counts >= 0)
    assert np.array_equal(run.is_anomaly, run.anomaly_slot >= 0)
    assert np.all(run.anomaly_slot < slots)
    assert np.all(run.action == 0)

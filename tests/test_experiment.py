"""Cell runner, sweep, and cost-curve tests."""

import dataclasses
import io
import math
import re
from contextlib import nullcontext
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpwanleak import (
    COST_CSV_HEADER,
    DETECTOR_MODES,
    SWEEP_CSV_HEADER,
    DENOMINATOR_MODES,
    CostPoint,
    DegenerateMetricError,
    DetectorConfig,
    IntervalModel,
    KnowledgeModel,
    MetricsReport,
    Run,
    Strategy,
    SweepSpec,
    anomaly_dispersion,
    binary_entropy_bits,
    class_posteriors,
    cost_curves,
    cost_curves_to_csv,
    costs,
    draw_actions,
    feasible_region,
    guess_run,
    guessing_error,
    guessing_error_se,
    idealized_verdicts,
    realized_cost,
    run_cell,
    run_sweep,
    simulate_run,
    sweep_to_csv,
)
from lpwanleak import experiment
from lpwanleak import test_run as classify_run
from scoring_oracles import empirical_ce_bits, select_realized_cost, where_draw_actions

FEASIBLE = IntervalModel(10, 1.0, 10.0, 0.5)


def test_binary_entropy():
    assert binary_entropy_bits(0.0) == 0.0
    assert binary_entropy_bits(1.0) == 0.0
    assert binary_entropy_bits(0.5) == pytest.approx(1.0)
    assert binary_entropy_bits(0.2) == pytest.approx(
        -(0.2 * math.log2(0.2) + 0.8 * math.log2(0.8)))


def test_realized_cost_hand_case():
    # waterfilled, faked, untouched, faked: C_wf, C_f, 0, C_f per interval
    cm = costs(IntervalModel(10, 1.0, 40.0, 0.2))
    vals = np.array([cm.waterfill_cost, cm.fake_cost, 0.0, cm.fake_cost])
    mean, se = realized_cost(np.array([1, 2, 0, 2], dtype=np.int8), cm)
    assert mean == pytest.approx(vals.mean(), rel=1e-12)
    assert se == pytest.approx(vals.std(ddof=1) / 2.0, rel=1e-12)
    assert realized_cost(np.zeros(5, dtype=np.int8), cm) == (0.0, 0.0)
    mean, se = realized_cost(np.array([2]), cm)
    assert mean == cm.fake_cost and math.isnan(se)
    # an unknown code is an error, not a plausible cost
    for bad in ([0, -1], [3]):
        with pytest.raises(ValueError, match="action codes"):
            realized_cost(np.array(bad, dtype=np.int8), cm)


def test_run_cell_deterministic():
    a = run_cell(FEASIBLE, n_intervals=2000, seed=5)
    b = run_cell(FEASIBLE, n_intervals=2000, seed=5)
    assert a == b
    c = run_cell(FEASIBLE, n_intervals=2000, seed=6)
    assert c != a


def test_run_cell_feasible_statistics():
    r = run_cell(FEASIBLE, budget=1.0, n_intervals=20_000, seed=1)
    assert r.feasible_optimal and not r.degenerate and not r.error
    assert r.epsilon == 0.0
    assert (r.p_waterfill, r.p_fake) == (0.0, 1.0)
    assert r.ideal_guess_err == pytest.approx(0.5)
    assert r.ideal_ce_bits == pytest.approx(1.0)
    assert abs(r.guess_err - 0.5) <= 4 * r.guess_err_se
    assert abs(r.ce_bits - 1.0) <= 4 * r.ce_bits_se
    # every baseline interval fakes at relative cost 0.9
    assert abs(r.realized_cost - 0.45) <= 4 * r.realized_cost_se
    assert r.cost == pytest.approx(0.45, rel=1e-12)


def test_run_cell_waterfill_cost_statistics():
    # a search-path cell that waterfills and fakes: the realized cost of its
    # actions must match the analytic cost
    model = IntervalModel(10, 1.0, 40.0, 0.2)
    r = run_cell(model, budget=1.0, n_intervals=100_000, seed=3)
    assert not r.feasible_optimal and not r.error
    assert 0.0 < r.p_waterfill < 1.0 and 0.0 < r.p_fake < 1.0
    assert r.cost == pytest.approx(1.0, rel=1e-12)
    assert abs(r.realized_cost - r.cost) <= 4 * r.realized_cost_se


def _given_strategy(strat):
    # run_cell and simulate_run look the solver up in lpwanleak.experiment
    return mock.patch.object(experiment, "solve_strategy", lambda *args: strat)


def _full_path_metrics(model, knowledge, budget, n, seed):
    # idealized scoring of the full count run, stage by stage
    strat, cm, obf = simulate_run(model, knowledge, budget, n, seed)
    cfg = DetectorConfig.idealized(model.anomaly_rate, strat.p_waterfill, strat.p_fake,
                                   knowledge.tpr, knowledge.tnr)
    flagged = classify_run(obf, cfg)
    p_flag, p_unflag, _ = class_posteriors(cfg.anomaly_rate, 1.0 - cfg.flag_rate_anomaly,
                                           cfg.flag_rate_baseline)
    guesses = guess_run(np.where(flagged, p_flag, p_unflag), seed + (2,))
    try:
        err = guessing_error(guesses, obf.is_anomaly)
        err_se = guessing_error_se(err, int(obf.is_anomaly.sum()))
    except DegenerateMetricError:
        err = err_se = math.nan
    return ((err, err_se) + empirical_ce_bits(obf.is_anomaly, flagged)
            + realized_cost(obf.action, cm))


@settings(max_examples=40, deadline=None)
@given(
    slots=st.integers(2, 12),
    intensity=st.floats(1.0, 60.0),
    rp=st.floats(0.0, 1.0),
    tpr=st.floats(0.0, 1.0),
    tnr=st.floats(0.0, 1.0),
    budget=st.floats(0.0, 3.0),
    strategy=st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    n=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
# a subnormal anomaly rate whose frontier solve once overflowed p_waterfill
@example(slots=2, intensity=24.125, rp=2.225073858507e-311, tpr=0.5, tnr=0.0,
         budget=0.01190911098548986, strategy=None, n=1, seed=0)
def test_run_cell_idealized_metrics_equal_the_full_path(slots, intensity, rp, tpr, tnr,
                                                        budget, strategy, n, seed):
    # idealized cells draw labels only; every metric field, realized cost
    # included, must still equal the one the full count run gives, bit for
    # bit (nan equal to nan)
    model = IntervalModel(slots, 1.0, intensity, rp)
    knowledge = KnowledgeModel(tpr, tnr)
    base = (seed, 1, 2)
    with (nullcontext() if strategy is None
          else _given_strategy(Strategy(*strategy, 0.0, 0.0, False))):
        r = run_cell(model, knowledge, budget, n_intervals=n, seed=base)
        want = _full_path_metrics(model, knowledge, budget, n, base)
    got = (r.guess_err, r.guess_err_se, r.ce_bits, r.ce_bits_se,
           r.realized_cost, r.realized_cost_se)
    assert np.array_equal(np.array(got), np.array(want), equal_nan=True), (got, want)


def _same_bits(got, want) -> bool:
    # equal floats with equal signs (0.0 is not -0.0), or nan for nan
    return len(got) == len(want) and all(
        (math.isnan(g) and math.isnan(w)) or (g == w and math.copysign(1, g) == math.copysign(1, w))
        for g, w in zip(got, want))


_POSTERIOR = st.floats(0.0, 1.0) | st.just(math.nan)


@settings(max_examples=200, deadline=None)
@given(
    columns=st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n))),
    mode=st.sampled_from(["idealized", "chi-square"]),
    rp=st.floats(0.0, 1.0),
    flag_rates=st.tuples(_POSTERIOR, _POSTERIOR),
    forced=st.none() | st.tuples(_POSTERIOR, _POSTERIOR),
    cost=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    seed=st.integers(0, 2**32 - 1),
)
# n = 1; no anomalies; all anomalies; one (truth, action) class only
@example(columns=([True], [1], [False]), mode="idealized", rp=0.3, flag_rates=(0.5, 0.5),
         forced=None, cost=(1.0, 2.0), seed=0)
@example(columns=([False] * 5, [0, 1, 2, 0, 2], [True, False, True, False, False]),
         mode="chi-square", rp=0.3, flag_rates=(0.6, 0.1), forced=None, cost=(1.0, 2.0), seed=1)
@example(columns=([True] * 5, [0, 1, 2, 1, 1], [True, True, False, True, False]),
         mode="idealized", rp=0.3, flag_rates=(0.6, 0.1), forced=None, cost=(1.0, 2.0), seed=2)
@example(columns=([True] * 4, [1] * 4, [False] * 4), mode="chi-square", rp=0.5,
         flag_rates=(0.5, 0.5), forced=None, cost=(1.0, 2.0), seed=3)
# a nan posterior in a class that does not occur, then in one that does
@example(columns=([True, False, True], [0, 0, 2], [True, True, True]), mode="chi-square",
         rp=0.5, flag_rates=(0.5, 0.5), forced=(0.4, math.nan), cost=(1.0, 2.0), seed=4)
@example(columns=([True, False, True], [0, 0, 2], [True, False, True]), mode="chi-square",
         rp=0.5, flag_rates=(0.5, 0.5), forced=(0.4, math.nan), cost=(1.0, 2.0), seed=4)
# idealized: every interval flagged, the unflagged posterior nan
@example(columns=([True, False], [0, 2], [False, False]), mode="idealized", rp=0.5,
         flag_rates=(0.5, 0.5), forced=(0.7, math.nan), cost=(1.0, 2.0), seed=5)
def test_score_equals_the_mask_oracles(columns, mode, rp, flag_rates, forced, cost, seed):
    # the one-pass scorer against guess_run + guessing_error, the mask-loop
    # entropy and the np.select cost, bit for bit, on arbitrary label and
    # flag columns; ``forced`` replaces the config's two posteriors
    truth, action, flagged = (np.array(c) for c in columns)
    action = action.astype(np.int8)
    cfg = DetectorConfig(mode, rp, 0.05, *flag_rates)
    p_flag, p_unflag = forced or class_posteriors(rp, 1.0 - flag_rates[0], flag_rates[1])[:2]
    if mode == "idealized":
        flagged = idealized_verdicts(truth, action)
    posterior = np.where(flagged, p_flag, p_unflag)
    want = (math.nan, math.nan)
    if not np.isnan(posterior).any():
        guesses = guess_run(posterior, (seed, 2))
        try:
            err = guessing_error(guesses, truth)
            want = (err, guessing_error_se(err, int(truth.sum())))
        except DegenerateMetricError:
            pass
    want += empirical_ce_bits(truth, flagged)
    with (nullcontext() if forced is None else
          mock.patch.object(experiment, "class_posteriors", lambda *a: (*forced, 0.0))):
        got = experiment._score(truth, flagged, cfg, (seed, 2))
    assert _same_bits(got, want), (got, want)
    cm = SimpleNamespace(waterfill_cost=cost[0], fake_cost=cost[1])
    got, want = realized_cost(action, cm), select_realized_cost(action, cm)
    assert _same_bits(got, want), (got, want)


@settings(max_examples=60, deadline=None)
@given(
    truth=st.lists(st.booleans(), max_size=50),
    rates=st.tuples(*[st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)] * 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_actions_equals_the_where_oracle(truth, rates, seed):
    # same codes, and the generator left where two draws of n leave it
    tpr, tnr, pw, pf = rates
    args = (np.array(truth, dtype=bool), Strategy(pw, pf, 0.0, 0.0, False),
            KnowledgeModel(tpr, tnr))
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = draw_actions(*args, rng)
    want = where_draw_actions(*args, oracle_rng)
    assert got.dtype == want.dtype == np.int8
    assert np.array_equal(got, want)
    assert rng.random() == oracle_rng.random()


def test_idealized_cells_draw_no_counts(monkeypatch):
    # an idealized cell reads labels only; any count draw or count test fails it
    def refuse(*args, **kwargs):
        raise AssertionError("an idealized cell drew or tested counts")

    for name in ("gen_run", "apply_strategy", "test_run"):
        monkeypatch.setattr(experiment, name, refuse)
    for knowledge in (KnowledgeModel.complete(), KnowledgeModel(0.7, 0.99)):
        r = run_cell(IntervalModel(10, 1.0, 40.0, 0.2), knowledge, n_intervals=2000, seed=3)
        assert not r.error and math.isfinite(r.guess_err) and math.isfinite(r.realized_cost)
        recs = run_sweep(SweepSpec(anomaly_rates=(0.0, 0.2, 0.5, 1.0), intensities=(10.0, 40.0),
                                   knowledge=knowledge, n_intervals=1000, seed=4))
        assert [r.error for r in recs] == [""] * 8
    with pytest.raises(AssertionError, match="drew or tested counts"):
        run_cell(FEASIBLE, detector_mode="chi-square", n_intervals=1000)


def test_run_cell_without_obfuscation_leaks_everything():
    with _given_strategy(Strategy(0.0, 0.0, 0.0, 0.0, False)):
        r = run_cell(FEASIBLE, n_intervals=5000, seed=2)
    # deterministic classifier separates the classes perfectly
    assert r.guess_err == 0.0
    assert r.ce_bits == 0.0


def test_run_cell_chi_square_mode():
    model = IntervalModel(10, 1.0, 40.0, 0.2)
    r = run_cell(model, budget=1.0, detector_mode="chi-square",
                 n_intervals=5000, seed=3)
    assert not r.error
    assert 0.0 <= r.guess_err <= 1.0
    assert r.guess_err_se > 0
    assert r.realized_cost > 0
    # epsilon stays the analytic value of the solved strategy
    assert r.epsilon == pytest.approx(3.664, abs=5e-3)


def test_run_cell_degenerate_rate():
    for mode in DETECTOR_MODES:
        # no anomalies: the guessing error on anomalies is undefined
        r = run_cell(IntervalModel(10, 1.0, 10.0, 0.0), detector_mode=mode,
                     n_intervals=2000, seed=4)
        assert r.degenerate
        assert np.isnan(r.guess_err)
        assert r.ideal_guess_err == 1.0
        assert r.ideal_ce_bits == 0.0
        # only anomalies: every guess hits, although the chi-square
        # calibration saw no baseline to measure a baseline flag rate on
        r = run_cell(IntervalModel(10, 1.0, 10.0, 1.0), detector_mode=mode,
                     n_intervals=2000, seed=4)
        assert r.degenerate and not r.error
        assert (r.guess_err, r.guess_err_se) == (0.0, 0.0)
        assert (r.ce_bits, r.ideal_guess_err, r.ideal_ce_bits) == (0.0, 0.0, 0.0)


def test_run_cell_rejects_unknown_detector():
    with pytest.raises(ValueError):
        run_cell(FEASIBLE, detector_mode="oracle", n_intervals=2000)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(anomaly_rates=(), intensities=(10.0,))
    with pytest.raises(ValueError):
        SweepSpec(anomaly_rates=(0.2,), intensities=())
    with pytest.raises(ValueError):
        SweepSpec(anomaly_rates=(0.2,), intensities=(10.0,), n_intervals=10)
    spec = SweepSpec(anomaly_rates=[0.2, 0.4], intensities=[10, 40])
    assert spec.anomaly_rates == (0.2, 0.4)
    assert spec.intensities == (10.0, 40.0)


@pytest.mark.parametrize("kwargs,message", [
    ({"anomaly_rates": (0.2, 1.5)}, "cell (R_p=1.5, I=10.0): anomaly_rate"),
    ({"detector_mode": "oracle"}, "detector_mode"),
    ({"cost_denominator": "bogus"}, "cost_denominator"),
    # the anomalous slot rate b is over numpy's Poisson limit
    ({"intensities": (1e20,)}, "cell (R_p=0.2, I=1e+20): intensity"),
    # b is not, but the waterfill total (S - 1) * w is
    ({"intensities": (1.1e18,)}, "Poisson rate of 9.9e+18"),
    ({"budget": -1.0}, "budget must be >= 0, got -1.0"),
    ({"budget": math.nan}, "budget must be >= 0, got nan"),
], ids=["anomaly-rate", "detector", "denominator", "slot-rate", "waterfill-total",
        "budget--1", "budget-nan"])
def test_sweep_spec_rejects_what_its_cells_would(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SweepSpec(**{"anomaly_rates": (0.2,), "intensities": (10.0,),
                     "n_intervals": 1000, **kwargs})


def test_sweep_runs_up_to_the_poisson_rate_limit():
    # (S - 1) * w is about 9e18 here, just under numpy's limit of 9.2e18
    spec = SweepSpec(anomaly_rates=(0.2,), intensities=(1e18,), n_intervals=1000)
    for mode in ("idealized", "chi-square"):
        rec, = run_sweep(dataclasses.replace(spec, detector_mode=mode))
        assert not rec.error and math.isfinite(rec.realized_cost)
    assert spec.knowledge == KnowledgeModel.complete()


def test_run_sweep_order_and_isolation(monkeypatch):
    spec = SweepSpec(anomaly_rates=(0.2, 0.5), intensities=(10.0, 40.0),
                     n_intervals=1000, seed=7)
    recs = run_sweep(spec)
    assert [(r.intensity, r.r_p) for r in recs] == [
        (10.0, 0.2), (10.0, 0.5), (40.0, 0.2), (40.0, 0.5)]
    assert all(not r.error for r in recs)
    # a cell that fails with a domain error is recorded, not raised, and
    # the other cells still run
    real_cell = experiment.run_cell

    def cell(model, *a, **kw):
        if (model.anomaly_rate, model.intensity) == (0.5, 10.0):
            raise ValueError("no strategy for this cell")
        return real_cell(model, *a, **kw)

    monkeypatch.setattr(experiment, "run_cell", cell)
    failed = run_sweep(spec)
    assert [r.error for r in failed] == ["", "ValueError: no strategy for this cell", "", ""]
    assert np.isnan(failed[1].guess_err)
    assert failed[0] == recs[0] and failed[2:] == recs[2:]


def test_run_sweep_deterministic():
    spec = SweepSpec(anomaly_rates=(0.2, 0.5), intensities=(10.0,),
                     n_intervals=1000, seed=8)
    assert run_sweep(spec) == run_sweep(spec)


def test_feasible_region():
    recs = [
        MetricsReport(r_p=0.2, intensity=10.0, slots=10, base_rate=1.0,
                      tpr=1.0, tnr=1.0, budget=1.0, feasible_optimal=True),
        MetricsReport(r_p=0.5, intensity=10.0, slots=10, base_rate=1.0,
                      tpr=1.0, tnr=1.0, budget=1.0, feasible_optimal=False),
        MetricsReport(r_p=0.1, intensity=10.0, slots=10, base_rate=1.0,
                      tpr=1.0, tnr=1.0, budget=1.0, feasible_optimal=True),
        MetricsReport(r_p=0.2, intensity=40.0, slots=10, base_rate=1.0,
                      tpr=1.0, tnr=1.0, budget=1.0, feasible_optimal=True,
                      error="boom"),
    ]
    region = feasible_region(recs)
    assert region == {10.0: [0.1, 0.2], 40.0: []}


def test_sweep_csv_format():
    spec = SweepSpec(anomaly_rates=(0.5,), intensities=(10.0,),
                     n_intervals=1000, seed=9)
    recs = run_sweep(spec)
    buf = io.StringIO()
    sweep_to_csv(recs, buf, comment="tool 0.0")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# tool 0.0"
    assert lines[1] == SWEEP_CSV_HEADER
    assert len(lines) == 3
    cells = lines[2].split(",")
    assert len(cells) == len(SWEEP_CSV_HEADER.split(","))
    assert cells[0] == "0.5"
    assert cells[2] == "10"
    # feasible_optimal is serialized as 0/1
    assert cells[11] in ("0", "1")
    # values round-trip through repr
    assert float(cells[12]) == recs[0].guess_err


@pytest.mark.parametrize("record", [MetricsReport, CostPoint])
def test_every_record_field_has_one_output_name(record):
    names = record.NAMES
    assert len(names) == len(set(names)) == len(dataclasses.fields(record))


def test_cost_curves_grid():
    m10 = IntervalModel(10, 1.0, 10.0, 0.0)
    m40 = IntervalModel(10, 1.0, 40.0, 0.0)
    pts = cost_curves([m10, m40], [1.0, 2.0])
    assert len(pts) == 4
    assert [(p.intensity, p.shift) for p in pts] == [
        (10.0, 1.0), (10.0, 2.0), (40.0, 1.0), (40.0, 2.0)]
    base = pts[0]
    assert base.fake_cost == 0.0 and base.waterfill_cost == 0.0
    assert all(p.wf_feasible for p in pts)
    # fake anomalies are cheaper at every shift beyond the trivial one
    assert pts[1].fake_cost < pts[1].waterfill_cost
    assert pts[3].fake_cost < pts[3].waterfill_cost
    full = cost_curves([m40], [anomaly_dispersion(m40)])[0]
    assert full.fake_cost == pytest.approx(3.9, rel=1e-9)
    assert full.waterfill_cost == pytest.approx(7.02, rel=1e-9)
    # nan passes a bare k < 1 check, and inf would be a row of inf and nan
    for k in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and >= 1"):
            cost_curves([m10], [1.0, k])
    # at the full target k = anomaly dispersion a point costs what costs() does
    for denom in DENOMINATOR_MODES:
        for m in (m10, m40):
            point, = cost_curves([m], [anomaly_dispersion(m)], denom)
            cm = costs(m, denom)
            assert (point.fake_cost, point.waterfill_cost) == (cm.fake_cost, cm.waterfill_cost)


def test_cost_curves_infeasible_and_validation():
    m10 = IntervalModel(10, 1.0, 10.0, 0.0)
    d0 = anomaly_dispersion(m10)
    pts = cost_curves([m10], [d0 + 1.0])
    assert not pts[0].wf_feasible
    assert math.isnan(pts[0].waterfill_cost)
    assert pts[0].fake_cost > 0  # fake side keeps going
    with pytest.raises(ValueError):
        cost_curves([m10], [0.5])


def test_cost_curves_csv():
    m = IntervalModel(10, 1.0, 10.0, 0.0)
    buf = io.StringIO()
    cost_curves_to_csv(cost_curves([m], [1.0, 3.0]), buf, comment="c")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# c"
    assert lines[1] == COST_CSV_HEADER
    assert len(lines) == 4
    row = lines[3].split(",")
    assert float(row[0]) == 3.0
    assert row[5] == "1"


def test_metrics_report_error_default():
    fields = {f.name for f in dataclasses.fields(MetricsReport)}
    assert {"r_p", "intensity", "guess_err", "ce_bits", "error"} <= fields

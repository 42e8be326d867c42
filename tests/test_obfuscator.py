"""Obfuscation cost algebra and strategy solver tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpwanleak import (
    DENOMINATOR_MODES,
    InfeasibleTargetError,
    IntervalModel,
    KnowledgeModel,
    Run,
    Strategy,
    anomaly_dispersion,
    apply_strategy,
    class_posteriors,
    costs,
    ensemble_dispersion,
    epsilon_of,
    expected_dispersion_fake,
    expected_dispersion_waterfill,
    gen_run,
    power_cost,
    solve_fake_rate,
    solve_strategy,
    solve_waterfill_rate,
    strategy_json,
)

M40 = IntervalModel(10, 1.0, 40.0, 0.2)
M10 = IntervalModel(10, 1.0, 10.0, 0.2)
# two-slot model small enough to carry by hand
TINY = IntervalModel(2, 1.0, 5.0, 0.0)


def test_anomaly_dispersion_hand_values():
    # slot rates (1,...,1,40): E[s2] = 4.9 + (160.9 - 24.01) * 10/9 = 157.0
    assert anomaly_dispersion(M40) == pytest.approx(157.0 / 4.9, rel=1e-12)
    # slot rates (1,...,1,10): E[s2] = 1.9 + (10.9 - 3.61) * 10/9 = 10.0
    assert anomaly_dispersion(M10) == pytest.approx(10.0 / 1.9, rel=1e-12)
    # rates (1,5): mu=3, E[s2] = 3 + (13 - 9) * 2 = 11
    assert anomaly_dispersion(TINY) == pytest.approx(11.0 / 3.0, rel=1e-12)


def test_expected_dispersion_fake_hand_value():
    # rates (1, 4): mu=2.5, E[s2] = 2.5 + (8.5 - 6.25) * 2 = 7.0
    m = IntervalModel(2, 1.0, 1.0, 0.0)
    assert expected_dispersion_fake(m, 3.0) == pytest.approx(2.8, rel=1e-12)
    assert expected_dispersion_fake(m, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_solve_fake_rate_hand_value():
    # t^2 = (k-1)(S lam + t) with k=2.8, S lam=2 has root t=3
    m = IntervalModel(2, 1.0, 1.0, 0.0)
    assert solve_fake_rate(m, 2.8) == pytest.approx(3.0, rel=1e-12)
    assert solve_fake_rate(m, 1.0) == 0.0
    with pytest.raises(InfeasibleTargetError):
        solve_fake_rate(m, 0.9)


def test_solve_waterfill_rate_hand_value():
    # target D'=2: (a-5)^2 = (a+5) gives a = (11-sqrt(41))/2
    w = solve_waterfill_rate(TINY, 11.0 / 6.0)
    assert w == pytest.approx((9.0 - math.sqrt(41.0)) / 2.0, rel=1e-12)
    assert expected_dispersion_waterfill(TINY, w) == pytest.approx(2.0, rel=1e-12)
    # full suppression equalizes all slot rates exactly
    assert solve_waterfill_rate(TINY, 11.0 / 3.0) == 4.0
    assert solve_waterfill_rate(TINY, 1.0) == 0.0
    with pytest.raises(InfeasibleTargetError):
        solve_waterfill_rate(TINY, 0.5)
    with pytest.raises(InfeasibleTargetError):
        solve_waterfill_rate(TINY, 4.0)  # past full suppression


def test_full_target_rates():
    for model, want in ((M40, 39.0), (M10, 9.0)):
        cm = costs(model)
        assert cm.fake_rate == pytest.approx(want, rel=1e-12)
        assert cm.waterfill_rate == pytest.approx(want, rel=1e-12)
        d0 = anomaly_dispersion(model)
        assert expected_dispersion_fake(model, cm.fake_rate) == pytest.approx(d0, rel=1e-12)
        assert expected_dispersion_waterfill(model, cm.waterfill_rate) \
            == pytest.approx(1.0, rel=1e-12)


def test_relative_costs():
    cm = costs(M40)
    assert cm.fake_cost == pytest.approx(3.9, rel=1e-12)
    assert cm.waterfill_cost == pytest.approx(39.0 * 9 / 50.0, rel=1e-12)
    cm = costs(M10)
    assert cm.fake_cost == pytest.approx(0.9, rel=1e-12)
    assert cm.waterfill_cost == pytest.approx(81.0 / 20.0, rel=1e-12)
    alt = costs(M10, denominator="interval-expected")
    assert alt.fake_cost == pytest.approx(0.9, rel=1e-12)
    assert alt.waterfill_cost == pytest.approx(81.0 / 19.0, rel=1e-12)
    with pytest.raises(ValueError):
        costs(M10, denominator="imaginary")
    assert set(DENOMINATOR_MODES) == {"base-plus-anomaly", "interval-expected"}


def test_injected_dispersion_targets_mc():
    """Injected dummies really do land on the solved dispersion targets."""
    model = IntervalModel(10, 1.0, 10.0, 1.0)
    cm = costs(model)
    run = gen_run(model, 20_000, 5)
    obf = apply_strategy(run, Strategy(1.0, 0.0, 0.0, 0.0, True),
                         KnowledgeModel.complete(), cm, 6)
    assert abs(ensemble_dispersion(obf.counts) - 1.0) < 0.1
    base = IntervalModel(10, 1.0, 10.0, 0.0)
    run = gen_run(base, 20_000, 7)
    obf = apply_strategy(run, Strategy(0.0, 1.0, 0.0, 0.0, True),
                         KnowledgeModel.complete(), cm, 8)
    assert abs(ensemble_dispersion(obf.counts) - anomaly_dispersion(model)) < 0.2


def test_knowledge_model():
    assert KnowledgeModel.complete() == KnowledgeModel(1.0, 1.0) == KnowledgeModel()
    with pytest.raises(ValueError):
        KnowledgeModel(1.2, 1.0)
    with pytest.raises(ValueError):
        KnowledgeModel(1.0, -0.1)


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy(1.5, 0.0, 0.0, 0.0, True)
    with pytest.raises(ValueError):
        Strategy(0.0, -0.1, 0.0, 0.0, True)


def test_posterior_ratios_hand_value():
    # strategy (p_waterfill 0.5, p_fake 0.1) under complete knowledge
    p_f, p_u, eps = class_posteriors(0.2, 0.5, 0.1)
    assert p_f == pytest.approx(5.0 / 9.0, rel=1e-12)
    assert p_u == pytest.approx(5.0 / 41.0, rel=1e-12)
    assert eps == pytest.approx(32.0 / 9.0, rel=1e-12)
    assert epsilon_of(0.2, 0.5, 0.1) == eps


def test_epsilon_degenerate_partition_is_zero():
    # flagging probability 0 or 1 leaves a single class carrying the prior
    assert epsilon_of(0.3, 1.0, 0.0) == 0.0
    assert epsilon_of(0.3, 0.0, 1.0) == 0.0


def test_epsilon_infinite():
    # unflagged class empty of anomalies while flagged class has them
    assert epsilon_of(0.2, 0.0, 0.5) == math.inf


def test_power_cost_and_budget_boundary():
    cm = costs(M10)
    c = power_cost(0.5, 0.25, cm, 0.2)
    want = 0.2 * 0.5 * cm.waterfill_cost + 0.8 * 0.25 * cm.fake_cost
    assert c == pytest.approx(want, rel=1e-12)
    # a strategy priced exactly at the budget is feasible: the solver keeps it
    budget = power_cost(0.0, 1.0, cm, 0.2)
    s = solve_strategy(M10, budget=budget, cost_model=cm)
    assert s.feasible_optimal and (s.p_waterfill, s.p_fake) == (0.0, 1.0)
    assert s.cost == budget
    assert not solve_strategy(M10, budget=budget * 0.999, cost_model=cm).feasible_optimal


def test_solve_strategy_feasible_cell():
    model = IntervalModel(10, 1.0, 10.0, 0.5)
    s = solve_strategy(model, budget=1.0)
    assert s.feasible_optimal and not s.degenerate
    assert s.p_waterfill == 0.0 and s.p_fake == 1.0
    assert s.epsilon == 0.0
    assert s.cost == pytest.approx(0.45, rel=1e-12)


def test_solve_strategy_picks_cheaper_endpoint():
    # high anomaly rate: faking the few baselines is the cheap zero-bias choice
    s = solve_strategy(IntervalModel(10, 1.0, 10.0, 0.9), budget=10.0)
    assert (s.p_waterfill, s.p_fake) == (0.0, 1.0)
    assert s.cost == pytest.approx(0.1 * 0.9, rel=1e-12)
    # low anomaly rate: waterfilling the few anomalies wins
    s = solve_strategy(IntervalModel(10, 1.0, 10.0, 0.05), budget=10.0)
    assert (s.p_waterfill, s.p_fake) == (1.0, 0.0)
    assert s.cost == pytest.approx(0.05 * 4.05, rel=1e-12)


def test_solve_strategy_degenerate_rates():
    for rp in (0.0, 1.0):
        s = solve_strategy(IntervalModel(10, 1.0, 10.0, rp), budget=1.0)
        assert s.degenerate and s.feasible_optimal
        assert (s.p_waterfill, s.p_fake, s.cost) == (0.0, 0.0, 0.0)


def test_solve_strategy_zero_budget():
    s = solve_strategy(IntervalModel(10, 1.0, 10.0, 0.3), budget=0.0)
    assert (s.p_waterfill, s.p_fake) == (0.0, 0.0)
    assert s.cost == 0.0 and not s.feasible_optimal
    assert s.epsilon == math.inf


def test_solve_strategy_constrained_cell():
    """Budget 1 at high intensity forces a sub-optimal interior point."""
    s = solve_strategy(M40, budget=1.0)
    assert not s.feasible_optimal
    assert s.cost <= 1.0 + 1e-9
    # the optimum of a 10^6-point scan of the budget line 1.404 P_wf + 3.12 P_f = 1
    assert s.p_waterfill == pytest.approx(0.514743, abs=2e-6)
    assert s.p_fake == pytest.approx(0.088879, abs=2e-6)
    assert s.epsilon == pytest.approx(3.663549, abs=2e-6)
    assert s.epsilon == pytest.approx(
        epsilon_of(M40.anomaly_rate, s.p_waterfill, s.p_fake), rel=1e-12)


def test_solve_strategy_empty_zero_bias_family():
    # tpr + tnr < 1 leaves no zero-bias solution at any budget
    s = solve_strategy(IntervalModel(10, 1.0, 10.0, 0.3),
                       KnowledgeModel(0.3, 0.3), budget=100.0)
    assert not s.feasible_optimal
    assert abs(s.epsilon) > 0.0
    assert s.epsilon == pytest.approx(
        epsilon_of(0.3, s.p_waterfill, s.p_fake, 0.3, 0.3), rel=1e-12)


def test_solve_strategy_rejects_negative_budget():
    for budget in (-1.0, math.nan):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            solve_strategy(M10, budget=budget)


def test_apply_strategy_only_adds_and_keeps_truth():
    run = gen_run(M40, 2000, 1)
    cm = costs(M40)
    obf = apply_strategy(run, Strategy(0.6, 0.3, 0.0, 0.0, False),
                         KnowledgeModel.complete(), cm, 2)
    assert np.all(obf.counts >= run.counts)
    assert np.array_equal(obf.counts - run.counts, obf.dummy_counts)
    assert np.array_equal(obf.is_anomaly, run.is_anomaly)
    assert np.array_equal(obf.anomaly_slot, run.anomaly_slot)


def test_apply_strategy_deterministic():
    run = gen_run(M40, 500, 3)
    cm = costs(M40)
    strat = Strategy(0.5, 0.2, 0.0, 0.0, False)
    a = apply_strategy(run, strat, KnowledgeModel.complete(), cm, 9)
    b = apply_strategy(run, strat, KnowledgeModel.complete(), cm, 9)
    assert a == b


def test_apply_strategy_waterfill_spares_anomalous_slot():
    model = IntervalModel(10, 1.0, 40.0, 1.0)
    run = gen_run(model, 300, 4)
    cm = costs(model)
    obf = apply_strategy(run, Strategy(1.0, 0.0, 0.0, 0.0, True),
                         KnowledgeModel.complete(), cm, 5)
    assert np.all(obf.action == 1)
    rows = np.arange(len(obf))
    assert np.all(obf.dummy_counts[rows, obf.anomaly_slot] == 0)
    # fill rate 39 over 9 slots: every interval gets dummies
    assert np.all(obf.dummy_counts.sum(axis=1) > 0)


def test_apply_strategy_fake_hits_single_slot():
    model = IntervalModel(10, 1.0, 40.0, 0.0)
    run = gen_run(model, 300, 6)
    obf = apply_strategy(run, Strategy(0.0, 1.0, 0.0, 0.0, True),
                         KnowledgeModel.complete(), costs(model), 7)
    assert np.all(obf.action == 2)
    assert np.all((obf.dummy_counts > 0).sum(axis=1) <= 1)


def test_apply_strategy_dummy_totals_match_the_action_rates():
    # A waterfilled row fills S - 1 slots at rate w and a faked row bursts
    # one slot at the fake rate, whether or not the predictor was right.
    # Incomplete knowledge puts mispredicted rows in both groups. Each
    # group's mean dummy total must lie within 3 sigma of its rate.
    cm = costs(M40)
    obf = apply_strategy(gen_run(M40, 40_000, 11), Strategy(0.7, 0.4, 0.0, 0.0, False),
                         KnowledgeModel(0.7, 0.9), cm, 12)
    totals = obf.dummy_counts.sum(axis=1)
    for code, rate, mispredicted in ((1, (M40.slots - 1) * cm.waterfill_rate, False),
                                     (2, cm.fake_rate, True)):
        rows = obf.action == code
        assert np.any(rows & (obf.is_anomaly == mispredicted))
        got = totals[rows]
        assert abs(got.mean() - rate) <= 3 * got.std(ddof=1) / math.sqrt(got.size), code


def test_apply_strategy_class_rates():
    model = IntervalModel(5, 1.0, 10.0, 0.5)
    run = gen_run(model, 40_000, 8)
    cm = costs(model)
    strat = Strategy(0.3, 0.2, 0.0, 0.0, False)
    obf = apply_strategy(run, strat, KnowledgeModel.complete(), cm, 9)
    anom = obf.is_anomaly
    assert abs(np.mean(obf.action[anom] == 1) - 0.3) < 0.02
    assert abs(np.mean(obf.action[~anom] == 2) - 0.2) < 0.02
    # imperfect prediction reroutes misclassified intervals to the other arm
    half = apply_strategy(run, strat, KnowledgeModel(tpr=0.5, tnr=1.0), cm, 10)
    assert abs(np.mean(half.action[anom] == 1) - 0.5 * 0.3) < 0.02
    assert abs(np.mean(half.action[anom] == 2) - 0.5 * 0.2) < 0.02


def test_strategy_json_shape():
    s = solve_strategy(M10, budget=1.0)
    d = strategy_json(s, M10, KnowledgeModel(0.7, 0.99))
    assert set(d) == {"P_wf", "P_f", "epsilon", "cost", "feasible_optimal",
                      "degenerate", "model", "knowledge"}
    assert set(d["model"]) == {"S", "lambda", "I", "R_p"}
    assert set(d["knowledge"]) == {"P_tp", "P_tn"}
    assert d["model"]["I"] == 10.0
    assert d["knowledge"]["P_tp"] == 0.7


@settings(max_examples=40, deadline=None)
@given(
    slots=st.integers(2, 12),
    lam=st.sampled_from([0.5, 1.0, 2.0, 5.0]),
    k=st.floats(1.0, 20.0),
)
def test_fake_rate_inverts_everywhere(slots, lam, k):
    m = IntervalModel(slots, lam, 1.0, 0.0)
    t = solve_fake_rate(m, k)
    assert t >= 0.0
    assert expected_dispersion_fake(m, t) == pytest.approx(k, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    slots=st.integers(2, 12),
    lam=st.sampled_from([0.5, 1.0, 2.0]),
    intensity=st.floats(1.0, 60.0),
    u=st.floats(0.0, 1.0),
)
# one ulp above I = 1: the moment form left rounding noise of about 1e-16 in
# D - 1, which the solve turned into a rate of -2.1e-8
@example(slots=2, lam=1.0, intensity=1.0000000000000002, u=0.5)
def test_waterfill_rate_inverts_everywhere(slots, lam, intensity, u):
    m = IntervalModel(slots, lam, intensity, 0.0)
    d0 = anomaly_dispersion(m)
    k = 1.0 + u * (d0 - 1.0)
    w = solve_waterfill_rate(m, k)
    assert w >= 0.0
    assert expected_dispersion_waterfill(m, w) == pytest.approx(d0 / k, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(rp=st.floats(0.01, 0.99), pf=st.floats(0.0, 1.0))
def test_complete_zero_bias_family(rp, pf):
    # build an exactly complementary pair; a raw 1 - pf can round to 1.0
    # for subnormal pf, which leaves the family entirely
    pw = 1.0 - pf
    assert epsilon_of(rp, pw, 1.0 - pw) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    rp=st.floats(0.01, 0.99),
    pw=st.floats(0.0, 1.0),
    pf=st.floats(0.0, 1.0),
    tpr=st.floats(0.0, 1.0),
    tnr=st.floats(0.0, 1.0),
)
def test_posteriors_bounded(rp, pw, pf, tpr, tnr):
    p_f, p_u, _ = class_posteriors(rp, tpr * pw, tnr * pf)
    assert 0.0 <= p_f <= 1.0
    assert 0.0 <= p_u <= 1.0
    eps = epsilon_of(rp, pw, pf, tpr, tnr)
    assert eps >= -1.0 or eps == math.inf


@settings(max_examples=40, deadline=None)
@given(
    anomaly_slots=st.lists(st.integers(-1, 3), min_size=1, max_size=30),
    scale=st.integers(2, 5),
    pw=st.floats(0.0, 1.0),
    pf=st.floats(0.0, 1.0),
    tpr=st.floats(0.0, 1.0),
    tnr=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_strategy_masks_ignore_counts(anomaly_slots, scale, pw, pf, tpr, tnr, seed):
    # the prediction and action coins come first in the stream, so neither
    # mask moves with the counts; with both arms always taken the action
    # column is the prediction mask itself
    slots = np.array(anomaly_slots)
    flags = slots >= 0
    counts = np.random.default_rng(seed).poisson(1.0, (slots.size, 4))
    runs = [Run(c, np.zeros_like(c), flags, slots, np.zeros(slots.size, dtype=int))
            for c in (counts, counts * scale + 1)]
    knowledge = KnowledgeModel(tpr, tnr)
    cm = costs(M10)
    strat = Strategy(pw, pf, 0.0, 0.0, False)
    both = Strategy(1.0, 1.0, 0.0, 0.0, False)
    acted = [apply_strategy(r, strat, knowledge, cm, seed).action for r in runs]
    predicted = [apply_strategy(r, both, knowledge, cm, seed).action for r in runs]
    assert np.array_equal(acted[0], acted[1])
    assert np.array_equal(predicted[0], predicted[1])
    assert np.all(predicted[0] != 0)
    # the strategy only decides whether a predicted arm acts
    assert np.all((acted[0] == 0) | (acted[0] == predicted[0]))


@settings(max_examples=40, deadline=None)
@given(
    slots=st.integers(2, 6),
    lam=st.sampled_from([0.5, 1.0, 3.0]),
    intensity=st.floats(1.0, 50.0),
    rp=st.floats(0.0, 1.0),
    n=st.integers(0, 40),
    pw=st.floats(0.0, 1.0),
    pf=st.floats(0.0, 1.0),
    tpr=st.floats(0.0, 1.0),
    tnr=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_strategy_superset_invariant(slots, lam, intensity, rp, n, pw, pf,
                                           tpr, tnr, seed):
    model = IntervalModel(slots, lam, intensity, rp)
    run = gen_run(model, n, seed)
    obf = apply_strategy(run, Strategy(pw, pf, 0.0, 0.0, False),
                         KnowledgeModel(tpr, tnr), costs(model), (seed, 1))
    assert np.array_equal(obf.counts - obf.dummy_counts, run.counts)
    assert np.all(obf.dummy_counts >= 0)
    assert np.array_equal(obf.is_anomaly, run.is_anomaly)
    assert np.array_equal(obf.anomaly_slot, run.anomaly_slot)


@settings(max_examples=150, deadline=None)
@given(
    slots=st.integers(2, 12),
    lam=st.sampled_from([0.5, 1.0, 2.0]),
    intensity=st.one_of(st.just(1.0), st.floats(1.0, 60.0)),
    rp=st.floats(0.01, 0.99),
    tpr=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    tnr=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    share=st.one_of(st.sampled_from([0.0, 1.0, 1.5]), st.floats(0.0, 2.0)),
)
# figure models at budgets whose optimum lies strictly inside the segment
@example(slots=10, lam=1.0, intensity=40.0, rp=0.2, tpr=1.0, tnr=1.0, share=0.25)
@example(slots=10, lam=1.0, intensity=30.0, rp=0.3, tpr=0.7, tnr=0.99, share=0.25)
def test_solve_strategy_matches_scan_oracles(slots, lam, intensity, rp, tpr, tnr, share):
    # budget as a share of the full-strategy cost a + b: 0, inside, and above
    model = IntervalModel(slots, lam, intensity, rp)
    cm = costs(model)
    a, b = rp * cm.waterfill_cost, (1.0 - rp) * cm.fake_cost
    budget = share * (a + b)
    s = solve_strategy(model, KnowledgeModel(tpr, tnr), budget, cm)
    assert power_cost(s.p_waterfill, s.p_fake, cm, rp) <= budget
    # the endpoint path reports the analytic zero, the search path its score
    assert s.epsilon == (0.0 if s.feasible_optimal
                         else epsilon_of(rp, s.p_waterfill, s.p_fake, tpr, tnr))
    if math.isinf(s.epsilon):
        # every affordable strategy leaks infinitely; the free one wins the tie
        assert (s.p_waterfill, s.p_fake, s.cost) == (0.0, 0.0, 0.0)

    def assert_no_worse_than(pw, pf):
        # 1e-12 absolute, or relative once |epsilon| > 1: at tpr near 1e-300
        # epsilon is near 1e300, where one ulp alone is about 1e284
        ok = power_cost(pw, pf, cm, rp) <= budget
        least = np.abs(class_posteriors(rp, tpr * pw[ok], tnr * pf[ok])[2]).min(initial=np.inf)
        assert abs(s.epsilon) <= least + 1e-12 * max(1.0, least)

    # oracle 1: a dense scan of the budget line clipped to the unit square
    if a + b <= budget:
        pw = pf = np.ones(1)
    else:
        pw = np.linspace(max(0.0, (budget - b) / a), min(1.0, budget / a), 10_000)
        pf = np.clip((budget - a * pw) / b, 0.0, 1.0)
    assert_no_worse_than(pw, pf)
    # oracle 2: the whole affordable rectangle, which checks that the least
    # leak lies on the frontier at all
    g = np.linspace(0.0, 1.0, 101)
    assert_no_worse_than(*(m.ravel() for m in np.meshgrid(g, g)))


def test_solve_strategy_subnormal_anomaly_rate():
    # budget - b * q2 leaves a rounding residue on the budget line; divided by
    # a subnormal a = R_p * C_wf it gave p_waterfill ~ 8.8e292 and a ValueError
    model = IntervalModel(2, 1.0, 24.125, 2.225073858507e-311)
    cm = costs(model)
    budget = 0.01190911098548986
    s = solve_strategy(model, KnowledgeModel(0.5, 0.0), budget, cm)
    assert 0.0 <= s.p_waterfill <= 1.0 and 0.0 <= s.p_fake <= 1.0
    assert power_cost(s.p_waterfill, s.p_fake, cm, model.anomaly_rate) <= budget


def test_solve_strategy_over_budget_guard_keeps_the_least_bias():
    # the frontier point (1, q) rounds one ulp over the budget; lowering
    # p_waterfill (the larger cost term) to fit leaks one ulp more than
    # lowering p_fake, which at tnr = 0 does not move epsilon at all
    model = IntervalModel(2, 3.628676123355528, 49.27263612668482, 0.9573001016284912)
    cm = costs(model)
    budget = 1.711478825712905
    s = solve_strategy(model, KnowledgeModel(1.4e-45, 0.0), budget, cm)
    assert power_cost(s.p_waterfill, s.p_fake, cm, model.anomaly_rate) <= budget
    assert s.p_waterfill == 1.0
    assert s.epsilon == 3.186036161109378e43

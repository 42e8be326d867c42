"""Dispersion statistic and detector tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from lpwanleak import (
    DegenerateMetricError,
    DetectorConfig,
    IntervalModel,
    KnowledgeModel,
    Strategy,
    apply_strategy,
    bin_timestamps,
    chi_square_threshold,
    class_posteriors,
    costs,
    ensemble_dispersion,
    gen_run,
    guess_run,
    guessing_error,
    guessing_error_se,
    idealized_metrics,
    idealized_verdicts,
    run_dispersion,
    test_run as classify_run,
)
from lpwanleak.traffic import Run


def test_dispersion_matches_numpy():
    rng = np.random.default_rng(0)
    c = rng.poisson(3.0, (5, 12))
    mu, s2, d = run_dispersion(c)
    assert mu == pytest.approx(c.mean(axis=1))
    assert s2 == pytest.approx(c.var(axis=1, ddof=1))
    assert d == pytest.approx(c.var(axis=1, ddof=1) / c.mean(axis=1))


def test_dispersion_degenerate_and_errors():
    mu, _, d = run_dispersion([[0, 0, 0], [1, 2, 3]])
    assert mu[0] == 0.0 and np.isnan(d[0])
    assert d[1] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        run_dispersion([[3], [4]])
    with pytest.raises(ValueError):
        run_dispersion([1, 2, 3])


def test_ensemble_dispersion_pools_moments():
    counts = np.array([[1, 2, 3], [0, 0, 6]])
    mu, s2, _ = run_dispersion(counts)
    assert ensemble_dispersion(counts) == pytest.approx(s2.mean() / mu.mean())
    with pytest.raises(DegenerateMetricError):
        ensemble_dispersion(np.zeros((4, 3)))


def test_chi_square_threshold():
    # computed from scipy.special, it must be the very float scipy.stats
    # returns, so that analyze verdicts cannot move
    alphas = np.concatenate([[1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.025, 0.05, 0.1, 0.5,
                              0.9, 0.99, 1 - 1e-6], np.logspace(-11, -0.01, 20)])
    slots = np.arange(2, 201)
    want = chi2.ppf(1.0 - alphas[None, :], slots[:, None] - 1)
    got = np.array([[chi_square_threshold(int(s), float(a)) for a in alphas] for s in slots])
    assert got.tobytes() == want.tobytes()
    assert chi_square_threshold(10, 0.01) > chi_square_threshold(10, 0.05)
    with pytest.raises(ValueError):
        chi_square_threshold(1, 0.05)
    with pytest.raises(ValueError):
        chi_square_threshold(10, 0.0)


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig("magic", 0.2)
    with pytest.raises(ValueError):
        DetectorConfig("chi-square", 1.5)
    with pytest.raises(ValueError):
        DetectorConfig("chi-square", 0.2, alpha=1.0)
    with pytest.raises(ValueError):
        DetectorConfig("chi-square", 0.2, flag_rate_anomaly=1.5)


def test_idealized_flag_rates():
    cfg = DetectorConfig.idealized(0.2, p_waterfill=0.5, p_fake=0.1,
                                   tpr=0.7, tnr=0.99)
    assert cfg.flag_rate_anomaly == pytest.approx(1.0 - 0.7 * 0.5)
    assert cfg.flag_rate_baseline == pytest.approx(0.99 * 0.1)


def test_class_posteriors_bayes():
    # a chi-square detector's flag rates: hidden = 1 - flag_rate_anomaly
    p_f, p_u, _ = class_posteriors(0.2, 1.0 - 0.9, 0.05)
    assert p_f == pytest.approx(0.2 * 0.9 / (0.2 * 0.9 + 0.8 * 0.05))
    assert p_u == pytest.approx(0.2 * 0.1 / (0.2 * 0.1 + 0.8 * 0.95))
    # zero-probability class reports the prior
    p_f, p_u, _ = class_posteriors(0.2, 1.0, 0.0)
    assert p_f == pytest.approx(0.2)
    # unknown rates propagate as nan
    assert all(np.isnan(v) for v in class_posteriors(0.2, np.nan, np.nan))
    # ... except the rate of a truth class of prior weight zero, which adds nothing
    assert [float(v) for v in class_posteriors(1.0, 0.3, np.nan)] == [1.0, 1.0, 0.0]
    assert [float(v) for v in class_posteriors(0.0, np.nan, 0.2)] == [0.0, 0.0, 0.0]
    # broadcasting over a rate grid matches the pointwise values
    grid = class_posteriors(0.2, np.array([[0.1], [0.5]]), np.array([[0.05, 0.3]]))
    for k in range(3):
        assert grid[k].shape == (2, 2)
        assert grid[k][1, 0] == class_posteriors(0.2, 0.5, 0.05)[k]


def _entropy_bits(probs) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 0)


def test_idealized_metrics_hand_cases():
    # no obfuscation: the class is the truth
    assert [float(v) for v in idealized_metrics(0.3, 0.0, 0.0)] == [0.0, 0.0]
    # epsilon = 0 (hidden + flagged_baseline = 1): the prior-only attacker
    err, ce = idealized_metrics(0.3, 0.25, 0.75)
    assert float(err) == pytest.approx(0.7, rel=1e-12)
    assert float(ce) == pytest.approx(_entropy_bits([0.3, 0.7]), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(rp=st.floats(0.01, 0.99), x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0))
def test_idealized_metrics_match_the_joint(rp, x, y):
    # H(truth | class) = H(truth, class) - H(class); a posterior-matching
    # guess on class c misses an anomaly with probability P(baseline | c)
    joint = {("a", "f"): rp * (1 - x), ("a", "u"): rp * x,
             ("b", "f"): (1 - rp) * y, ("b", "u"): (1 - rp) * (1 - y)}
    p_class = {c: joint[("a", c)] + joint[("b", c)] for c in "fu"}
    want_ce = _entropy_bits(joint.values()) - _entropy_bits(p_class.values())
    want_err = sum(joint[("a", c)] / rp * joint[("b", c)] / p_class[c]
                   for c in "fu" if p_class[c] > 0)
    err, ce = idealized_metrics(rp, x, y)
    assert float(err) == pytest.approx(want_err, abs=1e-12)
    assert float(ce) == pytest.approx(want_ce, abs=1e-9)


def test_test_run_chi_square():
    cfg = DetectorConfig.chi_square(0.2, alpha=0.05,
                                    flag_rate_anomaly=0.9, flag_rate_baseline=0.05)
    flat, burst, zero = [2] * 10, [0] * 9 + [30], [0] * 10
    counts = np.array([flat, burst, zero])
    run = Run(counts, np.zeros_like(counts), np.zeros(3, dtype=bool),
              np.full(3, -1), np.zeros(3, dtype=int))
    flagged = classify_run(run, cfg)
    assert 9 * np.var(burst, ddof=1) / np.mean(burst) > chi_square_threshold(10, 0.05)
    # all-zero intervals are never flagged
    assert flagged.dtype == bool and flagged.tolist() == [False, True, False]


def test_test_run_idealized_posteriors():
    cfg = DetectorConfig.idealized(0.2, 0.5, 0.1)
    counts = np.ones((2, 10), dtype=int)
    run = Run(counts, np.zeros_like(counts), np.array([True, False]),
              np.array([3, -1]), np.zeros(2, dtype=int))
    flagged = classify_run(run, cfg)
    assert flagged.dtype == bool and flagged.tolist() == [True, False]
    # the config's flag rates give the strategy's posterior of each flag value
    p_f, p_u, _ = class_posteriors(cfg.anomaly_rate, 1.0 - cfg.flag_rate_anomaly,
                                   cfg.flag_rate_baseline)
    want_f, want_u, _ = class_posteriors(0.2, 0.5, 0.1)
    assert np.where(flagged, p_f, p_u) == pytest.approx([want_f, want_u], rel=1e-15)


def test_observable_class_cases():
    # one interval of each (truth, action) class in code order 3 * truth + action:
    # baseline untouched, waterfilled, faked; anomaly untouched, waterfilled, faked
    counts = np.ones((6, 3), dtype=int) * 2
    run = Run(counts, np.zeros_like(counts),
              np.array([False, False, False, True, True, True]),
              np.array([-1, -1, -1, 0, 1, 2]),
              np.array([0, 1, 2, 0, 1, 2]))
    flags = [False, False, True, True, False, True]
    assert idealized_verdicts(run.is_anomaly, run.action).tolist() == flags
    assert classify_run(run, DetectorConfig.idealized(0.5, 0.5, 0.5)).tolist() == flags
    assert idealized_verdicts(np.array([], dtype=bool), np.array([], dtype=int)).size == 0
    # an unknown action code is an error, not a plausible flag
    for bad in ([7, -1, -3], [0, 3], [-1]):
        with pytest.raises(ValueError, match="action codes"):
            idealized_verdicts(np.ones(len(bad), dtype=bool), np.array(bad))


def test_guess_run_rules():
    post = np.array([0.0, 0.3, 0.8, 1.0])
    a = guess_run(post, 42)
    b = guess_run(post, 42)
    assert np.array_equal(a, b)
    # posteriors 0 and 1 are never and always guessed anomalous
    assert not a[0] and a[3]
    # posterior-match hits the target rate on average
    big = np.full(20_000, 0.3)
    frac = guess_run(big, 1).mean()
    assert abs(frac - 0.3) < 0.02
    with pytest.raises(ValueError):
        guess_run(np.array([0.1, np.nan]), 0)


def test_guessing_error():
    truths = np.array([True, True, True, False])
    guesses = np.array([True, False, False, True])
    assert guessing_error(guesses, truths) == pytest.approx(2 / 3)
    with pytest.raises(DegenerateMetricError):
        guessing_error(np.array([False]), np.array([False]))
    with pytest.raises(ValueError):
        guessing_error(np.array([True]), np.array([True, False]))
    assert guessing_error_se(0.5, 100) == pytest.approx(0.05)
    with pytest.raises(DegenerateMetricError):
        guessing_error_se(0.5, 0)


def test_bin_timestamps():
    ts = [0.2, 0.7, 1.1, 3.9]
    out = bin_timestamps(ts, slot_width=1.0, slots=2)
    assert out.tolist() == [[2, 1], [0, 1]]
    # the grid starts at the first message's slot, so epoch-scale times work
    out = bin_timestamps([10.2, 10.8, 11.5], slot_width=1.0, slots=2)
    assert out.tolist() == [[2, 1]]
    with pytest.raises(ValueError):
        bin_timestamps([], 1.0, 2)
    with pytest.raises(ValueError):
        bin_timestamps([2.0, 1.0], 1.0, 2)
    with pytest.raises(ValueError):
        bin_timestamps([0.5], 1.0, 2)  # less than one full interval


def test_bin_timestamps_origin_never_passes_the_first_message():
    # floor(1.7 / 0.1) * 0.1 is 1.7000000000000002, past the first message;
    # slot numbers counted from the first message's cannot go negative
    ts = [1.7, 1.75, 1.8, 1.85, 1.9]
    assert bin_timestamps(ts, slot_width=0.1, slots=2).tolist() == [[2, 3]]
    # shifting a trace by whole slots leaves its counts alone
    ts = np.sort(np.random.default_rng(5).uniform(0.0, 40.0, 300))
    for shift in (1.75, 66_500_000.0):
        assert np.array_equal(bin_timestamps(ts + shift, 0.25, 4), bin_timestamps(ts, 0.25, 4))


@settings(max_examples=40, deadline=None)
@given(
    rp=st.floats(0.05, 0.95),
    intensity=st.floats(1.0, 40.0),
    n=st.integers(1, 60),
    scale=st.integers(2, 5),
    pw=st.floats(0.0, 1.0),
    pf=st.floats(0.0, 1.0),
    tpr=st.floats(0.0, 1.0),
    tnr=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_idealized_verdicts_and_guesses_ignore_counts(rp, intensity, n, scale, pw, pf,
                                                      tpr, tnr, seed):
    # seed-stream contract: in idealized mode the flags and the guesses drawn
    # on stream (..., 2) from their posteriors depend on the labels only, so
    # a cell may skip drawing the count matrices without moving any of them
    model = IntervalModel(6, 1.0, intensity, rp)
    knowledge = KnowledgeModel(tpr, tnr)
    base = (seed, 0, 0)
    obf = apply_strategy(gen_run(model, n, base + (0,)), Strategy(pw, pf, 0.0, 0.0, False),
                         knowledge, costs(model), base + (1,))
    other = Run(obf.counts * scale + 1, obf.dummy_counts, obf.is_anomaly,
                obf.anomaly_slot, obf.action)
    cfg = DetectorConfig.idealized(rp, pw, pf, tpr, tnr)
    flags = [classify_run(r, cfg) for r in (obf, other)]
    assert np.array_equal(flags[0], flags[1])
    p_flag, p_unflag, _ = class_posteriors(rp, tpr * pw, tnr * pf)
    guesses = [guess_run(np.where(f, p_flag, p_unflag), base + (2,)) for f in flags]
    assert np.array_equal(guesses[0], guesses[1])

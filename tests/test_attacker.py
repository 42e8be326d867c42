"""Dispersion statistic and detector tests."""

import itertools
import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
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
    guessing_error_se,
    idealized_metrics,
    idealized_verdicts,
    run_dispersion,
    test_run as classify_run,
)
from lpwanleak.attacker import _mean_se
from lpwanleak.traffic import Run

from scoring_oracles import exact_mean_se, guessing_error


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


# the alphas span both tails, out to the extreme inputs of the precision rule
# (1e-15 and 2^-53 cancel 15 and 16 digits of P, the most fl(1 - alpha) < 1
# allows; 1 - 1e-15 puts the root near 0); the slot counts cover 2 to 200,
# odd and even degrees of freedom and the shipped 10 and 20, a million slots
# take the Gamma(a + 1) product past decimal's default exponent limit, and
# 2000 and a million the series far past double-precision e^-x/2
THRESHOLD_ALPHAS = [1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.025, 0.05, 0.1, 0.5, 0.9, 0.99, 1 - 1e-6,
                    *np.logspace(-11, -0.01, 20).tolist(), 1e-15, 2.0**-53, 1 - 1e-15]
THRESHOLD_CASES = [*itertools.product((*range(2, 13), 16, 20, 21, 33, 64, 100, 101, 200),
                                      THRESHOLD_ALPHAS),
                   *itertools.product((2000, 10**6, 10**6 + 1), (1e-12, 0.05, 0.5, 1 - 1e-6))]


def test_chi_square_threshold():
    # correctly rounded: the root of P((S-1)/2, x/2) = 1 - alpha lies between
    # the two half-ulp neighbours of the returned x, by a 300-bit evaluation
    # of P at each
    with mpmath.workprec(300):
        for slots, alpha in THRESHOLD_CASES:
            x = chi_square_threshold(slots, alpha)
            a = mpmath.mpf(slots - 1) / 2
            mids = ((mpmath.mpf(x) + math.nextafter(x, end)) / 2 for end in (0.0, math.inf))
            below, above = (mpmath.gammainc(a, 0, m / 2, regularized=True) for m in mids)
            assert below < 1.0 - alpha < above, (slots, alpha, x)
    # the value every golden pins, which is also scipy's
    assert chi_square_threshold(10, 0.05) == chi2.ppf(0.95, 9) == 16.918977604620448
    # fl(1 - alpha) = 1: scipy's chi2.ppf(1.0, S - 1) is inf as well
    assert chi_square_threshold(10, 2.0**-54) == math.inf
    assert chi_square_threshold(10, 0.01) > chi_square_threshold(10, 0.05)
    with pytest.raises(ValueError):
        chi_square_threshold(1, 0.05)
    with pytest.raises(ValueError):
        chi_square_threshold(10, 0.0)


def test_chi_square_threshold_is_fast():
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        chi_square_threshold(10, 0.05)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.005


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


_EDGE_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1e300, -1e300, 0.1, -1.5])


@settings(max_examples=80, deadline=None)
@given(sample=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False) | _EDGE_VALUES,
                                 st.integers(0, 3) | st.integers(0, 250_000)), max_size=4))
@example(sample=[])                                   # n = 0
@example(sample=[(0.1, 0), (-1e300, 0)])              # zero counts only: n = 0
@example(sample=[(-0.0, 1)])                          # n = 1
@example(sample=[(1e300, 1), (-1e300, 1)])            # n = 2, variance past the double range
@example(sample=[(5e-324, 3), (-5e-324, 2)])          # subnormals
@example(sample=[(0.1, 999_999), (1e300, 0), (0.7, 1)])  # n = 10^6
@example(sample=[(69726.45908599006, 3), (0.1, 150_119), (7.854327186247505e-301, 83_968)])
def test_mean_se_is_the_exact_mean_rounded_once(sample):
    # from counts, bit for bit the exact rational mean and variance of the
    # expanded sample, each rounded once
    values, counts = [v for v, _ in sample], [c for _, c in sample]
    got = _mean_se(values, counts)
    x = np.repeat(np.array(values, dtype=float), counts)
    assert [g.hex() for g in got] == [w.hex() for w in exact_mean_se(x)]
    n = x.size
    if n < 2:
        return
    # numpy's pairwise sums round about log2(n) + 25 times, each by up to half
    # an ulp of the magnitude summed, so its mean and SE are held to 4 ulp plus
    # that bound: 3 of 69726.46, 150 119 of 0.1 and 83 968 of 7.9e-301 take
    # numpy's mean 12 ulp from the exact one
    with np.errstate(all="ignore"):
        np_mean, np_se = float(x.mean()), float(x.std(ddof=1) / math.sqrt(n))
        scale = float(np.abs(x).mean())
    slack = (math.ceil(math.log2(n)) + 25) * 2.0**-53
    mean, se = got
    if math.isfinite(np_mean):
        assert abs(mean - np_mean) <= 4 * math.ulp(mean) + slack * scale, (mean, np_mean)
    if math.isfinite(np_se) and math.isfinite(se):
        # numpy's deviations are from its own mean, off by |mean - np_mean|, and
        # their squares lose up to half a subnormal each below the normal range
        tol = (4 * math.ulp(se) + slack * se + math.sqrt(5e-324) / math.sqrt(n)
               + (1 + slack) * abs(mean - np_mean) / math.sqrt(n - 1))
        assert abs(se - np_se) <= tol, (se, np_se)


@pytest.mark.parametrize("values, counts, want", [
    ([], [], (math.nan, math.nan)),
    ([math.nan, 1.0], [0, 2], (1.0, 0.0)),  # a value counted zero times is no sample
    ([math.inf], [1], (math.inf, math.nan)),
    ([math.inf, 1.0], [2, 3], (math.inf, math.nan)),
    ([-math.inf, 2.0, math.inf], [1, 1, 1], (math.nan, math.nan)),
    ([math.nan, 1.0], [1, 1], (math.nan, math.nan)),
])
def test_mean_se_of_empty_and_non_finite_samples(values, counts, want):
    # what numpy's mean and std(ddof=1) give, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _mean_se(values, counts)
    assert np.array_equal(got, want, equal_nan=True)
    x = np.repeat(np.array(values, dtype=float), counts)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert np.array_equal(got, (x.mean(), x.std(ddof=1) / math.sqrt(x.size)), equal_nan=True)


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


def _bin_timestamps_mask(timestamps, slot_width, slots):
    # reference: the whole-array form, the partial interval cut by a mask
    ts = np.asarray(timestamps, dtype=float)
    if ts.size == 0:
        raise ValueError("no timestamps to bin")
    if np.any(np.diff(ts) < 0):
        raise ValueError("timestamps must be sorted")
    if not slot_width > 0 or slots < 2:
        raise ValueError("need slot_width > 0 and slots >= 2")
    slot = np.floor(ts / slot_width)
    idx = (slot - slot[0]).astype(np.int64)
    n_full = int(idx.max() + 1) // slots
    if n_full == 0:
        raise ValueError(f"fewer than one full interval of {slots} slots")
    keep = idx < n_full * slots
    counts = np.bincount(idx[keep], minlength=n_full * slots)
    return counts.reshape(n_full, slots)


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except ValueError as exc:
        return "error", str(exc)
    return out.dtype, out.shape, out.tolist()


@settings(max_examples=200, deadline=None)
@given(
    # whole numbers of slots give ties and messages on slot edges
    offsets=st.lists(st.one_of(st.integers(0, 60).map(float), st.floats(0.0, 60.0)),
                     max_size=40),
    origin=st.sampled_from([0.0, 1.7, -3.25, 1.6e9 + 0.25, 66_500_000.0]),
    slot_width=st.sampled_from([1.0, 0.1, 0.25, 2.5, 1e-3, 60.0, 0.0, -1.0, math.nan]),
    slots=st.integers(0, 6),
    reverse=st.booleans(),
)
def test_bin_timestamps_matches_mask_reference(offsets, origin, slot_width, slots, reverse):
    scale = slot_width if slot_width > 0 else 1.0
    ts = np.sort(origin + np.array(offsets) * scale)
    if reverse:
        ts = ts[::-1]
    given_ts = ts.copy()
    want = _outcome(_bin_timestamps_mask, ts, slot_width, slots)
    assert _outcome(bin_timestamps, ts, slot_width, slots) == want
    assert _outcome(bin_timestamps, ts.tolist(), slot_width, slots) == want
    assert np.array_equal(ts, given_ts)  # the caller's array is left alone


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

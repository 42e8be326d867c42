"""Message-trace posterior and metric tests."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpwanleak import (
    AnomalyCountDistance,
    CardinalityDistance,
    FillToMechanism,
    IdentityMechanism,
    InconsistentObservationError,
    TableMechanism,
    TracePrior,
    average_error,
    average_error_mc,
    chi_square_threshold,
    conditional_entropy,
    conditional_entropy_mc,
    enumerate_observables,
    load_fixture,
    optimal_guess,
    posterior_table,
    run_dispersion,
)
from lpwanleak.traces import _sample_mean, _sample_pairs
from trace_oracles import flatnonzero_sample_pairs

WINDOW = (0.0, 3.0)
# two-trace prior: {1} at 0.6, {1,2} at 0.4, filled to {1,2}
PRIOR = TracePrior({(1.0,): 0.6, (1.0, 2.0): 0.4}, WINDOW)
FILL = FillToMechanism([1.0, 2.0])
CARD = CardinalityDistance()


def q(mech, observed, real):
    # q(observed | real) as the posterior reads it off the mechanism's outputs
    return dict(mech.outputs(real)).get(observed, 0.0)


def test_prior_validation():
    with pytest.raises(ValueError):
        TracePrior({(0.5,): 1.0}, WINDOW)  # off the tick grid
    with pytest.raises(ValueError):
        TracePrior({(1.0,): 0.7}, WINDOW)  # masses do not sum to 1
    with pytest.raises(ValueError):
        TracePrior({(1.0,): -0.5, (2.0,): 1.5}, WINDOW)
    with pytest.raises(ValueError):
        TracePrior({(4.0,): 1.0}, WINDOW)  # outside window
    # list input with duplicate canonical form
    with pytest.raises(ValueError):
        TracePrior({(1.0, 2.0): 0.5, (2.0, 1.0): 0.5}, WINDOW)
    fine = TracePrior({(0.5,): 1.0}, WINDOW, tick=0.5)
    assert fine.support == ((0.5,),)


def test_prior_support_and_entropy():
    p = TracePrior({(2.0,): 0.5, (1.0,): 0.3, (): 0.2}, WINDOW)
    assert p.support == ((), (1.0,), (2.0,))  # lexicographic
    assert p.mass((1.0,)) == 0.3
    assert p.mass((3.0,)) == 0.0
    assert PRIOR.entropy_bits() == pytest.approx(
        -(0.6 * math.log2(0.6) + 0.4 * math.log2(0.4)))
    # zero-mass entries are dropped
    q = TracePrior({(1.0,): 1.0, (2.0,): 0.0}, WINDOW)
    assert q.support == ((1.0,),)


def test_identity_mechanism():
    m = IdentityMechanism()
    assert q(m, (1.0,), (1.0,)) == 1.0
    assert q(m, (1.0, 2.0), (1.0,)) == 0.0
    assert m.outputs((1.0,)) == [((1.0,), 1.0)]


def test_fill_to_mechanism_union():
    assert FILL.outputs(()) == [((1.0, 2.0), 1.0)]
    assert FILL.outputs((1.0,)) == [((1.0, 2.0), 1.0)]
    # reals outside the target stay in the output
    assert FILL.outputs((0.0, 1.0)) == [((0.0, 1.0, 2.0), 1.0)]
    assert q(FILL, (1.0, 2.0), (1.0,)) == 1.0
    assert q(FILL, (1.0,), (1.0,)) == 0.0


def test_table_mechanism():
    rows = {
        (1.0,): {(1.0,): 0.5, (1.0, 2.0): 0.5},
        (): {(): 1.0},
    }
    m = TableMechanism(rows)
    assert q(m, (1.0, 2.0), (1.0,)) == 0.5
    assert q(m, (2.0,), ()) == 0.0
    assert m.outputs((1.0,)) == [((1.0,), 0.5), ((1.0, 2.0), 0.5)]
    with pytest.raises(ValueError):
        TableMechanism({(1.0,): {(1.0,): 0.7}})  # row sums to 0.7
    with pytest.raises(ValueError):
        TableMechanism({(1.0,): {(2.0,): 1.0}})  # output loses the real trace
    with pytest.raises(ValueError):
        m.outputs((3.0,))  # no row for that real trace


def test_cardinality_distance():
    assert CARD((1.0, 2.0), ()) == 2.0
    assert CARD((1.0,), (2.0,)) == 0.0


def test_cardinality_distance_contract():
    # the per-trace size cache changes no answer: duplicates still raise,
    # on every call, lists still work, and a fresh instance agrees
    d = CardinalityDistance()
    for _ in range(2):
        with pytest.raises(ValueError, match="duplicate"):
            d([1.0, 1.0], ())
        with pytest.raises(ValueError, match="duplicate"):
            d((), (2.0, 2.0))
    pairs = [((1.0, 2.0, 3.0), ()), ([3.0, 1.0], (2.0,)), ((2.0, 1.0), [1.0, 2.0]),
             ((1, 2), (1.0, 2.0, 3.0)), ((), [])]
    first = [d(a, b) for a, b in pairs]
    assert first == [3.0, 1.0, 0.0, 1.0, 0.0]
    assert all(type(v) is float for v in first)
    assert [d(a, b) for a, b in pairs] == first
    assert [CardinalityDistance()(a, b) for a, b in pairs] == first
    # AnomalyCountDistance answers as before, fresh or cached, list or tuple
    anom = AnomalyCountDistance((0.0, 10.0), slot_width=1.0, slots=10, alpha=0.05)
    burst = [2.0 + 0.05 * k for k in range(12)]
    assert [anom(burst, ()), anom(tuple(burst), []), anom(burst, burst)] == [1.0, 1.0, 0.0]
    with pytest.raises(ValueError, match="duplicate"):
        anom([1.0, 1.0], ())


def test_anomaly_count_distance():
    window = (0.0, 10.0)
    d = AnomalyCountDistance(window, slot_width=1.0, slots=10, alpha=0.05)
    burst = tuple(2.0 + 0.05 * k for k in range(12))  # 12 messages in slot 2
    # cross-check the flag decision against the dispersion test itself
    counts = [0] * 10
    counts[2] = 12
    stat = 9 * run_dispersion([counts])[2][0]
    assert stat > chi_square_threshold(10, 0.05)
    assert d(burst, ()) == 1.0
    assert d(burst, burst) == 0.0
    assert d((), ()) == 0.0  # empty intervals never flag
    # two full intervals; messages before the window or past the last full
    # interval are ignored
    two = AnomalyCountDistance((0.0, 25.0), slot_width=1.0, slots=10, alpha=0.05)
    late = tuple(12.0 + 0.05 * k for k in range(12))
    outside = tuple(t + 10.0 for t in late) + tuple(t - 5.0 for t in burst)
    assert two(burst + late, ()) == 2.0
    assert two(burst + late + outside, burst) == 1.0
    # random bursty traces: the binned flag count equals a per-interval loop
    rng = np.random.default_rng(4)
    for _ in range(30):
        noise = rng.uniform(-2.0, 27.0, rng.integers(0, 40))
        spike = rng.integers(0, 20) + rng.uniform(0.0, 1.0, rng.integers(0, 15))
        ts = tuple(np.unique(np.concatenate([noise, spike])))
        want = 0
        for start in (0.0, 10.0):
            c = np.array([sum(start + j <= t < start + j + 1 for t in ts) for j in range(10)])
            want += bool(c.sum()) and 9 * c.var(ddof=1) / c.mean() > two.threshold
        assert two(ts, ()) == want
    with pytest.raises(ValueError):
        AnomalyCountDistance((0.0, 5.0), slot_width=1.0, slots=10)


def test_posterior_values():
    table = posterior_table(PRIOR, FILL, (2.0, 1.0))  # any order of the observation
    assert table[(1.0,)] == pytest.approx(0.6)
    assert table[(1.0, 2.0)] == pytest.approx(0.4)
    # candidates outside the observation have zero posterior, and so does
    # the empty trace, a subset that carries no prior mass here
    assert set(table) == {(1.0,), (1.0, 2.0)}


def test_posterior_inconsistent_observation():
    with pytest.raises(InconsistentObservationError):
        posterior_table(PRIOR, FILL, (0.5,))
    with pytest.raises(InconsistentObservationError):
        posterior_table(PRIOR, FILL, (1.0,))  # fill-to never emits a bare {1}


def test_posterior_table_normalizes():
    table = posterior_table(PRIOR, FILL, (1.0, 2.0))
    assert set(table) == {(1.0,), (1.0, 2.0)}
    assert math.fsum(table.values()) == pytest.approx(1.0, abs=1e-12)


def test_enumerate_observables():
    assert enumerate_observables(PRIOR, FILL) == {(1.0, 2.0): pytest.approx(1.0)}
    ident = enumerate_observables(PRIOR, IdentityMechanism())
    assert ident[(1.0,)] == pytest.approx(0.6)
    assert ident[(1.0, 2.0)] == pytest.approx(0.4)


def test_optimal_guess_lex_tie_break():
    prior = TracePrior({(): 0.25, (1.0,): 0.25, (2.0,): 0.25, (1.0, 2.0): 0.25},
                       WINDOW)
    guess, cost = optimal_guess(prior, FillToMechanism([1.0, 2.0]), (1.0, 2.0), CARD)
    # both singletons cost 0.5; lexicographic order picks {1}
    assert guess == (1.0,)
    assert cost == pytest.approx(0.5)


def test_optimal_guess_too_many_messages():
    big = tuple(float(k) for k in range(21))
    prior = TracePrior({big: 1.0}, (0.0, 30.0))
    with pytest.raises(ValueError):
        optimal_guess(prior, IdentityMechanism(), big, CARD)


def test_average_error_exact_hand_values():
    # single observable {1,2}: best guess {1} errs only on the 0.4 branch
    assert average_error(PRIOR, FILL, CARD, method="exact") == pytest.approx(0.4)
    # identity channel leaks everything
    assert average_error(PRIOR, IdentityMechanism(), CARD, method="exact") == 0.0
    uniform = TracePrior({(): 0.25, (1.0,): 0.25, (2.0,): 0.25, (1.0, 2.0): 0.25},
                         WINDOW)
    assert average_error(uniform, FillToMechanism([1.0, 2.0]), CARD,
                         method="exact") == pytest.approx(0.5)


def test_conditional_entropy_exact_hand_values():
    assert conditional_entropy(PRIOR, FILL, method="exact") == pytest.approx(
        PRIOR.entropy_bits(), abs=1e-12)
    assert conditional_entropy(PRIOR, IdentityMechanism(), method="exact") \
        == pytest.approx(0.0, abs=1e-12)
    uniform = TracePrior({(): 0.25, (1.0,): 0.25, (2.0,): 0.25, (1.0, 2.0): 0.25},
                         WINDOW)
    assert conditional_entropy(uniform, FillToMechanism([1.0, 2.0]),
                               method="exact") == pytest.approx(2.0, abs=1e-12)


def test_auto_method_matches_exact():
    assert average_error(PRIOR, FILL, CARD) == average_error(
        PRIOR, FILL, CARD, method="exact")
    assert conditional_entropy(PRIOR, FILL) == conditional_entropy(
        PRIOR, FILL, method="exact")


def test_mc_estimators_agree_with_exact():
    exact_ae = average_error(PRIOR, FILL, CARD, method="exact")
    ae, se = average_error_mc(PRIOR, FILL, CARD, budget=20_000, seed=11)
    assert abs(ae - exact_ae) <= 4 * se + 1e-12
    exact_ce = conditional_entropy(PRIOR, FILL, method="exact")
    ce, se = conditional_entropy_mc(PRIOR, FILL, budget=20_000, seed=12)
    assert abs(ce - exact_ce) <= 4 * se + 1e-12


def test_mc_with_random_table_mechanism():
    rows = {
        (1.0,): {(1.0,): 0.5, (1.0, 2.0): 0.5},
        (2.0,): {(2.0,): 0.25, (1.0, 2.0): 0.75},
    }
    prior = TracePrior({(1.0,): 0.5, (2.0,): 0.5}, WINDOW)
    mech = TableMechanism(rows)
    exact = average_error(prior, mech, CARD, method="exact")
    ae, se = average_error_mc(prior, mech, CARD, budget=20_000, seed=13)
    assert abs(ae - exact) <= 4 * se + 1e-12
    with pytest.raises(ValueError):
        average_error_mc(prior, mech, CARD, budget=0)


def test_mc_estimators_call_the_hooks_once_per_sampled_observation(monkeypatch):
    # per-observation work goes through the module's optimal_guess and
    # posterior_table, once for each distinct observation actually sampled
    import lpwanleak.traces as traces

    prior = TracePrior({(1.0,): 0.5, (2.0,): 0.5}, WINDOW)
    mech = TableMechanism({(1.0,): {(1.0,): 0.5, (1.0, 2.0): 0.5},
                           (2.0,): {(2.0,): 0.25, (1.0, 2.0): 0.75}})
    calls = []

    def counted(fn):
        def wrapper(prior, mech, observed, *args):
            calls.append((fn.__name__, observed))
            return fn(prior, mech, observed, *args)
        return wrapper

    for name in ("optimal_guess", "posterior_table"):
        monkeypatch.setattr(traces, name, counted(getattr(traces, name)))
    average_error_mc(prior, mech, CARD, budget=4000, seed=5)
    conditional_entropy_mc(prior, mech, budget=4000, seed=6)
    # 4000 samples reach every observation
    assert sorted(calls) == sorted((name, x) for x in enumerate_observables(prior, mech)
                                   for name in ("optimal_guess", "posterior_table"))
    # one sample, one observation
    calls.clear()
    average_error_mc(prior, mech, CARD, budget=1, seed=5)
    conditional_entropy_mc(prior, mech, budget=1, seed=6)
    assert sorted(name for name, _ in calls) == ["optimal_guess", "posterior_table"]


def test_mc_estimators_take_one_value_per_sampled_pair(monkeypatch):
    # both estimators gather their per-sample values through _sample_mean,
    # computing each value once per distinct (real, observation) pair
    import lpwanleak.traces as traces

    sample_mean, checked = traces._sample_mean, []

    def counted(p_idx, pairs, value):
        calls = []
        got = sample_mean(p_idx, pairs, lambda r, x: calls.append((r, x)) or value(r, x))
        checked.append(calls == pairs and len(pairs) < p_idx.size)
        return got

    monkeypatch.setattr(traces, "_sample_mean", counted)
    average_error_mc(PRIOR, FILL, CARD, budget=4000, seed=5)
    conditional_entropy_mc(PRIOR, FILL, budget=4000, seed=6)
    assert checked == [True, True]


def test_mc_methods_reject_unknown():
    with pytest.raises(ValueError):
        average_error(PRIOR, FILL, CARD, method="telepathy")
    with pytest.raises(ValueError):
        conditional_entropy(PRIOR, FILL, method="telepathy")


def test_load_fixture_forms(repo_root):
    path = repo_root / "fixtures" / "fillto_two_messages.json"
    fx = load_fixture(path)
    assert fx.name == "fillto_two_messages"
    assert fx.prior.support == ((1.0,), (1.0, 2.0))
    with open(path) as fh:
        fx2 = load_fixture(fh)
    assert fx2.prior.support == fx.prior.support
    doc = json.loads(path.read_text())
    fx3 = load_fixture(doc)
    assert fx3.prior.support == fx.prior.support
    assert posterior_table(fx.prior, fx.mechanism, (1.0, 2.0))[(1.0,)] == pytest.approx(0.6)


def test_load_fixture_mechanism_specs():
    base = {"tick": 1.0, "window": [0.0, 3.0],
            "prior": [{"trace": [1.0], "p": 1.0}]}
    ident = load_fixture({**base, "mechanism": "identity"})
    assert ident.mechanism.outputs((1.0,)) == [((1.0,), 1.0)]
    table = load_fixture({**base, "mechanism": {
        "type": "table",
        "rows": [{"real": [1.0],
                  "outputs": [{"observed": [1.0], "q": 0.5},
                              {"observed": [1.0, 2.0], "q": 0.5}]}]}})
    assert q(table.mechanism, (1.0, 2.0), (1.0,)) == 0.5
    with pytest.raises(ValueError, match=r"no row for real trace \(2\.0,\)"):
        load_fixture({**base, "prior": [{"trace": [1.0], "p": 0.5}, {"trace": [2.0], "p": 0.5}],
                      "mechanism": {"type": "table", "rows": [
                          {"real": [1.0], "outputs": [{"observed": [1.0], "q": 1.0}]}]}})
    with pytest.raises(ValueError):
        load_fixture({**base, "mechanism": {"type": "wormhole"}})
    with pytest.raises(ValueError):
        load_fixture({**base, "mechanism": 7})


@st.composite
def small_priors(draw):
    grid = [0.0, 1.0, 2.0, 3.0]
    all_subsets = []
    for mask in range(16):
        all_subsets.append(tuple(grid[i] for i in range(4) if mask >> i & 1))
    picked = draw(st.lists(st.sampled_from(all_subsets), min_size=1, max_size=6,
                           unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(picked),
                            max_size=len(picked)))
    total = sum(weights)
    return TracePrior({t: w / total for t, w in zip(picked, weights)}, (0.0, 3.0))


@settings(max_examples=25, deadline=None)
@given(prior=small_priors())
def test_fill_to_posterior_properties(prior):
    mech = FillToMechanism([0.0, 1.0, 2.0, 3.0])
    obs = mech.outputs(prior.support[0])[0][0]
    table = posterior_table(prior, mech, obs)
    assert math.fsum(table.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(v >= 0 for v in table.values())
    # optimal guessing beats any constant guess
    ae = average_error(prior, mech, CARD, method="exact")
    for const in prior.support:
        fixed = math.fsum(prior.mass(r) * CARD(r, const) for r in prior.support)
        assert ae <= fixed + 1e-12
    ce = conditional_entropy(prior, mech, method="exact")
    assert -1e-12 <= ce <= prior.entropy_bits() + 1e-9


# 8-tick grid: a trace is a bit mask over it
_TICKS = tuple(float(t) for t in range(8))


def _trace(mask: int) -> tuple[float, ...]:
    return tuple(t for b, t in enumerate(_TICKS) if mask >> b & 1)


@st.composite
def sampler_cases(draw):
    """(prior, table mechanism, budget, seed): 1-40 reals with 1-4 outputs
    each; a real of mass 1e-12 next to integer weights is never drawn."""
    reals = draw(st.lists(st.integers(0, 255), min_size=1, max_size=40, unique=True))
    weights = draw(st.lists(st.integers(1, 9) | st.just(1e-12),
                            min_size=len(reals), max_size=len(reals)))
    rows = {}
    for m in reals:
        extras = draw(st.lists(st.integers(0, 255), min_size=1, max_size=4))
        outs = sorted({m | e for e in extras})
        qs = draw(st.lists(st.integers(1, 9), min_size=len(outs), max_size=len(outs)))
        rows[_trace(m)] = {_trace(o): w / sum(qs) for o, w in zip(outs, qs)}
    total = sum(weights)
    prior = TracePrior({_trace(m): w / total for m, w in zip(reals, weights)}, (0.0, 7.0))
    budget = draw(st.just(1) | st.integers(1, 3000))
    return prior, TableMechanism(rows), budget, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(case=sampler_cases())
# one real, one output, one sample: nan SE
@example(case=(TracePrior({(1.0,): 1.0}, (0.0, 7.0)), TableMechanism({(1.0,): {(1.0,): 1.0}}),
               1, 0))
# a never-drawn real of tiny mass between two drawn ones, many samples
@example(case=(TracePrior({(0.0,): 0.5 - 5e-13, (1.0,): 1e-12, (2.0,): 0.5 - 5e-13},
                          (0.0, 7.0)),
               TableMechanism({(0.0,): {(0.0,): 0.5, (0.0, 3.0): 0.5},
                               (1.0,): {(1.0,): 0.5, (1.0, 3.0): 0.5},
                               (2.0,): {(2.0, 3.0): 1.0}}), 3000, 1))
def test_sampler_equals_the_per_real_oracle(case):
    # the grouped sampler draws the same stream and writes the same (real,
    # observation) per sample as the per-real flatnonzero loop, and the
    # gathered mean keeps every bit of the mean over per-sample values
    prior, mech, budget, seed = case
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    p_idx, pairs, observations = _sample_pairs(prior, mech, budget, rng)
    want_r, want_x, want_obs = flatnonzero_sample_pairs(prior, mech, budget, oracle_rng)
    assert p_idx.dtype == np.int64 and np.array_equal(np.unique(p_idx), np.arange(len(pairs)))
    assert len(set(pairs)) == len(pairs) and pairs == sorted(pairs, key=lambda rx: rx[0])
    r_of, x_of = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    assert np.array_equal(r_of[p_idx], want_r) and np.array_equal(x_of[p_idx], want_x)
    assert observations == want_obs
    assert rng.random() == oracle_rng.random()
    for value in (lambda r, x: CARD(prior.support[r], observations[x]),
                  lambda r, x: math.sin(1.7 * r + 0.3 * x) * 10.0 ** (r % 7 - 3)):
        calls = []
        mean, se = _sample_mean(p_idx, pairs, lambda r, x: calls.append((r, x)) or value(r, x))
        assert calls == pairs
        vals = np.array([value(r, x) for r, x in zip(want_r.tolist(), want_x.tolist())])
        assert mean == float(vals.mean())
        if budget == 1:
            assert math.isnan(se)
        else:
            assert se == float(np.std(vals, ddof=1) / math.sqrt(budget))

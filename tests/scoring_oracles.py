"""Reference forms of a cell's labels and metrics, one mask at a time.

These are the forms ``lpwanleak`` used before a cell was scored in one
pass, each reducing its per-sample values with :func:`exact_mean_se`; the
tests hold the package to them bit for bit.
"""

import math
from fractions import Fraction

import numpy as np

from lpwanleak import DegenerateMetricError


def guessing_error(guesses, truths) -> float:
    """Fraction of truly anomalous intervals the attacker failed to guess."""
    g = np.asarray(guesses, dtype=bool)
    t = np.asarray(truths, dtype=bool)
    if g.shape != t.shape:
        raise ValueError("guesses and truths must align")
    n_anom = int(t.sum())
    if n_anom == 0:
        raise DegenerateMetricError("guessing error undefined: no anomalous intervals")
    return float((~g[t]).sum() / n_anom)


def empirical_ce_bits(truth: np.ndarray, cls: np.ndarray) -> tuple[float, float]:
    """Plug-in H(truth | class) in bits from the empirical 2x2 joint.

    Equals the mean over intervals of -log2 p_hat(t_i | c_i), so the SE is
    the standard error of those per-interval values.
    """
    n = truth.size
    vals = np.empty(n)
    for c in (False, True):
        cmask = cls == c
        nc = int(cmask.sum())
        if nc == 0:
            continue
        for t in (False, True):
            mask = cmask & (truth == t)
            nt = int(mask.sum())
            if nt:
                vals[mask] = -math.log2(nt / nc)
    return exact_mean_se(vals)


def select_realized_cost(action: np.ndarray, cost_model) -> tuple[float, float]:
    """Mean and SE of C_wf, C_f or 0 per interval, chosen by np.select."""
    contrib = np.select([action == 1, action == 2],
                        [cost_model.waterfill_cost, cost_model.fake_cost], 0.0)
    return exact_mean_se(contrib)


def exact_mean_se(sample) -> tuple[float, float]:
    """Mean of finite per-sample values and std(ddof=1) / sqrt(n), in exact
    rational arithmetic with the mean and the two-pass variance each rounded
    once: nan SE for one value, (nan, nan) for none, and an infinite SE for a
    variance past the double range. Equal values are grouped (np.unique) only
    so that a large sample stays fast; c copies of v sum to exactly c * v.
    """
    values, counts = np.unique(np.asarray(sample, dtype=float), return_counts=True)
    n = int(counts.sum())
    if n == 0:
        return math.nan, math.nan
    terms = [(Fraction(v), int(c)) for v, c in zip(values.tolist(), counts.tolist())]
    mean = sum(c * v for v, c in terms) / n
    if n == 1:
        return float(mean), math.nan
    var = sum(c * (v - mean) ** 2 for v, c in terms) / (n - 1)
    try:
        var_double = float(var)
    except OverflowError:
        var_double = math.inf
    return float(mean), math.sqrt(var_double) / math.sqrt(n)


def where_draw_actions(is_anomaly, strategy, knowledge, rng) -> np.ndarray:
    """Action codes from two draws of n uniforms, masked with np.where."""
    is_anomaly = np.asarray(is_anomaly, dtype=bool)
    n = is_anomaly.size
    u_pred = rng.random(n)
    u_act = rng.random(n)
    correct = u_pred < np.where(is_anomaly, knowledge.tpr, knowledge.tnr)
    predicted_anom = np.where(correct, is_anomaly, ~is_anomaly)
    action = np.zeros(n, dtype=np.int8)
    action[predicted_anom & (u_act < strategy.p_waterfill)] = 1   # waterfilled
    action[~predicted_anom & (u_act < strategy.p_fake)] = 2       # fake-anomaly
    return action

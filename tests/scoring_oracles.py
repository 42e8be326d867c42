"""Reference forms of a cell's labels and metrics, one mask at a time.

These are the forms ``lpwanleak`` used before a cell was scored in one
pass; the tests hold the package to them bit for bit.
"""

import math

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
    ce = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return ce, se


def select_realized_cost(action: np.ndarray, cost_model) -> tuple[float, float]:
    """Mean and SE of C_wf, C_f or 0 per interval, chosen by np.select."""
    contrib = np.select([action == 1, action == 2],
                        [cost_model.waterfill_cost, cost_model.fake_cost], 0.0)
    n = contrib.size
    se = float(contrib.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return float(contrib.mean()), se


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

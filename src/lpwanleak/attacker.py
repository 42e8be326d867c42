"""Dispersion-statistic attacker for slotted message counts.

The attacker sees per-slot message counts (real plus dummy, already summed)
and decides per interval whether the traffic looks anomalous. Homogeneous
Poisson slots have index of dispersion 1; a boosted slot inflates it. Two
detector modes exist:

* ``chi-square``: flag an interval when (slots-1) * dispersion exceeds the
  chi-square quantile at 1 - alpha, the classical Poisson dispersion test.
  Its size is alpha only asymptotically: (slots-1) * dispersion is
  chi-square in the large-count limit and takes lattice values, so at small
  counts the size falls below alpha (0.0476 at 10 slots, lambda = 1).
* ``idealized``: the deterministic classifier the strategy algebra assumes;
  the observable class bit comes from the run's construction labels
  (:func:`idealized_verdicts`), never from counts. Useful wherever the
  closed-form class probabilities are the object of study; their expected
  metrics are :func:`idealized_metrics`.

A detector's verdict on a run is one bool flag per interval. The prior
anomaly rate and the class-conditional flag rates the attacker is assumed
to know (:class:`DetectorConfig`) feed the scorer's posteriors, one per
flag value. :func:`class_posteriors` is the one copy of that algebra; the
obfuscator scores its strategies with the same function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .traffic import Run, as_rng

__all__ = [
    "DETECTOR_MODES",
    "DegenerateMetricError",
    "run_dispersion",
    "ensemble_dispersion",
    "chi_square_threshold",
    "DetectorConfig",
    "class_posteriors",
    "idealized_metrics",
    "idealized_verdicts",
    "test_run",
    "guess_run",
    "guessing_error",
    "guessing_error_se",
    "bin_timestamps",
]

DETECTOR_MODES = ("idealized", "chi-square")


class DegenerateMetricError(ValueError):
    """A metric is undefined on this input (e.g. no anomalous intervals)."""


def run_dispersion(counts_2d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-interval (mean, Bessel-corrected variance, dispersion) columns.

    Dispersion is nan for degenerate (all-zero) intervals.
    """
    c = np.asarray(counts_2d, dtype=float)
    if c.ndim != 2 or c.shape[1] < 2:
        raise ValueError("counts must be (n, slots>=2)")
    mu = c.mean(axis=1)
    s2 = c.var(axis=1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(mu > 0, s2 / np.where(mu > 0, mu, 1.0), np.nan)
    return mu, s2, d


def ensemble_dispersion(counts_2d) -> float:
    """Pooled index of dispersion of a batch: mean variance / mean mean.

    The pooled ratio is consistent for the model-level ratio of expected
    variance to expected mean; averaging per-interval ratios instead is
    biased low by roughly (D - 1) / E[interval total] and must not be used
    against analytic dispersion targets.
    """
    mu, s2, _ = run_dispersion(counts_2d)
    m = float(mu.mean())
    if m == 0.0:
        raise DegenerateMetricError("batch has no messages")
    return float(s2.mean()) / m


def chi_square_threshold(slots: int, alpha: float) -> float:
    """Critical value: flag when (slots-1) * dispersion exceeds it.

    This is the chi-square quantile at 1 - alpha with slots-1 degrees of
    freedom, so the test has size alpha only asymptotically. At small
    counts its exact size falls below alpha: 0.0476 at 10 slots of
    Poisson(1) traffic with alpha = 0.05.
    """
    # imported here so that an idealized sweep loads no scipy at all; the
    # quantile is written out as scipy.stats.chi2.ppf evaluates it (same
    # bits) because scipy.stats takes about three times as long to import
    from scipy.special import gammaincinv

    if slots < 2:
        raise ValueError("slots must be >= 2")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return float(2.0 * gammaincinv((slots - 1) / 2, 1.0 - alpha))


@dataclass(frozen=True)
class DetectorConfig:
    """Detector mode plus the knowledge behind posterior computation.

    ``flag_rate_anomaly`` / ``flag_rate_baseline`` are the class-conditional
    probabilities of being flagged. They feed the scorer's posteriors (see
    :func:`class_posteriors`): the anomaly probability of a flagged and of
    an unflagged interval. They may be nan when unknown, in which case
    posteriors are nan as well.
    """

    mode: str  # one of DETECTOR_MODES
    anomaly_rate: float
    alpha: float = 0.05
    flag_rate_anomaly: float = float("nan")
    flag_rate_baseline: float = float("nan")

    def __post_init__(self):
        if self.mode not in DETECTOR_MODES:
            raise ValueError(f"detector mode must be one of {DETECTOR_MODES}, got {self.mode!r}")
        if not 0.0 <= self.anomaly_rate <= 1.0:
            raise ValueError("anomaly_rate must be in [0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        for r in (self.flag_rate_anomaly, self.flag_rate_baseline):
            if not np.isnan(r) and not 0.0 <= r <= 1.0:
                raise ValueError("flag rates must be in [0, 1] or nan")

    @classmethod
    def chi_square(cls, anomaly_rate: float, alpha: float = 0.05,
                   flag_rate_anomaly: float = float("nan"),
                   flag_rate_baseline: float = float("nan")) -> "DetectorConfig":
        return cls("chi-square", anomaly_rate, alpha, flag_rate_anomaly, flag_rate_baseline)

    @classmethod
    def idealized(cls, anomaly_rate: float, p_waterfill: float, p_fake: float,
                  tpr: float = 1.0, tnr: float = 1.0) -> "DetectorConfig":
        """Deterministic-classifier config for a known obfuscation strategy.

        An anomalous interval escapes flagging only when its holder predicted
        it (tpr) and waterfilled it (p_waterfill); a baseline interval is
        flagged only when recognized (tnr) and given a fake (p_fake).
        """
        fa = 1.0 - tpr * p_waterfill
        fb = tnr * p_fake
        return cls("idealized", anomaly_rate, flag_rate_anomaly=fa, flag_rate_baseline=fb)


def class_posteriors(anomaly_rate: float, hidden, flagged_baseline):
    """(P(anomaly | flagged), P(anomaly | not flagged), epsilon) of the
    attacker's two observable classes; numpy-broadcast over the rates.

    ``hidden`` is P(not flagged | anomaly), ``flagged_baseline`` is
    P(flagged | baseline); under an obfuscation strategy they are
    tpr * p_waterfill and tnr * p_fake. A truth class of prior weight zero
    (anomaly_rate 0 or 1) adds nothing to either posterior, whatever its
    rate, nan included. An observable class of probability zero never
    occurs; its posterior is reported as the prior by convention.

    epsilon = P(anomaly | flagged) / P(anomaly | not flagged) - 1 is the
    signed relative bias between the two posteriors; zero means the class
    is independent of the truth. When flagging has probability 0 or 1 the
    single occurring class carries the prior, so epsilon is 0. A zero
    unflagged posterior against a positive flagged one yields +inf. nan
    rates give nan throughout.
    """
    rp = anomaly_rate
    x = np.asarray(hidden, dtype=float)
    y = np.asarray(flagged_baseline, dtype=float)
    with np.errstate(all="ignore"):
        num_f = np.where(rp > 0, rp * (1.0 - x), 0.0)
        den_f = num_f + np.where(rp < 1, (1.0 - rp) * y, 0.0)  # P(flagged)
        num_u = np.where(rp > 0, rp * x, 0.0)
        den_u = num_u + np.where(rp < 1, (1.0 - rp) * (1.0 - y), 0.0)
        p_flagged = np.where(den_f <= 0, rp, num_f / den_f)
        p_unflagged = np.where(den_u <= 0, rp, num_u / den_u)
        eps = np.where(p_unflagged <= 0, np.where(p_flagged > 0, np.inf, 0.0),
                       p_flagged / p_unflagged - 1.0)
    eps = np.where((den_f <= 0) | (den_f >= 1), 0.0, eps)
    return p_flagged, p_unflagged, eps


def idealized_metrics(anomaly_rate: float, hidden, flagged_baseline):
    """Expected (guessing error, conditional entropy in bits) of the
    idealized attacker; numpy-broadcast over the rates like
    :func:`class_posteriors`, whose arguments these are.

    A posterior-matching guess misses an unflagged anomaly (probability
    ``hidden``) with probability 1 - P(anomaly | not flagged) and a flagged
    one with 1 - P(anomaly | flagged). The entropy is H(truth | class) of
    the 2x2 joint of truth and class; the plug-in estimate that
    :func:`lpwanleak.experiment.run_cell` reports has bias O(1/n).
    """
    rp = anomaly_rate
    x = np.asarray(hidden, dtype=float)
    y = np.asarray(flagged_baseline, dtype=float)
    p_f, p_u, _ = class_posteriors(rp, x, y)
    err = x * (1.0 - p_u) + (1.0 - x) * (1.0 - p_f)
    # -sum over (truth, class) of P(truth, class) * log2 P(truth | class)
    flagged = (rp * (1.0 - x), (1.0 - rp) * y)
    unflagged = (rp * x, (1.0 - rp) * (1.0 - y))
    ce = 0.0
    with np.errstate(all="ignore"):
        for cls in (flagged, unflagged):
            for joint in cls:
                ce = ce - np.where(joint > 0, joint * np.log2(joint / (cls[0] + cls[1])), 0.0)
    return err, ce


def idealized_verdicts(is_anomaly, action) -> np.ndarray:
    """The idealized detector's flag column, from the construction labels alone.

    ``is_anomaly`` and ``action`` are a run's label columns (``action``
    holds ACTIONS codes; one outside them is a ValueError); no counts are
    needed, so a caller that only wants this detector's flags can skip
    drawing them. A real anomaly is flagged unless it was waterfilled; a
    baseline interval is flagged exactly when it received a fake anomaly.
    """
    action = np.asarray(action)
    if action.size and not (action.min() >= 0 and action.max() <= 2):
        raise ValueError("action codes must be 0, 1 or 2 (indices into ACTIONS)")
    # ACTIONS indices: 0 "none", 2 "fake-anomaly" (bool algebra: np.where on
    # bool columns takes about twenty times as long)
    return (action == 2) | (np.asarray(is_anomaly, dtype=bool) & (action == 0))


def test_run(run: Run, cfg: DetectorConfig) -> np.ndarray:
    """Flag every interval of a run: one bool per interval.

    chi-square mode reads only ``run.counts``. Idealized mode derives the
    flags from the run's ground truth, because that detector is defined by
    construction classes rather than by a statistic.
    """
    if cfg.mode == "idealized":
        return idealized_verdicts(run.is_anomaly, run.action)
    _, _, d = run_dispersion(run.counts)
    thr = chi_square_threshold(run.slots, cfg.alpha)
    return (run.slots - 1) * d > thr  # nan (empty interval): never flagged


def guess_run(posterior_anomaly, seed) -> np.ndarray:
    """Turn per-interval posteriors into anomaly guesses by posterior matching:
    each interval is guessed anomalous with its posterior probability
    (randomized, deterministic given seed).
    """
    p = np.asarray(posterior_anomaly, dtype=float)
    if np.any(np.isnan(p)):
        raise ValueError("posteriors contain nan; configure detector flag rates")
    return as_rng(seed).random(p.shape) < p


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


def guessing_error_se(err: float, n_anomalies: int) -> float:
    """Binomial standard error of a guessing-error estimate."""
    if n_anomalies <= 0:
        raise DegenerateMetricError("no anomalous intervals")
    return float(np.sqrt(max(err * (1.0 - err), 0.0) / n_anomalies))


def bin_timestamps(timestamps, slot_width: float, slots: int) -> np.ndarray:
    """Bin sorted timestamps into (intervals, slots) counts.

    The slot grid starts at the first message's slot start (sensible for
    epoch-scale external traces). The trailing partial interval is dropped:
    the dispersion test needs full intervals.
    """
    ts = np.asarray(timestamps, dtype=float)
    if ts.size == 0:
        raise ValueError("no timestamps to bin")
    if np.any(np.diff(ts) < 0):
        raise ValueError("timestamps must be sorted")
    if not slot_width > 0 or slots < 2:
        raise ValueError("need slot_width > 0 and slots >= 2")
    # slot numbers on the grid of multiples of slot_width, counted from the
    # first message's: non-decreasing for sorted input, so never negative
    slot = np.floor(ts / slot_width)
    idx = (slot - slot[0]).astype(np.int64)
    n_full = int(idx.max() + 1) // slots
    if n_full == 0:
        raise ValueError(f"fewer than one full interval of {slots} slots")
    keep = idx < n_full * slots
    counts = np.bincount(idx[keep], minlength=n_full * slots)
    return counts.reshape(n_full, slots)

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

Verdicts carry a posterior anomaly probability computed from the prior
anomaly rate and the class-conditional flag rates the attacker is assumed
to know. :func:`class_posteriors` is the one copy of that algebra; the
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
    "run_observable_class",
    "RunVerdicts",
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
    probabilities of being flagged, used to turn a verdict into a posterior
    anomaly probability. They may be nan when unknown, in which case
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
    tpr * p_waterfill and tnr * p_fake. A class of probability zero never
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
    num_f = rp * (1.0 - x)
    den_f = num_f + (1.0 - rp) * y  # P(flagged)
    num_u = rp * x
    den_u = num_u + (1.0 - rp) * (1.0 - y)
    with np.errstate(all="ignore"):
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


def _label_class(is_anomaly, action) -> np.ndarray:
    # a real anomaly looks anomalous unless waterfilled; a baseline interval
    # exactly when it received a fake anomaly
    action = np.asarray(action)
    return np.where(is_anomaly, action != 1,  # ACTIONS index of "waterfilled"
                    action == 2)              # ACTIONS index of "fake-anomaly"


def run_observable_class(run: Run) -> np.ndarray:
    """True where an interval looks anomalous to the deterministic classifier.

    Simulation-side construction: a real anomaly looks anomalous unless it
    was waterfilled; a baseline interval looks anomalous exactly when it
    received a fake anomaly. Detectors never call this; the harness does.
    """
    return _label_class(run.is_anomaly, run.action)


@dataclass(frozen=True)
class RunVerdicts:
    flagged: np.ndarray            # (n,) bool
    statistic: np.ndarray          # (n,) float, nan in idealized mode
    threshold: float               # nan in idealized mode
    posterior_anomaly: np.ndarray  # (n,) float


def _verdicts(flagged, stats, thr: float, cfg: DetectorConfig) -> RunVerdicts:
    # each class bit maps to its class posterior under the attacker's knowledge
    p_flag, p_unflag, _ = class_posteriors(cfg.anomaly_rate, 1.0 - cfg.flag_rate_anomaly,
                                           cfg.flag_rate_baseline)
    return RunVerdicts(flagged, stats, thr, np.where(flagged, p_flag, p_unflag))


def idealized_verdicts(is_anomaly, action, cfg: DetectorConfig) -> RunVerdicts:
    """Idealized-mode verdicts from the construction labels alone.

    ``is_anomaly`` and ``action`` are a run's label columns (``action``
    holds ACTIONS codes); no counts are needed, so a caller that only wants
    this detector's verdicts can skip drawing them.
    """
    flagged = _label_class(is_anomaly, action)
    return _verdicts(flagged, np.full(flagged.shape, np.nan), float("nan"), cfg)


def test_run(run: Run, cfg: DetectorConfig) -> RunVerdicts:
    """Classify every interval of a run.

    chi-square mode reads only ``run.counts``. Idealized mode derives the
    class bits from the run's ground truth, because that detector is defined
    by construction classes rather than by a statistic.
    """
    if cfg.mode == "idealized":
        return idealized_verdicts(run.is_anomaly, run.action, cfg)
    _, _, d = run_dispersion(run.counts)
    thr = chi_square_threshold(run.slots, cfg.alpha)
    stats = (run.slots - 1) * d
    return _verdicts(stats > thr, stats, thr, cfg)  # nan (empty interval): never flagged


def guess_run(posterior_anomaly, seed, rule: str = "posterior-match") -> np.ndarray:
    """Turn per-interval posteriors into anomaly guesses.

    ``posterior-match`` guesses anomalous with the posterior probability
    (randomized, deterministic given seed); ``map`` guesses anomalous when
    the posterior exceeds 1/2.
    """
    p = np.asarray(posterior_anomaly, dtype=float)
    if np.any(np.isnan(p)):
        raise ValueError("posteriors contain nan; configure detector flag rates")
    if rule == "posterior-match":
        rng = as_rng(seed)
        return rng.random(p.shape) < p
    if rule == "map":
        return p > 0.5
    raise ValueError(f"unknown guess rule {rule!r}")


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


def bin_timestamps(timestamps, slot_width: float, slots: int,
                   origin: float | None = None) -> np.ndarray:
    """Bin sorted timestamps into (intervals, slots) counts.

    ``origin`` anchors the slot grid; None anchors at the first message's
    slot start (sensible for epoch-scale external traces). The trailing
    partial interval is dropped: the dispersion test needs full intervals.
    """
    ts = np.asarray(timestamps, dtype=float)
    if ts.size == 0:
        raise ValueError("no timestamps to bin")
    if np.any(np.diff(ts) < 0):
        raise ValueError("timestamps must be sorted")
    if not slot_width > 0 or slots < 2:
        raise ValueError("need slot_width > 0 and slots >= 2")
    if origin is None:
        origin = np.floor(ts[0] / slot_width) * slot_width
    idx = np.floor((ts - origin) / slot_width).astype(np.int64)
    if np.any(idx < 0):
        raise ValueError("timestamps precede the binning origin")
    n_full = int(idx.max() + 1) // slots
    if n_full == 0:
        raise ValueError(f"fewer than one full interval of {slots} slots")
    keep = idx < n_full * slots
    counts = np.bincount(idx[keep], minlength=n_full * slots)
    return counts.reshape(n_full, slots)

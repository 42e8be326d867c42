"""Baseline traffic looks Poisson; anomalies show up in the dispersion.

Generates runs with and without anomalies and prints what the chi-square
detector sees: the index of dispersion sits at 1 for homogeneous traffic
and the false-positive rate lands near alpha, a little below it at these
small counts (the test's exact size is 0.0476 at S=10, lambda=1 and 0.0479
at lambda=5), while a single boosted slot drags the interval statistic far
over the threshold.
"""

import numpy as np

from lpwanleak import (DetectorConfig, IntervalModel, chi_square_threshold,
                       ensemble_dispersion, gen_run, run_dispersion, test_run)

SEED = 42


def baseline_demo(slots=10, lam=1.0, n=50_000):
    model = IntervalModel(slots, lam, 1.0, 0.0)
    run = gen_run(model, n, SEED)
    _, _, d = run_dispersion(run.counts)
    pooled = ensemble_dispersion(run.counts)
    cfg = DetectorConfig.chi_square(0.0)
    flags = test_run(run, cfg)
    print(f"S={slots} lambda={lam}  n={n} intervals")
    print(f"  pooled dispersion          {pooled:.4f}   (expect 1)")
    print(f"  mean per-interval D        {np.nanmean(d):.4f}")
    print(f"  false-positive rate        {flags.mean():.4f}   (nominal alpha 0.05; exact size lower)")
    print(f"  chi2 threshold             {chi_square_threshold(slots, 0.05):.3f}")


def anomaly_demo(slots=10, lam=1.0, intensity=20.0, n=50_000):
    model = IntervalModel(slots, lam, intensity, 0.5)
    run = gen_run(model, n, SEED + 1)
    cfg = DetectorConfig.chi_square(0.5)
    flags = test_run(run, cfg)
    tpr = flags[run.is_anomaly].mean()
    fpr = flags[~run.is_anomaly].mean()
    print(f"\nwith anomalies: I={intensity}, half the intervals anomalous")
    print(f"  detection rate on anomalies  {tpr:.4f}")
    print(f"  false-positive rate          {fpr:.4f}")


if __name__ == "__main__":
    for lam in (1.0, 5.0):
        baseline_demo(lam=lam)
    anomaly_demo()

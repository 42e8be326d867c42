"""Expected-dispersion algebra against 50-digit arithmetic.

The reference dispersion is the moment form, mean(m) + (mean(m^2) -
mean(m)^2) * S/(S-1) over the expected mean, evaluated exactly on the
double inputs. The grid covers the property tests' domain (S 2-12,
lambda in {0.5, 1, 2}, I in [1, 60]) and intensities just above 1, where
D - 1 is at or below the rounding error of D itself.
"""

import math
import sys

import mpmath
import numpy as np
from mpmath import mpf

from lpwanleak import (
    IntervalModel,
    anomaly_dispersion,
    expected_dispersion_fake,
    expected_dispersion_waterfill,
    solve_fake_rate,
    solve_waterfill_rate,
)

EPS = sys.float_info.epsilon
INTENSITIES = [math.nextafter(1.0, 2.0), 1.0 + 1e-12, 1.0 + 1e-6, 60.0,
               *np.random.default_rng(11).uniform(1.0, 60.0, 8).tolist()]
FRACTIONS = (0.0, 0.1, 0.5, 0.9, 1.0)


def exact_dispersion(s: int, a: float, b: float):
    """D of S-1 slots at rate a and one at rate b, from the moments."""
    s, a, b = mpf(s), mpf(a), mpf(b)
    mu = ((s - 1) * a + b) / s
    m2 = ((s - 1) * a * a + b * b) / s
    return ((m2 - mu * mu) * s / (s - 1) + mu) / mu


def exact_waterfill_rate(m: IntervalModel, k: float):
    """The rate that meets the target D' = anomaly dispersion / k exactly.

    The target is taken as the double the solver forms: near I = 1 and near
    full suppression w moves by about sqrt(S b / c) per unit of c = D' - 1,
    so a rounding of D' alone can move it by far more than an ulp of b.
    k = 1 asks for no shift at all, so its rate is 0.
    """
    if k == 1.0:
        return mpf(0)
    s, lam, b = m.slots, mpf(m.base_rate), mpf(m.anomaly_slot_rate)
    c = mpf(anomaly_dispersion(m) / k - 1.0)
    h = c * (s - 1)
    gap = (mpmath.sqrt(h * h + 4 * c * s * b) - h) / 2  # u^2 + h u - c S b = 0
    return max(b - lam - gap, mpf(0))


def test_dispersion_and_rates_match_50_digit_reference():
    worst = {"waterfill D": 0.0, "fake D": 0.0, "w": 0.0}
    with mpmath.workdps(50):
        for intensity in INTENSITIES:
            for s in range(2, 13):
                for lam in (0.5, 1.0, 2.0):
                    m = IntervalModel(s, lam, intensity, 0.0)
                    b = m.anomaly_slot_rate
                    d0 = anomaly_dispersion(m)
                    for f in FRACTIONS:
                        k = 1.0 + f * (d0 - 1.0)  # a shift between none and full
                        w = f * (b - lam)
                        want = exact_dispersion(s, lam + w, b)
                        rel = abs(expected_dispersion_waterfill(m, w) - want) / want
                        worst["waterfill D"] = max(worst["waterfill D"], float(rel) / EPS)
                        t = solve_fake_rate(m, k)
                        want = exact_dispersion(s, lam, lam + t)
                        rel = abs(expected_dispersion_fake(m, t) - want) / want
                        worst["fake D"] = max(worst["fake D"], float(rel) / EPS)
                        err = abs(solve_waterfill_rate(m, k) - exact_waterfill_rate(m, k))
                        worst["w"] = max(worst["w"], float(err / b) / EPS)
    # D within 4 eps relative; w within 4 eps of the anomalous slot rate b
    assert max(worst.values()) <= 4.0, worst

"""Dummy-message obfuscation: rate solving, power costs, strategy selection.

Two mechanisms exist, both purely additive (dummies can be inserted, real
messages never removed):

* waterfilling: raise every non-anomalous slot of an anomalous interval by
  a dummy rate, pulling the interval's expected dispersion down toward 1;
* fake anomaly: add a dummy burst to one slot of a baseline interval,
  pushing its expected dispersion up to look like a real anomaly.

Rates are solved in closed form against expected-dispersion targets, costs
are expressed relative to real traffic, and a (p_waterfill, p_fake)
strategy is solved exactly under a power budget. The strategy quality
measure is epsilon, the signed relative bias between the attacker's two
class-conditional posteriors; epsilon = 0 means the observable class
carries no information beyond the prior anomaly rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attacker import class_posteriors
from .traffic import IntervalModel, Run, as_rng

__all__ = [
    "InfeasibleTargetError",
    "anomaly_dispersion",
    "expected_dispersion_fake",
    "expected_dispersion_waterfill",
    "solve_fake_rate",
    "solve_waterfill_rate",
    "CostModel",
    "costs",
    "KnowledgeModel",
    "Strategy",
    "power_cost",
    "solve_strategy",
    "draw_actions",
    "apply_strategy",
    "strategy_json",
]

class InfeasibleTargetError(ValueError):
    """The requested dispersion shift cannot be reached by adding traffic."""


def _one_hot_dispersion(s: int, a: float, b: float) -> float:
    # expected dispersion of S-1 Poisson slots at rate a and one at rate b
    return 1.0 + (b - a) ** 2 / ((s - 1) * a + b)


def expected_dispersion_fake(model: IntervalModel, fake_rate: float) -> float:
    """Expected dispersion of a baseline interval with one boosted slot.

    Slot rates are (lam, ..., lam, lam + t) for t = fake_rate, so the
    identity of :func:`expected_dispersion_waterfill` gives 1 + t^2 / (S*lam + t).
    """
    lam = model.base_rate
    return _one_hot_dispersion(model.slots, lam, lam + fake_rate)


def expected_dispersion_waterfill(model: IntervalModel, waterfill_rate: float) -> float:
    """Expected dispersion of an anomalous interval with filled side slots.

    With S-1 slots at a = lam + w and one at b = lam * intensity, the
    expected Bessel variance of independent Poisson slots is their mean
    rate plus (b - a)^2 / S, so the dispersion is 1 + (b - a)^2 / ((S-1) a + b).
    """
    lam = model.base_rate
    return _one_hot_dispersion(model.slots, lam + waterfill_rate, model.anomaly_slot_rate)


def anomaly_dispersion(model: IntervalModel) -> float:
    """Expected dispersion of an unobfuscated anomalous interval."""
    return expected_dispersion_waterfill(model, 0.0)


def solve_fake_rate(model: IntervalModel, k: float) -> float:
    """Dummy rate for the boosted slot so a baseline interval's expected
    dispersion becomes k (baseline dispersion is 1, so k is the shift).

    The defining equation reduces to t^2 = (k-1)(S*lam + t); the
    non-negative quadratic root is exact.
    """
    if k < 1.0:
        raise InfeasibleTargetError(
            f"fake-anomaly shift k must be >= 1 (adding traffic only raises dispersion), got {k}")
    if k == 1.0:
        return 0.0
    s, lam = model.slots, model.base_rate
    c = k - 1.0
    return (c + math.sqrt(c * c + 4.0 * c * s * lam)) / 2.0


def solve_waterfill_rate(model: IntervalModel, k: float) -> float:
    """Per-slot dummy rate pulling an anomalous interval's expected
    dispersion down by the factor k (target D' = anomaly dispersion / k).

    k = anomaly dispersion means full suppression (D' = 1, all slot rates
    equal). Larger k would need D' < 1, unreachable by adding traffic.
    With a = lam + w, b the anomalous slot rate and c = D' - 1, the gap
    u = b - a is the positive root of u^2 + c(S-1) u - c S b = 0, taken as
    2cSb / (h + sqrt(h^2 + 4cSb)) with h = c(S-1), which has no
    cancellation; the rate is w = max(b - lam - u, 0).
    """
    if k < 1.0:
        raise InfeasibleTargetError(f"waterfill shift k must be >= 1, got {k}")
    d0 = anomaly_dispersion(model)
    target = d0 / k
    if target < 1.0:
        raise InfeasibleTargetError(
            f"shift k={k} exceeds full suppression (max {d0}) for this model")
    if k == 1.0:
        return 0.0
    s, lam = model.slots, model.base_rate
    b = model.anomaly_slot_rate
    c = target - 1.0
    if c == 0.0:
        # full suppression: all slots at the anomalous rate, exactly (the
        # gap root below is 0/0 here)
        return b - lam
    h = c * (s - 1)
    csb = c * s * b
    u = 2.0 * csb / (h + math.sqrt(h * h + 4.0 * csb))
    return max(b - lam - u, 0.0)


@dataclass(frozen=True)
class CostModel:
    """Solved full-target rates and their relative power costs.

    :func:`costs` solves the full targets: fake_rate fakes a full anomaly
    (expected dispersion equal to a real anomaly's), waterfill_rate fully
    suppresses one (expected dispersion 1). fake_cost = fake_rate / (lam * S).
    waterfill_cost divides the total fill (S-1 slots) by the "base-plus-anomaly"
    normalizer lam * S + anomaly slot rate: the full baseline interval load
    plus the boosted slot, double counting the boosted slot's baseline share.

    So each cost is the expected dummy load of one interval under its
    action, relative to its normalizer: what the solver prices and what
    ``experiment.realized_cost`` charges each faked or waterfilled interval.
    """

    model: IntervalModel
    fake_rate: float
    waterfill_rate: float

    @property
    def fake_cost(self) -> float:
        return self.fake_rate / (self.model.base_rate * self.model.slots)

    @property
    def waterfill_cost(self) -> float:
        m = self.model
        norm = m.base_rate * m.slots + m.anomaly_slot_rate
        return self.waterfill_rate * (m.slots - 1) / norm


def costs(model: IntervalModel) -> CostModel:
    """The cost model of both full-target rates."""
    d0 = anomaly_dispersion(model)
    return CostModel(model, solve_fake_rate(model, d0), solve_waterfill_rate(model, d0))


@dataclass(frozen=True)
class KnowledgeModel:
    """Quality of the obfuscator's per-interval event predictor.

    tpr: probability an anomalous interval is predicted as anomalous.
    tnr: probability a baseline interval is recognized as baseline.
    (1, 1) is complete knowledge.
    """

    tpr: float = 1.0
    tnr: float = 1.0

    def __post_init__(self):
        for name, v in (("tpr", self.tpr), ("tnr", self.tnr)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class Strategy:
    """Obfuscation strategy: action probabilities plus solver bookkeeping.

    p_waterfill applies to intervals predicted anomalous, p_fake to
    intervals predicted baseline. epsilon/cost are the solver's analytic
    values; feasible_optimal marks an epsilon = 0 solution within budget;
    degenerate marks the no-op returned for anomaly rates 0 and 1.
    """

    p_waterfill: float
    p_fake: float
    epsilon: float
    cost: float
    feasible_optimal: bool
    degenerate: bool = False

    def __post_init__(self):
        for name, v in (("p_waterfill", self.p_waterfill), ("p_fake", self.p_fake)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


def power_cost(p_waterfill: float, p_fake: float, cost_model: CostModel,
               anomaly_rate: float) -> float:
    """Long-run expected relative dummy cost of a strategy; the solver's one price."""
    rp = anomaly_rate
    return rp * p_waterfill * cost_model.waterfill_cost \
        + (1.0 - rp) * p_fake * cost_model.fake_cost


def _frontier_candidates(rp: float, tpr: float, tnr: float, cm: CostModel,
                         budget: float) -> list[tuple[float, float]]:
    """The corner (1, 1) if affordable, else the ends of the budget line
    clipped to the unit square and the stationary points of epsilon between
    them. Along the line x = tpr * p_waterfill and F = P(flagged) are linear
    in t, epsilon + 1 = odds(1 - x) / odds(F), and its stationary points
    solve the quadratic x' F (1 - F) + F' x (1 - x) = 0."""
    a = power_cost(1.0, 0.0, cm, rp)
    b = power_cost(0.0, 1.0, cm, rp)
    if a + b <= budget:
        return [(1.0, 1.0)]
    # the ends with the most waterfilling (t = 1) and with the most faking (t = 0)
    p1 = min(1.0, budget / a) if a > 0 else 1.0
    # clipped both ways: a rounding leftover over a subnormal a or b can be huge
    q1 = min(1.0, max(0.0, (budget - a * p1) / b)) if b > 0 else 1.0
    q2 = min(1.0, budget / b) if b > 0 else 1.0
    p2 = min(1.0, max(0.0, (budget - b * q2) / a)) if a > 0 else 1.0
    x0, x1, y0 = tpr * p2, tpr * (p1 - p2), tnr * q2
    f0 = rp * (1.0 - x0) + (1.0 - rp) * y0       # F at t = 0
    u0 = rp * x0 + (1.0 - rp) * (1.0 - y0)       # 1 - F at t = 0
    f1 = (1.0 - rp) * tnr * (q1 - q2) - rp * x1  # F'
    c = (x1 * f0 * u0 + f1 * x0 * (1.0 - x0),
         2.0 * x1 * f1 * (1.0 - rp) * (1.0 - x0 - y0),
         -x1 * f1 * (x1 + f1))
    scale = max(map(abs, c)) or 1.0  # keeps the discriminant from underflowing
    c0, c1, c2 = (v / scale for v in c)
    disc = c1 * c1 - 4.0 * c2 * c0
    ends = [(p1, q1), (p2, q2)]
    if disc < 0:
        return ends
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))  # accurate as c2 -> 0
    roots = [n / d for n, d in ((c0, q), (q, c2)) if d != 0]
    return ends + [(p2 + t * (p1 - p2), q2 + t * (q1 - q2)) for t in roots if 0 < t < 1]


def _within_budget(pw: float, pf: float, cm: CostModel, rp: float,
                   budget: float) -> list[tuple[float, float]]:
    """A point computed on the budget line can round an ulp over it. Return
    the point if its cost is within budget exactly. Else return its
    neighbours one ulp lower in either probability that fit, plus the point
    reached by stepping the probability of the larger cost term down until
    it fits (the other term can be too small for its ulps to move the
    rounded cost)."""
    if power_cost(pw, pf, cm, rp) <= budget:
        return [(pw, pf)]
    near = [(math.nextafter(pw, 0.0), pf), (pw, math.nextafter(pf, 0.0))]
    fits = [p for p in near if power_cost(*p, cm, rp) <= budget]
    while power_cost(pw, pf, cm, rp) > budget:
        if power_cost(0.0, pf, cm, rp) >= power_cost(pw, 0.0, cm, rp):
            pf = math.nextafter(pf, 0.0)
        else:
            pw = math.nextafter(pw, 0.0)
    return fits + [(pw, pf)]


def solve_strategy(model: IntervalModel, knowledge: KnowledgeModel = KnowledgeModel(),
                   budget: float = 1.0) -> Strategy:
    """Pick (p_waterfill, p_fake) under the power budget, priced by :func:`power_cost`.

    Degenerate anomaly rates (0 or 1) need no obfuscation: the prior already
    tells the attacker everything it will ever learn, so the zero-cost no-op
    is returned with the degenerate flag set.

    Otherwise the epsilon = 0 family is tpr * p_waterfill + tnr * p_fake = 1
    with both probabilities in [0, 1]; cost is linear along it, so only its
    endpoints can be cheapest. If an endpoint fits the budget the cheapest
    one (then the least p_waterfill, then p_fake) is returned as feasible-optimal.

    If none fits (or the family is empty, tpr + tnr < 1), every affordable
    strategy has epsilon > 0, falling as tpr * p_waterfill or tnr * p_fake
    grows, so the least |epsilon| lies on the budget frontier. Those points
    and the no-op, which wins where all leak infinitely (tpr = 0), are
    ranked by |epsilon|, then cost, then p_waterfill, then p_fake.
    """
    if not budget >= 0:
        raise ValueError(f"budget must be >= 0, got {budget!r}")
    rp = model.anomaly_rate
    if rp in (0.0, 1.0):
        return Strategy(0.0, 0.0, 0.0, 0.0, True, degenerate=True)
    cm = costs(model)
    tpr, tnr = knowledge.tpr, knowledge.tnr

    # epsilon = 0 endpoints: y = tnr * p_fake bounded by the unit square
    y_lo = max(0.0, 1.0 - tpr)
    y_hi = min(tnr, 1.0)
    if y_lo <= y_hi:
        ends = [(min(1.0, (1.0 - y) / tpr) if tpr > 0 else 0.0,
                 min(1.0, y / tnr) if tnr > 0 else 0.0) for y in (y_lo, y_hi)]
        fits = [(c, p_wf, p_f) for p_wf, p_f in ends
                if (c := power_cost(p_wf, p_f, cm, rp)) <= budget]
        if fits:
            c, p_wf, p_f = min(fits)
            return Strategy(p_wf, p_f, 0.0, c, True)

    points = [(0.0, 0.0)] + _frontier_candidates(rp, tpr, tnr, cm, budget)
    pw, pf = np.array([q for p in points for q in _within_budget(*p, cm, rp, budget)]).T
    eps = class_posteriors(rp, tpr * pw, tnr * pf)[2]
    cost = power_cost(pw, pf, cm, rp)
    k = np.lexsort((pf, pw, cost, np.abs(eps)))[0]
    return Strategy(float(pw[k]), float(pf[k]), float(eps[k]), float(cost[k]), False)


def _uniforms(rng: np.random.Generator, n: int, thresholds) -> np.ndarray | float:
    """``n`` uniforms of ``rng`` compared only with ``thresholds``. If all are 0 or 1 none
    can change a comparison: a PCG64 with no buffered 32-bit half skips them for 0.5."""
    bits = rng.bit_generator
    if (all(t in (0, 1) for t in thresholds) and type(bits) is np.random.PCG64
            and not bits.state["has_uint32"]):
        bits.advance(n)
        return 0.5
    return rng.random(n)


def draw_actions(is_anomaly, strategy: Strategy, knowledge: KnowledgeModel,
                 rng) -> np.ndarray:
    """Per-interval action codes (indices into ACTIONS) under a strategy.

    Takes two draws of n uniforms from ``rng``, the prediction coins, then the action
    coins: the predictor is right with probability tpr on anomalies and tnr on baselines;
    a predicted anomaly is waterfilled with probability p_waterfill, a predicted baseline
    faked with p_fake. A draw that meets only probabilities 0 and 1 decides nothing and is
    stepped past. :func:`apply_strategy` makes these its first two draws, so the labels of
    an obfuscated run can be had from its seed without its counts.
    """
    # uint8 0/1 algebra: np.where is several times slower, bool & a scalar 40 times slower
    anom = np.asarray(is_anomaly, dtype=bool).view(np.uint8)
    n, rng = anom.size, as_rng(rng)
    u_pred = _uniforms(rng, n, (knowledge.tpr, knowledge.tnr))
    u_act = _uniforms(rng, n, (strategy.p_waterfill, strategy.p_fake))
    predicted = (anom & (u_pred < knowledge.tpr)) | ((anom ^ 1) & (u_pred >= knowledge.tnr))
    waterfilled = predicted & (u_act < strategy.p_waterfill)
    faked = (predicted ^ 1) & (u_act < strategy.p_fake)
    return (waterfilled + 2 * faked).view(np.int8)  # codes 1 and 2 of ACTIONS


def apply_strategy(run: Run, strategy: Strategy, knowledge: KnowledgeModel,
                   cost_model: CostModel, seed) -> Run:
    """Obfuscate a run. Returns a new run; only ever adds messages.

    Per interval: the predictor classifies it (correctly with probability
    tpr for anomalies, tnr for baselines). Predicted-anomalous intervals are
    waterfilled with probability p_waterfill: Poisson dummies at the solved
    per-slot rate into every slot except the anomalous one (for a
    mispredicted baseline, a uniformly guessed slot is spared instead).
    Predicted-baseline intervals receive a fake anomaly with probability
    p_fake: one Poisson dummy burst into a uniformly chosen slot. The action
    column of the result reflects this application.
    """
    rng = as_rng(seed)
    n, s = len(run), run.slots
    action = draw_actions(run.is_anomaly, strategy, knowledge, rng)
    spare_guess = rng.integers(0, s, n)
    fake_slots = rng.integers(0, s, n)

    counts = run.counts.copy()
    dummies = run.dummy_counts.copy()

    # a draw of size zero takes nothing from the generator
    wf_rows = np.flatnonzero(action == 1)
    spare = np.where(run.is_anomaly[wf_rows], run.anomaly_slot[wf_rows], spare_guess[wf_rows])
    add = rng.poisson(cost_model.waterfill_rate, (wf_rows.size, s))
    add[np.arange(wf_rows.size), spare] = 0
    counts[wf_rows] += add
    dummies[wf_rows] += add

    fk_rows = np.flatnonzero(action == 2)
    burst = rng.poisson(cost_model.fake_rate, fk_rows.size)
    counts[fk_rows, fake_slots[fk_rows]] += burst
    dummies[fk_rows, fake_slots[fk_rows]] += burst

    return Run(counts, dummies, run.is_anomaly, run.anomaly_slot, action)


def strategy_json(strategy: Strategy, model: IntervalModel,
                  knowledge: KnowledgeModel) -> dict:
    """Machine-readable strategy record (stable key set)."""
    return {
        "P_wf": strategy.p_waterfill,
        "P_f": strategy.p_fake,
        "epsilon": strategy.epsilon,
        "cost": strategy.cost,
        "feasible_optimal": strategy.feasible_optimal,
        "degenerate": strategy.degenerate,
        "model": {
            "S": model.slots,
            "lambda": model.base_rate,
            "I": model.intensity,
            "R_p": model.anomaly_rate,
        },
        "knowledge": {
            "P_tp": knowledge.tpr,
            "P_tn": knowledge.tnr,
        },
    }

"""Monte-Carlo cells, parameter sweeps, and analytic cost curves.

One cell = one (anomaly rate, intensity) point: solve a strategy, generate
a run, obfuscate it, attack it, and report guessing error and conditional
entropy next to the prior-only ideal values (1 - R_p and H2(R_p) bits).
Sweeps grid over anomaly rate and intensity and emit plot-ready CSV with a
pinned header. Everything is deterministic given the base seed; every
estimate carries a standard error and acceptance comparisons use 3 sigma.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from itertools import product
from typing import Sequence

import numpy as np

# guess_run is not called here; the benchmark's tracer wraps it under this name
from .attacker import (DETECTOR_MODES, DetectorConfig, class_posteriors, guess_run,
                       guessing_error_se, idealized_verdicts, test_run)
from .obfuscator import (DENOMINATOR_MODES, CostModel, InfeasibleTargetError,
                         KnowledgeModel, Strategy, apply_strategy, costs,
                         draw_actions, solve_fake_rate, solve_strategy,
                         solve_waterfill_rate)
from .traffic import IntervalModel, Run, as_rng, draw_anomaly_flags, gen_run, write_csv

__all__ = [
    "SWEEP_CSV_HEADER",
    "COST_CSV_HEADER",
    "binary_entropy_bits",
    "MetricsReport",
    "simulate_run",
    "run_cell",
    "SweepSpec",
    "run_sweep",
    "feasible_region",
    "sweep_to_csv",
    "CostPoint",
    "cost_curves",
    "cost_curves_to_csv",
    "realized_cost",
]

_NAN = float("nan")
_SWEEP_CSV_COLUMNS = 18  # the first 18 of MetricsReport.NAMES; the rest are JSON only
# the largest rate numpy's Poisson sampler accepts (about 9.2e18)
_POISSON_RATE_MAX = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)


def binary_entropy_bits(p: float) -> float:
    """H2(p) in bits; 0 at the endpoints."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def _seed_tuple(seed) -> tuple[int, ...]:
    # cells derive sub-streams by appending indices to this tuple
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


@dataclass(frozen=True)
class MetricsReport:
    """One sweep cell: strategy, measured metrics, and their ideal values.

    guess_err is the attacker's error on truly anomalous intervals;
    ce_bits is the plug-in conditional entropy of the truth given the
    attacker's observable class, from the empirical 2x2 joint. Both come
    with standard errors. ideal_* are the prior-only attacker's values.
    Cells that failed keep their grid coordinates and carry the message in
    ``error`` with nan metrics.
    """

    r_p: float
    intensity: float
    slots: int
    base_rate: float
    tpr: float
    tnr: float
    budget: float
    p_waterfill: float = _NAN
    p_fake: float = _NAN
    epsilon: float = _NAN
    cost: float = _NAN
    feasible_optimal: bool = False
    guess_err: float = _NAN
    guess_err_se: float = _NAN
    ce_bits: float = _NAN
    ce_bits_se: float = _NAN
    ideal_guess_err: float = _NAN
    ideal_ce_bits: float = _NAN
    degenerate: bool = False
    realized_cost: float = _NAN
    realized_cost_se: float = _NAN
    error: str = ""

    # the output name of each field above, in order
    NAMES = ("R_p", "I", "S", "lambda", "P_tp", "P_tn", "budget", "P_wf", "P_f",
             "epsilon", "cost", "feasible_optimal", "guess_err", "guess_err_se",
             "ce_bits", "ce_bits_se", "ideal_guess_err", "ideal_ce_bits",
             "degenerate", "realized_cost", "realized_cost_se", "error")


SWEEP_CSV_HEADER = ",".join(MetricsReport.NAMES[:_SWEEP_CSV_COLUMNS])


def realized_cost(action: np.ndarray, cost_model: CostModel) -> tuple[float, float]:
    """Mean relative dummy cost of a cell's actions, with its SE.

    An interval costs C_wf if it was waterfilled (action 1), C_f if faked
    (action 2) and nothing otherwise: the expected dummy load of its action
    over that action's normalizer. The SE is that of these per-interval
    values. A code outside ACTIONS is a ValueError.
    """
    action = np.asarray(action)
    if action.size and not (action.min() >= 0 and action.max() <= 2):
        raise ValueError("action codes must be 0, 1 or 2 (indices into ACTIONS)")
    contrib = np.array([0.0, cost_model.waterfill_cost, cost_model.fake_cost])[action]
    n = contrib.size
    se = float(contrib.std(ddof=1) / math.sqrt(n)) if n > 1 else _NAN
    return float(contrib.mean()), se


def _score(truth: np.ndarray, flagged: np.ndarray, cfg: DetectorConfig,
           seed) -> tuple[float, ...]:
    """(guess_err, guess_err_se, ce_bits, ce_bits_se) of a cell's truth and
    flag columns.

    The guesses are :func:`guess_run`'s on ``seed``: an interval is guessed
    anomalous when its uniform is below the posterior of its flag. So one
    bincount over the (truth, flag) classes and the two miss bits (uniform
    >= either posterior) counts every class and every miss. ce_bits is the
    plug-in H(truth | flag): the mean of -log2 p_hat(truth | flag), gathered
    per interval so that its SE is that of the per-interval values.
    """
    p_flag, p_unflag, _ = class_posteriors(cfg.anomaly_rate, 1.0 - cfg.flag_rate_anomaly,
                                           cfg.flag_rate_baseline)
    cls = 2 * truth.view(np.int8) + flagged.view(np.int8)
    u = as_rng(seed).random(cls.size)
    key = 4 * cls + 2 * (u >= p_flag).view(np.int8) + (u >= p_unflag).view(np.int8)
    del u
    # axes: truth, flag, miss bit if flagged, miss bit if unflagged
    k = np.bincount(key, minlength=16).reshape(2, 2, 2, 2)
    del key
    joint = k.sum(axis=(2, 3)).tolist()  # intervals by (truth, flag)
    n_flag = [joint[0][f] + joint[1][f] for f in (0, 1)]
    n_anom = sum(joint[1])
    if n_anom == 0 or any(n and math.isnan(p) for n, p in zip(n_flag, (p_unflag, p_flag))):
        guess_err = guess_se = _NAN
    else:
        guess_err = int(k[1, 1, 1].sum() + k[1, 0, :, 1].sum()) / n_anom
        guess_se = guessing_error_se(guess_err, n_anom)
    vals = np.array([-math.log2(joint[t][f] / n_flag[f]) if joint[t][f] else 0.0
                     for t in (0, 1) for f in (0, 1)])[cls]
    n = vals.size
    ce_se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else _NAN
    return guess_err, guess_se, float(vals.mean()), ce_se


def simulate_run(model: IntervalModel, knowledge: KnowledgeModel, budget: float,
                 n_intervals: int, seed, cost_denominator: str = "base-plus-anomaly"
                 ) -> tuple[Strategy, CostModel, Run]:
    """Solve, generate and obfuscate one cell.

    Returns the strategy, the cost model and the obfuscated run. Streams of
    the cell seed tuple ``base`` (a contract the tests pin): base + (0,)
    generates, its first n draws being the anomaly coins; base + (1,)
    obfuscates, its first 2n draws being the prediction coins and then the
    action coins. An idealized :func:`run_cell` draws those 3n coins and no
    counts; every cell guesses on base + (2,), and the chi-square detector
    calibrates on base + (3,) and base + (4,).
    """
    base = _seed_tuple(seed)
    cm = costs(model, cost_denominator)
    strat = solve_strategy(model, knowledge, budget, cm)
    run = gen_run(model, n_intervals, base + (0,))
    return strat, cm, apply_strategy(run, strat, knowledge, cm, base + (1,))


def run_cell(model: IntervalModel, knowledge: KnowledgeModel | None = None,
             budget: float = 1.0, detector_mode: str = "idealized",
             alpha: float = 0.05, n_intervals: int = 100_000, seed=0,
             cost_denominator: str = "base-plus-anomaly") -> MetricsReport:
    """Simulate one cell end to end under its solved strategy.

    Streams are those of :func:`simulate_run`. The idealized detector reads
    only labels, so that mode draws no counts: it takes the anomaly flags
    and action codes from the first draws of base + (0,) and base + (1,),
    which equal the columns of the run :func:`simulate_run` builds, and
    flags them with :func:`idealized_verdicts`, so every metric field
    equals that run's bit for bit. Both modes score the truth and flag
    columns with one bincount that also counts the guesses drawn on
    base + (2,). ``realized_cost`` is :func:`realized_cost` of the action
    codes in both modes.

    The chi-square detector reads the counts of the full run. Its
    class-conditional flag rates are not analytic, so that mode first
    measures them on an independent calibration run (same strategy, derived
    seed) and hands them to the attacker as its knowledge; epsilon in the
    report stays the analytic deterministic-classifier value either way, so
    the two views sit side by side in one record.

    Degenerate anomaly rates produce a flagged record: with no anomalies
    (or no baselines) the strategy is a no-op and guessing error on
    anomalies can be undefined (nan).
    """
    knowledge = knowledge or KnowledgeModel.complete()
    base = _seed_tuple(seed)
    cm = costs(model, cost_denominator)
    strat = solve_strategy(model, knowledge, budget, cm)

    if detector_mode == "idealized":
        cfg = DetectorConfig.idealized(model.anomaly_rate, strat.p_waterfill,
                                       strat.p_fake, knowledge.tpr, knowledge.tnr)
        truth = draw_anomaly_flags(model, n_intervals, base + (0,))
        action = draw_actions(truth, strat, knowledge, base + (1,))
        flagged = idealized_verdicts(truth, action)
    elif detector_mode == "chi-square":
        obf = apply_strategy(gen_run(model, n_intervals, base + (0,)), strat, knowledge, cm,
                             base + (1,))
        cal = gen_run(model, n_intervals, base + (3,))
        cal_obf = apply_strategy(cal, strat, knowledge, cm, base + (4,))
        blind = DetectorConfig.chi_square(model.anomaly_rate, alpha)
        cal_flags = test_run(cal_obf, blind)
        fa = float(cal_flags[cal.is_anomaly].mean()) if cal.is_anomaly.any() else _NAN
        fb = float(cal_flags[~cal.is_anomaly].mean()) if (~cal.is_anomaly).any() else _NAN
        cfg = DetectorConfig.chi_square(model.anomaly_rate, alpha, fa, fb)
        flagged = test_run(obf, cfg)
        truth, action = obf.is_anomaly, obf.action
    else:
        raise ValueError(f"detector mode must be one of {DETECTOR_MODES}, got {detector_mode!r}")

    guess_err, guess_se, ce, ce_se = _score(truth, flagged, cfg, base + (2,))
    rcost, rcost_se = realized_cost(action, cm)

    return MetricsReport(
        r_p=model.anomaly_rate, intensity=model.intensity, slots=model.slots,
        base_rate=model.base_rate, tpr=knowledge.tpr, tnr=knowledge.tnr,
        budget=budget, p_waterfill=strat.p_waterfill, p_fake=strat.p_fake,
        epsilon=strat.epsilon, cost=strat.cost,
        feasible_optimal=strat.feasible_optimal,
        guess_err=guess_err, guess_err_se=guess_se,
        ce_bits=ce, ce_bits_se=ce_se,
        ideal_guess_err=1.0 - model.anomaly_rate,
        ideal_ce_bits=binary_entropy_bits(model.anomaly_rate),
        degenerate=strat.degenerate,
        realized_cost=rcost, realized_cost_se=rcost_se)


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for :func:`run_sweep`. It rejects, before any cell
    runs, every value a cell would reject, including a cell whose largest
    Poisson rate (b, the fake rate, or the waterfill total (S - 1) * w of
    one interval) is over numpy's limit."""

    anomaly_rates: tuple[float, ...]
    intensities: tuple[float, ...]
    slots: int = 10
    base_rate: float = 1.0
    knowledge: KnowledgeModel = field(default_factory=KnowledgeModel.complete)
    budget: float = 1.0
    detector_mode: str = "idealized"
    alpha: float = 0.05
    n_intervals: int = 100_000
    seed: int = 0
    cost_denominator: str = "base-plus-anomaly"

    def __post_init__(self):
        object.__setattr__(self, "anomaly_rates", tuple(float(r) for r in self.anomaly_rates))
        object.__setattr__(self, "intensities", tuple(float(i) for i in self.intensities))
        if not self.anomaly_rates or not self.intensities:
            raise ValueError("sweep grids must be non-empty")
        if not self.budget >= 0:
            raise ValueError(f"budget must be >= 0, got {self.budget!r}")
        if self.n_intervals < 1000:
            raise ValueError("sweeps need at least 1000 intervals per cell")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        for name, modes in (("detector_mode", DETECTOR_MODES),
                            ("cost_denominator", DENOMINATOR_MODES)):
            if getattr(self, name) not in modes:
                raise ValueError(f"{name} must be one of {modes}, got {getattr(self, name)!r}")
        for intensity, rp in product(self.intensities, self.anomaly_rates):
            try:
                model = IntervalModel(self.slots, self.base_rate, intensity, rp)
                cm = costs(model, self.cost_denominator)
                rate = max(model.anomaly_slot_rate, cm.fake_rate,
                           (model.slots - 1) * cm.waterfill_rate)
                if rate > _POISSON_RATE_MAX:
                    raise ValueError(f"intensity * base_rate = {model.anomaly_slot_rate!r} "
                                     f"needs a Poisson rate of {rate!r}, above numpy's "
                                     f"limit {_POISSON_RATE_MAX!r}")
            except ValueError as exc:
                raise ValueError(f"cell (R_p={rp}, I={intensity}): {exc}") from exc


def run_sweep(spec: SweepSpec) -> list[MetricsReport]:
    """Run every (intensity, anomaly rate) cell.

    Rows are ordered intensity-major, anomaly rate minor. Each cell gets the
    derived seed (spec.seed, rate index, intensity index), so any single
    cell can be re-run in isolation. A cell that fails with a domain error
    (``ValueError``: model or strategy validation, an infeasible target, a
    degenerate metric; ``ArithmeticError``: a float overflow or division by
    zero) is recorded with nan metrics and the exception text in ``error``,
    and the sweep goes on. Any other exception is a bug and propagates.
    """
    records = []
    for j, intensity in enumerate(spec.intensities):
        for i, rp in enumerate(spec.anomaly_rates):
            cell_seed = (spec.seed, i, j)
            try:
                model = IntervalModel(spec.slots, spec.base_rate, intensity, rp)
                rec = run_cell(model, spec.knowledge, spec.budget,
                               spec.detector_mode, spec.alpha, spec.n_intervals,
                               cell_seed, cost_denominator=spec.cost_denominator)
            except (ValueError, ArithmeticError) as exc:
                rec = MetricsReport(
                    r_p=float(rp), intensity=float(intensity), slots=spec.slots,
                    base_rate=spec.base_rate, tpr=spec.knowledge.tpr,
                    tnr=spec.knowledge.tnr, budget=spec.budget,
                    error=f"{type(exc).__name__}: {exc}")
            records.append(rec)
    return records


def feasible_region(records: Sequence[MetricsReport]) -> dict[float, list[float]]:
    """Anomaly rates with a feasible-optimal strategy, keyed by intensity."""
    region: dict[float, list[float]] = {}
    for rec in records:
        region.setdefault(rec.intensity, [])
        if rec.feasible_optimal and not rec.error:
            region[rec.intensity].append(rec.r_p)
    return {i: sorted(rs) for i, rs in region.items()}


def _fmt(v) -> str:
    # repr of the builtin float is byte-stable and round-trips exactly
    return repr(float(v))


def _csv_rows(cls, records, n_columns: int | None = None) -> list[str]:
    """One CSV line per record of dataclass ``cls``: its first n_columns fields,
    int and bool ones as integers, the rest as float reprs (1 writes 1.0)."""
    fmts = [(lambda v: str(int(v))) if f.type in ("int", "bool") else _fmt
            for f in fields(cls)[:n_columns]]
    return [",".join(fmt(v) for fmt, v in zip(fmts, astuple(r))) for r in records]


def sweep_to_csv(records: Sequence[MetricsReport], file, comment=None) -> None:
    """Write sweep records in the pinned column order (see SWEEP_CSV_HEADER).

    A failed cell keeps its row of nan metrics; its error text follows the
    rows as a ``# error R_p=... I=...: <text>`` comment line.
    """
    rows = _csv_rows(MetricsReport, records, _SWEEP_CSV_COLUMNS)
    # the error text is folded onto one line, whatever the message
    rows += [f"# error R_p={_fmt(r.r_p)} I={_fmt(r.intensity)}: {' '.join(r.error.split())}"
             for r in records if r.error]
    write_csv(file, comment, SWEEP_CSV_HEADER, rows)


@dataclass(frozen=True)
class CostPoint:
    """Analytic relative cost of shifting expected dispersion by factor k."""

    shift: float
    fake_cost: float
    waterfill_cost: float
    base_rate: float
    intensity: float
    wf_feasible: bool

    # the output name of each field above, in order: CSV columns and JSON keys
    NAMES = ("k", "C_f", "C_wf", "lambda", "I", "wf_feasible")


COST_CSV_HEADER = ",".join(CostPoint.NAMES)


def cost_curves(models: Sequence[IntervalModel], shifts: Sequence[float],
                denominator: str = "base-plus-anomaly") -> list[CostPoint]:
    """Evaluate both mechanisms' analytic costs over a shift grid.

    Fake anomalies can reach any k >= 1; waterfilling saturates at full
    suppression, beyond which the point is marked infeasible (nan cost)
    rather than dropped.
    """
    for k in shifts:
        if not 1.0 <= k < math.inf:
            raise ValueError(f"shift grid must be finite and >= 1, got {k}")
    points = []
    for model in models:
        for k in map(float, shifts):
            try:
                wf_rate, ok = solve_waterfill_rate(model, k), True
            except InfeasibleTargetError:
                wf_rate, ok = _NAN, False
            cm = CostModel(model, solve_fake_rate(model, k), wf_rate, denominator)
            points.append(CostPoint(k, cm.fake_cost, cm.waterfill_cost, model.base_rate,
                                    model.intensity, ok))
    return points


def cost_curves_to_csv(points: Sequence[CostPoint], file, comment=None) -> None:
    write_csv(file, comment, COST_CSV_HEADER,
              _csv_rows(CostPoint, points))

"""Acceptance suite: every shipped claim checked at its stated tolerance.

One test per criterion, in criterion order, so the ``pytest -v`` status
lines double as the per-criterion verdict. Each test also prints a
"CRITERION n: PASS/FAIL" line with the measured numbers (visible with -s,
or in the captured output of a failure). All statistical checks run at
fixed seeds; 3-sigma bands use the estimator standard errors.
"""

import io
import math
import subprocess
import sys
import time
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import chi2

from lpwanleak import (
    CardinalityDistance,
    DetectorConfig,
    IntervalModel,
    KnowledgeModel,
    Strategy,
    SweepSpec,
    anomaly_dispersion,
    apply_strategy,
    average_error,
    average_error_mc,
    binary_entropy_bits,
    chi_square_threshold,
    conditional_entropy,
    conditional_entropy_mc,
    costs,
    ensemble_dispersion,
    enumerate_observables,
    epsilon_of,
    expected_dispersion_fake,
    expected_dispersion_waterfill,
    feasible_region,
    gen_run,
    load_fixture,
    posterior_table,
    run_dispersion,
    run_sweep,
    sweep_to_csv,
    test_run as classify_run,
)

from conftest import FIXTURE_PATHS, ROOT
from exact_size import dispersion_test_size

SEED = 20260819
ALPHA = 0.05
N_INTERVALS = 100_000
GRID_RP = tuple(round(0.05 * i, 2) for i in range(1, 20))
GRID_I = (10.0, 20.0, 30.0, 40.0)


def _verdict(n: int, ok: bool, detail: str = "") -> None:
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


@pytest.fixture(scope="module")
def complete_sweep():
    spec = SweepSpec(anomaly_rates=GRID_RP, intensities=GRID_I,
                     n_intervals=N_INTERVALS, seed=SEED)
    t0 = time.monotonic()
    records = run_sweep(spec)
    return records, time.monotonic() - t0


@pytest.fixture(scope="module")
def incomplete_sweep():
    spec = SweepSpec(anomaly_rates=GRID_RP, intensities=GRID_I,
                     knowledge=KnowledgeModel(tpr=0.7, tnr=0.99),
                     n_intervals=N_INTERVALS, seed=SEED)
    t0 = time.monotonic()
    records = run_sweep(spec)
    return records, time.monotonic() - t0


def test_criterion_1_baseline_dispersion_and_false_positive_rate():
    # No anomalies: mean per-interval dispersion must be 1.00 +/- 0.01 and
    # the chi-square detector's false-positive rate within 3 sigma of the
    # test's exact size, per (S, lambda) cell, in under a minute. The
    # (S-1)*D statistic is chi-square only in the large-count limit and
    # takes lattice values, so at these counts the classical test's size
    # falls a little below alpha (0.0476 at S=10, lambda=1). The band is
    # centred on that size, enumerated exactly against scipy's quantile
    # independently of the code under test; sigma is the binomial standard
    # error at that size.
    t0 = time.monotonic()
    failures = []
    details = []
    cfg = DetectorConfig.chi_square(0.0, ALPHA)
    for si, slots in enumerate((10, 20)):
        crit = float(chi2.ppf(1.0 - ALPHA, slots - 1))
        if chi_square_threshold(slots, ALPHA) != crit:
            failures.append(
                f"threshold at S={slots}: {chi_square_threshold(slots, ALPHA)!r} "
                f"!= chi2.ppf(1-alpha, S-1) = {crit!r}")
        for li, lam in enumerate((1.0, 5.0)):
            model = IntervalModel(slots, lam, 1.0, 0.0)
            run = gen_run(model, N_INTERVALS, (SEED, 1, si, li))
            _, _, d = run_dispersion(run.counts)
            mean_d = float(np.nanmean(d))
            fpr = float(np.mean(classify_run(run, cfg)))
            exact = dispersion_test_size(slots, lam, crit)
            sigma = math.sqrt(exact.size * (1.0 - exact.size) / N_INTERVALS)
            z = (fpr - exact.size) / sigma
            details.append(f"S={slots} lam={lam}: D={mean_d:.4f} fpr={fpr:.5f} "
                           f"exact={exact.size:.6f} z={z:+.2f}")
            if abs(mean_d - 1.0) > 0.01:
                failures.append(
                    f"mean dispersion at S={slots} lam={lam}: {mean_d:.4f} "
                    f"outside 1.00 +/- 0.01")
            if abs(z) > 3.0:
                failures.append(
                    f"false-positive rate at S={slots} lam={lam}: {fpr:.5f} "
                    f"outside exact size {exact.size:.6f} +/- {3.0 * sigma:.5f}")
    elapsed = time.monotonic() - t0
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _verdict(1, not failures, "; ".join(details))
    assert not failures, failures


def test_criterion_2_full_target_rates_and_injected_dispersion():
    # Solved full-anomaly fake rate and full-suppression waterfill rate
    # must back-substitute into the closed-form expected dispersion to
    # 1e-12, and runs injected at those rates must land on the targets
    # within +/- 0.05 over 1e5 intervals. Faking must be cheaper than
    # waterfilling on this grid.
    failures = []
    details = []
    knowledge = KnowledgeModel.complete()
    waterfill_all = Strategy(1.0, 0.0, 0.0, 0.0, True)
    fake_all = Strategy(0.0, 1.0, 0.0, 0.0, True)
    for ii, intensity in enumerate((10.0, 40.0)):
        anom = IntervalModel(10, 1.0, intensity, 1.0)
        base = IntervalModel(10, 1.0, intensity, 0.0)
        cm = costs(anom)
        d0 = anomaly_dispersion(anom)
        back_f = expected_dispersion_fake(anom, cm.fake_rate)
        back_w = expected_dispersion_waterfill(anom, cm.waterfill_rate)
        if abs(back_f - d0) > 1e-12 * d0:
            failures.append(f"I={intensity}: fake rate back-substitution off: "
                            f"{back_f!r} vs {d0!r}")
        if abs(back_w - 1.0) > 1e-12:
            failures.append(f"I={intensity}: waterfill rate back-substitution "
                            f"off: {back_w!r} vs 1.0")
        run_a = gen_run(anom, N_INTERVALS, (SEED, 2, ii, 0))
        obf_a = apply_strategy(run_a, waterfill_all, knowledge, cm, (SEED, 2, ii, 1))
        d_wf = ensemble_dispersion(obf_a.counts)
        run_b = gen_run(base, N_INTERVALS, (SEED, 2, ii, 2))
        obf_b = apply_strategy(run_b, fake_all, knowledge, cm, (SEED, 2, ii, 3))
        d_fk = ensemble_dispersion(obf_b.counts)
        details.append(f"I={intensity}: waterfilled D={d_wf:.4f}, "
                       f"faked D={d_fk:.4f} (target {d0:.4f})")
        if abs(d_wf - 1.0) > 0.05:
            failures.append(f"I={intensity}: waterfilled ensemble dispersion "
                            f"{d_wf:.4f} not within 0.05 of 1.0")
        if abs(d_fk - d0) > 0.05:
            failures.append(f"I={intensity}: faked ensemble dispersion "
                            f"{d_fk:.4f} not within 0.05 of {d0:.4f}")
        if not cm.fake_cost < cm.waterfill_cost:
            failures.append(f"I={intensity}: faking not cheaper "
                            f"({cm.fake_cost} vs {cm.waterfill_cost})")
    _verdict(2, not failures, "; ".join(details))
    assert not failures, failures


def _balance_sides(rp: float, x: float, y: float) -> tuple[float, float]:
    # x = P(hidden | anomaly), y = P(flagged | baseline). Left side is the
    # anomaly posterior given no flag, right side given a flag; a zero-bias
    # strategy makes them equal.
    rn = 1.0 - rp
    lhs = rp * x / (rn * (1.0 - y) + rp * x)
    rhs = rp * (1.0 - x) / (rp * (1.0 - x) + rn * y)
    return lhs, rhs


def test_criterion_3_posterior_balance_identities():
    # Complete knowledge: at P_wf = 1 - P_f both class posteriors coincide
    # to 1e-12 over 100 random draws. Incomplete knowledge: the same holds
    # at P_wf = (1 - P_tn * P_f) / P_tp, equivalently
    # P_f = (1 - P_tp * P_wf) / P_tn, over 100 draws of P_tp, P_tn in (0, 1].
    failures = []
    rng = np.random.default_rng((SEED, 3))
    for i in range(100):
        rp = rng.uniform(0.01, 0.99)
        p_f = rng.uniform(0.001, 0.999)
        p_wf = 1.0 - p_f
        lhs, rhs = _balance_sides(rp, p_wf, p_f)
        if abs(lhs - rhs) > 1e-12:
            failures.append(f"complete draw {i}: |lhs-rhs|={abs(lhs - rhs):.2e}")
        if abs(epsilon_of(rp, p_wf, p_f)) > 1e-12:
            failures.append(f"complete draw {i}: epsilon != 0")
    for i in range(100):
        tpr = 1.0 - rng.random()
        tnr = 1.0 - rng.random()
        while tpr + tnr <= 1.0:  # zero-bias pairs need tpr + tnr > 1
            tpr = 1.0 - rng.random()
            tnr = 1.0 - rng.random()
        y_lo = max(0.0, 1.0 - tpr)
        y_hi = min(tnr, 1.0)
        y = y_lo + (y_hi - y_lo) * rng.uniform(0.05, 0.95)
        p_f = y / tnr
        p_wf = (1.0 - y) / tpr
        rp = rng.uniform(0.01, 0.99)
        # the two closed forms describe the same family
        if abs(p_f - (1.0 - tpr * p_wf) / tnr) > 1e-12:
            failures.append(f"incomplete draw {i}: closed forms disagree")
        lhs, rhs = _balance_sides(rp, tpr * p_wf, tnr * p_f)
        if abs(lhs - rhs) > 1e-12:
            failures.append(
                f"incomplete draw {i}: |lhs-rhs|={abs(lhs - rhs):.2e} "
                f"(tpr={tpr:.4f} tnr={tnr:.4f})")
        if abs(epsilon_of(rp, p_wf, p_f, tpr, tnr)) > 1e-12:
            failures.append(f"incomplete draw {i}: epsilon != 0")
    _verdict(3, not failures, "100 complete + 100 incomplete draws at 1e-12")
    assert not failures, failures


def test_criterion_4_feasibility_regions(complete_sweep, incomplete_sweep):
    # Complete knowledge, unit budget: the feasible-optimal anomaly-rate
    # region (grid cells at step 0.05) must not widen as intensity grows.
    # Incomplete knowledge (tpr 0.7, tnr 0.99): no feasible-optimal cell
    # below R_p = 0.5 at intensities >= 30. Both sweeps at 1e5 intervals
    # per cell inside the 5-minute budget.
    records_c, t_c = complete_sweep
    records_i, t_i = incomplete_sweep
    failures = []
    errors = [(r.r_p, r.intensity, r.error) for r in records_c + records_i if r.error]
    if errors:
        failures.append(f"sweep cells errored: {errors}")
    region = feasible_region(records_c)
    widths = [len(region.get(i, [])) for i in GRID_I]
    if not all(a >= b for a, b in zip(widths, widths[1:])):
        failures.append(f"feasible widths increase with intensity: {widths}")
    offenders = [(r.r_p, r.intensity) for r in records_i
                 if r.feasible_optimal and r.r_p < 0.5 and r.intensity >= 30.0]
    if offenders:
        failures.append(f"incomplete-knowledge cells feasible below 0.5: {offenders}")
    if t_c + t_i > 300.0:
        failures.append(f"sweeps took {t_c + t_i:.0f}s, budget is 300s")
    _verdict(4, not failures,
             f"widths={widths}, offenders={len(offenders)}, "
             f"sweeps {t_c + t_i:.0f}s")
    assert not failures, failures


def test_criterion_5_reference_cell_guessing_error(complete_sweep):
    # R_p = 0.2, I = 40, complete knowledge, unit budget: the measured
    # guessing error lands in [0.55, 0.70].
    records, _ = complete_sweep
    cell = [r for r in records
            if abs(r.r_p - 0.2) < 1e-9 and r.intensity == 40.0]
    assert len(cell) == 1
    err = cell[0].guess_err
    ok = 0.55 <= err <= 0.70 and not cell[0].error
    _verdict(5, ok, f"guess_err={err:.4f}, se={cell[0].guess_err_se:.4f}")
    assert ok, f"guessing error {err} outside [0.55, 0.70]"


def test_criterion_6_feasible_cells_reach_prior_limits(complete_sweep):
    # Wherever a feasible-optimal zero-bias strategy exists, the measured
    # guessing error must sit within 3 sigma of 1 - R_p and the empirical
    # conditional entropy within 3 sigma of the binary entropy of R_p.
    records, _ = complete_sweep
    checked = 0
    trips = []
    for r in records:
        if not r.feasible_optimal or r.degenerate or r.error:
            continue
        checked += 1
        ge_target = 1.0 - r.r_p
        ce_target = binary_entropy_bits(r.r_p)
        if abs(r.guess_err - ge_target) > 3.0 * r.guess_err_se:
            trips.append(f"guess err at (R_p={r.r_p}, I={r.intensity}): "
                         f"{r.guess_err:.4f} vs {ge_target:.4f} "
                         f"+/- {3 * r.guess_err_se:.4f}")
        if abs(r.ce_bits - ce_target) > 3.0 * r.ce_bits_se:
            trips.append(f"cond entropy at (R_p={r.r_p}, I={r.intensity}): "
                         f"{r.ce_bits:.4f} vs {ce_target:.4f} "
                         f"+/- {3 * r.ce_bits_se:.4f}")
    ok = checked > 0 and not trips
    _verdict(6, ok, f"{checked} feasible-optimal cells, {2 * checked} "
                    f"3-sigma checks, {len(trips)} trips")
    assert ok, trips


def test_criterion_7_trace_fixtures_exact_vs_monte_carlo():
    # For every shipped fixture (supports of at most 8 messages):
    # Monte-Carlo average error and conditional entropy at budget 1e5 agree
    # with exact enumeration within 3 standard errors, and every reachable
    # observation's posterior sums to 1 within 1e-9.
    failures = []
    details = []
    dist = CardinalityDistance()
    assert FIXTURE_PATHS, "no fixtures shipped"
    for fi, path in enumerate(FIXTURE_PATHS):
        fx = load_fixture(path)
        longest = max(len(r) for r in fx.prior.support)
        assert longest <= 8, f"{fx.name}: fixture exceeds 8 messages"
        ae = average_error(fx.prior, fx.mechanism, dist, method="exact")
        ae_mc, ae_se = average_error_mc(fx.prior, fx.mechanism, dist,
                                        budget=N_INTERVALS, seed=(SEED, 7, fi, 0))
        if abs(ae_mc - ae) > 3.0 * ae_se + 1e-12:
            failures.append(f"{fx.name}: MC average error {ae_mc:.5f} vs "
                            f"exact {ae:.5f} +/- {3 * ae_se:.5f}")
        ce = conditional_entropy(fx.prior, fx.mechanism, method="exact")
        ce_mc, ce_se = conditional_entropy_mc(fx.prior, fx.mechanism,
                                              budget=N_INTERVALS,
                                              seed=(SEED, 7, fi, 1))
        if abs(ce_mc - ce) > 3.0 * ce_se + 1e-12:
            failures.append(f"{fx.name}: MC conditional entropy {ce_mc:.5f} "
                            f"vs exact {ce:.5f} +/- {3 * ce_se:.5f}")
        worst = 0.0
        for obs in enumerate_observables(fx.prior, fx.mechanism):
            table = posterior_table(fx.prior, fx.mechanism, obs)
            worst = max(worst, abs(math.fsum(table.values()) - 1.0))
        if worst > 1e-9:
            failures.append(f"{fx.name}: posterior normalization off by {worst:.2e}")
        details.append(f"{fx.name}: AE {ae_mc:.3f}/{ae:.3f}, CE {ce_mc:.3f}/{ce:.3f}")
    _verdict(7, not failures, "; ".join(details))
    assert not failures, failures


def test_criterion_8_figure_config_byte_determinism(tmp_path, repo_root):
    # Two fresh processes running the shipped figure-reproduction config
    # must write byte-identical CSVs.
    cfg = repo_root / "configs" / "figure_repro.cfg"
    payloads = []
    for i in range(2):
        out = tmp_path / f"sweep{i}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "lpwanleak", "sweep",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, cwd=repo_root)
        assert proc.returncode == 0, proc.stderr
        payloads.append(out.read_bytes())
    ok = payloads[0] == payloads[1] and payloads[0].startswith(b"# lpwanleak ")
    _verdict(8, ok, f"{len(payloads[0])} bytes per file")
    assert ok


def test_figure_csvs_match_golden(complete_sweep, incomplete_sweep):
    # The two sweep fixtures run the grids, seed and knowledge of
    # configs/figure_repro*.cfg. Their CSV bodies must equal the committed
    # golden files byte for byte, so any change to a figure column is seen.
    for (records, _), name in ((complete_sweep, "figure_repro.csv"),
                               (incomplete_sweep, "figure_repro_incomplete.csv")):
        buf = io.StringIO()
        sweep_to_csv(records, buf)
        assert buf.getvalue() == (ROOT / "tests" / "golden" / name).read_bytes().decode()


def test_realized_cost_matches_its_closed_form(complete_sweep, incomplete_sweep):
    # An interval is predicted anomalous with probability
    # q = R_p * tpr + (1 - R_p) * (1 - tnr) and then waterfilled with P_wf;
    # otherwise it is faked with P_f. So a row's realized relative dummy load
    # has expectation E = q * P_wf * C_wf + (1 - q) * P_f * C_f. Every row of
    # both figure grids must lie within a 3-sigma band of E, Bonferroni-widened
    # over the 152 rows (z ~ 4.29). The solver's cost,
    # R_p * P_wf * C_wf + (1 - R_p) * P_f * C_f, equals E under complete
    # knowledge only: it leaves out the mispredicted intervals, so under
    # incomplete knowledge it understates the load (see the README).
    rows = [r for records, _ in (complete_sweep, incomplete_sweep) for r in records]
    assert len(rows) == 152
    family = 2.0 * (1.0 - NormalDist().cdf(3.0))
    z = NormalDist().inv_cdf(1.0 - family / (2.0 * len(rows)))
    assert z == pytest.approx(4.29, abs=0.01)
    for r in rows:
        cm = costs(IntervalModel(r.slots, r.base_rate, r.intensity, r.r_p))
        q = r.r_p * r.tpr + (1.0 - r.r_p) * (1.0 - r.tnr)
        want = q * r.p_waterfill * cm.waterfill_cost + (1.0 - q) * r.p_fake * cm.fake_cost
        if r.tpr == r.tnr == 1.0:
            assert want == pytest.approx(r.cost, rel=1e-12, abs=1e-15)
        dev = abs(r.realized_cost - want)
        assert dev <= z * r.realized_cost_se + 1e-12, (r.r_p, r.intensity, r.tpr, dev,
                                                        r.realized_cost_se)

"""One simulation cell, end to end, with the intermediate objects shown.

Model -> solved strategy -> generated run -> obfuscated run -> attacker
flags and their posteriors -> metrics against the prior-only ideals. Also
prints a few rows of the obfuscated run to show the bookkeeping columns
(dummy share, action).
"""

import io

from lpwanleak import (DetectorConfig, IntervalModel, KnowledgeModel,
                       apply_strategy, class_posteriors, costs, gen_run, run_cell,
                       run_to_csv, solve_strategy, test_run)

MODEL = IntervalModel(slots=10, base_rate=1.0, intensity=40.0, anomaly_rate=0.2)
KNOWLEDGE = KnowledgeModel()
SEED = 20260819


def show_pipeline():
    cm = costs(MODEL)
    strat = solve_strategy(MODEL, KNOWLEDGE, budget=1.0)
    print(f"strategy: P_wf={strat.p_waterfill:.4f} P_f={strat.p_fake:.4f} "
          f"epsilon={strat.epsilon:.4f} cost={strat.cost:.4f} "
          f"feasible_optimal={strat.feasible_optimal}")

    run = gen_run(MODEL, 2000, (SEED, 0))
    obf = apply_strategy(run, strat, KNOWLEDGE, cm, (SEED, 1))
    added = int(obf.counts.sum() - run.counts.sum())
    print(f"run: {len(run)} intervals, {int(run.counts.sum())} real messages, "
          f"{added} dummies added")

    cfg = DetectorConfig.idealized(MODEL.anomaly_rate, strat.p_waterfill,
                                   strat.p_fake, KNOWLEDGE.tpr, KNOWLEDGE.tnr)
    flagged = test_run(obf, cfg)
    p_flag, p_unflag, _ = class_posteriors(cfg.anomaly_rate, 1.0 - cfg.flag_rate_anomaly,
                                           cfg.flag_rate_baseline)
    print(f"attacker: flagged {int(flagged.sum())} intervals; "
          f"posterior {p_unflag:.3f} (unflagged) / {p_flag:.3f} (flagged)")

    buf = io.StringIO()
    run_to_csv(obf[:2], buf)
    print("\nfirst two intervals as CSV:")
    print(buf.getvalue())


def show_metrics():
    rep = run_cell(MODEL, KNOWLEDGE, n_intervals=100_000, seed=SEED)
    print(f"guessing error  {rep.guess_err:.4f} +/- {rep.guess_err_se:.4f}  "
          f"(prior-only ideal {rep.ideal_guess_err:.2f})")
    print(f"cond. entropy   {rep.ce_bits:.4f} +/- {rep.ce_bits_se:.4f} bits "
          f"(ideal {rep.ideal_ce_bits:.4f})")
    print(f"realized cost   {rep.realized_cost:.4f} +/- {rep.realized_cost_se:.4f} "
          f"of budget {rep.budget}")


if __name__ == "__main__":
    show_pipeline()
    show_metrics()

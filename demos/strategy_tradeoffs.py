"""Where can the obfuscator erase the signal completely?

A strategy is feasible-optimal when some epsilon = 0 mix of waterfilling
and fakes fits the power budget; then the attacker's observable is
independent of the truth. This prints the feasibility map over anomaly
rates for several intensities, first with a perfect event predictor, then
with a realistic one (99% on baselines, 70% on anomalies), where optimal
choices below 50% anomaly rate disappear at high intensity.
"""

from lpwanleak import IntervalModel, KnowledgeModel, solve_strategy

RATES = [round(0.05 * i, 2) for i in range(1, 20)]
INTENSITIES = [10.0, 20.0, 30.0, 40.0]


def feasibility_row(intensity, knowledge):
    marks = []
    for rp in RATES:
        s = solve_strategy(IntervalModel(10, 1.0, intensity, rp), knowledge)
        marks.append("#" if s.feasible_optimal else ".")
    return "".join(marks)


def show(knowledge, label):
    print(f"\n{label}  (# = epsilon 0 within budget, . = best-effort)")
    print("        R_p " + " ".join(f"{r:.2f}"[2:] for r in RATES))
    for intensity in INTENSITIES:
        row = feasibility_row(intensity, knowledge)
        print(f"  I = {intensity:4.0f}  " + "  ".join(row))


def detail(rp, intensity, knowledge):
    s = solve_strategy(IntervalModel(10, 1.0, intensity, rp), knowledge)
    kind = "feasible-optimal" if s.feasible_optimal else "sub-optimal"
    print(f"  R_p={rp} I={intensity}: P_wf={s.p_waterfill:.3f} P_f={s.p_fake:.3f} "
          f"epsilon={s.epsilon:.3f} cost={s.cost:.3f}  [{kind}]")


if __name__ == "__main__":
    show(KnowledgeModel(), "complete knowledge")
    show(KnowledgeModel(tpr=0.7, tnr=0.99), "incomplete knowledge (tpr 0.7, tnr 0.99)")
    print("\nselected cells:")
    detail(0.5, 10.0, KnowledgeModel())
    detail(0.2, 40.0, KnowledgeModel())
    detail(0.3, 30.0, KnowledgeModel(tpr=0.7, tnr=0.99))

"""Traffic-analysis leakage metrics and dummy-traffic obfuscation for
event-driven LPWAN uplinks.

The package models uplink traffic as slotted Poisson intervals where rare
events ("anomalies") boost one slot's rate, an attacker that flags
anomalous intervals through the index of dispersion, an obfuscator that
spends dummy messages to waterfill real anomalies or fake new ones under a
power budget, and the trace-level Bayesian machinery (priors, additive
mechanisms, posterior, average error, conditional entropy) the
interval-level pipeline specializes.

Entry points: :mod:`lpwanleak.traffic` (generation), :mod:`lpwanleak.attacker`
(detection and guessing), :mod:`lpwanleak.obfuscator` (costs and strategy),
:mod:`lpwanleak.traces` (trace-level metrics), :mod:`lpwanleak.experiment`
(sweeps), :mod:`lpwanleak.cli` (command line; also `python -m lpwanleak`).
"""

__version__ = "0.1.0"

from .attacker import (DegenerateMetricError, DetectorConfig, RunVerdicts,
                       bin_timestamps, chi_square_threshold, class_posteriors,
                       ensemble_dispersion, guess_run, guessing_error,
                       guessing_error_se, idealized_metrics, idealized_verdicts,
                       run_dispersion, run_observable_class, test_run)
from .experiment import (COST_CSV_HEADER, SWEEP_CSV_HEADER, CostPoint,
                         MetricsReport, SweepSpec, binary_entropy_bits,
                         cost_curves, cost_curves_to_csv, feasible_region,
                         realized_cost, run_cell, run_sweep, simulate_run,
                         sweep_to_csv)
from .obfuscator import (DENOMINATOR_MODES, CostModel, InfeasibleTargetError,
                         KnowledgeModel, Strategy, anomaly_dispersion,
                         apply_strategy, costs, draw_actions, epsilon_of,
                         expected_dispersion_fake, expected_dispersion_waterfill,
                         power_cost, power_ok, solve_fake_rate,
                         solve_strategy, solve_waterfill_rate, strategy_json)
from .traces import (AnomalyCountDistance, CardinalityDistance,
                     FillToMechanism, Fixture, IdentityMechanism,
                     InconsistentObservationError, Mechanism, TableMechanism,
                     TracePrior, average_error, average_error_mc,
                     conditional_entropy, conditional_entropy_mc, distance,
                     enumerate_observables, load_fixture, optimal_guess,
                     posterior, posterior_table)
from .traffic import (ACTIONS, OBF_FAKE, OBF_NONE, OBF_WATERFILL,
                      RUN_CSV_HEADER, IntervalModel, Run, as_rng,
                      draw_anomaly_flags, gen_run, run_from_csv, run_to_csv,
                      to_timestamps, write_csv)

__all__ = [name for name in dir() if not name.startswith("_")]

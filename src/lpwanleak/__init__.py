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

# each module's __all__ is the one list of its public names
from .attacker import *
from .experiment import *
from .obfuscator import *
from .traces import *
from .traffic import *

__all__ = [name for name in dir() if not name.startswith("_")]

"""Distributed estimation of scaled frequency moments F_k / N^k.

Sketching maps composed with exponential min-sketches spread over gossip or
slotted-Aloha networks, with exact oracles validating every probabilistic
claim at desk scale.
"""

from .estimators import (
    Dataset,
    ErrorBudget,
    ams_reference_f2,
    estimate_fk,
    exact_fk,
    exact_nplus,
    f2_from_nplus,
)
from .network import (
    ComponentReport,
    Topology,
    build_rgg,
    connectivity_radius,
    giant_component,
    percolation_radius,
)
from .protocols import SpreadConfig, SpreadReport
from .simulator import (
    CapacityError,
    DataModel,
    ExperimentConfig,
    run_experiment,
    run_trial,
    solve_budget,
)
from .sketch_core import QuantConfig, harmonic_estimate

__version__ = "0.1.0"

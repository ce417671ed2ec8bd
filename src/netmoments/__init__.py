"""Distributed estimation of scaled frequency moments F_k / N^k.

Sketching maps composed with exponential min-sketches spread over gossip or
slotted-Aloha networks, with exact oracles validating every probabilistic
claim at desk scale.
"""

from .estimators import (
    Dataset,
    ErrorBudget,
    Histogram,
    ams_reference_f2,
    estimate_f2,
    estimate_fk,
    exact_fk,
    exact_nplus,
)
from .network import (
    ComponentReport,
    Topology,
    build_rgg,
    complete_topology,
    connectivity_radius,
    giant_component,
    percolation_radius,
)
from .protocols import (
    SpreadConfig,
    SpreadReport,
    measure_spreading,
)
from .simulator import (
    CapacityError,
    DataModel,
    ExperimentConfig,
    ExperimentReport,
    TrialResult,
    run_experiment,
    run_f2_trial,
    run_fk_trial,
    solve_budget,
)
from .sketch_core import (
    QuantConfig,
    SharedRandomness,
    bucket_map_eval,
    harmonic_estimate,
    root_map_eval,
    sign_map_eval,
)

__version__ = "0.1.0"

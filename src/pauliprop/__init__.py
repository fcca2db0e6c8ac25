"""Monte Carlo simulation of qubit circuits via signed Pauli-string sampling.

Expectation values Tr(E rho) are estimated by drawing Pauli strings from the
input state (forward direction) or the observable (backward direction) and
propagating them through each channel's Pauli transfer matrix, one random
column or row entry at a time. Per-sample magnitudes are governed by
stabilizer norms, which also drive the Hoeffding sample planner, the
robustness-of-magic classification, and the satisfiability-phase harness.
"""

__version__ = "0.1.0"

from .operators import (
    DenseOperator,
    FactoredState,
    LIBRARY_STATES,
    h_state,
    maximally_mixed,
    plus_state,
    t_state,
    zero_state,
)
from .channels import (
    PTM,
    ChannelApplication,
    NotCompletelyPositiveError,
    adaptive_norms,
    adjoint,
    adjoint_norm,
    channel_norm,
    choi_matrix,
    choi_trace_table,
    compose,
    make_adaptive,
    make_clifford,
    make_depolarizing,
    make_measure_z,
    make_reset,
    make_rotation,
    make_unitary_ptm,
    ptm_from_choi,
)
from .exact import OracleTooLargeError, run_exact
from .propagation import (
    BoundOverflowError,
    Circuit,
    CostReport,
    EstimateReport,
    cost_report,
    estimate,
    hoeffding_epsilon,
    plan_samples,
)
from .magic import (
    classification_census,
    classify_ptm,
    classify_ptms,
    classify_state,
    classify_states,
    enumerate_stabilizer_states,
    robustness,
    robustness_many,
    sample_hilbert_schmidt,
    state_census,
)
from .qaoa import (
    E3Lin2Instance,
    QaoaParams,
    epsilon_heis,
    epsilon_nest,
    generate_instance,
    run_experiment,
    vdn_estimate,
)

__all__ = [name for name in dir() if not name.startswith("_")]

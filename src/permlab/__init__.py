"""permlab: exact and MCMC-approximate {0,1} matrix permanents.

The package has three layers: exact algorithms (a permutation-sum oracle and
Gray-coded inclusion-exclusion), the annealed Metropolis chain over perfect
and near-perfect matchings with its sampling-parameter calculator, and an
experiment harness with a CLI for reproducible trial campaigns.
"""

from .chain import (
    ChainSampler,
    WeightTable,
    build_transition_matrix,
    enumerate_states,
    exact_stationary,
    log_weight,
    propose,
    step,
)
from .exact import gray_code_subsets, permanent_naive, permanent_ryser
from .feasibility import crossover, projected_time, ryser_ops, total_steps
from .fpras import (
    Estimate,
    PhaseStats,
    estimate_permanent,
    final_refinement,
    phase_ratio,
    run_phase,
    update_weights,
)
from .harness import (
    TrialConfig,
    TrialResult,
    aggregate,
    generate_suite,
    run_trials,
)
from .matrix import (
    Matching,
    Matrix,
    MatrixParseError,
    find_perfect_matching,
    generate_random,
    load_matrix,
    parse_matrix,
    save_matrix,
    serialize_matrix,
)
from .params import (
    PhaseSchedule,
    RelaxationFactors,
    SamplingParams,
    apply_relaxation,
    compute_params,
    phase_count_closed_form,
    phase_schedule,
    state_space_size,
)

__version__ = "0.1.0"

__all__ = [
    "ChainSampler",
    "Estimate",
    "Matching",
    "Matrix",
    "MatrixParseError",
    "PhaseSchedule",
    "PhaseStats",
    "RelaxationFactors",
    "SamplingParams",
    "TrialConfig",
    "TrialResult",
    "WeightTable",
    "aggregate",
    "apply_relaxation",
    "build_transition_matrix",
    "compute_params",
    "crossover",
    "enumerate_states",
    "estimate_permanent",
    "exact_stationary",
    "final_refinement",
    "find_perfect_matching",
    "generate_random",
    "generate_suite",
    "gray_code_subsets",
    "load_matrix",
    "log_weight",
    "parse_matrix",
    "permanent_naive",
    "permanent_ryser",
    "phase_count_closed_form",
    "phase_ratio",
    "phase_schedule",
    "projected_time",
    "propose",
    "run_phase",
    "run_trials",
    "ryser_ops",
    "save_matrix",
    "serialize_matrix",
    "state_space_size",
    "step",
    "total_steps",
    "update_weights",
]

"""permlab: exact and MCMC-approximate {0,1} matrix permanents.

The package has three layers: exact algorithms (a permutation-sum oracle and
Gray-coded inclusion-exclusion), the annealed Metropolis chain over perfect
and near-perfect matchings with its sampling-parameter calculator, and an
experiment harness with a CLI for reproducible trial campaigns.

The names below are the functions behind the CLI's subcommands and the
types they take and return; everything else is imported from its module.
"""

from .exact import permanent_naive, permanent_ryser
from .feasibility import crossover, projected_time, ryser_ops, total_steps
from .fpras import Estimate, estimate_permanent
from .harness import TrialConfig, TrialResult, aggregate, generate_suite, run_trials
from .matrix import (
    Matrix,
    MatrixParseError,
    generate_random,
    load_matrix,
    parse_matrix,
    save_matrix,
    serialize_matrix,
)
from .params import RelaxationFactors, SamplingParams, compute_params

__version__ = "0.1.0"

__all__ = [
    "Estimate",
    "Matrix",
    "MatrixParseError",
    "RelaxationFactors",
    "SamplingParams",
    "TrialConfig",
    "TrialResult",
    "aggregate",
    "compute_params",
    "crossover",
    "estimate_permanent",
    "generate_random",
    "generate_suite",
    "load_matrix",
    "parse_matrix",
    "permanent_naive",
    "permanent_ryser",
    "projected_time",
    "run_trials",
    "ryser_ops",
    "save_matrix",
    "serialize_matrix",
    "total_steps",
]

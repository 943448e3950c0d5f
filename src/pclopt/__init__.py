"""Capacitated assortment and price optimization under the paired
combinatorial logit choice model: choice probabilities, Lambert-W pricing,
exact solvers and bounds, greedy/GRASP heuristics, and a benchmark harness.
"""

from .bench import (
    DESK_GRID,
    FULL_SCALE_GRID,
    ExperimentRow,
    GeneratorConfig,
    compute_gap,
    derive_seed,
    emit_report,
    generate_instance,
    run_experiment,
)
from .choice import (
    ChoiceDistribution,
    choice_probabilities,
    expected_revenue,
    simulate_choice,
)
from .exact import (
    BranchBoundConfig,
    LpSolution,
    branch_and_bound,
    brute_force_oracle,
    knapsack_majorant_bound,
    lp_bound_answer,
    lp_relaxation,
    revenue_upper_bound,
)
from .heuristics import GraspConfig, grasp, greedy
from .instance import (
    Instance,
    ValidationError,
    is_feasible,
    pair_count,
    pair_index,
    pair_members,
    total_weight,
    validate_assortment,
    validate_prices,
)
from .objective import (
    LinearizedCoefficients,
    a_value,
    a_value_linearized,
    coefficients,
    incremental_a_delta,
)
from .pricing import (
    SolveResult,
    SolveStats,
    lambert_w0,
    optimal_uniform_price,
    price_for_a,
)

__version__ = "0.1.0"

__all__ = [
    "BranchBoundConfig",
    "ChoiceDistribution",
    "DESK_GRID",
    "ExperimentRow",
    "GeneratorConfig",
    "GraspConfig",
    "Instance",
    "LinearizedCoefficients",
    "LpSolution",
    "FULL_SCALE_GRID",
    "SolveResult",
    "SolveStats",
    "ValidationError",
    "a_value",
    "a_value_linearized",
    "branch_and_bound",
    "brute_force_oracle",
    "choice_probabilities",
    "coefficients",
    "compute_gap",
    "derive_seed",
    "emit_report",
    "expected_revenue",
    "generate_instance",
    "grasp",
    "greedy",
    "incremental_a_delta",
    "is_feasible",
    "knapsack_majorant_bound",
    "lambert_w0",
    "lp_bound_answer",
    "lp_relaxation",
    "optimal_uniform_price",
    "pair_count",
    "pair_index",
    "pair_members",
    "price_for_a",
    "revenue_upper_bound",
    "run_experiment",
    "simulate_choice",
    "total_weight",
    "validate_assortment",
    "validate_prices",
]

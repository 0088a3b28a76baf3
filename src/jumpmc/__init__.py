"""Monte Carlo Euler for jump diffusions with adaptive time stepping.

Simulates jump-diffusion SDEs on jump-adapted meshes, computes a
posteriori time-discretization error estimates from dual-weighted
densities, and drives two adaptive algorithms (a shared deterministic
mesh, or one mesh per realization) to meet a total error tolerance.
"""

from .controller import (
    AdaptiveRunReport,
    AdaptParams,
    MonteCarloResult,
    StatParams,
    TimeControlledRealization,
    ToleranceBudget,
    algorithm_d,
    algorithm_s,
    change_M,
    control_time_error,
    monte_carlo,
    refine_deterministic,
    run_mesh_batch,
    run_stochastic_batch,
    sample_stats,
    split_tolerance,
    statistical_error_bound,
    stopping_deterministic,
)
from .density import (
    cutoff_density_S,
    rho_per_interval,
    rho_per_step,
)
from .duals import (
    DualWeights,
    backward_duals,
    euler_operator_derivatives,
    jump_operator_derivatives,
)
from .errors import (
    CapabilityError,
    ConvergenceError,
    EvaluationError,
    JumpMCError,
    ParameterError,
    PathDivergenceError,
    RefinementDepthError,
)
from .euler import (
    EulerPath,
    bridge_split,
    brownian_bridge_refine,
    euler_path,
    sample_wiener_increments,
)
from .jumps import (
    AugmentedGrid,
    IntensityIntegral,
    JumpRealization,
    build_augmented_grid,
    intensity_integral_for,
    jump_times_from_exponentials,
    no_jumps,
    sample_jump_times,
    sample_jumps,
    sample_marks,
    uniform_mesh,
)
from .model import (
    JumpDiffusionModel,
    build_model,
    finite_difference_adapter,
    oscillator_problem,
    pure_jump_problem,
)
from .rng import SeedConfig, realization_streams, stream

__version__ = "0.1.0"

__all__ = [
    "AdaptParams",
    "AdaptiveRunReport",
    "AugmentedGrid",
    "CapabilityError",
    "ConvergenceError",
    "DualWeights",
    "EulerPath",
    "EvaluationError",
    "IntensityIntegral",
    "JumpDiffusionModel",
    "JumpMCError",
    "JumpRealization",
    "MonteCarloResult",
    "ParameterError",
    "PathDivergenceError",
    "RefinementDepthError",
    "SeedConfig",
    "StatParams",
    "TimeControlledRealization",
    "ToleranceBudget",
    "algorithm_d",
    "algorithm_s",
    "backward_duals",
    "bridge_split",
    "brownian_bridge_refine",
    "build_augmented_grid",
    "build_model",
    "change_M",
    "control_time_error",
    "cutoff_density_S",
    "euler_operator_derivatives",
    "euler_path",
    "finite_difference_adapter",
    "intensity_integral_for",
    "jump_operator_derivatives",
    "jump_times_from_exponentials",
    "monte_carlo",
    "no_jumps",
    "oscillator_problem",
    "pure_jump_problem",
    "refine_deterministic",
    "rho_per_interval",
    "rho_per_step",
    "run_mesh_batch",
    "run_stochastic_batch",
    "sample_jump_times",
    "sample_jumps",
    "sample_marks",
    "sample_stats",
    "sample_wiener_increments",
    "split_tolerance",
    "statistical_error_bound",
    "stopping_deterministic",
    "stream",
    "uniform_mesh",
]

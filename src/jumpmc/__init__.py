"""Monte Carlo Euler for jump diffusions with adaptive time stepping.

Simulates jump-diffusion SDEs on jump-adapted meshes, computes a
posteriori time-discretization error estimates from dual-weighted
densities, and drives two adaptive algorithms (a shared deterministic
mesh, or one mesh per realization) to meet a total error tolerance.

The package exports the drivers and their reports, the batch engines,
the statistics primitives, the seeds, what a model author needs and the
errors.  The layers they run on are in the submodules (``jumpmc.euler``,
``jumpmc.duals``, ``jumpmc.density``, ``jumpmc.jumps``, ``jumpmc.rng``).
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
from .errors import (
    CapabilityError,
    ConvergenceError,
    EvaluationError,
    JumpMCError,
    ParameterError,
    PathDivergenceError,
    RefinementDepthError,
)
from .jumps import uniform_mesh
from .model import (
    JumpDiffusionModel,
    UniformMarks,
    build_model,
    finite_difference_adapter,
    oscillator_problem,
    pure_jump_problem,
)
from .rng import SeedConfig

__version__ = "0.1.0"

__all__ = [
    "AdaptParams",
    "AdaptiveRunReport",
    "CapabilityError",
    "ConvergenceError",
    "EvaluationError",
    "JumpDiffusionModel",
    "JumpMCError",
    "MonteCarloResult",
    "ParameterError",
    "PathDivergenceError",
    "RefinementDepthError",
    "SeedConfig",
    "StatParams",
    "TimeControlledRealization",
    "ToleranceBudget",
    "UniformMarks",
    "algorithm_d",
    "algorithm_s",
    "build_model",
    "change_M",
    "control_time_error",
    "finite_difference_adapter",
    "monte_carlo",
    "oscillator_problem",
    "pure_jump_problem",
    "refine_deterministic",
    "run_mesh_batch",
    "run_stochastic_batch",
    "sample_stats",
    "split_tolerance",
    "statistical_error_bound",
    "stopping_deterministic",
    "uniform_mesh",
]

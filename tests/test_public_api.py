"""The package namespace is the public API, and only it.

``jumpmc`` exports the drivers and their reports, the batch engines, the
statistics primitives, the seeds, what a model author needs and the
errors.  The numerical layers are imported from their modules
(``jumpmc.euler``, ``jumpmc.duals``, ...), so a name can join or leave
the package only by a change to this list.
"""

from types import ModuleType

import jumpmc

PUBLIC_API = [
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


def test_all_is_exactly_the_public_api():
    assert jumpmc.__all__ == PUBLIC_API


def test_every_exported_name_resolves():
    namespace = {}
    exec("from jumpmc import *", namespace)
    for name in PUBLIC_API:
        assert namespace[name] is getattr(jumpmc, name)


def test_the_package_binds_no_public_name_outside_all():
    bound = {
        name
        for name, value in vars(jumpmc).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert bound == set(PUBLIC_API)

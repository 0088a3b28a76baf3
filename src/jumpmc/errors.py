"""Exception types shared across the package."""


class JumpMCError(Exception):
    """Base class for all package errors.

    Attributes:
        realization: absolute index of the failing realization, or None
            when the failure is not tied to a realization stream.
    """

    def __init__(self, message: str = "", realization: int = None):
        super().__init__(message)
        self.realization = realization


class ParameterError(JumpMCError, ValueError):
    """An argument is outside its documented domain."""


class CapabilityError(JumpMCError):
    """The model lacks a callback required by the requested computation."""


class EvaluationError(JumpMCError):
    """A model callback produced something unusable (bad shape, NaN,
    negative intensity)."""


class PathDivergenceError(EvaluationError):
    """A simulated path left the representable range.

    Attributes:
        step: index of the Euler step at which divergence was detected.
    """

    def __init__(self, message: str, step: int, realization: int = None):
        super().__init__(message, realization)
        self.step = step


class RefinementDepthError(JumpMCError):
    """A step refinement would go below the minimum step floor."""


class ConvergenceError(JumpMCError):
    """An iterative routine hit its iteration cap before meeting its
    tolerance."""

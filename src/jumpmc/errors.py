"""Exception types shared across the package, and its integer check."""

import operator


class JumpMCError(Exception):
    """Base class for all package errors.

    Attributes:
        realization: absolute index of the failing realization, or None
            when the failure is not tied to a realization stream.
    """

    def __init__(self, message: str = "", realization: int = None):
        super().__init__(message)
        self.realization = realization

    def __reduce__(self):
        # Rebuilt without __init__, whose signature differs by subclass, so
        # an error raised in a pool worker reaches the caller whole.
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args, state):
    error = cls.__new__(cls, *args)
    error.args = args
    error.__dict__.update(state)
    return error


class ParameterError(JumpMCError, ValueError):
    """An argument is outside its documented domain."""


def check_integer(name, value, least=None):
    """``value`` as an int (numpy integers too); ParameterError unless it
    is an integer, not a bool, of at least ``least`` (if given)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")
    return value


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

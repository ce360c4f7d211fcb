"""Exception hierarchy for the filter, certifier and simulation layers."""

from __future__ import annotations


class EkfCertError(Exception):
    """Base class for all package-specific failures."""


class ConfigurationError(EkfCertError):
    """Invalid user-supplied configuration: shapes, signs, definiteness, names."""


class PreconditionError(EkfCertError):
    """An operation's stated precondition does not hold for these inputs."""


class RunFailure(EkfCertError):
    """A run stopped at a known time; ``time`` is the time it failed at."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class ModelEvaluationError(RunFailure):
    """A model callback produced a non-finite value, or was given a non-finite state."""


class DivergenceError(RunFailure):
    """An integrated state left the finite range."""


class CovarianceBoundViolation(RunFailure):
    """The covariance lost positive definiteness.

    All downstream guarantees are conditioned on uniform eigenvalue bounds
    for P(t), so this is surfaced as an error rather than silently
    projected away.
    """

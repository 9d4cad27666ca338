"""Exception types shared across the package."""

from __future__ import annotations


class SimpactError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SimpactError, ValueError):
    """Operands have incompatible dimensions."""


class NotPositiveDefiniteError(SimpactError, ValueError):
    """A matrix that must be symmetric positive definite is not."""


class DegenerateNormalsError(SimpactError, ValueError):
    """A set of contact normals is linearly dependent under the metric.

    ``indices`` names the offending subset when it could be identified.
    """

    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


class StepFailureError(SimpactError, RuntimeError):
    """An implicit time step did not converge.

    Carries the last residual norm and iteration count for diagnostics.
    A failure in a simulation also names ``t``, the start of the step,
    and ``contacts``, the contacts held in it (empty for a free step).
    """

    def __init__(self, message, residual_norm=None, iterations=None, t=None, contacts=()):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations
        self.t = t
        self.contacts = tuple(contacts)


class ImpactLocationError(SimpactError, RuntimeError):
    """Impact localization did not converge, or its solution failed a check.

    ``t`` is the start of the step being localized, ``contacts`` the
    contacts crossing in it, and ``residual_norm`` the last Newton
    residual norm.
    """

    def __init__(self, message, t=None, contacts=(), residual_norm=None):
        super().__init__(message)
        self.t = t
        self.contacts = tuple(contacts)
        self.residual_norm = residual_norm


class DesignError(SimpactError, RuntimeError):
    """Design optimization failed (rank collapse or iteration cap)."""


class ConfigError(SimpactError, ValueError):
    """A scenario configuration file is malformed or inconsistent.

    :func:`simpact.stepper.simulate` raises it too, for every input it
    rejects before the first step.
    """


class EnergyGainError(SimpactError, RuntimeError):
    """An impact event produced kinetic energy, which must never happen."""


class VerificationError(SimpactError, AssertionError):
    """A numerical verification helper found an inconsistency."""

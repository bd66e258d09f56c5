"""Exception types shared across the package.

Everything numerical raises a subclass of DimerNMError so the CLI can map
failures to a single exit code without string-matching messages.
"""


class DimerNMError(Exception):
    """Base class for all package errors."""


class DimensionError(DimerNMError):
    """Operator or state shape inconsistent with the declared subsystem dims."""


class NonHermitianError(DimerNMError):
    """Input required to be Hermitian deviates beyond tolerance."""


class SingularSystemError(DimerNMError):
    """Linear system is singular or rank-deficient beyond tolerance.

    Carries the condition-number estimate that triggered the failure.
    """

    def __init__(self, message, cond=None):
        if cond is not None:
            message = f"{message} (condition estimate {cond:.3e})"
        super().__init__(message)
        self.cond = cond


class NonUniqueSteadyStateError(DimerNMError):
    """Generator kernel is degenerate; the steady state is not unique."""


class NumericalDriftError(DimerNMError):
    """A conserved quantity drifted beyond tolerance during integration."""


class ConfigError(DimerNMError):
    """Malformed run configuration (unknown key, bad value, missing file)."""

"""Exception and warning types shared across the package."""


class OptomechError(Exception):
    """Base class for all library errors."""


class UnsupportedRegimeError(OptomechError):
    """Parameters fall outside the regime the solver supports (e.g. an
    inverted effective potential, 1 + 4*d2 <= 0, for constant squeezing)."""


class DomainError(OptomechError):
    """An argument lies outside the span covered by the available data."""


class SingularFactorError(OptomechError):
    """A closed form hits a singular parameter value."""


class ValidationError(OptomechError):
    """A supplied or computed object violates a required identity."""


class CutoffInsufficientError(OptomechError):
    """A truncated-basis state leaks into the reserved tail of the basis."""

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class ConvergenceError(OptomechError):
    """Norm preservation or the step-halving check failed."""

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class ConfigError(OptomechError):
    """Invalid run configuration; the message names the offending key."""


class ValidityWarning(UserWarning):
    """A perturbative closed form was evaluated outside its comfort zone."""

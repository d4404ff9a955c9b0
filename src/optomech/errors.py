"""Exception and warning types shared across the package.  None refuses a
parameter sector as such: constant squeezing is solved for every real d2."""


class OptomechError(Exception):
    """Base class for all library errors."""


class DomainError(OptomechError):
    """An argument lies outside the span covered by the available data."""


class SingularFactorError(OptomechError):
    """A closed form hits a singular parameter value."""


class ValidationError(OptomechError):
    """A supplied object violates a required identity.  No engine stage
    raises it: the test reference raises it for a malformed covariance
    matrix, and the benchmark's tracer reads it to count failed measures."""


class NonFiniteError(OptomechError):
    """A computed moment or measure overflowed or became undefined (e.g. at
    very long times under parametric resonance)."""


class CutoffInsufficientError(OptomechError):
    """A state fills the reserved tail of its basis, or a basis passes the cap."""

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

"""Exception hierarchy.

ConfigError maps to CLI exit code 2, NumericalError and subclasses to 3,
RankCheckFailure to 4.
"""


class StabregError(Exception):
    """Base class for all package errors."""


class ConfigError(StabregError):
    """Invalid configuration or inconsistent dimensions/parameters."""


class DimensionError(ConfigError):
    """Operator/map dimensions do not line up; names the offending factor."""


class UsageError(ConfigError):
    """A function was called outside its contract (bad grid, bad targets...)."""


class NumericalError(StabregError):
    """A numerical computation failed or missed its accuracy target."""


class EigenDecompositionError(NumericalError):
    """The eigenvalue iteration did not converge."""


class SingularityError(NumericalError):
    """Requested resolvent point (numerically) touches the spectrum."""


class TranslationRequiredError(NumericalError):
    """Fractional power requested for a spectrum not in the open right half-plane."""


class IllConditionedBasisError(NumericalError):
    """Eigenvector basis too ill-conditioned for a spectral calculus operation."""


class IdentityViolationError(NumericalError):
    """A structural identity check failed beyond tolerance (wiring bug guard)."""


class SaturationError(NumericalError):
    """Matrix exponential overflowed for a strongly unstable operator."""


class ResonanceError(ConfigError):
    """Translation constant resonates with a Dirichlet-Laplacian eigenvalue."""


class SynthesisError(NumericalError):
    """Feedback synthesis failed (uncontrollable mode, singular Gramian...)."""


class RankCheckFailure(StabregError):
    """Controllability/observability rank check failed; carries the margin table."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report

"""Exception hierarchy for spectralab.

Every error raised by the package derives from SpectraLabError so callers
(and the CLI exit-code mapping) can distinguish package failures from bugs.
"""


class SpectraLabError(Exception):
    """Base class for all spectralab errors."""


class DegenerateSystemError(SpectraLabError):
    """Iterated function system with fewer than two maps."""


class InvalidRatioError(SpectraLabError):
    """Contraction ratio outside the open interval (0, 1)."""


class BudgetError(SpectraLabError):
    """Atom or matrix budget exceeded."""


class EvaluationError(SpectraLabError):
    """Non-finite value met while evaluating a patch map or its gradient."""


class LipschitzBoundError(EvaluationError):
    """Finite-difference gradient exceeds the declared Lipschitz estimate."""


class ResolutionError(SpectraLabError):
    """Requested radius below what the atom cloud can resolve."""


class DimensionMismatchError(SpectraLabError):
    """Ambient dimensions of combined measures disagree."""


class SupportTooLargeError(SpectraLabError):
    """Measure support does not fit in the torus localization box."""


class DegenerateKernelError(SpectraLabError):
    """Coincident atoms make a singular kernel matrix ill defined."""


class NegativeDensityError(SpectraLabError):
    """Operator route requires a nonnegative density; use the sign-framed route."""


class QuadratureError(SpectraLabError):
    """Adaptive quadrature failed to converge within its budget."""


class PredictionUnavailableError(SpectraLabError):
    """Trace prediction requested for a component of non-integer dimension."""


class SaturationError(SpectraLabError):
    """Argument so large the exponential Young function would overflow."""


class SolverError(SpectraLabError):
    """Dense eigensolver failed; message carries a condition summary."""


class SpectralWindowError(SpectraLabError):
    """Analysis window empty or spectrum too short for it."""


class ConfigError(SpectraLabError):
    """Invalid experiment configuration."""


class ScenarioError(ConfigError):
    """Unknown scenario or measure name, or a parameter the measure does not take."""

"""Exception hierarchy for the disc-construction pipeline."""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class ParameterDimensionMismatch(PipelineError):
    """A parameter vector or exponent does not match the parameter count."""


class NoConvergence(PipelineError):
    """An iterative solve ran out of iterations before reaching tolerance."""


class EllipticityViolation(PipelineError):
    """The quadratic coefficient left the admissible range [0, 1/2 - margin)."""


class SingularNormalizationMatrix(PipelineError):
    """A weighted-degree normalization system is numerically singular."""


class EmptySampleGrid(PipelineError):
    """A parameter fit was asked for over an empty list of sample points."""


class NotStarShaped(PipelineError):
    """The level function is not radially monotone; slice radius too large."""


class NoRoot(PipelineError):
    """Bracketing of the radial level equation failed along some ray."""


class GridMismatch(PipelineError):
    """Boundary samples do not match the operator's grid."""


class AliasingRisk(PipelineError):
    """Input spectrum carries too much energy near the Nyquist band."""


class ZeroOnCurve(PipelineError):
    """The linearization coefficient nearly vanishes on the slice boundary."""


class NonzeroWinding(PipelineError):
    """The argument of the coefficient does not return to its start."""


class ValidityEscape(PipelineError):
    """An evaluation point left the configured validity region."""


class TargetTooCloseToBoundary(PipelineError):
    """No extension method meets the error budget at the requested point."""


class SpecParseError(PipelineError):
    """Manifold description file could not be parsed."""


class SchemaViolation(PipelineError):
    """Manifold description violates a structural requirement."""

"""Exception types shared across the package."""


class ThickenError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(ThickenError):
    """Operands live in different ambient dimensions, or a dimension is invalid."""


class AmbiguousPredicate(ThickenError):
    """A geometric quantity landed inside the tolerance band around a threshold.

    The caller asked a yes/no question whose answer cannot be trusted at the
    configured tolerance; re-pose the question away from the threshold.
    """


class MedialAxisProximity(ThickenError):
    """Nearest-point projection is not reliably unique at this input."""


class SimplexViolation(ThickenError):
    """A vertex set failed the simplex predicate of its complex."""


class SpecMismatch(ThickenError):
    """Two objects carry different ComplexSpec values (scale/flavor/shape)."""


class UnsupportedShape(ThickenError):
    """Shape kind or parameters outside the supported catalogue."""


class SizeLimit(ThickenError):
    """Input exceeds a documented desk-scale cap."""


class ConfigError(ThickenError):
    """Malformed harness configuration."""


class InvalidInput(ThickenError, ValueError):
    """A value outside its documented domain: weights that are not a
    probability vector, coincident points, a malformed measure file, a
    non-positive sample count."""

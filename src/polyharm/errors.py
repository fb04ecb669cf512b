"""Exception types shared across the toolkit."""


class PolyharmError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatchError(PolyharmError):
    """Jet operands disagree in dimension, base point, or scalar type, or a
    space form model has a dimension below 2 or a curvature outside -1, 0, 1."""


class DegreeError(PolyharmError):
    """Operation needs more truncation degree than the jet carries."""


class SingularDivisionError(PolyharmError):
    """Division by a jet whose value at the base point is zero.

    Signals that the base point sits on the singular set of the expression
    (for instance x = a for an inversion); samplers must avoid such points
    rather than have the algebra mask them.
    """


class ChartDomainError(PolyharmError):
    """A point falls outside the conformal chart (|x| >= 1 on the ball, or
    an image point escapes the target chart)."""


class MapValidationError(PolyharmError):
    """Conformal map parameters violate the family's invariants."""


class NonpositiveFactorError(PolyharmError):
    """The conformal factor is not positive at the requested point."""


class DoubleRangeError(PolyharmError):
    """A float-mode quantity leaves the range of normal doubles, which exact
    mode does not have: refused, not read as a zero or a chart boundary."""


class AdmissibleRegionError(PolyharmError):
    """Rejection sampling could not find enough admissible points."""


class InterpolationError(PolyharmError):
    """Radial samples are inconsistent with a polynomial of the stated degree."""


class ConfigError(PolyharmError):
    """Configuration file is missing, malformed, or violates the schema."""

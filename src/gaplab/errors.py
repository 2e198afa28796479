"""Exception types raised by gaplab.

All inherit from ValueError so callers may catch broadly; the concrete
classes exist so tests and the CLI can name the failure mode.
"""


class GaplabError(ValueError):
    """Base class for all gaplab errors."""


class DimensionError(GaplabError):
    """Shapes or dimensions of the inputs are incompatible."""


class DomainError(GaplabError):
    """A scalar parameter lies outside its admissible range."""


class BasisError(GaplabError):
    """A family of vectors fails the orthonormality requirement."""


class SingularDensityError(GaplabError):
    """The requested density does not exist for a rank-deficient matrix."""


class EmptyShellError(GaplabError):
    """No eigenvalue pair falls inside the requested energy window."""


class ConfigError(GaplabError):
    """An experiment configuration is malformed or violates an invariant."""

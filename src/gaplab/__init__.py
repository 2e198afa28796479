"""gaplab: GAP measures, conditional wave functions, and Haar-random Monte
Carlo experiments on finite-dimensional complex Hilbert spaces."""

__version__ = "0.28.2"

from .errors import (
    BasisError,
    ConfigError,
    DimensionError,
    DomainError,
    EmptyShellError,
    GaplabError,
    SingularDensityError,
)
from .hilbert import (
    DensityMatrix,
    canonical_density,
    trace_norm,
)
from .randomness import (
    RngStream,
    ginibre,
    haar_unitary,
    random_ons,
    uniform_sphere,
)
from .gap import (
    gap_cap_probability,
    gap_polynomial_mean,
    gap_sphere_density,
)
from .typicality import (
    TestFunction,
    cap_indicator,
    overlap_sq,
    polynomial,
    real_part,
)

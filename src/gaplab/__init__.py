"""gaplab: GAP measures, conditional wave functions, and Haar-random Monte
Carlo experiments on finite-dimensional complex Hilbert spaces."""

__version__ = "0.16.1"

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
    BipartiteState,
    DensityMatrix,
    canonical_density,
    reduced_density_matrix,
    trace_norm,
)
from .randomness import (
    RngStream,
    ginibre,
    haar_unitary,
    random_ons,
    sample_complex_gaussian,
    uniform_sphere,
)
from .gap import (
    gap_sphere_density,
    sample_adjusted_gaussian,
    sample_gap,
)
from .typicality import (
    TestFunction,
    cap_indicator,
    gap_expectation,
    overlap_sq,
    polynomial,
    random_purification,
    real_part,
)

"""gaplab: GAP measures, conditional wave functions, and Haar-random Monte
Carlo experiments on finite-dimensional complex Hilbert spaces."""

__version__ = "0.11.0"

from .errors import (
    BasisError,
    ConfigError,
    DimensionError,
    DomainError,
    EmptyShellError,
    GaplabError,
    SingularDensityError,
    SingularProjectionError,
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
    random_onb,
    random_ons,
    sample_complex_gaussian,
    uniform_sphere,
)
from .gap import (
    covariance_estimate,
    gap_sphere_density,
    gaussian_density,
    sample_adjusted_gaussian,
    sample_gap,
    sample_gaussian,
)
from .conditional import (
    DiscreteMeasure,
    adjust,
    conditional_measure,
    integrate,
    project_to_sphere,
    random_basis_measure,
    random_purification,
    raw_conditional_measure,
)
from .typicality import (
    TestFunction,
    cap_indicator,
    gap_expectation,
    overlap_sq,
    polynomial,
    real_part,
)

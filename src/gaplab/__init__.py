"""gaplab: GAP measures, conditional wave functions, and Haar-random Monte
Carlo experiments on finite-dimensional complex Hilbert spaces."""

__version__ = "0.7.0"

from .errors import (
    BasisError,
    ConfigError,
    DimensionError,
    DomainError,
    EmptyShellError,
    GaplabError,
    SingularDensityError,
    SingularProjectionError,
    UnsupportedShapeError,
)
from .hilbert import (
    BipartiteState,
    DensityMatrix,
    SchmidtDecomposition,
    canonical_density,
    partial_inner,
    reduced_density_matrix,
    schmidt,
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
    TailRadius,
    covariance_estimate,
    gap_sphere_density,
    gaussian_density,
    sample_adjusted_gaussian,
    sample_gap,
    sample_gaussian,
    tail_radius,
)
from .conditional import (
    ConditionalSample,
    DiscreteMeasure,
    adjust,
    conditional_draw,
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

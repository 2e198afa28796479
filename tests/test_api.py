import importlib
from pathlib import Path

import numpy as np
import pytest

import gaplab
from gaplab import (
    BipartiteState,
    DensityMatrix,
    DimensionError,
    DiscreteMeasure,
    DomainError,
    RngStream,
    canonical_density,
    conditional_measure,
    gap_sphere_density,
    gaussian_density,
    ginibre,
    overlap_sq,
    tail_radius,
)
from gaplab import typicality as T

MODULES = ("hilbert", "randomness", "gap", "conditional", "typicality", "stats")


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"gaplab.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"gaplab.{module}.__all__ names missing objects: {missing}"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == gaplab.__version__


MIXED2 = DensityMatrix.maximally_mixed(2)
PRODUCT = BipartiteState(2, 2, np.array([1.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: T.random_purification_experiment(
        RngStream(1), DensityMatrix.maximally_mixed(3), 2, overlap_sq(np.eye(3)[0]), 0.1, 5),
     DomainError, "purification requires d2 >= d1"),
    (lambda: T.fit_beta([0.0, 1.0], DensityMatrix(np.diag([1.0, 0.0]))),
     DomainError, "target must be strictly positive"),
    (lambda: T.fit_beta([0.0, 1.0, 2.0], MIXED2),
     DimensionError, "one level per target entry"),
    (lambda: T.reduced_of_subspace(np.zeros((5, 2)), 2, 2),
     DimensionError, r"basis must be \(4, dim\)"),
    (lambda: T.submatrix_density(1, 4, np.zeros((2, 2))),
     DimensionError, r"X must be \(1, 1\)"),
    (lambda: T.submatrix_density_k1(1, 0.0), DomainError, "need n >= 2"),
    (lambda: canonical_density([0.0, 1.0], np.nan), DomainError, "beta must be finite"),
    (lambda: DensityMatrix(np.eye(2, 3)), DimensionError, "must be square"),
    (lambda: DensityMatrix(np.zeros((0, 0))), DimensionError, "positive dimension"),
    (lambda: BipartiteState(0, 2, np.zeros(0)), DimensionError,
     "factor dimensions must be positive"),
    (lambda: gaussian_density(MIXED2, np.zeros(3)), DimensionError, "psi has shape"),
    (lambda: gap_sphere_density(MIXED2, np.ones(3)), DimensionError, "psi dimension 3 != 2"),
    (lambda: tail_radius(0.1, 0), DomainError, "dimension must be >= 1"),
    (lambda: ginibre(RngStream(1).generator(), 0), DomainError,
     "matrix dimension must be >= 1"),
    (lambda: DiscreteMeasure(np.eye(2), np.array([0.5, 0.4]), normalized=True),
     DomainError, "not 1"),
    (lambda: conditional_measure(PRODUCT, np.eye(3)), DimensionError,
     r"basis must be \(2, 2\)"),
])
def test_bad_arguments_raise_named_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()

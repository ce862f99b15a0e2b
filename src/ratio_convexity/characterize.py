"""Log-quadratic fitting and Gaussian classification.

A positive density is Gaussian exactly when its log-density is a quadratic
with positive-definite curvature.  The fitter projects sampled log-density
values onto the quadratic monomial basis by least squares; classification
then checks the fit residual and the curvature spectrum, and on success
recovers the mean and covariance in closed form.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .density import DensityModel, GaussianParams
from .errors import ModelContractError, RankDeficientDesignError, UsageError

__all__ = [
    "FitReport",
    "SpectralDecomposition",
    "classify_gaussian",
    "default_fit_lattice",
    "eigen_symmetric",
    "fit_log_quadratic",
    "monomial_names",
]

# Largest dimension of the fitter and of eigen_symmetric; the default fit
# lattice alone has 7**n points.
MAX_DIMENSION = 10


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self):
        return self.eigenvectors @ np.diag(self.eigenvalues) @ self.eigenvectors.T


def eigen_symmetric(matrix):
    """Spectral decomposition of a small symmetric matrix.

    The input must be symmetric to 1e-12 (relative to its magnitude) and at
    most 10x10; it is symmetrized before LAPACK ``eigh`` diagonalizes it.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise UsageError("eigen_symmetric needs a square matrix")
    n = a.shape[0]
    if n > MAX_DIMENSION:
        raise UsageError(f"matrix dimension {n} exceeds the supported {MAX_DIMENSION}")
    if not np.all(np.isfinite(a)):
        raise UsageError("matrix has non-finite entries")
    asym = float(np.max(np.abs(a - a.T))) if n > 1 else 0.0
    if asym > 1e-12 * max(1.0, float(np.max(np.abs(a)))):
        raise UsageError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (a + a.T))
    eigenvalues, eigenvectors = eigenvalues[::-1], eigenvectors[:, ::-1]
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


@dataclass(frozen=True, eq=False)
class FitReport:
    """Result of fitting log f to a quadratic, plus optional classification.

    ``gaussian`` is populated by :func:`classify_gaussian` when the fit is
    both tight and positive definite; ``failure_reason`` explains why not.
    ``curvature_noise`` bounds the curvature that rounding of the fitted
    log f values alone can put into the spectrum, in the coordinates of
    the fit points.
    """

    form: "LogQuadraticForm"
    residual_max: float
    residual_rms: float
    spectral: SpectralDecomposition
    gaussian: GaussianParams | None = None
    failure_reason: str | None = None
    curvature_noise: float = 0.0


def monomial_names(dimension):
    """Names of the quadratic design columns, in design order."""
    names = []
    for i in range(dimension):
        for j in range(i, dimension):
            names.append(f"x{i + 1}^2" if i == j else f"x{i + 1}*x{j + 1}")
    names.extend(f"x{i + 1}" for i in range(dimension))
    names.append("1")
    return names


def default_fit_lattice(dimension, center=None, half_width=4.0, points_per_axis=7):
    """Tensor lattice of evaluation points: per-axis [-w, w] shifted by center."""
    dimension = int(dimension)
    if dimension < 1:
        raise UsageError("dimension must be >= 1")
    axis = np.linspace(-float(half_width), float(half_width), int(points_per_axis))
    if dimension == 1:
        points = axis.reshape(-1, 1)
    else:
        mesh = np.meshgrid(*([axis] * dimension), indexing="ij")
        points = np.stack(mesh, axis=-1).reshape(-1, dimension)
    if center is not None:
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape != (dimension,):
            raise UsageError("center must match the lattice dimension")
        points = points + center
    return points


def _quadratic_design(points):
    n = points.shape[1]
    columns = []
    for i in range(n):
        for j in range(i, n):
            columns.append(points[:, i] * points[:, j])
    for i in range(n):
        columns.append(points[:, i])
    columns.append(np.ones(points.shape[0]))
    return np.column_stack(columns)


def fit_log_quadratic(logf, dimension, sample_points):
    """Least-squares fit of log f over sample points to a quadratic exponent.

    Parameters
    ----------
    logf : callable or DensityModel
        Log-density evaluator; a model uses its batch path.
    dimension : int
    sample_points : (N, n) array_like
        Needs at least (n+1)(n+2)/2 points in general position; a
        rank-deficient design raises an error naming the unidentifiable
        monomials.
    """
    dimension = int(dimension)
    if dimension < 1 or dimension > MAX_DIMENSION:
        raise UsageError(f"dimension must be in 1..{MAX_DIMENSION}")
    points = np.asarray(sample_points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    if points.ndim != 2 or points.shape[1] != dimension:
        raise UsageError(f"sample_points must be (N, {dimension})")
    if not np.all(np.isfinite(points)):
        raise UsageError("sample_points has non-finite entries")
    needed = (dimension + 1) * (dimension + 2) // 2
    if points.shape[0] < needed:
        raise UsageError(
            f"need at least {needed} points to identify a quadratic in "
            f"dimension {dimension}, got {points.shape[0]}")
    design = _quadratic_design(points)
    if not np.all(np.isfinite(design)):
        # LAPACK lstsq does not return on an inf design
        raise UsageError(
            "sample_points are too large: their squares or products "
            "overflow the quadratic design")

    if isinstance(logf, DensityModel):
        values = logf.log_density_many(points)
    else:
        values = np.array([float(logf(p)) for p in points])
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ModelContractError(
            f"log-density evaluator returned a non-finite value at "
            f"{points[bad].tolist()}")

    coef, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    n_cols = design.shape[1]
    if rank < n_cols:
        names = monomial_names(dimension)
        _, _, vh = np.linalg.svd(design, full_matrices=True)
        dead = set()
        for row in vh[rank:]:
            top = np.max(np.abs(row))
            dead.update(names[i] for i in np.flatnonzero(np.abs(row) > 1e-8 * top))
        raise RankDeficientDesignError(
            "sample points cannot identify the monomials: "
            + ", ".join(sorted(dead)))

    residuals = design @ coef - values
    residual_max = float(np.max(np.abs(residuals)))
    residual_rms = float(np.sqrt(np.mean(residuals ** 2)))
    # rounding of values near max|log f| moves the fitted curvature by about
    # eps max|log f| / half_width^2; 64 leaves headroom over the 1.5x-7.6x
    # measured for constant log f
    half_width = 0.5 * float(np.max(np.ptp(points, axis=0)))
    curvature_noise = (64.0 * np.finfo(float).eps
                       * float(np.max(np.abs(values))) / half_width ** 2)

    # log f = -x'Ax/2 - b'x - c, so design coefficients carry opposite signs
    a_matrix = np.zeros((dimension, dimension))
    at = 0
    for i in range(dimension):
        for j in range(i, dimension):
            if i == j:
                a_matrix[i, i] = -2.0 * coef[at]
            else:
                a_matrix[i, j] = a_matrix[j, i] = -coef[at]
            at += 1
    b_vector = -coef[at:at + dimension]
    c_scalar = -float(coef[-1])

    from .density import LogQuadraticForm

    form = LogQuadraticForm(a_matrix, b_vector, c_scalar)
    spectral = eigen_symmetric(form.A)
    return FitReport(form=form, residual_max=residual_max,
                     residual_rms=residual_rms, spectral=spectral,
                     curvature_noise=curvature_noise)


def classify_gaussian(report, fit_tol=1e-6, pd_tol=None):
    """Decide whether a fitted form is a Gaussian exponent.

    Gaussian requires both a tight fit (``residual_max <= fit_tol``) and a
    positive-definite curvature spectrum: every eigenvalue above ``pd_tol``,
    by default the larger of the report's ``curvature_noise`` and 1e-10
    times the largest eigenvalue.  The returned report carries either the
    recovered parameters or a failure reason.
    """
    if not isinstance(report, FitReport):
        raise UsageError("classify_gaussian expects a FitReport")
    fit_tol = float(fit_tol)
    if fit_tol <= 0.0 or not np.isfinite(fit_tol):
        raise UsageError("fit_tol must be positive and finite")
    eigenvalues = report.spectral.eigenvalues
    if pd_tol is None:
        # relative, so that a wide Gaussian is not called flat, and above
        # rounding, so that a flat log f is not called a wide Gaussian
        pd_tol = max(report.curvature_noise, 1e-10 * float(eigenvalues[0]))

    if report.residual_max > fit_tol:
        return dataclasses.replace(
            report, gaussian=None,
            failure_reason=(f"not log-quadratic: residual_max "
                            f"{report.residual_max:.3e} exceeds fit_tol {fit_tol:.1e}"))
    smallest = float(eigenvalues[-1])
    if smallest <= pd_tol:
        return dataclasses.replace(
            report, gaussian=None,
            failure_reason=(f"log-quadratic but not integrable: smallest "
                            f"curvature eigenvalue {smallest:.3e} does not exceed "
                            f"pd_tol {pd_tol:.3e}"))

    basis = report.spectral.eigenvectors
    covariance = basis @ np.diag(1.0 / eigenvalues) @ basis.T
    mean = -covariance @ report.form.b
    params = GaussianParams(mean, covariance)
    return dataclasses.replace(report, gaussian=params, failure_reason=None)

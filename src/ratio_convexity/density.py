"""Density models with log-space evaluation.

Everything downstream (ratio analysis, grid probes, the fitter, the KDE
test) works through the small interface defined here: a model knows its
dimension and implements its log-density on an (N, n) batch of points, once.
A single point is a batch of one, so ``log_density(p)`` equals the matching
row of ``log_density_many`` bit for bit.  All built-in models keep exact
log-space formulas so that ratios of far-apart evaluations never overflow.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import ModelContractError, UsageError

__all__ = [
    "Custom",
    "DensityModel",
    "Gaussian",
    "GaussianParams",
    "Laplace1D",
    "LogQuadraticForm",
    "Quartic1D",
    "log_density",
    "log_density_many",
    "quartic_norm_constant",
]

_LOG_2PI = math.log(2.0 * math.pi)


def as_point(x, dimension=None):
    """Validate and return a point as a 1-D float array."""
    point = np.atleast_1d(np.asarray(x, dtype=float))
    if point.ndim != 1:
        raise UsageError(f"a point must be one-dimensional, got shape {point.shape}")
    if not np.all(np.isfinite(point)):
        raise UsageError("point has a non-finite coordinate")
    if dimension is not None and point.shape[0] != dimension:
        raise UsageError(
            f"point has dimension {point.shape[0]}, model expects {dimension}"
        )
    return point


def _as_points(x, dimension):
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if dimension == 1 else pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[1] != dimension:
        raise UsageError(
            f"expected an (N, {dimension}) array of points, got shape {pts.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise UsageError("points array has a non-finite entry")
    return pts


class GaussianParams:
    """Mean vector plus positive-definite covariance, with spectral extras.

    The covariance is symmetrized on entry and diagonalized once (eigenvalues
    descending); the precision matrix, log-determinant, and the symmetric
    square roots reuse that decomposition.
    """

    def __init__(self, mean, covariance):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        if mean.ndim != 1:
            raise UsageError("mean must be a vector")
        cov = np.asarray(covariance, dtype=float)
        if cov.ndim == 0:
            cov = cov.reshape(1, 1)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise UsageError("covariance must be a square matrix")
        if cov.shape[0] != mean.shape[0]:
            raise UsageError("mean and covariance dimensions disagree")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise UsageError("Gaussian parameters must be finite")
        cov = 0.5 * (cov + cov.T)

        eigenvalues, basis = np.linalg.eigh(cov)
        eigenvalues, basis = eigenvalues[::-1], basis[:, ::-1]
        # relative to the largest eigenvalue, so that a covariance is
        # accepted or refused alike in any unit
        if eigenvalues[-1] <= 1e-12 * float(eigenvalues[0]):
            raise UsageError("covariance is not positive definite")

        self.mean = mean
        self.covariance = cov
        self.eigenvalues = eigenvalues
        self.eigenvectors = basis
        self.precision = basis @ np.diag(1.0 / eigenvalues) @ basis.T
        self.log_det_covariance = float(np.log(eigenvalues).sum())
        for arr in (self.mean, self.covariance, self.eigenvalues,
                    self.eigenvectors, self.precision):
            arr.setflags(write=False)

    @property
    def dimension(self):
        return self.mean.shape[0]

    def covariance_sqrt(self):
        """Symmetric square root of the covariance."""
        return self.eigenvectors @ np.diag(np.sqrt(self.eigenvalues)) @ self.eigenvectors.T

    def whitening_matrix(self):
        """Symmetric inverse square root of the covariance."""
        return self.eigenvectors @ np.diag(1.0 / np.sqrt(self.eigenvalues)) @ self.eigenvectors.T

    def __repr__(self):
        return f"GaussianParams(mean={self.mean.tolist()}, covariance={self.covariance.tolist()})"


class LogQuadraticForm:
    """Quadratic exponent with coefficients (A, b, c).

    Evaluation convention: the stored triple describes a density exponent,

        log f(x) = -(x' A x) / 2 - b' x - c .

    The reciprocal convention ``g = 1/f = exp(+x'Ax/2 + b'x + c)`` uses the
    same triple with the opposite sign, available as :meth:`log_reciprocal_at`.
    """

    def __init__(self, A, b, c):
        A = np.asarray(A, dtype=float)
        if A.ndim == 0:
            A = A.reshape(1, 1)
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if A.ndim != 2 or A.shape[0] != A.shape[1] or b.shape[0] != A.shape[0]:
            raise UsageError("quadratic form needs square A and matching b")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and math.isfinite(c)):
            raise UsageError("quadratic form coefficients must be finite")
        self.A = 0.5 * (A + A.T)
        self.b = b.copy()
        self.c = float(c)
        self.A.setflags(write=False)
        self.b.setflags(write=False)

    @property
    def dimension(self):
        return self.b.shape[0]

    def _quadratic(self, x):
        x = as_point(x, self.dimension)
        return 0.5 * float(x @ self.A @ x) + float(self.b @ x) + self.c

    def log_density_at(self, x):
        return -self._quadratic(x)

    def log_reciprocal_at(self, x):
        return self._quadratic(x)

    def __repr__(self):
        return (f"LogQuadraticForm(A={self.A.tolist()}, "
                f"b={self.b.tolist()}, c={self.c})")


class DensityModel:
    """Base class: a positive density evaluated in log space."""

    dimension: int = 1
    #: closed-form models earn a tighter default probe tolerance
    closed_form: bool = True
    label: str = "density"

    def _log_density_many(self, points):
        raise NotImplementedError

    def log_density(self, x):
        """Log-density at a single point (validated): a batch of one."""
        point = as_point(x, self.dimension)
        return float(self._log_density_many(point.reshape(1, -1))[0])

    def log_density_many(self, x):
        """Log-density at an (N, n) batch of points (validated)."""
        return self._log_density_many(_as_points(x, self.dimension))

    def __repr__(self):
        return f"{type(self).__name__}()"


class Gaussian(DensityModel):
    """Multivariate Gaussian backed by :class:`GaussianParams`.

    A batch's log-densities are log_norm - |z|^2 / 2 with z = x W - mean W,
    where W whitens: |z|^2 = (x - mean)' precision (x - mean).  The mean is
    shifted after the BLAS product, which sets the bits of x W.  Up to
    three axes, each column of z is centred and squared on its own and the
    squares are added in einsum's order (``kernels._square_sum_order``), so
    the values are the bits of ``einsum("ij,ij->i", z, z)`` at the cost of
    a few whole-column operations, where einsum and a broadcast shift
    loop over the n <= 3 entries of each row.  Above three axes einsum
    does the sum, because its order there follows numpy's SIMD build.
    """

    def __init__(self, params):
        if not isinstance(params, GaussianParams):
            raise UsageError("Gaussian expects a GaussianParams instance")
        self.params = params
        self.dimension = params.dimension
        self.label = "gaussian"
        self._log_norm = -0.5 * (self.dimension * _LOG_2PI + params.log_det_covariance)
        self._whiten = params.eigenvectors / np.sqrt(params.eigenvalues)
        self._whitened_mean = params.mean @ self._whiten

    def _log_density_many(self, points):
        z = points @ self._whiten
        if self.dimension > 3:
            z -= self._whitened_mean
            return self._log_norm - 0.5 * np.einsum("ij,ij->i", z, z)
        first, *rest = kernels._square_sum_order(self.dimension)
        total = np.subtract(z[:, first], self._whitened_mean[first])
        total *= total
        for j in rest:
            column = np.subtract(z[:, j], self._whitened_mean[j])
            column *= column
            total += column
        # log_norm + (-s / 2) is the float log_norm - s / 2
        total *= -0.5
        total += self._log_norm
        return total

    def __repr__(self):
        return f"Gaussian({self.params!r})"


class Laplace1D(DensityModel):
    """Standard Laplace density exp(-|x|)/2 on the line."""

    dimension = 1
    label = "laplace"

    def _log_density_many(self, points):
        return -np.abs(points[:, 0]) - math.log(2.0)


def quartic_norm_constant():
    """Normalizing constant c with c * integral(exp(-x^4)) = 1.

    The integral over the line is 2 * Gamma(5/4) = Gamma(1/4) / 2, so
    c = 2 / Gamma(1/4).
    """
    return 2.0 / math.gamma(0.25)


class Quartic1D(DensityModel):
    """Quartic-tailed density c * exp(-x^4) on the line."""

    dimension = 1
    label = "quartic"

    def __init__(self):
        self._log_c = math.log(quartic_norm_constant())

    def _log_density_many(self, points):
        x = points[:, 0]
        return self._log_c - x ** 4


class Custom(DensityModel):
    """User-supplied log-density evaluator, optionally with a batch form.

    ``evaluator`` maps one point to log f.  A ``batch_evaluator``, when given,
    maps an (N, n) array to N values and then serves every call, single
    points included (a batch of one); without it the evaluator is looped
    over the rows.  Outputs are checked: a NaN or +/-inf raises
    :class:`ModelContractError`, naming the first bad value and its point,
    rather than silently corrupting a probe.
    """

    closed_form = False

    def __init__(self, dimension, evaluator, batch_evaluator=None, label="custom"):
        dimension = int(dimension)
        if dimension < 1:
            raise UsageError("dimension must be a positive integer")
        if not callable(evaluator):
            raise UsageError("evaluator must be callable")
        self.dimension = dimension
        self.label = label
        self._evaluator = evaluator
        self._batch_evaluator = batch_evaluator

    def _log_density_many(self, points):
        if self._batch_evaluator is None:
            values = np.array([float(self._evaluator(p)) for p in points])
        else:
            values = np.asarray(self._batch_evaluator(points), dtype=float)
            if values.shape != (points.shape[0],):
                raise ModelContractError(
                    f"batch evaluator returned shape {values.shape}, "
                    f"expected ({points.shape[0]},)"
                )
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ModelContractError(
                f"evaluator returned {float(values[bad])!r} at {points[bad].tolist()}"
            )
        return values

    def __repr__(self):
        return f"Custom(dimension={self.dimension}, label={self.label!r})"


def log_density(model, x):
    """Log-density of ``model`` at point ``x``."""
    return model.log_density(x)


def log_density_many(model, x):
    """Log-density of ``model`` at each row of ``x``."""
    return model.log_density_many(x)

import math

import numpy as np
import pytest

from ratio_convexity.characterize import (
    classify_gaussian,
    default_fit_lattice,
    eigen_symmetric,
    fit_log_quadratic,
    monomial_names,
)
from ratio_convexity.density import (
    Custom,
    Gaussian,
    GaussianParams,
    Laplace1D,
    LogQuadraticForm,
    Quartic1D,
)
from ratio_convexity.errors import (
    ModelContractError,
    RankDeficientDesignError,
    UsageError,
)

from _oracles import quadratic_fit_1d


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.5 * np.eye(n)


# ----------------------------------------------------------- monomials


def test_monomial_names():
    assert monomial_names(1) == ["x1^2", "x1", "1"]
    assert monomial_names(2) == ["x1^2", "x1*x2", "x2^2", "x1", "x2", "1"]
    assert len(monomial_names(3)) == 10


def test_default_fit_lattice():
    flat = default_fit_lattice(1)
    assert flat.shape == (7, 1)
    assert flat[0, 0] == -4.0 and flat[-1, 0] == 4.0
    square = default_fit_lattice(2, points_per_axis=5)
    assert square.shape == (25, 2)
    shifted = default_fit_lattice(2, center=[1.0, -1.0], points_per_axis=5)
    np.testing.assert_allclose(shifted.mean(axis=0), [1.0, -1.0], atol=1e-12)
    with pytest.raises(UsageError):
        default_fit_lattice(2, center=[1.0])


# -------------------------------------------------------- eigen_symmetric


def test_eigen_symmetric_matches_numpy():
    rng = np.random.default_rng(31)
    for n in (1, 2, 4, 7):
        a = rng.standard_normal((n, n))
        a = a + a.T
        spectral = eigen_symmetric(a)
        expected = np.linalg.eigvalsh(a)[::-1]  # descending
        np.testing.assert_allclose(spectral.eigenvalues, expected,
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(spectral.reconstruct(), a, atol=1e-10)
        gram = spectral.eigenvectors.T @ spectral.eigenvectors
        np.testing.assert_allclose(gram, np.eye(n), atol=1e-10)


def test_eigen_symmetric_accepts_scalar():
    spectral = eigen_symmetric(3.0)
    assert spectral.eigenvalues.tolist() == [3.0]


def test_eigen_symmetric_validates():
    with pytest.raises(UsageError):
        eigen_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(UsageError):
        eigen_symmetric(np.ones((2, 3)))
    with pytest.raises(UsageError):
        eigen_symmetric(np.eye(11))
    with pytest.raises(UsageError):
        eigen_symmetric(np.array([[np.nan]]))


# ------------------------------------------------------ Gaussian round trip


def test_fit_recovers_hand_computed_1d_gaussian():
    # N(1, 2): log f = -x^2/4 + x/2 - 1/4 - log(4 pi)/2, so in the
    # -x'Ax/2 - b'x - c convention A = 1/2, b = -1/2
    model = Gaussian(GaussianParams([1.0], [[2.0]]))
    report = fit_log_quadratic(model, 1, default_fit_lattice(1))
    assert report.residual_max <= 1e-12
    assert report.form.A[0, 0] == pytest.approx(0.5, rel=1e-10)
    assert report.form.b[0] == pytest.approx(-0.5, rel=1e-10)
    assert report.form.c == pytest.approx(0.25 + 0.5 * math.log(4 * math.pi),
                                          rel=1e-10)
    classified = classify_gaussian(report)
    assert classified.failure_reason is None
    assert classified.gaussian.mean[0] == pytest.approx(1.0, rel=1e-10)
    assert classified.gaussian.covariance[0, 0] == pytest.approx(2.0, rel=1e-10)


def test_fit_round_trip_random_gaussians():
    rng = np.random.default_rng(404)
    for n in (1, 2, 3):
        for _ in range(5):
            mean = rng.uniform(-2.0, 2.0, size=n)
            params = GaussianParams(mean, random_spd(rng, n))
            model = Gaussian(params)
            lattice = default_fit_lattice(n, center=mean)
            report = classify_gaussian(fit_log_quadratic(model, n, lattice))
            assert report.gaussian is not None
            np.testing.assert_allclose(report.gaussian.mean, params.mean,
                                       atol=1e-8)
            np.testing.assert_allclose(report.gaussian.covariance,
                                       params.covariance, rtol=1e-8, atol=1e-10)


def test_fit_accepts_plain_callable():
    report = fit_log_quadratic(lambda p: -p[0] ** 2, 1, np.linspace(-2, 2, 9))
    assert report.residual_max <= 1e-12
    assert report.form.A[0, 0] == pytest.approx(2.0, rel=1e-10)


def test_fit_matches_polyfit_oracle_1d():
    model = Laplace1D()
    xs = np.linspace(-5.0, 5.0, 101)
    report = fit_log_quadratic(model, 1, xs)
    values = model.log_density_many(xs.reshape(-1, 1))
    coeffs, oracle_residual = quadratic_fit_1d(xs, values)
    assert report.residual_max == pytest.approx(oracle_residual, rel=1e-9)
    # design convention: log f ~ -A x^2/2 - b x - c
    assert report.form.A[0, 0] == pytest.approx(-2.0 * coeffs[0], rel=1e-9)
    assert report.form.b[0] == pytest.approx(-coeffs[1], abs=1e-9)
    assert report.form.c == pytest.approx(-coeffs[2], rel=1e-9)


# ------------------------------------------------------- non-Gaussian fits


def test_laplace_fit_is_rejected_with_residual_regression():
    report = fit_log_quadratic(Laplace1D(), 1, np.linspace(-5.0, 5.0, 101))
    assert report.residual_max == pytest.approx(0.9463179327641519, rel=1e-12)
    classified = classify_gaussian(report)
    assert classified.gaussian is None
    assert classified.failure_reason.startswith("not log-quadratic")


def test_quartic_fit_is_rejected():
    report = classify_gaussian(
        fit_log_quadratic(Quartic1D(), 1, np.linspace(-4.0, 4.0, 81)))
    assert report.gaussian is None
    assert "not log-quadratic" in report.failure_reason


def test_flat_direction_is_rejected_as_non_integrable():
    # a planted zero eigenvalue: quadratic in x1 only, flat along x2
    form = LogQuadraticForm(A=[[1.0, 0.0], [0.0, 0.0]], b=[0.0, 0.0], c=0.0)
    model = Custom(2, form.log_density_at)
    report = classify_gaussian(
        fit_log_quadratic(model, 2, default_fit_lattice(2, points_per_axis=5)))
    assert report.residual_max <= 1e-10
    assert report.gaussian is None
    assert "not integrable" in report.failure_reason


def test_negative_curvature_is_rejected_as_non_integrable():
    form = LogQuadraticForm(A=[[-1.0]], b=[0.0], c=0.0)
    model = Custom(1, form.log_density_at)
    report = classify_gaussian(fit_log_quadratic(model, 1, np.linspace(-2, 2, 9)))
    assert report.gaussian is None
    assert "not integrable" in report.failure_reason


@pytest.mark.parametrize("constant", [3.7, -1e5])
def test_flat_log_density_is_rejected_as_non_integrable(constant):
    # rounding alone puts a curvature of 7.5e-17 (3.7) or 1.1e-11 (-1e5)
    # into the fit of a constant; a sign check called both a wide Gaussian
    report = classify_gaussian(fit_log_quadratic(
        Custom(1, lambda x: constant), 1, default_fit_lattice(1)))
    assert report.gaussian is None
    assert "not integrable" in report.failure_reason
    assert report.spectral.eigenvalues[-1] <= report.curvature_noise


# ---------------------------------------------------------- design errors


def test_rank_deficient_design_names_dead_monomials():
    model = Gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
    collinear = np.column_stack([np.linspace(-3, 3, 20), np.zeros(20)])
    with pytest.raises(RankDeficientDesignError) as excinfo:
        fit_log_quadratic(model, 2, collinear)
    message = str(excinfo.value)
    assert "x2^2" in message and "x1*x2" in message


def test_fit_validates_inputs():
    model = Laplace1D()
    with pytest.raises(UsageError):
        fit_log_quadratic(model, 1, [0.0, 1.0])  # fewer than 3 points
    with pytest.raises(UsageError):
        fit_log_quadratic(model, 0, [0.0, 1.0, 2.0])
    with pytest.raises(UsageError):
        fit_log_quadratic(model, 1, [[0.0, 1.0]])  # wrong width
    with pytest.raises(UsageError):
        fit_log_quadratic(model, 1, [0.0, np.nan, 1.0])


def test_fit_propagates_model_contract():
    with pytest.raises(ModelContractError):
        fit_log_quadratic(lambda p: math.nan, 1, np.linspace(-1, 1, 5))


# ------------------------------------------------------------ classification


def test_classify_validates_arguments():
    report = fit_log_quadratic(Laplace1D(), 1, np.linspace(-2, 2, 9))
    with pytest.raises(UsageError):
        classify_gaussian("not a report")
    with pytest.raises(UsageError):
        classify_gaussian(report, fit_tol=0.0)


def test_classify_pd_tolerance_is_adjustable():
    form = LogQuadraticForm(A=[[1e-9]], b=[0.0], c=0.0)
    model = Custom(1, form.log_density_at)
    report = fit_log_quadratic(model, 1, np.linspace(-2, 2, 9))
    strict = classify_gaussian(report, pd_tol=1e-6)
    assert strict.gaussian is None
    lenient = classify_gaussian(report, pd_tol=1e-12)
    assert lenient.gaussian is not None
    assert lenient.gaussian.covariance[0, 0] == pytest.approx(1e9, rel=1e-6)


def test_classify_fit_tol_boundary():
    # the residual gate is the only thing rejecting the Laplace fit: its
    # fitted curvature is positive, so a loose fit_tol flips the outcome
    report = fit_log_quadratic(Laplace1D(), 1, np.linspace(-5, 5, 101))
    strict = classify_gaussian(report, fit_tol=1e-6)
    assert strict.gaussian is None
    loose = classify_gaussian(report, fit_tol=1.0)  # residual 0.946 < 1
    assert loose.gaussian is not None
    assert loose.failure_reason is None

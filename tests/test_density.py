import math

import numpy as np
import pytest
from scipy import stats

from ratio_convexity.density import (
    Custom,
    Gaussian,
    GaussianParams,
    Laplace1D,
    LogQuadraticForm,
    Quartic1D,
    as_point,
    log_density,
    log_density_many,
    quartic_norm_constant,
)
from ratio_convexity.errors import ModelContractError, UsageError
from ratio_convexity.normtest import Sample, kde_log_density
from ratio_convexity.probe import ProbeGrid

from _oracles import adaptive_simpson, gaussian_log_density_einsum


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.5 * np.eye(n)


# ---------------------------------------------------------------- points


def test_as_point_accepts_scalar_and_vector():
    assert as_point(1.5).tolist() == [1.5]
    assert as_point([1.0, 2.0], 2).tolist() == [1.0, 2.0]


@pytest.mark.parametrize("bad", [np.nan, [1.0, np.inf], [[1.0, 2.0]]])
def test_as_point_rejects_bad_input(bad):
    with pytest.raises(UsageError):
        as_point(bad)


def test_as_point_checks_dimension():
    with pytest.raises(UsageError):
        as_point([1.0, 2.0], 3)


# ---------------------------------------------------------- GaussianParams


def test_gaussian_params_spectral_identities():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5):
        cov = random_spd(rng, n)
        params = GaussianParams(rng.standard_normal(n), cov)
        np.testing.assert_allclose(params.precision @ params.covariance,
                                   np.eye(n), atol=1e-10)
        root = params.covariance_sqrt()
        np.testing.assert_allclose(root @ root, params.covariance, atol=1e-10)
        whiten = params.whitening_matrix()
        np.testing.assert_allclose(whiten @ params.covariance @ whiten,
                                   np.eye(n), atol=1e-10)
        sign, logdet = np.linalg.slogdet(params.covariance)
        assert sign == 1.0
        assert params.log_det_covariance == pytest.approx(logdet, rel=1e-12)


def test_gaussian_params_symmetrizes_covariance():
    cov = np.array([[2.0, 0.3 + 1e-14], [0.3, 1.0]])
    params = GaussianParams([0.0, 0.0], cov)
    np.testing.assert_array_equal(params.covariance, params.covariance.T)


def test_gaussian_params_rejects_bad_input():
    with pytest.raises(UsageError):
        GaussianParams([0.0], [[0.0]])  # not positive definite
    with pytest.raises(UsageError):
        GaussianParams([0.0, 0.0], np.diag([1.0, -0.5]))
    with pytest.raises(UsageError):
        GaussianParams([0.0], np.eye(2))  # dimension mismatch
    with pytest.raises(UsageError):
        GaussianParams([np.nan], [[1.0]])


def test_gaussian_params_arrays_are_read_only():
    params = GaussianParams([0.0], [[1.0]])
    with pytest.raises(ValueError):
        params.mean[0] = 1.0


# ----------------------------------------------------------- Gaussian model


def test_standard_normal_log_density_hand_value():
    model = Gaussian(GaussianParams([0.0], [[1.0]]))
    for x in (-2.0, 0.0, 0.7):
        expected = -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
        assert model.log_density([x]) == pytest.approx(expected, rel=1e-14)


def test_gaussian_matches_scipy_logpdf():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3):
        mean = rng.standard_normal(n)
        cov = random_spd(rng, n)
        model = Gaussian(GaussianParams(mean, cov))
        points = rng.standard_normal((50, n)) * 3.0
        expected = stats.multivariate_normal(mean, cov).logpdf(points)
        np.testing.assert_allclose(model.log_density_many(points),
                                   np.atleast_1d(expected), rtol=1e-10)


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gaussian_batch_is_the_einsum_formula_bit_for_bit(n, scale):
    # up to three axes the squares are summed column by column in einsum's
    # order; above three einsum itself sums them
    rng = np.random.default_rng(60 + n)
    model = Gaussian(GaussianParams(scale * rng.standard_normal(n),
                                    scale * scale * random_spd(rng, n)))
    points = scale * 3.0 * rng.standard_normal((5000, n))
    got = model.log_density_many(points)
    want = gaussian_log_density_einsum(model, points)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _gaussian_case(n):
    rng = np.random.default_rng(3)
    model = Gaussian(GaussianParams(rng.standard_normal(n), random_spd(rng, n)))
    return model, rng.standard_normal((20, n))


def _kde_case(n):
    rng = np.random.default_rng(40 + n)
    sample = Sample(rng.laplace(size=(40, n)))
    return kde_log_density(sample), 2.0 * rng.standard_normal((30, n))


# the scalar and the batch form round x**4 differently on some points
def _quartic_point(p):
    return -float(p[0]) ** 4


def _quartic_rows(pts):
    return -pts[:, 0] ** 4


_PROBE_LINE = ProbeGrid.for_dimension(1).base_points()

_ONE_ROUTE_CASES = {
    "gaussian-1d": lambda: _gaussian_case(1),
    "gaussian-2d": lambda: _gaussian_case(2),
    "gaussian-3d": lambda: _gaussian_case(3),
    "laplace": lambda: (Laplace1D(), _PROBE_LINE),
    "quartic": lambda: (Quartic1D(), _PROBE_LINE),
    "kde-1d": lambda: (_kde_case(1)[0], _PROBE_LINE),
    "kde-2d": lambda: _kde_case(2),
    "custom-scalar": lambda: (Custom(1, _quartic_point), _PROBE_LINE),
    "custom-batch": lambda: (
        Custom(1, _quartic_point, batch_evaluator=_quartic_rows), _PROBE_LINE),
}


@pytest.mark.parametrize("case", sorted(_ONE_ROUTE_CASES))
def test_single_point_is_a_batch_of_one(case):
    # every model has one log-density route: a point's value is its row of
    # the batch, bit for bit (the 1-D cases read the default probe line)
    model, points = _ONE_ROUTE_CASES[case]()
    batch = model.log_density_many(points)
    assert [model.log_density(p) for p in points] == batch.tolist()


def test_gaussian_requires_params_instance():
    with pytest.raises(UsageError):
        Gaussian({"mean": [0.0], "covariance": [[1.0]]})


# ----------------------------------------------------------------- Laplace


def test_laplace_log_density_values():
    model = Laplace1D()
    assert model.log_density([0.0]) == pytest.approx(-math.log(2.0), rel=1e-15)
    assert model.log_density([3.0]) == pytest.approx(-3.0 - math.log(2.0))
    assert model.log_density([-3.0]) == model.log_density([3.0])
    xs = np.linspace(-4.0, 4.0, 33).reshape(-1, 1)
    np.testing.assert_array_equal(model.log_density_many(xs),
                                  [model.log_density(x) for x in xs])


def test_laplace_integrates_to_one():
    model = Laplace1D()
    total = adaptive_simpson(lambda t: math.exp(model.log_density([t])),
                             -40.0, 40.0, tol=1e-12)
    assert total == pytest.approx(1.0, abs=1e-10)


# ----------------------------------------------------------------- Quartic


def test_quartic_norm_constant_against_independent_quadrature():
    # oracle: adaptive Simpson of exp(-x^4); the integrand is even and below
    # 1e-300 outside [-12, 12]
    integral = 2.0 * adaptive_simpson(lambda t: math.exp(-t ** 4),
                                      0.0, 12.0, tol=1e-14)
    assert quartic_norm_constant() == pytest.approx(1.0 / integral, rel=1e-12)
    assert quartic_norm_constant() == pytest.approx(0.5516313256604186, rel=1e-13)


def test_quartic_log_density_and_normalization():
    model = Quartic1D()
    log_c = math.log(quartic_norm_constant())
    for x in (-1.5, 0.0, 2.0):
        assert model.log_density([x]) == pytest.approx(log_c - x ** 4, rel=1e-14)
    total = adaptive_simpson(lambda t: math.exp(model.log_density([t])),
                             -12.0, 12.0, tol=1e-12)
    assert total == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------------ Custom


def test_custom_loops_when_no_batch_evaluator():
    model = Custom(1, lambda p: -float(p[0]) ** 2)
    points = np.array([[0.0], [1.0], [2.0]])
    np.testing.assert_allclose(model.log_density_many(points), [0.0, -1.0, -4.0])


def test_custom_uses_batch_evaluator():
    calls = []

    def batch(points):
        calls.append(points.shape)
        return -points[:, 0] ** 2

    model = Custom(1, lambda p: -float(p[0]) ** 2, batch_evaluator=batch)
    model.log_density_many(np.zeros((5, 1)))
    assert calls == [(5, 1)]


def test_custom_rejects_non_finite_output():
    model = Custom(1, lambda p: math.inf)
    with pytest.raises(ModelContractError):
        model.log_density([0.0])
    bad_batch = Custom(1, lambda p: 0.0,
                       batch_evaluator=lambda pts: np.full(pts.shape[0], np.nan))
    with pytest.raises(ModelContractError):
        bad_batch.log_density_many(np.zeros((3, 1)))
    # either kind names the first bad value and its point
    points = np.array([[0.0], [1.5], [2.5]])
    scalar = Custom(1, lambda p: math.inf if p[0] > 1.0 else 0.0)
    with pytest.raises(ModelContractError, match=r"returned inf at \[1\.5\]"):
        scalar.log_density_many(points)
    batch = Custom(1, lambda p: 0.0,
                   batch_evaluator=lambda pts: np.where(pts[:, 0] > 1.0, np.nan, 0.0))
    with pytest.raises(ModelContractError, match=r"returned nan at \[1\.5\]"):
        batch.log_density_many(points)


def test_custom_rejects_wrong_batch_shape():
    model = Custom(2, lambda p: 0.0,
                   batch_evaluator=lambda pts: np.zeros((pts.shape[0], 1)))
    with pytest.raises(ModelContractError):
        model.log_density_many(np.zeros((3, 2)))


def test_custom_validates_construction():
    with pytest.raises(UsageError):
        Custom(0, lambda p: 0.0)
    with pytest.raises(UsageError):
        Custom(1, "not callable")


# ------------------------------------------------------- LogQuadraticForm


def test_log_quadratic_form_hand_evaluation():
    form = LogQuadraticForm(A=[[2.0, 0.5], [0.5, 1.0]], b=[1.0, -1.0], c=3.0)
    x = np.array([1.0, 2.0])
    quad = 0.5 * float(x @ form.A @ x) + float(form.b @ x) + 3.0
    assert form.log_density_at(x) == pytest.approx(-quad, rel=1e-15)
    assert form.log_reciprocal_at(x) == pytest.approx(quad, rel=1e-15)


def test_log_quadratic_form_symmetrizes_and_validates():
    form = LogQuadraticForm(A=[[1.0, 1.0], [0.0, 1.0]], b=[0.0, 0.0], c=0.0)
    np.testing.assert_array_equal(form.A, form.A.T)
    with pytest.raises(UsageError):
        LogQuadraticForm(A=[[1.0]], b=[0.0, 0.0], c=0.0)
    with pytest.raises(UsageError):
        LogQuadraticForm(A=[[np.inf]], b=[0.0], c=0.0)


def test_gaussian_exponent_matches_gaussian_density_up_to_constant():
    rng = np.random.default_rng(8)
    mean = rng.standard_normal(2)
    cov = random_spd(rng, 2)
    params = GaussianParams(mean, cov)
    model = Gaussian(params)
    # log f(x) = -(x-mu)' P (x-mu)/2 + const, i.e. A = P, b = -P mu
    form = LogQuadraticForm(params.precision, -params.precision @ mean, 0.0)
    points = rng.standard_normal((10, 2)) * 2.0
    gap = [model.log_density(p) - form.log_density_at(p) for p in points]
    np.testing.assert_allclose(gap, gap[0], rtol=0, atol=1e-10)


# ------------------------------------------------------ module-level API


def test_module_level_wrappers():
    model = Laplace1D()
    assert log_density(model, [1.0]) == model.log_density([1.0])
    pts = np.array([[0.0], [1.0]])
    np.testing.assert_array_equal(log_density_many(model, pts),
                                  model.log_density_many(pts))

import math

import numpy as np
import pytest

from ratio_convexity.density import (
    Gaussian,
    GaussianParams,
    Laplace1D,
    Quartic1D,
)
from ratio_convexity.errors import UsageError
from ratio_convexity.ratio import (
    LAPLACE_BRANCHES,
    AffineForm,
    gaussian_log_ratio_affine,
    laplace_branch,
    laplace_log_ratio,
    log_ratio,
    quartic_hxx,
)

from _oracles import adaptive_simpson, second_derivative_richardson


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.5 * np.eye(n)


# --------------------------------------------------------------- log_ratio


def test_log_ratio_is_log_density_difference():
    model = Laplace1D()
    assert log_ratio(model, 0.5, 1.0) == pytest.approx(
        model.log_density([1.5]) - model.log_density([0.5]), rel=1e-15)


def test_log_ratio_validates_dimensions():
    model = Gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
    with pytest.raises(UsageError):
        log_ratio(model, [0.0], [0.0, 0.0])


@pytest.mark.parametrize("model", [
    Gaussian(GaussianParams([0.3], [[2.5]])),
    Laplace1D(),
    Quartic1D(),
])
def test_reflection_identity_1d(model):
    # h(x+y, -y) = 1 / h(x, y), so the log-ratios cancel exactly
    rng = np.random.default_rng(99)
    for _ in range(200):
        x, y = rng.uniform(-3.0, 3.0, size=2)
        total = log_ratio(model, [x], [y]) + log_ratio(model, [x + y], [-y])
        assert abs(total) <= 1e-12


def test_reflection_identity_multivariate():
    rng = np.random.default_rng(100)
    model = Gaussian(GaussianParams(rng.standard_normal(3), random_spd(rng, 3)))
    for _ in range(200):
        x = rng.uniform(-3.0, 3.0, size=3)
        y = rng.uniform(-3.0, 3.0, size=3)
        total = log_ratio(model, x, y) + log_ratio(model, x + y, -y)
        assert abs(total) <= 1e-12


# ------------------------------------------------------------- AffineForm


def test_affine_form_value():
    form = AffineForm(slope=np.array([2.0, -1.0]), intercept=0.5)
    assert form.value_at([1.0, 3.0]) == pytest.approx(-0.5)
    with pytest.raises(UsageError):
        form.value_at([1.0])


def test_gaussian_log_ratio_is_affine_1d_hand_form():
    mu, var, y = 1.5, 4.0, 0.8
    params = GaussianParams([mu], [[var]])
    form = gaussian_log_ratio_affine(params, [y])
    assert form.slope[0] == pytest.approx(-y / var, rel=1e-14)
    assert form.intercept == pytest.approx(y * mu / var - y * y / (2 * var),
                                           rel=1e-14)


def test_gaussian_log_ratio_affine_matches_density():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        params = GaussianParams(rng.standard_normal(n), random_spd(rng, n))
        model = Gaussian(params)
        for _ in range(25):
            y = rng.uniform(-2.0, 2.0, size=n)
            form = gaussian_log_ratio_affine(params, y)
            for _ in range(5):
                x = rng.uniform(-4.0, 4.0, size=n)
                assert form.value_at(x) == pytest.approx(
                    log_ratio(model, x, y), rel=1e-9, abs=1e-11)


def test_gaussian_log_ratio_affine_requires_params():
    with pytest.raises(UsageError):
        gaussian_log_ratio_affine(np.eye(2), [0.0, 0.0])


# ------------------------------------------------------- Laplace log-ratio


def test_laplace_log_ratio_equals_absolute_difference():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        x, y = rng.uniform(-6.0, 6.0, size=2)
        assert laplace_log_ratio(x, y) == pytest.approx(
            abs(x) - abs(x + y), abs=1e-14)


def test_laplace_log_ratio_matches_model():
    model = Laplace1D()
    rng = np.random.default_rng(2025)
    for _ in range(500):
        x, y = rng.uniform(-5.0, 5.0, size=2)
        assert laplace_log_ratio(x, y) == pytest.approx(
            log_ratio(model, [x], [y]), abs=1e-14)


@pytest.mark.parametrize("x, y, expected", [
    (-2.0, 1.0, 1.0),     # left tail: constant y
    (-0.5, 1.0, 0.0),     # middle-left: -y - 2x
    (-0.25, 1.0, -0.5),   # middle-left interior
    (0.3, -1.0, -0.4),    # middle-right: y + 2x (y < 0)
    (2.0, -1.0, 1.0),     # right tail: constant -y
    (0.5, 0.0, 0.0),      # zero shift
])
def test_laplace_log_ratio_branch_values(x, y, expected):
    assert laplace_log_ratio(x, y) == pytest.approx(expected, abs=1e-15)


def test_laplace_branch_labels_and_closed_boundaries():
    # each interval is closed on the right, so a boundary point takes the
    # label of the piece to its left
    assert [laplace_branch(x, 1.0) for x in (-2.0, -1.0, -0.5, 0.0, 0.5)] == [
        "y", "y", "-y-2x", "-y-2x", "-y"]
    assert [laplace_branch(x, -1.0) for x in (-0.5, 0.0, 0.5, 1.0, 2.0)] == [
        "y", "y", "y+2x", "y+2x", "-y"]
    assert set(LAPLACE_BRANCHES.values()) == {"y", "-y-2x", "y+2x", "-y"}
    with pytest.raises(UsageError):
        laplace_branch(0.0, math.inf)


def test_laplace_log_ratio_rejects_non_finite():
    with pytest.raises(UsageError):
        laplace_log_ratio(math.nan, 1.0)
    with pytest.raises(UsageError):
        laplace_log_ratio(0.0, math.inf)


# ----------------------------------------------------------- quartic h_xx


def quartic_h(x, y):
    return math.exp(x ** 4 - (x + y) ** 4)


def test_quartic_hxx_against_finite_differences():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(60):
        x = rng.uniform(-2.0, 2.0)
        y = rng.uniform(-2.0, 2.0)
        if abs(y) < 0.01:
            continue
        result = quartic_hxx(x, y)
        fd = second_derivative_richardson(lambda t: quartic_h(t, y), x)
        scale = abs(result.value) + quartic_h(x, y)
        assert abs(fd - result.value) <= 1e-5 * scale
        checked += 1
    assert checked > 50


def test_quartic_hxx_frozen_value():
    # independent check at (1, 0.1): finite differences of h give the same
    # number the closed form produces
    result = quartic_hxx(1.0, 0.1)
    assert result.value == pytest.approx(-0.4822285113392144, rel=1e-12)
    assert result.bracket < 0.0
    assert not result.underflow
    fd = second_derivative_richardson(lambda t: quartic_h(t, 0.1), 1.0)
    assert result.value == pytest.approx(fd, rel=1e-7)


def test_quartic_bracket_nonnegative_beyond_threshold():
    # |y| >= sqrt(6) certifies a nonnegative bracket for every x (the bound
    # 2ab <= a^2 + b^2 is not sharp, so the bracket stays well above zero)
    xs = np.linspace(-10.0, 10.0, 2001)
    for y in (math.sqrt(6.0), -math.sqrt(6.0), 2.5, -3.0, 10.0):
        brackets = [quartic_hxx(x, y).bracket for x in xs]
        assert min(brackets) >= 0.0


def test_quartic_bracket_negative_for_small_shifts():
    assert quartic_hxx(1.0, 0.1).bracket < 0.0
    xs = np.linspace(-2.0, 2.0, 2001)
    assert min(quartic_hxx(x, 1.2).bracket for x in xs) < 0.0


def test_quartic_hxx_exact_point_at_threshold():
    # x=0, y=sqrt(6): bracket = -12*6 + 6*(3*6+6)^2 = 3384, h = e^(-36)
    result = quartic_hxx(0.0, math.sqrt(6.0))
    assert result.bracket == pytest.approx(3384.0, rel=1e-12)
    assert result.value == pytest.approx(3384.0 * math.exp(-36.0), rel=1e-12)


def test_quartic_hxx_small_shift_limit():
    # h_xx(x, y)/y -> -24 x as y -> 0.  The first-order error coefficient is
    # 240 x^4 - 12, so y = 1e-5 puts every |x| <= 2 within 0.1 of the limit.
    for x in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        ratio = quartic_hxx(x, 1e-5).value / 1e-5
        assert abs(ratio + 24.0 * x) <= 0.1
    # and the gap actually contracts with y, roughly linearly
    gaps = [abs(quartic_hxx(2.0, y).value / y + 48.0)
            for y in (1e-3, 1e-4, 1e-5)]
    assert gaps[0] > 8.0 * gaps[1] > 8.0 * 8.0 * gaps[2]


def test_quartic_ratio_integrates_to_reciprocal_density():
    # integrating h(x, y) = f(x+y)/f(x) over y gives 1/f(x)
    from ratio_convexity.ratio import log_ratio as generic_log_ratio

    model = Quartic1D()
    for x in (-1.0, 0.0, 2.0):
        expected = math.exp(-model.log_density([x]))
        total = adaptive_simpson(
            lambda y: math.exp(generic_log_ratio(model, [x], [y])),
            -13.0 - x, 13.0 - x, tol=1e-8 * expected)
        assert total == pytest.approx(expected, rel=1e-6)


def test_quartic_hxx_underflow_and_overflow():
    under = quartic_hxx(40.0, 1.0)  # exponent -265761
    assert under.value == 0.0
    assert under.underflow
    assert math.isfinite(under.bracket)
    over = quartic_hxx(-40.0, 1.0)  # exponent +246559
    assert math.isinf(over.value)
    assert over.value > 0.0  # bracket is positive there
    assert not over.underflow


def test_quartic_hxx_rejects_non_finite():
    with pytest.raises(UsageError):
        quartic_hxx(math.inf, 1.0)

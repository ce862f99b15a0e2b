"""Translation-ratio analysis: log h(x, y) = log f(x+y) - log f(x).

Besides the generic log-ratio there are exact closed forms for the two
counterexample families: the four-branch piecewise table of the Laplace
log-ratio and the quartic model's second derivative h_xx with its sign
bracket (nonnegative exactly when y^2 >= 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .density import GaussianParams, as_point
from .errors import UsageError

__all__ = [
    "AffineForm",
    "LAPLACE_BRANCHES",
    "QuarticHxx",
    "gaussian_log_ratio_affine",
    "laplace_branch",
    "laplace_log_ratio",
    "log_ratio",
    "quartic_hxx",
]

# exp underflows to zero below this exponent and overflows above the other
_EXP_UNDERFLOW = -745.2
_EXP_OVERFLOW = 709.9


def log_ratio(model, x, y):
    """log of the translation ratio h(x, y) = f(x+y) / f(x)."""
    x = as_point(x, model.dimension)
    y = as_point(y, model.dimension)
    return model.log_density(x + y) - model.log_density(x)


@dataclass(frozen=True, eq=False)
class AffineForm:
    """Affine map x -> slope . x + intercept."""

    slope: np.ndarray
    intercept: float

    def value_at(self, x):
        x = as_point(x, self.slope.shape[0])
        return float(self.slope @ x) + self.intercept


def gaussian_log_ratio_affine(params, y):
    """Exact affine form of x -> log h(x, y) for a Gaussian.

    With precision P = covariance^{-1}, the log-ratio is affine with
    slope -P y and intercept y' P mu - y' P y / 2.
    """
    if not isinstance(params, GaussianParams):
        raise UsageError("expected GaussianParams")
    y = as_point(y, params.dimension)
    py = params.precision @ y
    slope = -py
    intercept = float(py @ params.mean) - 0.5 * float(py @ y)
    slope.setflags(write=False)
    return AffineForm(slope=slope, intercept=intercept)


# The x-intervals of the four pieces of the Laplace log-ratio, left to right,
# with the label of each piece; y+ = max(y, 0) and y- = -min(y, 0).
LAPLACE_BRANCHES = {"(-inf, -y+]": "y", "(-y+, 0]": "-y-2x",
                    "(0, y-]": "y+2x", "(y-, +inf)": "-y"}

_LAPLACE_PIECES = {
    "y": lambda x, y: y,
    "-y-2x": lambda x, y: -y - 2.0 * x,
    "y+2x": lambda x, y: y + 2.0 * x,
    "-y": lambda x, y: -y,
}


def _finite_scalars(x, y, name):
    x = float(x)
    y = float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise UsageError(f"{name} needs finite scalars")
    return x, y


def laplace_branch(x, y):
    """Label of the piece of the Laplace log-ratio that holds at (x, y).

    The labels and their x-intervals are listed in ``LAPLACE_BRANCHES``.
    """
    x, y = _finite_scalars(x, y, "laplace_branch")
    y_plus = max(y, 0.0)
    y_minus = -min(y, 0.0)
    if x <= -y_plus:
        return "y"
    if x <= 0.0:
        return "-y-2x"
    if x <= y_minus:
        return "y+2x"
    return "-y"


def laplace_log_ratio(x, y):
    """Four-branch closed form of log h(x, y) for the standard Laplace.

    With y+ = max(y, 0) and y- = -min(y, 0) the value is

        y         on (-inf, -y+]
        -y - 2x   on (-y+, 0]
        y + 2x    on (0, y-]
        -y        on (y-, +inf)

    which equals |x| - |x + y| everywhere.
    """
    x, y = _finite_scalars(x, y, "laplace_log_ratio")
    return _LAPLACE_PIECES[laplace_branch(x, y)](x, y)


class QuarticHxx(NamedTuple):
    """Value of h_xx for the quartic model plus its sign diagnostics.

    ``value`` is h(x, y) times ``bracket``; ``bracket`` carries the sign of
    the second derivative, and ``underflow`` flags that h itself fell below
    the smallest positive double (making ``value`` an exact zero).
    """

    value: float
    bracket: float
    underflow: bool


def quartic_hxx(x, y):
    """Second derivative in x of h(x, y) = exp(x^4 - (x+y)^4).

    Differentiating twice gives h times the bracket

        -12 (2x + y) y + y^2 (3 (2x + y)^2 + y^2)^2 ,

    which is nonnegative for every x exactly when y^2 >= 6.
    """
    x, y = _finite_scalars(x, y, "quartic_hxx")
    u = 2.0 * x + y
    bracket = -12.0 * u * y + y * y * (3.0 * u * u + y * y) ** 2
    exponent = x ** 4 - (x + y) ** 4
    if exponent <= _EXP_UNDERFLOW:
        return QuarticHxx(value=0.0, bracket=bracket, underflow=True)
    if exponent >= _EXP_OVERFLOW:
        return QuarticHxx(value=math.inf * bracket if bracket else 0.0,
                          bracket=bracket, underflow=False)
    h = math.exp(exponent)
    return QuarticHxx(value=h * bracket, bracket=bracket, underflow=h == 0.0)

"""Dense naive reference for the 2-D KDE violation statistic.

Written the slow, obvious way: Silverman's bandwidth from its formula, the
KDE as a full (points x observations) matrix reduced with
``scipy.special.logsumexp``, and one second difference per (shift,
direction, step) cell formed from six separately evaluated point sets.  Agreement
with the package is evidence, not a repetition of its code path.
"""

import math

import numpy as np
from scipy.special import logsumexp


def silverman(data):
    """0.9 min(sd, IQR/1.34) m^(-1/5), per axis."""
    m = data.shape[0]
    sd = data.std(axis=0, ddof=1)
    q25, q75 = np.percentile(data, [25.0, 75.0], axis=0)
    return 0.9 * np.minimum(sd, (q75 - q25) / 1.34) * m ** (-0.2)


def kde_log_density(points, data, bandwidths):
    m, n = data.shape
    z = (points[:, None, :] - data[None, :, :]) / bandwidths
    exponent = -0.5 * np.sum(z * z, axis=2)
    return (logsumexp(exponent, axis=1) - math.log(m)
            - float(np.sum(np.log(bandwidths))) - 0.5 * n * math.log(2.0 * math.pi))


def violation_statistic(data, grid):
    """max over the grid of |second difference of log h(., y)| / t^2."""
    h = silverman(data)

    def log_f(points):
        return kde_log_density(points, data, h)

    base = grid.base_points()
    cells = [(t, t * direction) for direction in grid.directions for t in grid.steps]
    best = 0.0
    for y in grid.y_set:
        # six point sets per cell, evaluated in one dense call per shift
        blocks = [points for _, offset in cells
                  for points in (base + y + offset, base + offset, base + y,
                                 base, base + y - offset, base - offset)]
        values = np.split(log_f(np.vstack(blocks)), len(blocks))
        for at, (t, _) in enumerate(cells):
            f_yp, f_p, f_y, f_0, f_ym, f_m = values[6 * at:6 * at + 6]
            d2 = (f_yp - f_p) - 2.0 * (f_y - f_0) + (f_ym - f_m)
            best = max(best, float(np.max(np.abs(d2))) / (t * t))
    return best

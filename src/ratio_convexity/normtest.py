"""Normality testing through translation-ratio curvature of a KDE.

The statistic scans second differences of the log translation ratio of a
Gaussian-kernel density estimate: for an exactly Gaussian density they all
vanish, and smoothing by a Gaussian kernel preserves Gaussianity, so the
statistic concentrates near zero under the null and picks up log-density
curvature (kinks, heavy tails, multimodality) otherwise.  Calibration is by
parametric bootstrap: refit a Gaussian, replicate, recompute the statistic
through the identical pipeline, and rank the observed value.

Samples are standardized (mean removed, covariance whitened) before the
bandwidth and the KDE are formed, so the statistic does not change when a
sample is shifted or scaled.  The bootstrap therefore draws around 0, at
unit scale, from the shape of the fitted covariance alone.  In one
dimension that shape is 1, so the null is the standard normal: T* depends
only on the sample size, the replication count, the seed and the grid,
and the test is an exact Monte Carlo test of a pivotal statistic.  In
higher dimensions a data-dependent rotation remains and the calibration is
approximate in the same way the statistic is.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from .density import Custom
from .errors import DegenerateSampleError, UsageError
from .probe import ProbeGrid, _GridPlan, _grid_plan, _log_ratio_blocks

__all__ = [
    "DEFAULT_ALPHAS",
    "DEFAULT_REPS",
    "MAX_TEST_DIMENSION",
    "MIN_SAMPLE_SIZE",
    "Sample",
    "TestReport",
    "bandwidth_silverman",
    "default_test_grid",
    "kde_log_density",
    "monte_carlo_pvalue",
    "pvalue_from_replicates",
    "substream_seed",
    "test_normality",
    "thread_budget",
    "violation_statistic",
]

MIN_SAMPLE_SIZE = 20
MAX_TEST_DIMENSION = 3
DEFAULT_REPS = 199
MIN_REPS = 99
DEFAULT_ALPHAS = (0.01, 0.05, 0.10)

_LOG_2PI = math.log(2.0 * math.pi)
_TEST_POINTS_PER_AXIS = {1: 61, 2: 13, 3: 7}

_MASK64 = (1 << 64) - 1
#: standard deviations in [2**-300, 2**300] come out of plain arithmetic at
#: full precision; outside, the moments are formed on a rescaled copy
_MIN_SD = 2.0 ** -300
_MAX_SD = 2.0 ** 300
#: most sample values in one block of bootstrap replicates (R x m x n, one
#: replicate per first index): 327 replicates at m=200 in 1-D, 13 at m=5000
_BLOCK_VALUES = 1 << 16


class Sample:
    """Validated observation matrix of shape (m, n).

    One-dimensional input is treated as m scalar observations.  The default
    floor of 20 observations keeps bandwidths and bootstrap fits meaningful;
    pass ``min_count`` only to relax it in controlled experiments.
    """

    def __init__(self, observations, *, min_count=MIN_SAMPLE_SIZE):
        data = np.asarray(observations, dtype=float)
        if data.ndim == 1:
            data = data.reshape(-1, 1)
        if data.ndim != 2 or data.shape[1] < 1:
            raise UsageError("observations must form an (m, n) matrix")
        floor = max(int(min_count), 2)
        if data.shape[0] < floor:
            raise UsageError(
                f"need at least {floor} observations, got {data.shape[0]}")
        if not np.all(np.isfinite(data)):
            raise UsageError("observations contain a non-finite value")
        self.data = data.copy()
        self.data.setflags(write=False)

    @property
    def count(self):
        return self.data.shape[0]

    @property
    def dimension(self):
        return self.data.shape[1]

    def __repr__(self):
        return f"Sample(count={self.count}, dimension={self.dimension})"


def substream_seed(seed, index):
    """Derive a decorrelated 64-bit seed for a numbered substream.

    SplitMix64 finalizer over ``seed + index * golden-gamma``; replication r
    of a run always sees the same stream regardless of execution order or
    process placement.
    """
    z = (int(seed) + int(index) * 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def thread_budget():
    """Worker budget from RATIO_CONVEXITY_THREADS (0 = all cores, unset = 1)."""
    raw = os.environ.get("RATIO_CONVEXITY_THREADS")
    if raw is None or raw.strip() == "":
        return 1
    try:
        value = int(raw.strip())
    except ValueError:
        raise UsageError(
            f"RATIO_CONVEXITY_THREADS={raw!r} is not an integer") from None
    if value < 0:
        raise UsageError("RATIO_CONVEXITY_THREADS must be >= 0")
    if value == 0:
        return os.cpu_count() or 1
    return value


def default_test_grid(dimension):
    """Default statistic grid: x in [-3, 3], shifts up to 2, steps 0.2/0.4."""
    return ProbeGrid.for_dimension(
        int(dimension), x_min=-3.0, x_max=3.0,
        points=_TEST_POINTS_PER_AXIS.get(int(dimension), 5),
        y_magnitudes=(0.5, 1.0, 2.0), steps=(0.2, 0.4))


def _unit_scaled(values, axis=None):
    """``(values * 2**-e, e)`` with max|values| in [2**(e-1), 2**e).

    Scaling by a power of two is exact, so moments formed from the result
    neither overflow nor underflow at any sample scale (1e+-200 included),
    and ``np.ldexp(moment, e)`` maps them back bit for bit.
    """
    _, exponent = np.frexp(np.abs(values).max(axis=axis))
    return np.ldexp(values, -exponent), exponent


def _silverman_per_axis(data):
    m = data.shape[0]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        sd = data.std(axis=0, ddof=1)
    if not all(_MIN_SD <= v <= _MAX_SD for v in sd.tolist()):
        # squares of a sample near 1e+-200 over- or underflow: apply the
        # rule to an exactly rescaled copy and scale the bandwidths back
        scaled, exponent = _unit_scaled(data, axis=0)
        if np.any(exponent != 0):
            return np.ldexp(_silverman_per_axis(scaled), exponent)
    q25, q75 = np.percentile(data, [25.0, 75.0], axis=0)
    # with more than half the values tied the IQR is 0 while sd is not;
    # Silverman (1986) then uses sd alone
    spread = np.where(q75 > q25, np.minimum(sd, (q75 - q25) / 1.34), sd)
    if not all(0.0 < v < math.inf for v in spread.tolist()):
        raise DegenerateSampleError(
            "sample has an axis with no usable spread; bandwidth undefined")
    return 0.9 * spread * m ** (-0.2)


def bandwidth_silverman(sample):
    """Silverman's rule per axis: 0.9 min(sd, IQR/1.34) m^(-1/5).

    An axis whose IQR is 0 (more than half its values tied) uses sd alone.

    Returns a float in one dimension, an (n,) array otherwise.
    """
    h = _silverman_per_axis(sample.data)
    return float(h[0]) if sample.dimension == 1 else h


def _kde_batch_fn(data, bandwidths):
    m, n = data.shape
    inv = 1.0 / bandwidths
    log_norm = -(math.log(m) + float(np.log(bandwidths).sum()) + 0.5 * n * _LOG_2PI)

    def batch(points):
        return kernels.kde_log_density_batch(points, data, inv, log_norm)

    return batch


def kde_log_density(sample, bandwidth=None):
    """Gaussian product-kernel KDE of a sample as a Custom density model."""
    if not isinstance(sample, Sample):
        sample = Sample(sample)
    n = sample.dimension
    if bandwidth is None:
        bandwidths = _silverman_per_axis(sample.data)
    else:
        bandwidths = np.broadcast_to(
            np.asarray(bandwidth, dtype=float), (n,)).copy()
        if not np.all(np.isfinite(bandwidths)) or np.any(bandwidths <= 0.0):
            raise UsageError("bandwidth must be positive and finite")
    data = sample.data.copy()
    batch = _kde_batch_fn(data, bandwidths)
    model = Custom(
        n,
        evaluator=lambda point: float(batch(point.reshape(1, -1))[0]),
        batch_evaluator=batch,
        label="gaussian-kde")
    model.bandwidths = bandwidths
    model.sample_count = sample.count
    return model


def violation_statistic(model, grid=None):
    """T = max over the grid of |second difference of log h(., y)| / t^2.

    Zero (to rounding) exactly for Gaussian models; scale-free in t so that
    coarse and fine steps compete on curvature rather than step size.
    """
    if grid is None:
        grid = default_test_grid(model.dimension)
    if grid.dimension != model.dimension:
        raise UsageError(
            f"grid dimension {grid.dimension} does not match model dimension "
            f"{model.dimension}")
    return _grid_statistic(model.log_density_many, _grid_plan(grid))


def _grid_statistic(log_f, plan):
    best = 0.0
    for block, phi_minus, phi_center, phi_plus in _log_ratio_blocks(log_f, plan):
        step = plan.steps[block % len(plan.steps)]
        d2 = phi_plus - 2.0 * phi_center + phi_minus
        worst = float(np.max(np.abs(d2))) / (step * step)
        if worst > best:
            best = worst
    return best


@dataclass(frozen=True)
class _LatticePlan:
    """Shared evaluation lattice for 1-D grids whose shifts and steps are
    integer multiples of the x spacing; lets one KDE evaluation pass serve
    every (y, t) combination."""

    points: np.ndarray
    pad: int
    count: int
    pairs: tuple
    t_offsets: tuple


def _lattice_plan(grid):
    # ProbeGrid keeps |d| within 1e-12 of 1
    if grid.dimension != 1 or len(grid.directions) != 1:
        return None
    lo, hi, count = grid.x_range[0]
    spacing = (hi - lo) / (count - 1)
    values = grid.steps + tuple(float(y[0]) for y in grid.y_set)
    # a lattice with more points than the grid plan's stack (x, x + y and
    # their -/+ t d neighbours) is left to the grid plan; the test runs on
    # floats, so a step of 1e300 forms no huge offset
    reach = max(grid.steps) + max(abs(v) for v in values[len(grid.steps):])
    if count + 2.0 * reach / spacing > (
            count * (1 + len(grid.y_set)) * (1 + 2 * len(grid.steps))):
        return None
    offsets = [int(round(v / spacing)) for v in values]
    if any(o == 0 or abs(o * spacing - v) > 1e-12 * max(1.0, abs(v))
           for o, v in zip(offsets, values)):
        return None
    t_offsets = offsets[:len(grid.steps)]
    y_offsets = offsets[len(grid.steps):]

    pad = max(abs(oy) for oy in y_offsets) + max(t_offsets)
    total = count + 2 * pad
    points = (lo + (np.arange(total) - pad) * spacing).reshape(-1, 1)
    pairs = tuple((oy, ot, float(t))
                  for oy in y_offsets
                  for ot, t in zip(t_offsets, grid.steps))
    return _LatticePlan(points=points, pad=pad, count=count,
                        pairs=pairs, t_offsets=tuple(sorted(set(t_offsets))))


def _lattice_statistic(log_values, plan):
    """Statistic of each column of (lattice points, R) log-density values.

    Every step is elementwise along a column or a max over it, so each
    column's statistic is the same float as for that column alone.
    """
    d2_at = {ot: (log_values[2 * ot:] - 2.0 * log_values[ot:-ot]
                  + log_values[:-2 * ot])
             for ot in plan.t_offsets}
    best = np.zeros(log_values.shape[1:])
    for oy, ot, t in plan.pairs:
        d2 = d2_at[ot]
        lo = plan.pad - ot
        gap = d2[lo + oy:lo + oy + plan.count] - d2[lo:lo + plan.count]
        # fmax skips a NaN column maximum, as a running "worst > best" does
        np.fmax(best, np.abs(gap).max(axis=0) / (t * t), out=best)
    return best


def _reach_limit(dimension):
    """Most bandwidths a KDE's evaluation points may lie from its sample.

    The kernel squares and sums the scaled gaps between the points and the
    sample over ``dimension`` axes, and a second difference adds and
    subtracts four of the resulting log-densities; past
    sqrt(max float) / (4 n) bandwidths these sums overflow.
    """
    return math.sqrt(sys.float_info.max) / (4 * dimension)


def _check_reach(block, bandwidths, plan):
    """Refuse a grid whose points lie beyond :func:`_reach_limit` of a
    standardized sample."""
    if isinstance(plan, _GridPlan):
        reach = float(np.abs(plan.anchors).max() + np.abs(plan.deltas).max())
        steps = plan.steps
    else:
        reach = float(np.abs(plan.points).max())
        steps = sorted({t for _, _, t in plan.pairs})
    limit = _reach_limit(block.shape[2]) * float(bandwidths.min())
    if not reach + float(np.abs(block).max()) < limit:
        raise UsageError(
            f"the test grid reaches {reach:.3g} standardized units, too far "
            f"for the KDE at bandwidth {float(bandwidths.min()):.3g} "
            f"(steps {', '.join(f'{t:g}' for t in steps)}); use smaller "
            "--steps, --y-set or --x-range")


def _block_statistics(block, plan):
    """Statistics (R,) and bandwidths (R, n) of R standardized samples.

    ``block`` is a C-ordered (R, m, n) array, one sample per first index.
    On a grid plan each sample ``block[r]`` is a C-ordered (m, n) matrix
    and passes bandwidth, KDE and grid statistic alone.  On a 1-D lattice
    plan the (m, R) view of the block passes the Silverman rule at once,
    each column's reductions running over contiguous values in the same
    order as for that sample alone, and the kernel sees one sample and the
    lattice per call.
    """
    if isinstance(plan, _GridPlan):
        bandwidths = np.array([_silverman_per_axis(z) for z in block])
        _check_reach(block, bandwidths, plan)
        statistics = [_grid_statistic(_kde_batch_fn(z, h), plan)
                      for z, h in zip(block, bandwidths)]
        return np.array(statistics), bandwidths
    columns = block[:, :, 0].T
    m, width = columns.shape
    bandwidths = _silverman_per_axis(columns)
    _check_reach(block, bandwidths, plan)
    inv = 1.0 / bandwidths
    log_values = np.empty((plan.points.shape[0], width))
    for r in range(width):
        log_norm = -(math.log(m) + math.log(float(bandwidths[r])) + 0.5 * _LOG_2PI)
        log_values[:, r] = kernels.kde_log_density_batch(
            plan.points, columns[:, r:r + 1], inv[r:r + 1], log_norm)
    return _lattice_statistic(log_values, plan), bandwidths[:, None]


def _covariance(centered):
    """Unbiased covariance of deviations; the variance as a float for n = 1."""
    m, n = centered.shape
    if n == 1:
        return float(centered[:, 0] @ centered[:, 0]) / (m - 1)
    return centered.T @ centered / (m - 1)


def _moments(data):
    """``(mean, centered, cov, e)`` of a sample, at any scale.

    ``data - mean = centered * 2**e`` and ``cov`` is the covariance of
    ``centered``.  At ordinary scales e = 0 and these are the plain moments.
    When a variance falls outside [_MIN_SD**2, _MAX_SD**2] (or is not
    finite), they are formed again from a copy rescaled by exact powers of
    two: first by max|data|, then, after centering, by the largest
    deviation, so that neither the squares nor the sums leave double range.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        mean = data.mean(axis=0)
        centered = data - mean
        cov = _covariance(centered)
    variances = np.diagonal(cov).tolist() if centered.shape[1] > 1 else [cov]
    if all(_MIN_SD ** 2 <= v <= _MAX_SD ** 2 for v in variances):
        return mean, centered, cov, 0
    scaled, first = _unit_scaled(data)
    mean = scaled.mean(axis=0)
    centered, second = _unit_scaled(scaled - mean)
    return np.ldexp(mean, first), centered, _covariance(centered), first + second


def _covariance_spectrum(cov):
    """Eigenvalues (descending) and eigenvectors of a covariance matrix."""
    eigenvalues, basis = np.linalg.eigh(cov)
    eigenvalues, basis = eigenvalues[::-1], basis[:, ::-1]
    # relative to the largest eigenvalue, so that the verdict does not
    # depend on the unit of the sample
    if eigenvalues[-1] <= 1e-12 * float(eigenvalues[0]):
        raise DegenerateSampleError("sample covariance is singular")
    return eigenvalues, basis


def _standardize(data):
    _, centered, cov, _ = _moments(data)
    if centered.shape[1] == 1:
        if not (math.isfinite(cov) and cov > 0.0):
            raise DegenerateSampleError("sample variance is zero")
        return centered / math.sqrt(cov)
    eigenvalues, basis = _covariance_spectrum(cov)
    whiten = basis @ np.diag(1.0 / np.sqrt(eigenvalues)) @ basis.T
    return centered @ whiten


def _pipeline_statistic(data, plan):
    """Standardize -> bandwidth -> KDE -> statistic of one sample, as a
    one-sample block of the code the bootstrap replicates pass through."""
    z = _standardize(data)
    statistics, bandwidths = _block_statistics(z[None], plan)
    return float(statistics[0]), bandwidths[0]


def _draw(root, m, seed, index):
    """Replication ``index``: m draws from N(0, root root') on its own
    substream."""
    rng = np.random.default_rng(substream_seed(seed, index))
    return rng.standard_normal((m, root.shape[0])) @ root


def _replicate_statistics(root, m, plan, seed, start, stop):
    """T* of replications start, ..., stop - 1, in order.

    The standardized replicates are gathered into (R, m, n) blocks of at
    most _BLOCK_VALUES values (one replicate when m n exceeds it), and each
    block passes :func:`_block_statistics` once.
    """
    width = max(1, _BLOCK_VALUES // (m * root.shape[0]))
    statistics = np.empty(stop - start)
    for lo in range(start, stop, width):
        hi = min(lo + width, stop)
        block = np.stack([_standardize(_draw(root, m, seed, r))
                          for r in range(lo, hi)])
        statistics[lo - start:hi - start], _ = _block_statistics(block, plan)
    return statistics


def pvalue_from_replicates(t_observed, t_replicates):
    """Rank p-value (1 + #{T* >= T}) / (reps + 1) from a statistic stream."""
    t_replicates = np.asarray(t_replicates, dtype=float)
    if t_replicates.ndim != 1 or t_replicates.size == 0:
        raise UsageError("t_replicates must be a nonempty vector")
    count = int(np.count_nonzero(t_replicates >= float(t_observed)))
    return (1.0 + count) / (t_replicates.size + 1.0)


def _fitted_root(data):
    """Symmetric square root of the sample covariance over its largest
    eigenvalue: the shape of the fitted Gaussian, all that the standardized
    statistic sees of it.  Exactly [[1.0]] in one dimension."""
    _, _, cov, _ = _moments(data)
    eigenvalues, basis = _covariance_spectrum(np.atleast_2d(cov))
    return basis @ np.diag(np.sqrt(eigenvalues / eigenvalues[0])) @ basis.T


def monte_carlo_pvalue(sample, grid=None, reps=DEFAULT_REPS, seed=0,
                       alphas=DEFAULT_ALPHAS):
    """Parametric-bootstrap calibration of the violation statistic.

    Fits a Gaussian to the sample, draws ``reps`` replicate samples around
    0 from the shape of its covariance (one decorrelated substream per
    replication, so the result does not depend on worker scheduling),
    pushes each through the same standardize/bandwidth/KDE/statistic
    pipeline, and returns the rank p-value (1 + #{T* >= T}) / (reps + 1).
    """
    if not isinstance(sample, Sample):
        sample = Sample(sample)
    if sample.count < MIN_SAMPLE_SIZE:
        raise UsageError(
            f"the test needs at least {MIN_SAMPLE_SIZE} observations, "
            f"got {sample.count}")
    n = sample.dimension
    if n > MAX_TEST_DIMENSION:
        raise UsageError(
            f"the KDE statistic supports dimension <= {MAX_TEST_DIMENSION}, "
            f"got {n}")
    reps = int(reps)
    if reps < MIN_REPS:
        raise UsageError(f"reps must be at least {MIN_REPS}, got {reps}")
    seed = int(seed)
    alphas = tuple(float(a) for a in alphas)
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise UsageError(f"alpha {a} is outside (0, 1)")
    if grid is None:
        grid = default_test_grid(n)
    if grid.dimension != n:
        raise UsageError("grid dimension does not match the sample")

    plan = _lattice_plan(grid) or _grid_plan(grid)
    data = sample.data
    t_obs, bandwidths = _pipeline_statistic(data, plan)
    root = _fitted_root(data)

    budget = min(thread_budget(), reps, os.cpu_count() or 1)
    bounds = np.linspace(1, reps + 1, budget + 1).astype(int)
    payloads = [(root, sample.count, plan, seed, int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    if budget > 1:
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            batches = list(pool.map(_replicate_statistics, *zip(*payloads)))
    else:
        batches = [_replicate_statistics(*payload) for payload in payloads]

    p_value = pvalue_from_replicates(t_obs, np.concatenate(batches))
    bandwidth = float(bandwidths[0]) if n == 1 else tuple(float(h) for h in bandwidths)
    decisions = tuple((a, p_value <= a) for a in alphas)
    return TestReport(statistic=float(t_obs), p_value=float(p_value),
                      reps=reps, seed=seed, bandwidth=bandwidth,
                      decision_at=decisions)


@dataclass(frozen=True, eq=False)
class TestReport:
    """Outcome of one calibrated test run.

    ``bandwidth`` is the Silverman bandwidth of the standardized observed
    sample (float in one dimension, tuple per axis otherwise);
    ``decision_at`` pairs each requested alpha with the reject decision
    ``p_value <= alpha``.
    """

    statistic: float
    p_value: float
    reps: int
    seed: int
    bandwidth: float | tuple
    decision_at: tuple

    # not a pytest suite, despite the conventional name
    __test__ = False


def test_normality(sample, *, grid=None, reps=DEFAULT_REPS, seed=0,
                   alphas=DEFAULT_ALPHAS):
    """Calibrated normality test of a sample (dimension <= 3, m >= 20)."""
    if not isinstance(sample, Sample):
        sample = Sample(sample)
    return monte_carlo_pvalue(sample, grid=grid, reps=reps, seed=seed,
                              alphas=alphas)


# not a pytest case, despite the conventional name
test_normality.__test__ = False

"""Normality testing through translation-ratio curvature of a KDE.

The statistic scans second differences of the log translation ratio of a
Gaussian-kernel density estimate: for an exactly Gaussian density they all
vanish, and smoothing by a Gaussian kernel preserves Gaussianity, so the
statistic concentrates near zero under the null.  It picks up a Laplace
kink and heavy tails but, on the default grid, hardly light tails or
bimodality: past the sample log f is one kernel, of curvature -1/h^2, and
uniform samples, a +-2 normal mixture and exp(-x^4) were rejected less
often than normal ones.  Calibration is by parametric bootstrap: refit a
Gaussian, replicate, recompute the statistic through the identical
pipeline, and rank the observed value.

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

import functools
import itertools
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .density import DensityModel
from .errors import DegenerateSampleError, UsageError
from .probe import (ProbeGrid,
                    _check_log_density_range, _grid_plan,
                    _in_log_density_range, _log_density_rows, _offset_rows,
                    _read_only)

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
#: most values in a block of bootstrap replicates (R x m x n: 327 replicates
#: at m=200 in 1-D, 13 at m=5000) and in one call's KDE tables, or one table
_BLOCK_VALUES = 1 << 16
#: fewest samples in a lattice block whose statistic runs on (points, R)
#: C-ordered values: at 8 samples or fewer each sample's values laid out
#: contiguously were 1.1-7.7 times as fast on lattices of 541 to 21,601
#: points, at 32 or more C order was 1.0-1.7 times as fast (2-core host)
_WIDE_BLOCK = 16


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


def _substream_seeds(seed, start, stop):
    """``substream_seed(seed, r)`` for r = start, ..., stop - 1, as a uint64
    array: the same SplitMix64 steps on uint64 arrays, whose products wrap
    modulo 2**64 without a warning."""
    z = (np.uint64(int(seed) & _MASK64)
         + np.arange(start, stop, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15))
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _pcg64_states(seeds):
    """``np.random.default_rng(s).bit_generator.state`` for each 64-bit
    seed s, computed for all seeds at once.

    ``default_rng(s)`` hashes s with a ``SeedSequence`` into 128 bits of
    state and 128 of increment and takes two PCG64 seeding steps.  The
    hash is uint32 arithmetic over a pool of four words, done here in
    uint64 arrays (each product of two words fits), and the seeding steps
    are 128-bit Python ints.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    hash_const = _INIT_A
    multiplier = _MULT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * multiplier & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    # the seed's two 32-bit words, low first, then the hash run out over
    # zeros (a seed below 2**32 is one word, and its pool is the same)
    zeros = np.zeros_like(seeds)
    pool = [hashmix(seeds & _MASK32), hashmix(seeds >> 32),
            hashmix(zeros), hashmix(zeros)]
    for source in range(4):
        for target in range(4):
            if source != target:
                mixed = (_MIX_MULT_L * pool[target]
                         - _MIX_MULT_R * hashmix(pool[source])) & _MASK32
                pool[target] = mixed ^ mixed >> 16
    # generate_state(4, np.uint64): eight words from the cycled pool, the
    # same hash under other constants, read as four little-endian 64-bit
    # words
    hash_const, multiplier = _INIT_B, _MULT_B
    words = [hashmix(pool[index % 4]) for index in range(8)]
    halves = [(words[2 * k] | words[2 * k + 1] << 32).tolist() for k in range(4)]
    states = []
    for high, low, inc_high, inc_low in zip(*halves):
        inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
        state = ((inc + (high << 64 | low)) * _PCG64_MULTIPLIER + inc) & _MASK128
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


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


@functools.lru_cache(maxsize=None)
def default_test_grid(dimension):
    """Default statistic grid: x in [-3, 3], shifts up to 2, steps 0.2/0.4.

    One grid per dimension, shared by every call of a process: a
    :class:`ProbeGrid` cannot be changed, and the statistic knows its plan
    by it (see :func:`_statistic_plan`)."""
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


def _silverman_per_axis(data, exponent=0):
    """Silverman bandwidths (..., n) of a sample (m, n), or of each sample
    of a stack (..., m, n), each with the bits it has alone, times
    ``2**exponent`` per axis.

    The data must be at unit scale, where the squares and sums of the rule
    cannot overflow: a standardized bootstrap stack, or a raw sample as
    :func:`_unit_scaled` rescales it, with its exponents.  The rule is
    exactly equivariant under powers of two, so a raw sample's bandwidths
    are the bits of the plain rule wherever that neither over- nor
    underflows; one past double range is refused.
    """
    sd = data.std(axis=-2, ddof=1)
    ordered = np.sort(data, axis=-2)
    q25, q75 = (_sorted_quantile(ordered, q) for q in (0.25, 0.75))
    # with more than half the values tied the IQR is 0 while sd is not;
    # Silverman (1986) then uses sd alone
    spread = np.where(q75 > q25, np.minimum(sd, (q75 - q25) / 1.34), sd)
    with np.errstate(over="ignore"):
        bandwidths = np.ldexp(0.9 * spread * data.shape[-2] ** (-0.2), exponent)
    if not 0.0 < bandwidths.min() <= bandwidths.max() < math.inf:
        raise DegenerateSampleError(
            "sample has an axis with no usable spread; bandwidth undefined")
    return bandwidths


def _sorted_quantile(ordered, q):
    """The q-quantile along axis -2 of values sorted along it, by numpy's
    default ``linear`` rule, with the bits of ``np.percentile(ordered,
    100 q, axis=-2)``: its virtual index (m - 1) q, and its interpolation
    from the nearer of the two neighbours."""
    m = ordered.shape[-2]
    virtual = (m - 1) * q
    below = math.floor(virtual)
    t = virtual - below
    lo = ordered[..., below, :]
    hi = ordered[..., min(below + 1, m - 1), :]
    if t >= 0.5:
        return hi - (hi - lo) * (1.0 - t)
    return lo + (hi - lo) * t


def _axis_moments(data):
    """Per-axis mean and sd (ddof=1), each (n,), of a sample (m, n) at any
    scale (1e+-200 included), read like its Silverman bandwidths from the
    copy :func:`_unit_scaled` rescales per axis by exact powers of two, and
    mapped back with ``np.ldexp``.  An sd past double range comes back inf.
    """
    scaled, exponent = _unit_scaled(data, axis=0)
    with np.errstate(over="ignore"):
        return (np.ldexp(scaled.mean(axis=0), exponent),
                np.ldexp(scaled.std(axis=0, ddof=1), exponent))


def _log_norm(m, bandwidths):
    """The KDE's additive constant -(log m + sum_j log h_j + n/2 log 2 pi),
    from ``math.log`` (``np.log`` differs in the last bit on some h)."""
    log_h = 0.0
    for h in bandwidths:
        log_h += math.log(h)
    return -(math.log(m) + log_h + 0.5 * len(bandwidths) * _LOG_2PI)


def bandwidth_silverman(sample):
    """Silverman's rule per axis: 0.9 min(sd, IQR/1.34) m^(-1/5).

    An axis whose IQR is 0 (more than half its values tied) uses sd alone.

    Returns a float in one dimension, an (n,) array otherwise.
    """
    h = _silverman_per_axis(*_unit_scaled(sample.data, axis=0))
    return float(h[0]) if sample.dimension == 1 else h


class _KernelDensity(DensityModel):
    """Gaussian product-kernel KDE of an (m, n) sample with bandwidths h.

    Its rows are not range-checked; the grid evaluators check them.
    """

    closed_form = False
    label = "gaussian-kde"

    def __init__(self, data, bandwidths):
        m, n = data.shape
        self.dimension = n
        self.sample_count = m
        self.bandwidths = bandwidths
        self._data = data
        self._inv = 1.0 / bandwidths
        self._log_norm = _log_norm(m, bandwidths.tolist())

    def _log_density_many(self, points):
        with np.errstate(over="ignore", invalid="ignore"):
            return kernels.kde_log_density_batch(points, self._data, self._inv,
                                                 self._log_norm)


def kde_log_density(sample, bandwidth=None):
    """Gaussian product-kernel KDE of a sample as a density model.

    Without ``bandwidth`` the Silverman rule sets one bandwidth per axis,
    read at any scale from the sample rescaled per axis by exact powers of
    two (:func:`_unit_scaled`).  The grid statistic and the probes raise
    :class:`UsageError` where a log-density they read is not finite or at
    least max float / 8 in magnitude."""
    if not isinstance(sample, Sample):
        sample = Sample(sample)
    n = sample.dimension
    if bandwidth is None:
        bandwidths = _silverman_per_axis(*_unit_scaled(sample.data, axis=0))
    else:
        try:
            bandwidths = np.broadcast_to(np.asarray(bandwidth, float), (n,)).copy()
        except (TypeError, ValueError):
            raise UsageError(f"bandwidth must be a scalar or {n} values") from None
        if not np.all(np.isfinite(bandwidths)) or np.any(bandwidths <= 0.0):
            raise UsageError("bandwidth must be positive and finite")
    return _KernelDensity(sample.data.copy(), bandwidths)


def violation_statistic(model, grid=None):
    """T = max over the grid of |second difference of log h(., y)| / t^2.

    Zero (to rounding) exactly for Gaussian models; scale-free in t so that
    coarse and fine steps compete on curvature rather than step size.  The
    grid is read through the plan the test reads it through (see
    :func:`_statistic_plan`), so the default 1-D grid is read on its
    lattice, and a KDE's T is the bits of the test's observed statistic on
    the same sample.
    """
    plan = _statistic_plan(grid, model.dimension)
    # a KDE's log f comes as a table, any other model's in rows
    if isinstance(model, _KernelDensity):
        return float(_kde_statistics(model._data[None],
                                     model.bandwidths[None], plan)[0])
    if isinstance(plan, _LatticePlan):
        log_values = _log_density_rows(model.log_density_many, plan.points)
        return float(_lattice_statistic(log_values[:, None], plan)[0])
    return _grid_statistic(_offset_rows(model.log_density_many, plan), plan)


#: the default grid's plan per dimension, once built
_shared_plans = {}


def _statistic_plan(grid, dimension):
    """The plan every statistic over ``grid`` (the default for None) is read
    through: the 1-D lattice where :func:`_lattice_plan` takes the grid,
    else the grid plan.  A step whose square underflows is refused: the
    statistic divides by it.

    Either plan carries its anchors' distinct coordinates per axis
    (:func:`kernels.anchor_axes`) for the KDE table.  The default grid's
    plan is built on its first use in a process and shared from then on,
    its arrays read-only; any other grid's plan is built per call.
    """
    default = default_test_grid(dimension)
    if grid is None:
        grid = default
    elif grid.dimension != dimension:
        raise UsageError(
            f"grid dimension {grid.dimension} does not match dimension "
            f"{dimension}")
    for t in grid.steps:
        if t * t < sys.float_info.min:
            raise UsageError(
                f"step {t:g} is too small for the statistic: its square "
                "underflows")
    shared = grid is default
    if shared and dimension in _shared_plans:
        return _shared_plans[dimension]
    plan = _lattice_plan(grid) or _grid_plan(grid)
    plan = replace(plan, axes=kernels.anchor_axes(plan.anchors))
    if shared:
        _shared_plans[dimension] = _read_only(plan)
    return plan


def _grid_statistic(tables, plan):
    """The statistic over a grid plan of log f tables, one row per offset
    in the plan's order: the first array starts with the row of offset 0,
    and after it every array holds whole (-t d, +t d) pairs of rows (a
    KDE's one table, or the arrays of :func:`probe._offset_rows`).

    As on the lattice, each block takes one second difference of log f at
    every anchor and one gap between each shifted centre's and its base
    point's: the second difference of log h = log f(. + y) - log f(.).
    The blocks go in chunks of about ``kernels._CHUNK_VALUES`` gaps (or
    one block): a chunk forms its blocks' second differences at once,
    gathers their shifted centres with one ``take`` on the plan's indices
    and reduces each block with one max.  Every step is elementwise or a
    max, so a block's value does not depend on its chunk."""
    k = plan.base.shape[0]
    steps = plan.steps
    per_chunk = max(1, kernels._CHUNK_VALUES // plan.centres.size)
    tables = iter(tables)
    first = next(tables)
    # 2 log f(x) is exact, so each d2 is the bits of plus - 2 centre + minus
    centre = 2.0 * first[0]
    best = 0.0
    block = 0
    # the offsets after 0 come in (-t d, +t d) pairs, one pair per block
    for table in itertools.chain((first[1:],), tables):
        for lo in range(0, len(table), 2 * per_chunk):
            pairs = table[lo:lo + 2 * per_chunk]
            d2 = np.subtract(pairs[1::2], centre)
            d2 += pairs[::2]
            gaps = d2.take(plan.centres, axis=1)
            gaps -= d2[:, None, :k]
            np.abs(gaps, out=gaps)
            for worst in gaps.reshape(len(d2), -1).max(axis=1).tolist():
                step = steps[block % len(steps)]
                best = max(best, worst / (step * step))
                block += 1
    return best


@dataclass(frozen=True)
class _LatticePlan:
    """Shared evaluation lattice for 1-D grids whose shifts and steps are
    integer multiples of the x spacing; lets one KDE evaluation pass serve
    every (y, t) combination.

    The lattice is also a KDE table: point k is anchor a plus offset b for
    k = a B + b, with B = ceil(sqrt(points)) offsets b * spacing and
    A = ceil(points / B) anchors; the last A B - points values of a table
    are computed and dropped.  ``axes`` is as for the grid plan."""

    points: np.ndarray
    pad: int
    count: int
    pairs: tuple
    t_offsets: tuple
    anchors: np.ndarray
    offsets: np.ndarray
    axes: tuple = None


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
    offset_count = math.isqrt(total - 1) + 1
    anchor_count = -(-total // offset_count)
    anchors = float(points[0, 0]) + (np.arange(anchor_count) * offset_count) * spacing
    offsets = np.arange(offset_count) * spacing
    return _LatticePlan(points=points, pad=pad, count=count,
                        pairs=pairs, t_offsets=tuple(sorted(set(t_offsets))),
                        anchors=anchors[:, None], offsets=offsets[:, None])


def _lattice_statistic(log_values, plan):
    """Statistic of each column of (lattice points, R) log-density values.

    Every step is elementwise along a column or a max over it, so each
    column's statistic is the same float as for that column alone, in
    either memory layout.
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


def _block_statistics(block, plan):
    """Statistics (R,) and bandwidths (R, n) of R standardized samples
    (R, m, n), each the bits it has alone."""
    bandwidths = _silverman_per_axis(block)
    return _kde_statistics(block, bandwidths, plan), bandwidths


def _kde_statistics(samples, bandwidths, plan):
    """Statistics (R,) of the KDEs of samples (R, m, n) with bandwidths (R, n)
    over a plan, from their tables in sub-stacks of at most _BLOCK_VALUES
    values (or one table): a lattice reads them as one (points, R) array."""
    log_norms = [_log_norm(samples.shape[1], h) for h in bandwidths.tolist()]
    stack = max(1, _BLOCK_VALUES // (len(plan.anchors) * len(plan.offsets)))
    statistics = []
    for lo in range(0, len(samples), stack):
        part = slice(lo, lo + stack)
        tables = kernels.kde_log_density_table(
            plan.anchors, plan.offsets, samples[part],
            1.0 / bandwidths[part], log_norms[part], plan.axes)
        if isinstance(plan, _LatticePlan):
            # tables[r, b, a] is lattice point a B + b of sample r.  numpy
            # reduces a C-ordered (points, R) array row by row, fast for a
            # wide block and slow for a narrow one, whose samples' values
            # are laid out contiguously instead (the transpose of (R, points))
            if len(tables) < _WIDE_BLOCK:
                log_values = tables.transpose(0, 2, 1).reshape(len(tables), -1).T
            else:
                log_values = tables.transpose(2, 1, 0).reshape(-1, len(tables))
            log_values = log_values[:len(plan.points)]
            _check_log_density_range(log_values, plan.points)
            statistics.extend(_lattice_statistic(log_values, plan))
            continue
        for table in tables:
            if not _in_log_density_range(table):
                _check_log_density_range(
                    table, plan.anchors + plan.offsets[:, None, :])
            statistics.append(_grid_statistic((table,), plan))
    return np.array(statistics)


def _covariance(centered):
    """Unbiased covariance (..., n, n) of deviations (..., m, n)."""
    return centered.swapaxes(-1, -2) @ centered / (centered.shape[-2] - 1)


def _moments(data):
    """``(mean, centered, cov, e)`` of a sample (m, n), or of each sample
    of a stack (..., m, n), at any scale.

    ``data - mean = centered * 2**e`` and ``cov`` is the covariance of
    ``centered``, each sample reduced as it would be alone.  At ordinary
    scales e = 0 and these are the plain moments.  A sample with a variance
    outside [_MIN_SD**2, _MAX_SD**2] (or not finite) has them formed again
    from a copy rescaled by exact powers of two: first by max|sample|,
    then, after centering, by the largest deviation, so that neither the
    squares nor the sums leave double range.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        mean = data.mean(axis=-2)
        centered = data - mean[..., None, :]
        cov = _covariance(centered)
    exponents = np.zeros(data.shape[:-2], dtype=int)
    variances = np.diagonal(cov, axis1=-2, axis2=-1)
    in_range = ((_MIN_SD ** 2 <= variances)
                & (variances <= _MAX_SD ** 2)).all(axis=-1)
    for index in map(tuple, np.argwhere(~in_range)):
        scaled, first = _unit_scaled(data[index])
        sample_mean = scaled.mean(axis=0)
        centered[index], second = _unit_scaled(scaled - sample_mean)
        mean[index] = np.ldexp(sample_mean, first)
        cov[index] = _covariance(centered[index])
        exponents[index] = first + second
    return mean, centered, cov, exponents


def _covariance_spectrum(cov):
    """Eigenvalues (descending) and eigenvectors of a covariance matrix,
    or of each of a stack of them."""
    eigenvalues, basis = np.linalg.eigh(cov)
    eigenvalues, basis = eigenvalues[..., ::-1], basis[..., ::-1]
    # relative to the largest eigenvalue, so that the verdict does not
    # depend on the unit of the sample
    if np.any(eigenvalues[..., -1] <= 1e-12 * eigenvalues[..., 0]):
        raise DegenerateSampleError("sample covariance is singular")
    return eigenvalues, basis


def _standardize(data):
    """A sample (m, n), or each sample of a stack (..., m, n), centered and
    whitened, with the bits it would have alone.  Raises if any sample has
    no usable spread."""
    _, centered, cov, _ = _moments(data)
    n = data.shape[-1]
    if n == 1:
        if not np.all(np.isfinite(cov) & (cov > 0.0)):
            raise DegenerateSampleError("sample variance is zero")
        return centered / np.sqrt(cov)
    eigenvalues, basis = _covariance_spectrum(cov)
    # the matrices np.diag builds, stacked: the same products as for one
    # sample, so the same bits
    scales = np.eye(n) * (1.0 / np.sqrt(eigenvalues))[..., None, :]
    whiten = basis @ scales @ basis.swapaxes(-1, -2)
    return centered @ whiten


def _pipeline_statistic(data, plan):
    """Standardize -> bandwidth -> KDE -> statistic of one sample, as a
    one-sample block of the code the bootstrap replicates pass through."""
    statistics, bandwidths = _block_statistics(_standardize(data[None]), plan)
    return float(statistics[0]), bandwidths[0]


def _replicate_statistics(root, m, plan, seed, start, stop):
    """T* of replications start, ..., stop - 1, in order.

    Replication r is m draws from N(0, root root') on its own substream,
    the stream of ``np.random.default_rng(substream_seed(seed, r))``.  The
    replicates are drawn into (R, m, n) blocks of at most _BLOCK_VALUES
    values (one replicate when m n exceeds it).  A block's substream
    seeds and states are computed in one pass each
    (:func:`_substream_seeds`, :func:`_pcg64_states`) and the states set
    in turn on one generator, which then draws each replicate's normals:
    the bits of a fresh generator per replicate, without building one.  Each
    block is multiplied by the root (exactly [[1.0]] in 1-D, so skipped
    there), standardized and passes :func:`_block_statistics` once.
    """
    n = root.shape[0]
    width = max(1, _BLOCK_VALUES // (m * n))
    statistics = np.empty(stop - start)
    # built here, not at import: every draw first sets the state it needs
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for lo in range(start, stop, width):
        block = np.empty((min(width, stop - lo), m, n))
        states = _pcg64_states(_substream_seeds(seed, lo, lo + len(block)))
        # each replicate's C-ordered (m, n) values, as one flat row
        for draws, state in zip(block.reshape(len(block), -1), states):
            bit_generator.state = state
            generator.standard_normal(out=draws)
        if n > 1:
            block = block @ root
        try:
            block = _standardize(block)
        except DegenerateSampleError:
            raise _degenerate_replicate(block, lo, root) from None
        statistics[lo - start:lo - start + len(block)] = (
            _block_statistics(block, plan)[0])
    return statistics


def _degenerate_replicate(block, lo, root):
    """The error for a block of replicates ``lo, ...`` that could not be
    standardized, naming the first replicate that cannot be alone."""
    for r, draws in enumerate(block, lo):
        try:
            _standardize(draws[None])
        except DegenerateSampleError as exc:
            reason = str(exc)
            break
    shape = np.linalg.eigvalsh(root)  # square roots of the eigenvalue ratios
    ratio = float(shape[0] / shape[-1]) ** 2
    return DegenerateSampleError(
        f"bootstrap replication {r}: {reason}; the fitted covariance is too "
        f"close to singular for its replicates (smallest over largest "
        f"eigenvalue {ratio:.3g}, against a floor of 1e-12)")


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
    eigenvalues, basis = _covariance_spectrum(_moments(data)[2])
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
    plan = _statistic_plan(grid, n)
    data = sample.data
    t_obs, bandwidths = _pipeline_statistic(data, plan)
    root = _fitted_root(data)

    budget = min(thread_budget(), reps, os.cpu_count() or 1)
    bounds = np.linspace(1, reps + 1, budget + 1).astype(int)
    payloads = [(root, sample.count, plan, seed, int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    if budget > 1:
        # imported here: the pool's modules take 15-20 ms to import, and a
        # serial run never needs them
        from concurrent.futures import ProcessPoolExecutor
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
    return monte_carlo_pvalue(sample, grid=grid, reps=reps, seed=seed,
                              alphas=alphas)


# not a pytest case, despite the conventional name
test_normality.__test__ = False

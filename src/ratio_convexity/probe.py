"""Grid probes for convexity-type properties of translation ratios.

For a model f and shift y, let phi be either h(., y) = f(. + y)/f(.) or its
logarithm.  A probe sweeps a finite grid of (x, y, direction, step) triples,
forms the collinear second difference

    phi(x + t d) - 2 phi(x) + phi(x - t d),

and reports violations of the requested property as replayable witnesses.
Ratios of a Gaussian survive every probe of Convex / LogConvex / LogConcave;
any strict violation certifies non-Gaussianity on its own.

Every property is read from the same values of log f, so
:func:`probe_properties` plans the grid and evaluates log f once for any
number of properties and only forms their margins apart: the terms at x
once per probe, and each second difference once per block, shared by the
properties that read it; :func:`probe_property` is its one-property case.

Tolerances are scale-aware: a second-difference violation must clear
``tol * max(1, |phi(x)|)`` so that huge log-ratio magnitudes cannot
manufacture spurious witnesses.  Probes of h itself are evaluated in a
scaled form (``expm1`` of log differences) so that the test stays exact even
where h over- or underflows; violations whose *margin* is not representable
as a finite double are counted but not materialized as witnesses.
"""

from __future__ import annotations

import enum
import functools
import sys
from dataclasses import dataclass

import numpy as np

from . import kernels
from .density import as_point
from .errors import InconclusiveScanError, UsageError

__all__ = [
    "DEFAULT_STEPS",
    "DEFAULT_Y_MAGNITUDES",
    "PropertyKind",
    "ProbeGrid",
    "Verdict",
    "Witness",
    "concavity_impossibility_scan",
    "default_probe_grid",
    "default_tolerance",
    "probe_properties",
    "probe_property",
    "replay_witness",
    "second_difference",
]

DEFAULT_Y_MAGNITUDES = (0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_STEPS = (0.1, 0.5, 1.0)
#: default x points per axis; dense on the line, thinned per axis for tensor
#: grids so that default probes stay interactive
DEFAULT_POINTS_PER_AXIS = {1: 201, 2: 21, 3: 7}
#: seed of the named generator that supplies extra probe directions in n > 1
DIRECTION_SEED = 424242
_EXTRA_DIRECTIONS = 8

#: log-densities of this magnitude or more are refused: a second difference
#: of log h = log f(. + y) - log f(.) sums eight of them with weights +-1
#: and +-2, so below it none overflows
_LOG_DENSITY_LIMIT = sys.float_info.max / 8


class PropertyKind(enum.Enum):
    """Which shape property of the translation ratio a probe tests."""

    CONVEX = "convex"
    LOG_CONVEX = "log-convex"
    LOG_CONCAVE = "log-concave"
    QUASI_CONVEX = "quasi-convex"
    CONCAVE = "concave"

    @property
    def on_log(self):
        return self in (PropertyKind.LOG_CONVEX, PropertyKind.LOG_CONCAVE)


@dataclass(frozen=True, eq=False)
class ProbeGrid:
    """Finite probe lattice: x ranges per axis, shifts, directions, steps."""

    x_range: tuple
    y_set: tuple
    directions: tuple
    steps: tuple

    def __post_init__(self):
        if len(self.x_range) == 0:
            raise UsageError("x_range must cover at least one axis")
        ranges = []
        for axis in self.x_range:
            lo, hi, count = float(axis[0]), float(axis[1]), int(axis[2])
            if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
                raise UsageError(f"bad x_range axis ({lo}, {hi})")
            if not np.isfinite(hi - lo):
                raise UsageError(
                    f"x_range axis ({lo:g}, {hi:g}) is wider than double range")
            if count < 3:
                raise UsageError("each axis needs at least 3 points")
            ranges.append((lo, hi, count))
        n = len(ranges)

        if len(self.y_set) == 0:
            raise UsageError("y_set must be nonempty")
        shifts = []
        for y in self.y_set:
            y = as_point(y, n)
            y = y.copy()
            y.setflags(write=False)
            shifts.append(y)

        if len(self.directions) == 0:
            raise UsageError("directions must be nonempty")
        dirs = []
        for d in self.directions:
            d = as_point(d, n)
            norm = float(np.linalg.norm(d))
            if abs(norm - 1.0) > 1e-12:
                raise UsageError(f"direction {d.tolist()} is not unit length")
            d = d.copy()
            d.setflags(write=False)
            dirs.append(d)

        if len(self.steps) == 0:
            raise UsageError("steps must be nonempty")
        steps = []
        for t in self.steps:
            t = float(t)
            if not np.isfinite(t) or t <= 0.0:
                raise UsageError("steps must be positive and finite")
            steps.append(t)

        # every point a probe evaluates is x + y +- t d, each term at most
        # these in magnitude on its axis, and rounding keeps that order: so
        # where this sum is finite no point overflows
        x_reach = np.array([max(abs(lo), abs(hi)) for lo, hi, _ in ranges])
        y_reach = np.abs(np.array(shifts)).max(axis=0)
        step_reach = max(steps) * np.abs(np.array(dirs)).max(axis=0)
        with np.errstate(over="ignore"):
            reach = x_reach + y_reach + step_reach
        bad = np.flatnonzero(~np.isfinite(reach))
        if bad.size:
            j = int(bad[0])
            raise UsageError(
                f"axis {j}: the grid's points leave double range (|x| up to "
                f"{x_reach[j]:.3g}, shifts up to {y_reach[j]:.3g}, steps up "
                f"to {step_reach[j]:.3g})")

        object.__setattr__(self, "x_range", tuple(ranges))
        object.__setattr__(self, "y_set", tuple(shifts))
        object.__setattr__(self, "directions", tuple(dirs))
        object.__setattr__(self, "steps", tuple(steps))

    @classmethod
    def for_dimension(cls, dimension, *, x_min=-5.0, x_max=5.0, points=None,
                      y_magnitudes=DEFAULT_Y_MAGNITUDES, steps=DEFAULT_STEPS):
        """Default grid for a model of the given dimension."""
        dimension = int(dimension)
        if dimension < 1:
            raise UsageError("dimension must be >= 1")
        if points is None:
            points = DEFAULT_POINTS_PER_AXIS.get(dimension, 5)
        x_range = tuple((float(x_min), float(x_max), int(points)) for _ in range(dimension))

        shifts = []
        for magnitude in y_magnitudes:
            for axis in range(dimension):
                for sign in (1.0, -1.0):
                    y = np.zeros(dimension)
                    y[axis] = sign * float(magnitude)
                    shifts.append(y)

        if dimension == 1:
            dirs = [np.ones(1)]
        else:
            dirs = [np.eye(dimension)[axis] for axis in range(dimension)]
            rng = np.random.default_rng(DIRECTION_SEED)
            while len(dirs) < dimension + _EXTRA_DIRECTIONS:
                raw = rng.standard_normal(dimension)
                norm = np.linalg.norm(raw)
                if norm > 1e-6:
                    dirs.append(raw / norm)

        return cls(x_range=x_range, y_set=tuple(shifts),
                   directions=tuple(dirs), steps=tuple(steps))

    @property
    def dimension(self):
        return len(self.x_range)

    @property
    def point_count(self):
        total = 1
        for _, _, count in self.x_range:
            total *= count
        return total

    def axis_values(self):
        return tuple(np.linspace(lo, hi, count) for lo, hi, count in self.x_range)

    def base_points(self):
        """All grid centers as an (K, n) array in row-major axis order."""
        axes = self.axis_values()
        if len(axes) == 1:
            return axes[0].reshape(-1, 1)
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, len(axes))

    def spacing(self):
        return tuple((hi - lo) / (count - 1) for lo, hi, count in self.x_range)

    def scaled(self, factor):
        """Same lattice shape with x extents and shifts scaled by ``factor``."""
        factor = float(factor)
        x_range = tuple((lo * factor, hi * factor, count) for lo, hi, count in self.x_range)
        y_set = tuple(y * factor for y in self.y_set)
        return ProbeGrid(x_range=x_range, y_set=y_set,
                         directions=self.directions, steps=self.steps)


@dataclass(frozen=True, eq=False)
class Witness:
    """One replayable violation of a probed property.

    ``triple`` holds the three collinear evaluation points
    (x - t d, x, x + t d); ``values`` holds phi at those points, where phi is
    h(., y) for the Convex / Concave / QuasiConvex probes and log h(., y) for
    the Log probes.  ``margin`` is the signed violation size (the second
    difference, or the midpoint excess for QuasiConvex) and always exceeds
    ``tolerance_used`` in absolute value.
    """

    kind: PropertyKind
    y: np.ndarray
    x: np.ndarray
    direction: np.ndarray
    step: float
    triple: tuple
    values: tuple
    margin: float
    tolerance_used: float
    position: tuple

    def __str__(self):
        return (f"{self.kind.value} violation at x={self.x.tolist()}, "
                f"y={self.y.tolist()}, t={self.step}: margin={self.margin:.6g}")


@dataclass(frozen=True, eq=False)
class Verdict:
    """Outcome of one probe: counts plus the worst violations found."""

    kind: PropertyKind
    points_checked: int
    violation_count: int
    tolerance: float
    witnesses: tuple

    @property
    def found(self):
        return self.violation_count > 0

    @property
    def worst(self):
        return self.witnesses[0] if self.witnesses else None

    def __str__(self):
        if not self.found:
            return (f"{self.kind.value}: no violation found on the probed grid "
                    f"({self.points_checked} points)")
        return (f"{self.kind.value}: {self.violation_count} violations on "
                f"{self.points_checked} points; worst {self.worst}")


@functools.lru_cache(maxsize=None)
def default_probe_grid(dimension):
    """:meth:`ProbeGrid.for_dimension`'s grid, one per dimension, shared by
    every call of a process: a :class:`ProbeGrid` cannot be changed, and the
    probe knows its plan by it (see :func:`_probe_plan`)."""
    return ProbeGrid.for_dimension(int(dimension))


def default_tolerance(model):
    """1e-9 for closed-form models, 1e-7 for user-supplied evaluators."""
    return 1e-9 if getattr(model, "closed_form", False) else 1e-7


def second_difference(phi, x, direction, step):
    """phi(x + t d) - 2 phi(x) + phi(x - t d) for a scalar-valued phi."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    direction = np.atleast_1d(np.asarray(direction, dtype=float))
    step = float(step)
    if step <= 0.0 or not np.isfinite(step):
        raise UsageError("step must be positive and finite")
    if x.shape != direction.shape:
        raise UsageError("x and direction must have the same shape")
    offset = step * direction
    plus = float(np.asarray(phi(x + offset)).reshape(()))
    center = float(np.asarray(phi(x)).reshape(()))
    minus = float(np.asarray(phi(x - offset)).reshape(()))
    return plus - 2.0 * center + minus


@dataclass(frozen=True, eq=False)
class _CentreTerms:
    """The terms of the margins that depend on phi(x) alone, formed once
    per probe: phi(x), 2 phi(x), h(x) = exp(phi(x)) and the violation
    thresholds of the probes of h and of log h."""

    phi: np.ndarray
    #: 2 phi(x), exact, so the second difference of log h keeps its bits
    twice_phi: np.ndarray
    h: np.ndarray
    #: tol * max(1 / h(x), 1): the threshold of h's relative difference
    h_tol: np.ndarray
    #: tol * max(1, |phi(x)|)
    log_tol: np.ndarray


def _centre_terms(phi_center, tol):
    # at tol = 0 an infinite 1 / h(x) makes h_tol NaN, and no h probe there
    # finds a violation
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return _CentreTerms(
            phi=phi_center, twice_phi=2.0 * phi_center, h=np.exp(phi_center),
            h_tol=tol * np.maximum(np.exp(-phi_center), 1.0),
            log_tol=tol * np.maximum(1.0, np.abs(phi_center)))


def _block_margins(kinds, centre, phi_minus, phi_plus):
    """Margins and violation masks of each kind on one block, whose phi(x)
    terms are ``centre``.

    The log probes share one second difference of log h, and the convex
    and concave probes one relative second difference of h (scaled to
    ``expm1`` of log differences, so that it stays exact where h over- or
    underflows).
    """
    log_d2 = h_d2 = None
    margins = []
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for kind in kinds:
            if kind.on_log:
                if log_d2 is None:
                    log_d2 = phi_plus - centre.twice_phi + phi_minus
                margin = log_d2
                if kind is PropertyKind.LOG_CONVEX:
                    mask = log_d2 < -centre.log_tol
                else:
                    mask = log_d2 > centre.log_tol
            elif kind is PropertyKind.QUASI_CONVEX:
                ridge = np.maximum(phi_plus, phi_minus)
                relative = -np.expm1(ridge - centre.phi)
                margin = centre.h * relative
                mask = relative > centre.h_tol
            else:
                if h_d2 is None:
                    h_d2 = (np.expm1(phi_plus - centre.phi)
                            + np.expm1(phi_minus - centre.phi))
                    h_margin = centre.h * h_d2
                margin = h_margin
                if kind is PropertyKind.CONVEX:
                    mask = h_d2 < -centre.h_tol
                else:
                    mask = h_d2 > centre.h_tol
            margins.append((margin, mask))
    return margins


def _margins(kind, phi_minus, phi_center, phi_plus, tol):
    """Margins and violation mask of one kind on one block: the one-block
    case of the probe's :func:`_block_margins`."""
    return _block_margins((kind,), _centre_terms(phi_center, tol),
                          phi_minus, phi_plus)[0]


def _witness_values(kind, tol, phi):
    """Recorded tolerances and witness values of the cells whose log-ratios
    at x - t d, x and x + t d are the rows of ``phi`` (3, cells).  Every
    step is elementwise, so cells gathered at the hits get the bits that
    whole arrays would give."""
    if not kind.on_log:
        with np.errstate(over="ignore", under="ignore"):
            phi = np.exp(phi)
    return tol * np.maximum(1.0, np.abs(phi[1])), phi


def _in_log_density_range(log_values):
    """Whether every log-density is finite and below _LOG_DENSITY_LIMIT in
    magnitude."""
    return bool(-_LOG_DENSITY_LIMIT < log_values.min()
                and log_values.max() < _LOG_DENSITY_LIMIT)


def _check_log_density_range(log_values, points):
    """Refuse log-densities that are not finite or at least
    _LOG_DENSITY_LIMIT in magnitude, naming the first point with one.

    ``points`` holds each value's point along its leading axes: one row
    per value, one row per row of values, or one per cell of a table.
    """
    if _in_log_density_range(log_values):
        return
    first = np.flatnonzero(~(np.abs(log_values) < _LOG_DENSITY_LIMIT))[0]
    cell = np.unravel_index(first, log_values.shape)[:points.ndim - 1]
    raise UsageError(
        f"the log-density at {points[cell].tolist()} is "
        f"{log_values.flat[first]:.3g}, out of the range the statistics can "
        "use: the point lies too far out; use smaller steps, shifts or x "
        "range")


def _row_budget(dimension):
    """Most rows of ``dimension`` coordinates handed to one
    ``log_density_many`` call: the kernel's chunk of values.  Closed-form
    models (a Gaussian's whitened copy, a custom function) build arrays as
    long as the call, so this bounds their per-call memory; the KDE kernel
    bounds its own, and the built-in models' values do not depend on it."""
    return max(1, kernels._CHUNK_VALUES // dimension)


def _log_density_rows(log_f, points):
    """``log_f`` at each row, in calls of at most :func:`_row_budget`
    rows, refused by :func:`_check_log_density_range` where out of
    range."""
    budget = _row_budget(points.shape[1])
    values = []
    for start in range(0, points.shape[0], budget):
        rows = points[start:start + budget]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values.append(log_f(rows))
        _check_log_density_range(values[-1], rows)
    return values[0] if len(values) == 1 else np.concatenate(values)


@dataclass(frozen=True, eq=False)
class _GridPlan:
    """A probe grid laid out for evaluation, built once per grid.

    ``anchors`` stacks the base points x and then the distinct shifted
    centres x + y (one per bit pattern, so shifts that land on the same
    lattice point share their evaluations); ``centres[yi]`` holds the
    indices among all anchors of shift yi's centres, one per base point,
    for ``take``.  ``offsets`` holds 0 and then -t d and +t d for
    each block b, which pairs direction ``b // len(steps)`` with step
    ``steps[b % len(steps)]``: every point the grid needs is an anchor plus
    an offset.  ``axes`` is None, or the anchors' distinct coordinates per
    axis (:func:`kernels.anchor_axes`), which the normality statistic's
    plans carry for the KDE table.
    """

    base: np.ndarray
    anchors: np.ndarray
    centres: np.ndarray
    offsets: np.ndarray
    steps: tuple
    axes: tuple = None


def _distinct_rows(points):
    """``(first, inverse)`` of the distinct bit patterns among the rows.

    ``points[first]`` holds each distinct row once, at its first
    occurrence, ordered by the rows' int64 views (so 0.0 and -0.0 stay
    apart), and ``points[first][inverse]`` rebuilds ``points``: what
    ``np.unique(points.view(np.int64), axis=0, return_index=True,
    return_inverse=True)`` gives, by one stable sort.
    """
    keys = points.view(np.int64)
    # lexsort's last key is its primary one
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    fresh = np.empty(len(order), dtype=bool)
    fresh[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=fresh[1:])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(fresh) - 1
    return order[fresh], inverse


def _grid_plan(grid):
    base = grid.base_points()
    k, n = base.shape
    shifted = (base + np.asarray(grid.y_set)[:, None, :]).reshape(-1, n)
    first, inverse = _distinct_rows(shifted)
    steps = np.array([step * direction
                      for direction in grid.directions for step in grid.steps])
    # x - t d is computed as x + (-t d): the same float
    offsets = np.vstack((np.zeros((1, n)),
                         np.stack((-steps, steps), axis=1).reshape(-1, n)))
    return _GridPlan(base=base, anchors=np.vstack((base, shifted[first])),
                     centres=(inverse + k).reshape(len(grid.y_set), k),
                     offsets=offsets, steps=grid.steps)


def _read_only(plan):
    """``plan`` with every array it holds, in tuples too, made read-only,
    to be shared."""
    def freeze(values):
        if isinstance(values, np.ndarray):
            values.setflags(write=False)
        elif isinstance(values, tuple):
            for item in values:
                freeze(item)

    freeze(tuple(vars(plan).values()))
    return plan


#: the default probe grid's plan per dimension, once built
_shared_plans = {}


def _probe_plan(grid):
    """The plan a probe over ``grid`` reads.

    The default grid's plan (:func:`default_probe_grid`) in the dimensions
    of :data:`DEFAULT_POINTS_PER_AXIS` (under 0.5 MB for all three) is
    built on its first use in a process and shared from then on, its
    arrays read-only; any other grid's plan is built per call, so that a
    large grid's plan does not outlive its probe (the default 6-D grid's
    holds 41 MB).
    """
    dimension = grid.dimension
    if (dimension not in DEFAULT_POINTS_PER_AXIS
            or grid is not default_probe_grid(dimension)):
        return _grid_plan(grid)
    plan = _shared_plans.get(dimension)
    if plan is None:
        plan = _shared_plans[dimension] = _read_only(_grid_plan(grid))
    return plan


def _offset_rows(log_f, plan):
    """Yield log f over the plan's anchors plus each of its offsets in turn.

    ``log_f`` maps an (N, n) array of points to their N log-densities.
    Each yielded array has one row per offset and one column per anchor:
    first the anchors themselves, then the anchors -/+ t d of as many
    blocks as fit in :func:`_row_budget` rows, and so on.  log f is evaluated
    once per distinct point, and every point is the float the per-shift
    stack ``x + y - t d`` would give, so the values do not depend on how
    the rows are grouped into calls.

    A call's (offsets, anchors, n) points are filled axis by axis, one
    whole (offsets, anchors) plane per axis, where a broadcast sum over
    the last axis would loop over its n <= 3 entries point by point; the
    sums are the same floats.  Each call gets a new array, since ``log_f``
    may keep what it is given.
    """
    width, n = plan.anchors.shape
    yield _log_density_rows(log_f, plan.anchors)[None]
    per_call = 2 * max(1, _row_budget(n) // (2 * width))
    for start in range(1, len(plan.offsets), per_call):
        chunk = plan.offsets[start:start + per_call]
        points = np.empty((len(chunk), width, n))
        for j in range(n):
            np.add(plan.anchors[:, j], chunk[:, j, None], out=points[:, :, j])
        yield _log_density_rows(log_f, points.reshape(-1, n)).reshape(
            len(chunk), width)


def _log_ratio_blocks(tables, plan):
    """``(phi_center, blocks)`` over a grid plan, where ``blocks`` yields
    ``(block, phi_minus, phi_plus)``: the probe's log-ratios.

    ``tables`` are log f over the plan's anchors plus its offsets, one row
    per offset in the plan's order, split into arrays of any number of
    rows (see :func:`_offset_rows`).  Each phi array has shape (shifts,
    base points) and holds phi = log f(. + y) - log f(.) at x, or at
    x - t d and x + t d for every block.  The probe's margins read phi
    itself; the normality statistic, which needs only the second
    difference of phi, takes it from log f's (``normtest._grid_statistic``).
    """
    k = plan.base.shape[0]

    def phi(values):
        return values.take(plan.centres) - values[:k]

    rows = (row for table in tables for row in table)
    phi_center = phi(next(rows))
    # the offsets after 0 come in (-t d, +t d) pairs, one pair per block
    return phi_center, ((block, phi(minus), phi(plus))
                        for block, (minus, plus) in enumerate(zip(rows, rows)))


def probe_properties(model, kinds, grid=None, *, tolerance=None,
                     witness_cap=64):
    """Probe several properties of the translation ratios of ``model``.

    Returns one :class:`Verdict` per kind, in the order given.  The grid is
    planned and log f evaluated once for all of them; only the margins
    differ between kinds.  Witnesses are sorted by decreasing ``|margin|``
    (ties broken by grid position) and capped at ``witness_cap``;
    ``violation_count`` still counts everything.
    """
    return _probe(model, kinds, grid, tolerance=tolerance,
                  witness_cap=witness_cap)[0]


def _probe(model, kinds, grid=None, *, tolerance=None, witness_cap=64):
    """``(verdicts, phi)``: :func:`probe_properties`'s verdicts and the
    log-ratios phi(x) = log f(x + y) - log f(x) it read them from, one row
    per shift and one column per base point.

    With no kinds, only x and x + y are evaluated, for phi.
    """
    kinds = tuple(PropertyKind(kind) for kind in kinds)
    if grid is None:
        grid = default_probe_grid(model.dimension)
    if grid.dimension != model.dimension:
        raise UsageError(
            f"grid dimension {grid.dimension} does not match model dimension "
            f"{model.dimension}")
    tol = default_tolerance(model) if tolerance is None else float(tolerance)
    if tol < 0.0 or not np.isfinite(tol):
        raise UsageError("tolerance must be a nonnegative finite real")
    witness_cap = int(witness_cap)
    if witness_cap < 1:
        raise UsageError("witness_cap must be at least 1")

    plan = _probe_plan(grid)
    base = plan.base
    k = base.shape[0]
    candidates = [[] for _ in kinds]
    violation_counts = [0] * len(kinds)

    phi_center, blocks = _log_ratio_blocks(
        _offset_rows(model.log_density_many, plan), plan)
    if not kinds:
        return (), phi_center
    centre = _centre_terms(phi_center, tol)
    points_checked = 0
    for block, phi_minus, phi_plus in blocks:
        di, ti = divmod(block, len(grid.steps))
        points_checked += phi_center.size
        margins = _block_margins(kinds, centre, phi_minus, phi_plus)
        for slot, (kind, (margin, mask)) in enumerate(zip(kinds, margins)):
            hits = np.flatnonzero(mask)
            if not hits.size:
                continue
            violation_counts[slot] += hits.size
            # beyond double range: counted, not materialized
            hit_margins = margin.flat[hits]
            finite = np.isfinite(hit_margins)
            hits, hit_margins = hits[finite], hit_margins[finite]
            if not hits.size:
                continue
            if hits.size > witness_cap:
                # only this block's top witness_cap can reach the global
                # top; flat (shift, point) order is position order within
                # a block
                order = np.lexsort((hits, -np.abs(hit_margins)))[:witness_cap]
                hits, hit_margins = hits[order], hit_margins[order]
            # tolerances and witness values only at the hits kept
            tol_used, values = _witness_values(kind, tol, np.array(
                [phi.flat[hits] for phi in (phi_minus, phi_center, phi_plus)]))
            yi, xi = np.divmod(hits, k)
            positions = np.array((yi, xi, np.full_like(yi, di),
                                  np.full_like(yi, ti)))
            candidates[slot].append((hit_margins, positions, tol_used, values))

    verdicts = tuple(
        Verdict(kind=kind, points_checked=points_checked,
                violation_count=count, tolerance=tol,
                witnesses=_witnesses(kind, grid, base,
                                     _top_entries(found, witness_cap)))
        for kind, count, found in zip(kinds, violation_counts, candidates))
    return verdicts, phi_center


def _top_entries(found, witness_cap):
    """The ``(margin, position, tolerance, values)`` entries of the
    ``witness_cap`` largest |margin| among one verdict's candidates, ties
    broken by position (y, x, direction, step), in that order.  ``found``
    holds each block's candidates as arrays: margins, positions (4,
    cells), tolerances and values (3, cells).  (-|margin|, position) is a
    total order, so one sort of every block's top witness_cap gives the
    top witness_cap of the whole grid."""
    if not found:
        return []
    margins, positions, tolerances, values = (
        np.concatenate(parts, axis=-1) for parts in zip(*found))
    # lexsort's last key is its primary one
    order = np.lexsort((*positions[::-1], -np.abs(margins)))[:witness_cap]
    return list(zip(margins[order].tolist(),
                    map(tuple, positions[:, order].T.tolist()),
                    tolerances[order].tolist(),
                    map(tuple, values[:, order].T.tolist())))


def _witnesses(kind, grid, base, kept):
    """The witnesses of one verdict's kept entries.  Their points are
    formed at once, as the floats x - t d, x and x + t d of each entry
    alone, in one new array (``base`` may be a shared plan's) of which
    each witness gets its own rows: x, then its triple."""
    if not kept:
        return ()
    _, xi, di, ti = np.array([entry[1] for entry in kept]).T
    x = base[xi]
    offset = np.array(grid.steps)[ti, None] * np.array(grid.directions)[di]
    points = np.stack((x, x - offset, x, x + offset), axis=1)
    witnesses = []
    for (m, position, tol_used, values), rows in zip(kept, points):
        yi, _, di, ti = position
        witnesses.append(Witness(
            kind=kind, y=grid.y_set[yi], x=rows[0],
            direction=grid.directions[di], step=grid.steps[ti],
            triple=(rows[1], rows[2], rows[3]), values=values, margin=m,
            tolerance_used=tol_used, position=position))
    return tuple(witnesses)


def probe_property(model, kind, grid=None, *, tolerance=None, witness_cap=64):
    """Probe one property of the translation ratios of ``model`` over a grid.

    Returns a :class:`Verdict`; see :func:`probe_properties`.
    """
    return probe_properties(model, (kind,), grid, tolerance=tolerance,
                            witness_cap=witness_cap)[0]


def replay_witness(model, witness):
    """Recompute a witness margin from its stored evaluation points.

    Uses the probe's arithmetic: log f at (x + y) -/+ t d and x -/+ t d in
    one ``log_density_many`` call, and the probe's margin formula, so a
    witness of a built-in model or a KDE replays its recorded margin bit
    for bit.
    """
    offset = witness.step * witness.direction
    centre = witness.x + witness.y
    points = np.array((centre - offset, centre, centre + offset) + witness.triple)
    log_f = model.log_density_many(points)
    phi_minus, phi_center, phi_plus = log_f[:3] - log_f[3:]
    margin, _ = _margins(witness.kind, phi_minus, phi_center, phi_plus, 0.0)
    return float(margin)


def concavity_impossibility_scan(model, grid=None, *, tolerance=None,
                                 max_expansions=6, witness_cap=64):
    """Find a witness against concavity of some translation ratio.

    No positive density has h(., y) concave for every y, so a violation
    always exists; the scan retries on grids with doubled extents and shifts
    (up to ``max_expansions`` times) before giving up with
    :class:`InconclusiveScanError`.
    """
    if grid is None:
        grid = default_probe_grid(model.dimension)
    rounds = int(max_expansions) + 1
    for attempt in range(rounds):
        verdict = probe_property(model, PropertyKind.CONCAVE, grid,
                                 tolerance=tolerance, witness_cap=witness_cap)
        if verdict.found and verdict.worst is not None:
            return verdict.worst
        if attempt + 1 < rounds:
            grid = grid.scaled(2.0)
    raise InconclusiveScanError(
        f"no concavity violation found after {rounds} grid expansions; "
        "widen the grid or add shifts")

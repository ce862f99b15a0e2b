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
number of properties and only forms their margins apart;
:func:`probe_property` is its one-property case.

Tolerances are scale-aware: a second-difference violation must clear
``tol * max(1, |phi(x)|)`` so that huge log-ratio magnitudes cannot
manufacture spurious witnesses.  Probes of h itself are evaluated in a
scaled form (``expm1`` of log differences) so that the test stays exact even
where h over- or underflows; violations whose *margin* is not representable
as a finite double are counted but not materialized as witnesses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

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

#: most rows handed to one ``log_density_many`` call by the grid evaluator.
#: Closed-form models (a Gaussian's whitened copy, a custom function) build
#: arrays as long as the call, so this bounds their per-call memory; the KDE
#: kernel bounds its own, and its results and time do not depend on it
_ROW_BUDGET = 8192


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


def _margins(kind, phi_minus, phi_center, phi_plus, tol):
    """Vectorized margins, recorded tolerances, and violation mask."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if kind.on_log:
            margin = phi_plus - 2.0 * phi_center + phi_minus
            tol_used = tol * np.maximum(1.0, np.abs(phi_center))
            if kind is PropertyKind.LOG_CONVEX:
                mask = margin < -tol_used
            else:
                mask = margin > tol_used
            return margin, tol_used, mask, (phi_minus, phi_center, phi_plus)

        h_center = np.exp(phi_center)
        scale = np.maximum(np.exp(-phi_center), 1.0)
        tol_used = tol * np.maximum(1.0, h_center)
        if kind is PropertyKind.QUASI_CONVEX:
            ridge = np.maximum(phi_plus, phi_minus)
            relative = -np.expm1(ridge - phi_center)
            mask = relative > tol * scale
            margin = h_center * relative
        else:
            relative = np.expm1(phi_plus - phi_center) + np.expm1(phi_minus - phi_center)
            if kind is PropertyKind.CONVEX:
                mask = relative < -tol * scale
            else:
                mask = relative > tol * scale
            margin = h_center * relative
        values = (np.exp(phi_minus), h_center, np.exp(phi_plus))
        return margin, tol_used, mask, values


def _log_density_rows(log_f, points):
    """``log_f`` at each row, in calls of at most ``_ROW_BUDGET`` rows."""
    if points.shape[0] <= _ROW_BUDGET:
        return log_f(points)
    return np.concatenate([
        log_f(points[start:start + _ROW_BUDGET])
        for start in range(0, points.shape[0], _ROW_BUDGET)])


@dataclass(frozen=True, eq=False)
class _GridPlan:
    """A probe grid laid out for evaluation, built once per grid.

    ``anchors`` stacks the base points x and then the distinct shifted
    centres x + y (one per bit pattern, so shifts that land on the same
    lattice point share their evaluations); ``rows[yi]`` picks shift yi's
    centres out of them.  ``deltas[b]`` holds -t d and +t d for block b,
    which pairs direction ``b // len(steps)`` with step ``steps[b % len(steps)]``.
    """

    base: np.ndarray
    anchors: np.ndarray
    rows: np.ndarray
    deltas: np.ndarray
    steps: tuple


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
    offsets = np.array([step * direction
                        for direction in grid.directions for step in grid.steps])
    # x - t d is computed as x + (-t d): the same float
    return _GridPlan(base=base, anchors=np.vstack((base, shifted[first])),
                     rows=inverse.reshape(len(grid.y_set), k),
                     deltas=np.stack((-offsets, offsets), axis=1)[:, :, None, :],
                     steps=grid.steps)


def _log_ratio_blocks(log_f, plan):
    """Yield ``(block, phi_minus, phi_center, phi_plus)`` over a grid plan.

    ``log_f`` maps an (N, n) array of points to their N log-densities.
    Each phi array has shape (shifts, base points) and holds
    phi = log f(. + y) - log f(.) at x - t d, x and x + t d.  log f is
    evaluated once per distinct point: the anchors once, and each anchor
    at -/+ t d once per block.  Every point is the float the per-shift
    stack ``x + y - t d`` would give, so the phi values do not depend on
    how the rows are grouped into calls.
    """
    k, n = plan.base.shape
    head = _log_density_rows(log_f, plan.anchors)
    phi_center = head[k:][plan.rows] - head[:k]
    width = plan.anchors.shape[0]
    per_call = max(1, _ROW_BUDGET // (2 * width))
    for start in range(0, len(plan.deltas), per_call):
        chunk = plan.deltas[start:start + per_call]
        values = _log_density_rows(log_f, (plan.anchors + chunk).reshape(-1, n))
        for block, (minus, plus) in enumerate(
                values.reshape(len(chunk), 2, width), start):
            yield (block, minus[k:][plan.rows] - minus[:k], phi_center,
                   plus[k:][plan.rows] - plus[:k])


def probe_properties(model, kinds, grid=None, *, tolerance=None,
                     witness_cap=64):
    """Probe several properties of the translation ratios of ``model``.

    Returns one :class:`Verdict` per kind, in the order given.  The grid is
    planned and log f evaluated once for all of them; only the margins
    differ between kinds.  Witnesses are sorted by decreasing ``|margin|``
    (ties broken by grid position) and capped at ``witness_cap``;
    ``violation_count`` still counts everything.
    """
    kinds = tuple(PropertyKind(kind) for kind in kinds)
    if grid is None:
        grid = ProbeGrid.for_dimension(model.dimension)
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
    if not kinds:
        return ()

    plan = _grid_plan(grid)
    base = plan.base
    k = base.shape[0]
    candidates = [[] for _ in kinds]
    violation_counts = [0] * len(kinds)
    points_checked = 0

    for block, phi_minus, phi_center, phi_plus in _log_ratio_blocks(
            model.log_density_many, plan):
        di, ti = divmod(block, len(grid.steps))
        points_checked += phi_center.size
        for slot, kind in enumerate(kinds):
            margin, tol_used, mask, triple_values = _margins(
                kind, phi_minus, phi_center, phi_plus, tol)
            violation_counts[slot] += int(np.count_nonzero(mask))
            # beyond double range: counted, not materialized
            hits = np.flatnonzero(mask & np.isfinite(margin))
            if hits.size > witness_cap:
                # only this block's top witness_cap can reach the global
                # top; flat (shift, point) order is position order within
                # a block
                order = np.lexsort((hits, -np.abs(margin.flat[hits])))
                hits = hits[order[:witness_cap]]
            kept = candidates[slot]
            for flat in hits.tolist():
                yi, xi = divmod(flat, k)
                kept.append((
                    float(margin.flat[flat]), (yi, xi, di, ti),
                    float(tol_used.flat[flat]),
                    tuple(float(v.flat[flat]) for v in triple_values),
                ))
            # (-|margin|, position) is a total order, so the top
            # witness_cap kept after each block are the top witness_cap of
            # the whole grid
            kept.sort(key=lambda entry: (-abs(entry[0]), entry[1]))
            del kept[witness_cap:]

    return tuple(
        Verdict(kind=kind, points_checked=points_checked,
                violation_count=count, tolerance=tol,
                witnesses=tuple(_witness(kind, grid, base, entry)
                                for entry in kept))
        for kind, count, kept in zip(kinds, violation_counts, candidates))


def _witness(kind, grid, base, entry):
    m, position, tol_used, triple_values = entry
    yi, xi, di, ti = position
    x = base[xi]
    direction = grid.directions[di]
    step = grid.steps[ti]
    offset = step * direction
    return Witness(
        kind=kind, y=grid.y_set[yi], x=x, direction=direction, step=step,
        triple=(x - offset, x.copy(), x + offset),
        values=triple_values, margin=m, tolerance_used=tol_used,
        position=position)


def probe_property(model, kind, grid=None, *, tolerance=None, witness_cap=64):
    """Probe one property of the translation ratios of ``model`` over a grid.

    Returns a :class:`Verdict`; see :func:`probe_properties`.
    """
    return probe_properties(model, (kind,), grid, tolerance=tolerance,
                            witness_cap=witness_cap)[0]


def replay_witness(model, witness):
    """Recompute a witness margin from its stored evaluation points.

    Uses the same arithmetic as the probe, so a sound witness reproduces its
    recorded margin to within 1e-12 (typically bit-for-bit).
    """
    y = witness.y
    phi = [model.log_density(point + y) - model.log_density(point)
           for point in witness.triple]
    phi_minus, phi_center, phi_plus = (float(v) for v in phi)
    kind = witness.kind
    if kind.on_log:
        return phi_plus - 2.0 * phi_center + phi_minus
    h_center = float(np.exp(phi_center))
    if kind is PropertyKind.QUASI_CONVEX:
        ridge = max(phi_plus, phi_minus)
        return h_center * float(-np.expm1(ridge - phi_center))
    relative = float(np.expm1(phi_plus - phi_center)) + float(np.expm1(phi_minus - phi_center))
    return h_center * relative


def concavity_impossibility_scan(model, grid=None, *, tolerance=None,
                                 max_expansions=6, witness_cap=64):
    """Find a witness against concavity of some translation ratio.

    No positive density has h(., y) concave for every y, so a violation
    always exists; the scan retries on grids with doubled extents and shifts
    (up to ``max_expansions`` times) before giving up with
    :class:`InconclusiveScanError`.
    """
    if grid is None:
        grid = ProbeGrid.for_dimension(model.dimension)
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

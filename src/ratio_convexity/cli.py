"""Command-line interface.

Four subcommands over the library: ``probe`` (grid probes of ratio
convexity properties), ``fit`` (log-quadratic fit and Gaussian
classification), ``test`` (calibrated KDE normality test of CSV samples),
and ``counterexample`` (exact tables for the Laplace and quartic families).

Reports are canonical JSON: keys sorted, two-space indent, shortest
round-trip float representation, no NaN/inf; the text of ``json.dumps(...,
sort_keys=True, indent=2, allow_nan=False)``, written by :func:`_json_text`.
Identical inputs and seeds produce byte-identical bytes.  Exit codes: 0
success (a probe that finds violations is a successful probe), 2 usage
errors, 3 numeric failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import math
import re
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, kernels
from .characterize import (classify_gaussian, default_fit_lattice,
                           eigen_symmetric, fit_log_quadratic)
from .density import (Custom, Gaussian, GaussianParams, Laplace1D,
                      LogQuadraticForm, Quartic1D)
from .errors import (DegenerateSampleError, InconclusiveScanError,
                     ModelContractError, UsageError)
from .normtest import (DEFAULT_ALPHAS, MAX_TEST_DIMENSION, Sample, _axis_moments,
                       default_test_grid, kde_log_density, test_normality)
# probe_property is unused here, but perfbench/tracing.py wraps this binding
from .probe import (ProbeGrid, PropertyKind, Witness, _probe,
                    default_probe_grid, default_tolerance, probe_property)
from .ratio import (LAPLACE_BRANCHES, laplace_branch, laplace_log_ratio,
                    quartic_hxx)

SCHEMA_VERSION = 1

_DEFAULT_PROBE_PROPERTIES = ("convex", "log-convex", "log-concave")


# ---------------------------------------------------------------- parsing

def _floats(text, flag):
    values = []
    for token in str(text).replace(";", ",").split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(float(token))
        except ValueError:
            raise UsageError(f"{flag}: {token!r} is not a number") from None
    if not values:
        raise UsageError(f"{flag}: expected at least one number")
    return values


def parse_samples_csv(path):
    """Read a numeric CSV into a :class:`Sample`.

    The first row is treated as a header when any of its cells fails to
    parse as a number.  Ragged rows and non-numeric cells are reported with
    their 1-based row numbers.  Only structural validation happens here;
    consumers impose their own sample-size floors.
    """
    rows = []
    header = False
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as handle:
            for line, cells in enumerate(csv.reader(handle), start=1):
                if not cells:
                    continue  # an empty line
                try:
                    values = list(map(float, cells))
                except ValueError:
                    if not "".join(cells).strip():
                        continue  # a row of blank cells
                    if not rows and not header:
                        header = True
                        continue
                    values = None  # reported once the row's width is checked
                if rows and len(cells) != len(rows[0]):
                    raise UsageError(f"{path}: row {line} has {len(cells)} "
                                     f"columns, expected {len(rows[0])}")
                if values is None:
                    for column, cell in enumerate(cells, start=1):
                        try:
                            float(cell)
                        except ValueError:
                            raise UsageError(
                                f"{path}: row {line}, column {column}: "
                                f"{cell.strip()!r} is not a number") from None
                rows.append(values)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise UsageError(f"{path}: no data rows" if header else f"{path}: no rows")
    return Sample(np.asarray(rows, dtype=float), min_count=2)


# ----------------------------------------------------------- model setup

def _build_model(args):
    """Resolve --model/--input into (model, descriptor, sample-or-None)."""
    name = getattr(args, "model", None)
    path = getattr(args, "input", None)
    if name and path:
        raise UsageError("give either --model or --input, not both")
    if name:
        if name == "laplace":
            return Laplace1D(), {"kind": "laplace"}, None
        if name == "quartic":
            return Quartic1D(), {"kind": "quartic"}, None
        if name == "gaussian":
            mean = _floats(getattr(args, "mu", None) or "0", "--mu")
            n = len(mean)
            sigma_text = getattr(args, "sigma", None)
            if sigma_text is None:
                cov = np.eye(n)
            else:
                entries = _floats(sigma_text, "--sigma")
                if len(entries) == 1:
                    cov = entries[0] * np.eye(n)
                elif len(entries) == n * n:
                    cov = np.asarray(entries).reshape(n, n)
                else:
                    raise UsageError(
                        f"--sigma needs 1 or {n * n} values for dimension {n}")
            params = GaussianParams(mean, cov)
            return Gaussian(params), {
                "kind": "gaussian",
                "mean": params.mean.tolist(),
                "covariance": params.covariance.tolist(),
            }, None
        raise UsageError(f"unknown model {name!r}")
    if path:
        sample = parse_samples_csv(path)
        if sample.dimension > MAX_TEST_DIMENSION:
            raise UsageError(
                f"KDE models support dimension <= {MAX_TEST_DIMENSION}, "
                f"the file has {sample.dimension} columns")
        model = kde_log_density(sample)
        descriptor = {
            "kind": "kde",
            "input": str(path),
            "count": sample.count,
            "dimension": sample.dimension,
            "bandwidth": [float(h) for h in model.bandwidths],
        }
        return model, descriptor, sample
    raise UsageError("a model is required: --model NAME or --input FILE.csv")


def _probe_grid(args, model, sample):
    """Probe grid from flags; data-driven defaults for KDE models.

    A KDE's grid spans each axis's mean +- 4 sd, with shifts and steps
    scaled by the mean sd; an axis whose span leaves double range is
    refused by name.
    """
    n = model.dimension
    default = default_probe_grid(n)
    if sample is None:
        return _apply_grid_flags(args, default)
    mean, sd = _axis_moments(sample.data)
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = mean - 4.0 * sd, mean + 4.0 * sd
        width = hi - lo
    bad = np.flatnonzero(~np.isfinite(width))
    if bad.size:
        j = int(bad[0])
        raise UsageError(
            f"axis {j}: the probe range mean +- 4 sd ({mean[j]:.3g} +- "
            f"4 x {sd[j]:.3g}) leaves double range")
    # every 8 sd is finite, so the mean sd and the shifts of up to 4 mean
    # sds are too
    scale = float(sd.mean())
    return _apply_grid_flags(args, ProbeGrid(
        x_range=tuple((float(lo[j]), float(hi[j]), default.x_range[j][2])
                      for j in range(n)),
        y_set=tuple(y * scale for y in default.y_set),
        directions=default.directions,
        steps=tuple(t * scale for t in default.steps)))


def _apply_grid_flags(args, grid):
    """Override a base grid with --x-range/--points/--y-set/--steps.

    Each shift magnitude in --y-set becomes one shift along every axis.
    With none of the flags set, the base grid itself comes back.
    """
    if (args.x_range, args.points, args.y_set, args.steps) == (None,) * 4:
        return grid
    n = grid.dimension
    x_range = grid.x_range
    if args.x_range is not None:
        bounds = _floats(args.x_range, "--x-range")
        if len(bounds) != 2 or bounds[0] >= bounds[1]:
            raise UsageError("--x-range expects LO,HI with LO < HI")
        x_range = tuple((bounds[0], bounds[1], axis[2]) for axis in x_range)
    if args.points is not None:
        x_range = tuple((axis[0], axis[1], int(args.points)) for axis in x_range)
    y_set = grid.y_set
    if args.y_set is not None:
        shifts = []
        for value in _floats(args.y_set, "--y-set"):
            for axis in range(n):
                y = np.zeros(n)
                y[axis] = value
                shifts.append(y)
        y_set = tuple(shifts)
    steps = (tuple(_floats(args.steps, "--steps")) if args.steps is not None
             else grid.steps)
    return ProbeGrid(x_range=x_range, y_set=y_set,
                     directions=grid.directions, steps=steps)


# -------------------------------------------------------------- reporting

def _grid_dict(grid):
    return {
        "x_range": [[lo, hi, count] for lo, hi, count in grid.x_range],
        "y_set": [y.tolist() for y in grid.y_set],
        "directions": [d.tolist() for d in grid.directions],
        "steps": list(grid.steps),
    }


def _verdict_dict(verdict):
    payload = {
        "verdict": "violation-found" if verdict.found else "no-violation-found",
        "points_checked": verdict.points_checked,
        "violation_count": verdict.violation_count,
        "tolerance": verdict.tolerance,
        # each Witness is written by _witness_text
        "witnesses": verdict.witnesses,
    }
    if not verdict.found:
        payload["note"] = "no violation found on the probed grid"
    return payload


class _FloatText(dict):
    """A float's JSON text, keyed by the float: one repr per distinct value.

    Zeros stay out, because 0.0 == -0.0 and both hash alike: a memo keyed
    by value would print -0.0 as 0.0.
    """

    def __missing__(self, value):
        text = float.__repr__(value)
        if "n" in text:  # inf, -inf or nan: no finite float's repr holds an n
            raise ValueError("Out of range float values are not JSON "
                             f"compliant: {value!r}")
        if value:
            self[value] = text
        return text


class _Placeholders(dict):
    """Every float's text is ``%s``: :func:`_witness_template`'s memo."""

    def __missing__(self, value):
        return "%s"


@functools.lru_cache(maxsize=None)
def _witness_template(dimension, newline):
    """The ``%`` template of a witness of ``dimension`` coordinates that
    starts on the line ``newline`` ends: the emitter's own text of a
    witness's dict, with a ``%s`` for each scalar.

    Its fields come in the dict's sorted key order: direction, margin,
    position, property, step, tolerance_used, triple, values, x and y.
    """
    point = [0.0] * dimension
    skeleton = {"direction": point, "margin": 0.0, "position": [0.0] * 4,
                "property": 0.0, "step": 0.0, "tolerance_used": 0.0,
                "triple": [point] * 3, "values": [0.0] * 3, "x": point,
                "y": point}
    pieces = []
    _append_json(skeleton, newline, pieces, _Placeholders())
    return "".join(pieces)


def _witness_text(witness, newline, floats):
    """A :class:`Witness`'s text, its shape's template filled in: the
    emitter's text of the witness's dict, which holds ``kind.value`` as
    "property", its arrays and tuples as lists and its other fields as they
    are.  Floats are written through ``floats``, positions as ints."""
    text = floats.__getitem__
    first, middle, last = witness.triple
    return _witness_template(witness.x.size, newline) % (
        *map(text, witness.direction.tolist()), text(witness.margin),
        *map(int.__repr__, witness.position),
        encode_basestring_ascii(witness.kind.value), text(witness.step),
        text(witness.tolerance_used), *map(text, first.tolist()),
        *map(text, middle.tolist()), *map(text, last.tolist()),
        *map(text, witness.values), *map(text, witness.x.tolist()),
        *map(text, witness.y.tolist()))


def _json_text(payload):
    """``json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)``.

    The same text, without the stdlib's pure-Python encoder, which is the
    one it runs when an indent is asked for.  A payload is a tree of dicts
    with str keys, lists, tuples, strings, ints, floats, booleans and None,
    where a :class:`Witness` stands for its dict (see :func:`_witness_text`);
    anything else raises ``TypeError``, and inf or NaN ``ValueError``.
    """
    pieces = []
    _append_json(payload, "\n", pieces, _FloatText())
    return "".join(pieces)


def _append_json(value, newline, pieces, floats):
    """Append ``value``'s text to ``pieces``; ``newline`` is a line break
    and the indent of the line that ``value`` starts on."""
    if isinstance(value, str):
        pieces.append(encode_basestring_ascii(value))
    elif value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif isinstance(value, int):
        pieces.append(int.__repr__(value))
    elif isinstance(value, float):
        pieces.append(floats[value])
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append("[]")
            return
        inner = newline + "  "
        if all(type(item) is float for item in value):
            pieces += ("[", inner, ("," + inner).join(map(floats.__getitem__, value)),
                       newline, "]")
            return
        opening = "[" + inner
        for item in value:
            pieces.append(opening)
            _append_json(item, inner, pieces, floats)
            opening = "," + inner
        pieces.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        inner = newline + "  "
        opening = "{" + inner
        for key in sorted(value):
            pieces.append(opening + encode_basestring_ascii(key) + ": ")
            _append_json(value[key], inner, pieces, floats)
            opening = "," + inner
        pieces.append(newline + "}")
    elif isinstance(value, Witness):
        pieces.append(_witness_text(value, newline, floats))
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")


def _emit(payload, output):
    text = _json_text(payload) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------ subcommands

def _run_probe(args):
    model, descriptor, sample = _build_model(args)
    grid = _probe_grid(args, model, sample)

    if args.property:
        names = []
        for chunk in args.property:
            names.extend(p.strip() for p in chunk.split(",") if p.strip())
    else:
        names = list(_DEFAULT_PROBE_PROPERTIES)
    try:
        kinds = [PropertyKind(name) for name in names]
    except ValueError:
        valid = ", ".join(kind.value for kind in PropertyKind)
        raise UsageError(
            f"--property must be one of: {valid}") from None

    tolerance = args.tol if args.tol is not None else default_tolerance(model)
    verdicts, phi = _probe(model, kinds, grid, tolerance=tolerance,
                           witness_cap=args.witness_cap)
    properties = {verdict.kind.value: _verdict_dict(verdict)
                  for verdict in verdicts}

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "probe",
        "model": descriptor,
        "grid": _grid_dict(grid),
        "tolerance": tolerance,
        "properties": properties,
    }
    if model.dimension == 1:
        # the probe's own log h(x, y), one row per shift
        xs = grid.base_points()[:, 0].tolist()
        payload["series"] = [{"y": y.tolist(), "x": xs, "log_ratio": log_h}
                             for y, log_h in zip(grid.y_set, phi.tolist())]
    _emit(payload, args.output)
    return 0


def _fit_standardized(model, sample, lattice, fit_tol):
    """Fit and classify a sample's KDE in standardized coordinates.

    ``lattice`` is laid out in z = (x - mean) / sd per axis, so the
    residual and the verdict do not depend on the sample's location or
    scale; the fitted (A, b, c) and the Gaussian are then mapped back to x.
    Returns the report in x, the mean and the per-axis sd.
    """
    n = model.dimension
    mean, scale = _axis_moments(sample.data)
    standardized = Custom(
        n, evaluator=lambda z: model.log_density(mean + scale * z),
        batch_evaluator=lambda z: model.log_density_many(mean + scale * z))
    fitted = classify_gaussian(
        fit_log_quadratic(standardized, n, lattice), fit_tol=fit_tol)
    # log f(x) = -(z'Az)/2 - b'z - c with z = (x - mean) / scale
    with np.errstate(over="ignore", invalid="ignore"):
        inv = 1.0 / scale
        a_matrix = fitted.form.A * np.outer(inv, inv)
        b_scaled = fitted.form.b * inv
        coefficients = (a_matrix, b_scaled - a_matrix @ mean,
                        fitted.form.c - float(b_scaled @ mean)
                        + 0.5 * float(mean @ a_matrix @ mean))
        moments = () if fitted.gaussian is None else (
            mean + scale * fitted.gaussian.mean,
            fitted.gaussian.covariance * np.outer(scale, scale))
    if not all(np.all(np.isfinite(v)) for v in coefficients + moments):
        raise UsageError(
            f"the fit at sample scale {', '.join(f'{v:.3g}' for v in scale)} "
            "cannot be reported: its form or Gaussian leaves double range")
    form = LogQuadraticForm(*coefficients)
    gaussian = GaussianParams(*moments) if moments else None
    report = dataclasses.replace(fitted, form=form, gaussian=gaussian,
                                 spectral=eigen_symmetric(form.A))
    return report, mean, scale


def _run_fit(args):
    model, descriptor, sample = _build_model(args)
    n = model.dimension
    if args.tol is not None:
        fit_tol = args.tol
    else:
        # KDE log-densities carry smoothing bias; exact models do not
        fit_tol = 0.25 if descriptor["kind"] == "kde" else 1e-6
    if sample is not None:
        points = default_fit_lattice(n)
        report, center, scale = _fit_standardized(model, sample, points, fit_tol)
    else:
        center = (np.asarray(descriptor["mean"], dtype=float)
                  if descriptor["kind"] == "gaussian" else None)
        points = default_fit_lattice(n, center=center)
        report = classify_gaussian(fit_log_quadratic(model, n, points),
                                   fit_tol=fit_tol)
    lattice = {"points": points.shape[0],
               "center": (center.tolist() if center is not None
                          else [0.0] * n),
               "half_width": 4.0}
    if sample is not None:
        # the lattice spans center +- half_width * scale on each axis
        lattice["scale"] = scale.tolist()

    fit_payload = {
        "A": report.form.A.tolist(),
        "b": report.form.b.tolist(),
        "c": report.form.c,
        "residual_max": report.residual_max,
        "residual_rms": report.residual_rms,
        "eigenvalues": report.spectral.eigenvalues.tolist(),
        "fit_tol": fit_tol,
    }
    if report.gaussian is not None:
        fit_payload["gaussian"] = {
            "mean": report.gaussian.mean.tolist(),
            "covariance": report.gaussian.covariance.tolist(),
        }
        fit_payload["failure_reason"] = None
    else:
        fit_payload["gaussian"] = None
        fit_payload["failure_reason"] = report.failure_reason

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "model": descriptor,
        "lattice": lattice,
        "fit": fit_payload,
    }
    _emit(payload, args.output)
    return 0


def _run_test(args):
    if not args.input:
        raise UsageError("test requires --input FILE.csv")
    sample = parse_samples_csv(args.input)
    grid = None
    if sample.dimension <= MAX_TEST_DIMENSION:
        grid = _apply_grid_flags(args, default_test_grid(sample.dimension))

    alphas = (tuple(_floats(args.alpha, "--alpha")) if args.alpha is not None
              else DEFAULT_ALPHAS)
    report = test_normality(sample, grid=grid, reps=args.reps, seed=args.seed,
                            alphas=alphas)

    bandwidth = report.bandwidth
    if isinstance(bandwidth, tuple):
        bandwidth = list(bandwidth)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "test",
        "input": str(args.input),
        "sample": {"count": sample.count, "dimension": sample.dimension},
        "report": {
            "statistic": report.statistic,
            "p_value": report.p_value,
            "reps": report.reps,
            "seed": report.seed,
            "bandwidth": bandwidth,
            "decisions": [{"alpha": alpha, "reject": bool(reject)}
                          for alpha, reject in report.decision_at],
        },
        "provenance": {
            "version": __version__,
            "backend": kernels.backend_name(),
            "grid": _grid_dict(grid),
        },
    }
    _emit(payload, args.output)
    return 0


def _run_counterexample(args):
    family = args.family
    bounds = (_floats(args.x_range, "--x-range") if args.x_range is not None
              else [-4.0, 4.0])
    if len(bounds) != 2 or bounds[0] >= bounds[1]:
        raise UsageError("--x-range expects LO,HI with LO < HI")
    if not math.isfinite(bounds[1] - bounds[0]):
        raise UsageError(
            f"--x-range ({bounds[0]:g}, {bounds[1]:g}) is wider than double range")
    points = args.points if args.points is not None else 41
    if points < 2:
        raise UsageError("--points must be at least 2")
    xs = np.linspace(bounds[0], bounds[1], points)

    if family == "laplace":
        ys = (_floats(args.y_set, "--y-set") if args.y_set is not None
              else [0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
        model = Laplace1D()
        rows = []
        for y in ys:
            for x in xs:
                value = laplace_log_ratio(x, y)
                rows.append({"x": float(x), "y": float(y),
                             "branch": laplace_branch(x, y),
                             "log_ratio": value})
        x_column = np.tile(xs, len(ys))
        direct = (model.log_density_many(x_column + np.repeat(ys, len(xs)))
                  - model.log_density_many(x_column))
        log_ratios = np.array([row["log_ratio"] for row in rows])
        worst_gap = float(np.max(np.abs(log_ratios - direct)))
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "counterexample",
            "family": "laplace",
            "branches": LAPLACE_BRANCHES,
            "max_difference_vs_density": worst_gap,
            "rows": rows,
        }
    elif family == "quartic":
        root6 = math.sqrt(6.0)
        ys = (_floats(args.y_set, "--y-set") if args.y_set is not None
              else [0.1, 0.5, 1.0, 2.0, 3.0])
        for boundary in (root6, -root6):
            if not any(abs(y - boundary) < 1e-12 for y in ys):
                ys.append(boundary)
        rows = []
        for y in ys:
            for x in xs:
                result = quartic_hxx(x, y)
                sign = 0 if result.bracket == 0.0 else int(math.copysign(1.0, result.bracket))
                rows.append({"x": float(x), "y": float(y),
                             "h_xx": result.value, "bracket": result.bracket,
                             "bracket_sign": sign,
                             "underflow": bool(result.underflow)})
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "counterexample",
            "family": "quartic",
            "convexity_threshold": root6,
            "rows": rows,
        }
    else:
        raise UsageError(f"unknown counterexample family {family!r}")
    _emit(payload, args.output)
    return 0


# ------------------------------------------------------------------ main

def _add_model_flags(parser):
    parser.add_argument("--model", choices=["gaussian", "laplace", "quartic"],
                        help="built-in density model")
    parser.add_argument("--mu", help="Gaussian mean, comma-separated")
    parser.add_argument("--sigma",
                        help="Gaussian covariance: scalar or n*n row-major values")
    parser.add_argument("--input", help="CSV sample; model becomes its KDE")


def _add_grid_flags(parser):
    parser.add_argument("--x-range", dest="x_range", help="LO,HI for every axis")
    parser.add_argument("--points", type=int, help="grid points per axis")
    parser.add_argument("--y-set", dest="y_set",
                        help="comma-separated shift magnitudes")
    parser.add_argument("--steps", help="comma-separated step sizes t")


# lets "--x-range -4,4" parse as a value instead of an unknown flag
_NEGATIVE_VALUE = re.compile(r"^-\d|^-\.\d")


def _allow_negative_values(parser):
    parser._negative_number_matcher = _NEGATIVE_VALUE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ratio-convexity",
        description="Probe convexity of density translation ratios, fit "
                    "log-quadratics, and test samples for normality.")
    _allow_negative_values(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    probe = sub.add_parser("probe", help="grid-probe ratio convexity properties")
    _add_model_flags(probe)
    _add_grid_flags(probe)
    probe.add_argument("--property", action="append",
                       help="property to probe (repeatable or comma-separated); "
                            "default: convex, log-convex, log-concave")
    probe.add_argument("--tol", type=float, help="violation tolerance")
    probe.add_argument("--witness-cap", dest="witness_cap", type=int, default=64)
    probe.add_argument("--output", help="write the JSON report to a file")
    probe.set_defaults(handler=_run_probe)

    fit = sub.add_parser("fit", help="fit log f to a quadratic and classify")
    _add_model_flags(fit)
    fit.add_argument("--tol", type=float,
                     help="fit_tol for classification (default 1e-6; 0.25 for KDE)")
    fit.add_argument("--output", help="write the JSON report to a file")
    fit.set_defaults(handler=_run_fit)

    test = sub.add_parser("test", help="calibrated normality test of a CSV sample")
    test.add_argument("--input", required=False, help="CSV sample file")
    _add_grid_flags(test)
    test.add_argument("--reps", type=int, default=199,
                      help="bootstrap replications (default 199)")
    test.add_argument("--seed", type=int, default=0, help="master seed")
    test.add_argument("--alpha", help="comma-separated levels (default 0.01,0.05,0.10)")
    test.add_argument("--output", help="write the JSON report to a file")
    test.set_defaults(handler=_run_test)

    counter = sub.add_parser("counterexample",
                             help="exact tables for the counterexample families")
    counter.add_argument("family", choices=["laplace", "quartic"])
    counter.add_argument("--x-range", dest="x_range", help="LO,HI")
    counter.add_argument("--points", type=int, help="x points (default 41)")
    counter.add_argument("--y-set", dest="y_set", help="comma-separated shifts")
    counter.add_argument("--output", help="write the JSON report to a file")
    counter.set_defaults(handler=_run_counterexample)

    for command in (probe, fit, test, counter):
        _allow_negative_values(command)
    return parser


@functools.lru_cache(maxsize=1)
def _shared_parser():
    """:func:`build_parser`'s parser, built on the first call of a process:
    parsing reads it and changes nothing in it, so calls can share it."""
    return build_parser()


def main(argv=None):
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ModelContractError, DegenerateSampleError, InconclusiveScanError,
            ArithmeticError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

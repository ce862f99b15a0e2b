"""Command-line interface.

Four subcommands over the library: ``probe`` (grid probes of ratio
convexity properties), ``fit`` (log-quadratic fit and Gaussian
classification), ``test`` (calibrated KDE normality test of CSV samples),
and ``counterexample`` (exact tables for the Laplace and quartic families).

Reports are canonical JSON: keys sorted, two-space indent, shortest
round-trip float representation, no NaN/inf.  Identical inputs and seeds
produce byte-identical bytes.  Exit codes: 0 success (a probe that finds
violations is a successful probe), 2 usage errors, 3 numeric failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import re
import sys

import numpy as np

from . import __version__, kernels
from .characterize import (classify_gaussian, default_fit_lattice,
                           eigen_symmetric, fit_log_quadratic)
from .density import (Custom, Gaussian, GaussianParams, Laplace1D,
                      LogQuadraticForm, Quartic1D)
from .errors import (DegenerateSampleError, InconclusiveScanError,
                     ModelContractError, UsageError)
from .normtest import (MAX_TEST_DIMENSION, Sample, _moments, _reach_limit,
                       _unit_scaled, default_test_grid, kde_log_density,
                       test_normality)
# probe_property is unused here, but perfbench/tracing.py wraps this binding
from .probe import (ProbeGrid, PropertyKind, default_tolerance,
                    probe_properties, probe_property)
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
    try:
        with open(path, "r", newline="", encoding="utf-8") as handle:
            raw_rows = [(line, row) for line, row in
                        ((i + 1, row) for i, row in enumerate(csv.reader(handle)))
                        if any(cell.strip() for cell in row)]
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    if not raw_rows:
        raise UsageError(f"{path}: no rows")

    def parse_row(cells):
        return [float(cell) for cell in cells]

    first_line, first_cells = raw_rows[0]
    start = 0
    try:
        parse_row(first_cells)
    except ValueError:
        start = 1  # header row
    if start == len(raw_rows):
        raise UsageError(f"{path}: no data rows")

    width = len(raw_rows[start][1])
    rows = []
    for line, cells in raw_rows[start:]:
        if len(cells) != width:
            raise UsageError(
                f"{path}: row {line} has {len(cells)} columns, expected {width}")
        try:
            rows.append(parse_row(cells))
        except ValueError:
            for column, cell in enumerate(cells, start=1):
                try:
                    float(cell)
                except ValueError:
                    raise UsageError(
                        f"{path}: row {line}, column {column}: "
                        f"{cell.strip()!r} is not a number") from None
            raise
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
    """Probe grid from flags; data-driven defaults for KDE models."""
    n = model.dimension
    if sample is None:
        return _apply_grid_flags(args, ProbeGrid.for_dimension(n))
    # moments of the exactly rescaled sample, mapped back: no overflow or
    # underflow at any scale
    scaled, exponent = _unit_scaled(sample.data, axis=0)
    sd = np.ldexp(scaled.std(axis=0, ddof=1), exponent)
    mean = np.ldexp(scaled.mean(axis=0), exponent)
    scale = float(sd.mean())
    if not (np.all(sd > 0) and np.isfinite(scale)):
        raise DegenerateSampleError("sample has an axis with zero spread")
    default = ProbeGrid.for_dimension(n)
    x_range = tuple(
        (float(mean[j] - 4.0 * sd[j]), float(mean[j] + 4.0 * sd[j]),
         default.x_range[j][2])
        for j in range(n))
    grid = _apply_grid_flags(args, ProbeGrid(
        x_range=x_range,
        y_set=tuple(y * scale for y in default.y_set),
        directions=default.directions,
        steps=tuple(t * scale for t in default.steps)))
    _check_kde_reach(grid, sample.data, mean, model.bandwidths)
    return grid


def _check_kde_reach(grid, data, center, bandwidths):
    """Refuse a probe grid whose points lie beyond the reach limit of the
    sample's KDE (see ``normtest._reach_limit``), before any is evaluated.

    Per axis, a point's gap to a sample value is bounded by the grid's
    and the sample's largest distances from ``center``; a unit direction
    moves no axis by more than the step.
    """
    with np.errstate(over="ignore"):
        lo, hi = np.array([axis[:2] for axis in grid.x_range]).T
        points = (np.maximum(np.abs(lo - center), np.abs(hi - center))
                  + np.abs(np.asarray(grid.y_set)).max(axis=0)
                  + max(grid.steps))
        spread = np.abs(data - center).max(axis=0)
        reach = float(((points + spread) / bandwidths).max())
    if not reach < _reach_limit(len(bandwidths)):
        steps = ", ".join(f"{t:g}" for t in grid.steps)
        raise UsageError(
            f"the probe grid reaches {reach:.3g} bandwidths from the sample, "
            f"too far for its KDE (steps {steps}); use smaller --steps, "
            "--y-set or --x-range")


def _apply_grid_flags(args, grid):
    """Override a base grid with --x-range/--points/--y-set/--steps.

    Each shift magnitude in --y-set becomes one shift along every axis.
    """
    n = grid.dimension
    x_range = grid.x_range
    if args.x_range:
        bounds = _floats(args.x_range, "--x-range")
        if len(bounds) != 2 or bounds[0] >= bounds[1]:
            raise UsageError("--x-range expects LO,HI with LO < HI")
        x_range = tuple((bounds[0], bounds[1], axis[2]) for axis in x_range)
    if args.points:
        x_range = tuple((axis[0], axis[1], int(args.points)) for axis in x_range)
    y_set = grid.y_set
    if args.y_set:
        shifts = []
        for value in _floats(args.y_set, "--y-set"):
            for axis in range(n):
                y = np.zeros(n)
                y[axis] = value
                shifts.append(y)
        y_set = tuple(shifts)
    steps = tuple(_floats(args.steps, "--steps")) if args.steps else grid.steps
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


def _witness_dict(witness):
    return {
        "property": witness.kind.value,
        "x": witness.x.tolist(),
        "y": witness.y.tolist(),
        "direction": witness.direction.tolist(),
        "step": witness.step,
        "triple": [point.tolist() for point in witness.triple],
        "values": list(witness.values),
        "margin": witness.margin,
        "tolerance_used": witness.tolerance_used,
        "position": list(witness.position),
    }


def _verdict_dict(verdict):
    payload = {
        "verdict": "violation-found" if verdict.found else "no-violation-found",
        "points_checked": verdict.points_checked,
        "violation_count": verdict.violation_count,
        "tolerance": verdict.tolerance,
        "witnesses": [_witness_dict(w) for w in verdict.witnesses],
    }
    if not verdict.found:
        payload["note"] = "no violation found on the probed grid"
    return payload


def _emit(payload, output):
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
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
    verdicts = probe_properties(model, kinds, grid, tolerance=tolerance,
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
        xs = grid.base_points()
        log_f = model.log_density_many(xs)
        series = []
        for y in grid.y_set:
            log_h = model.log_density_many(xs + y) - log_f
            series.append({"y": y.tolist(), "x": xs[:, 0].tolist(),
                           "log_ratio": log_h.tolist()})
        payload["series"] = series
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
    mean, _, cov, exponent = _moments(sample.data)
    scale = np.ldexp(np.sqrt(np.diagonal(np.atleast_2d(cov))), exponent)
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

    alphas = tuple(_floats(args.alpha, "--alpha")) if args.alpha else None
    kwargs = {"grid": grid, "reps": args.reps, "seed": args.seed}
    if alphas is not None:
        kwargs["alphas"] = alphas
    report = test_normality(sample, **kwargs)

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
    bounds = _floats(args.x_range, "--x-range") if args.x_range else [-4.0, 4.0]
    if len(bounds) != 2 or bounds[0] >= bounds[1]:
        raise UsageError("--x-range expects LO,HI with LO < HI")
    points = int(args.points) if args.points else 41
    if points < 2:
        raise UsageError("--points must be at least 2")
    xs = np.linspace(bounds[0], bounds[1], points)

    if family == "laplace":
        ys = _floats(args.y_set, "--y-set") if args.y_set else [0.5, -0.5, 1.0, -1.0, 2.0, -2.0]
        model = Laplace1D()
        rows = []
        worst_gap = 0.0
        for y in ys:
            for x in xs:
                value = laplace_log_ratio(x, y)
                direct = (model.log_density([x + y]) - model.log_density([x]))
                worst_gap = max(worst_gap, abs(value - direct))
                rows.append({"x": float(x), "y": float(y),
                             "branch": laplace_branch(x, y),
                             "log_ratio": value})
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
        ys = _floats(args.y_set, "--y-set") if args.y_set else [0.1, 0.5, 1.0, 2.0, 3.0]
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
    try:
        parser._negative_number_matcher = _NEGATIVE_VALUE
    except AttributeError:  # pragma: no cover - future argparse internals
        pass


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


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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

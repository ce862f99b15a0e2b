import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ratio_convexity
from ratio_convexity import cli
from ratio_convexity.cli import build_parser, main, parse_samples_csv
from ratio_convexity.errors import UsageError
from ratio_convexity.probe import ProbeGrid, PropertyKind
from ratio_convexity.ratio import laplace_log_ratio

# .../src/ratio_convexity/__init__.py -> .../src, so that a child interpreter
# imports the same copy of the package
SRC_DIR = str(Path(ratio_convexity.__file__).parents[1])


# -------------------------------------------------------------- CSV parsing


# Excel's "CSV UTF-8" starts the file with a byte-order mark, which must
# not turn the first cell into text
_BOM = "\ufeff"


def test_parse_csv_with_header(tmp_path):
    for prefix in ("", _BOM):
        path = tmp_path / "small.csv"
        path.write_text(prefix + "value\n1.5\n-2.0\n0.25\n", encoding="utf-8")
        sample = parse_samples_csv(path)
        assert sample.count == 3
        assert sample.dimension == 1
        assert sample.data[:, 0].tolist() == [1.5, -2.0, 0.25]


def test_parse_csv_without_header(tmp_path):
    for prefix in ("", _BOM):
        path = tmp_path / "bare.csv"
        path.write_text(prefix + "1.0,2.0\n3.0,4.0\n5.0,6.0\n", encoding="utf-8")
        sample = parse_samples_csv(path)
        assert sample.count == 3
        assert sample.dimension == 2
        assert sample.data[0].tolist() == [1.0, 2.0]
        assert sample.data[2].tolist() == [5.0, 6.0]


def test_parse_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("x\n\n1.0\n\n\n2.0\n3.0\n")
    sample = parse_samples_csv(path)
    assert sample.count == 3


def test_parse_csv_ragged_row_reports_line_number(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(UsageError, match="row 3"):
        parse_samples_csv(path)


def test_parse_csv_bad_cell_reports_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(UsageError, match="row 2, column 2"):
        parse_samples_csv(path)


def test_parse_csv_missing_file():
    with pytest.raises(UsageError, match="cannot read"):
        parse_samples_csv("/nonexistent/path.csv")


def test_parse_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x,y\n")
    with pytest.raises(UsageError, match="no data rows"):
        parse_samples_csv(path)


# ------------------------------------------------------------------ probe


def test_probe_gaussian_defaults(run_cli_json):
    payload = run_cli_json(["probe", "--model", "gaussian",
                            "--mu", "0", "--sigma", "1"])
    assert payload["schema_version"] == 1
    assert payload["command"] == "probe"
    assert sorted(payload["properties"]) == ["convex", "log-concave",
                                             "log-convex"]
    for verdict in payload["properties"].values():
        assert verdict["verdict"] == "no-violation-found"
        assert verdict["violation_count"] == 0


def test_probe_laplace_exact_witness(run_cli_json):
    payload = run_cli_json(["probe", "--model", "laplace", "--y-set", "1",
                            "--steps", "1", "--x-range", "-4,4",
                            "--points", "9", "--property", "convex"])
    verdict = payload["properties"]["convex"]
    assert verdict["verdict"] == "violation-found"
    assert verdict["violation_count"] == 1
    witness = verdict["witnesses"][0]
    assert witness["x"] == [-1.0]
    assert witness["y"] == [1.0]
    assert witness["step"] == 1.0
    expected = math.exp(-1) - math.exp(1)
    assert witness["margin"] == pytest.approx(expected, abs=1e-12)


def test_probe_series_matches_closed_form(run_cli_json):
    payload = run_cli_json(["probe", "--model", "laplace", "--y-set", "0.5",
                            "--x-range", "-2,2", "--points", "5",
                            "--steps", "0.5", "--property", "quasi-convex"])
    series = payload["series"]
    # --y-set values are literal: no sign expansion
    assert {s["y"][0] for s in series} == {0.5}
    for entry in series:
        y = entry["y"][0]
        for x, value in zip(entry["x"], entry["log_ratio"]):
            assert value == pytest.approx(laplace_log_ratio(x, y), abs=1e-14)


def test_probe_property_flag_forms(run_cli_json):
    payload = run_cli_json(["probe", "--model", "gaussian", "--mu", "0",
                            "--sigma", "1", "--x-range", "-2,2",
                            "--points", "5", "--y-set", "1", "--steps", "1",
                            "--property", "convex,concave",
                            "--property", "quasi-convex"])
    assert sorted(payload["properties"]) == ["concave", "convex", "quasi-convex"]
    # a Gaussian ratio is strictly convex, so the concave probe must object
    assert payload["properties"]["concave"]["verdict"] == "violation-found"


def test_probe_witness_cap(run_cli_json):
    payload = run_cli_json(["probe", "--model", "laplace",
                            "--property", "convex", "--witness-cap", "2"])
    verdict = payload["properties"]["convex"]
    assert len(verdict["witnesses"]) == 2
    assert verdict["violation_count"] > 2


def test_probe_all_properties_equal_single_runs(run_cli_json):
    names = [kind.value for kind in PropertyKind]
    together = run_cli_json(["probe", "--model", "laplace",
                             "--property", ",".join(names)])
    singles = {}
    for name in names:
        singles.update(run_cli_json(["probe", "--model", "laplace",
                                     "--property", name])["properties"])
    assert together["properties"] == singles


@pytest.mark.parametrize("step", ["1e300", "1e200"])
def test_probe_step_beyond_the_kde_range_is_refused(run_cli, capsys, data_dir,
                                                    step):
    # the squared scaled gaps of such a step overflow in the kernel
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["probe", "--input", str(data_dir / "normal_200.csv"),
                             "--property", "log-convex", "--steps", step])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    # the first point past the KDE's finite range: the lowest x less a step
    assert err.startswith(f"error: the log-density at [-{float(step):g}] ")


def test_probe_step_within_the_kde_range_runs(run_cli_json, data_dir):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = run_cli_json(["probe", "--input",
                                str(data_dir / "normal_200.csv"),
                                "--property", "log-convex", "--steps", "1e150"])
    assert payload["grid"]["steps"] == [1e150]


def test_probe_kde_from_csv(run_cli_json, normal_csv):
    payload = run_cli_json(["probe", "--input", str(normal_csv)])
    assert payload["model"]["kind"] == "kde"
    assert payload["model"]["count"] == 60
    assert payload["model"]["bandwidth"][0] > 0.0
    # data-driven grid: centered near the sample mean, a few sd wide
    lo, hi, count = payload["grid"]["x_range"][0]
    assert lo < 0.0 < hi
    assert count >= 3


# -------------------------------------------------------------------- fit


def test_fit_gaussian_recovers_parameters(run_cli_json):
    payload = run_cli_json(["fit", "--model", "gaussian",
                            "--mu", "1", "--sigma", "2"])
    fit = payload["fit"]
    assert fit["failure_reason"] is None
    assert fit["gaussian"]["mean"][0] == pytest.approx(1.0, abs=1e-8)
    assert fit["gaussian"]["covariance"][0][0] == pytest.approx(2.0, rel=1e-8)
    assert fit["residual_max"] <= 1e-9


def test_fit_gaussian_full_covariance(run_cli_json):
    payload = run_cli_json(["fit", "--model", "gaussian", "--mu", "1,-1",
                            "--sigma", "2,0.5,0.5,1"])
    covariance = payload["fit"]["gaussian"]["covariance"]
    np.testing.assert_allclose(covariance, [[2.0, 0.5], [0.5, 1.0]], rtol=1e-8)


def test_fit_wide_gaussian_is_integrable(run_cli_json):
    # the curvature 1e-11 is far above rounding; a positive-definiteness
    # floor that was absolute below 1 called this Gaussian non-integrable
    fit = run_cli_json(["fit", "--model", "gaussian", "--sigma", "1e11"])["fit"]
    assert fit["failure_reason"] is None
    assert fit["gaussian"]["covariance"][0][0] == pytest.approx(1e11, rel=1e-3)


def test_fit_laplace_is_rejected(run_cli_json):
    payload = run_cli_json(["fit", "--model", "laplace"])
    fit = payload["fit"]
    assert fit["gaussian"] is None
    assert fit["failure_reason"].startswith("not log-quadratic")
    assert fit["residual_max"] > 0.1


def test_fit_quartic_is_rejected(run_cli_json):
    payload = run_cli_json(["fit", "--model", "quartic"])
    assert payload["fit"]["gaussian"] is None


def test_fit_kde_sample_has_loose_tolerance(run_cli_json, normal_csv):
    payload = run_cli_json(["fit", "--input", str(normal_csv)])
    assert payload["fit"]["fit_tol"] == 0.25
    assert payload["command"] == "fit"


def test_fit_rejects_overflowing_design():
    # a Gaussian centred at 1e200 puts the fixed lattice at 1e200, whose
    # squared design columns overflow; LAPACK lstsq did not return on such
    # an inf design, and a child interpreter with a timeout turns a hang
    # into a failure instead of a stalled suite.  (--input samples are fit
    # on a standardized lattice and no longer reach that design.)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC_DIR + (os.pathsep + inherited if inherited else ""))
    result = subprocess.run(
        [sys.executable, "-m", "ratio_convexity.cli", "fit", "--model", "gaussian",
         "--mu", "1e200"],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 2, result.stderr
    assert "overflow the quadratic design" in result.stderr


def test_fit_input_is_location_scale_equivariant(run_cli_json, tmp_path):
    # the fit lattice spans the sample mean +- 4 sd per axis, so shifting
    # and rescaling the sample leaves the residual and the verdict alone;
    # on the fixed +-4 lattice N(5, 1e-3^2) gave a residual of 2.6e4
    z = np.random.default_rng(4).standard_normal(300)
    fits = {}
    for scale in (1e-3, 1.0, 1e3, 1e200):
        path = tmp_path / f"scaled_{scale:g}.csv"
        path.write_text("".join(f"{v!r}\n" for v in (5.0 + scale * z).tolist()))
        payload = run_cli_json(["fit", "--input", str(path)])
        assert payload["lattice"]["scale"][0] == pytest.approx(scale * np.std(z, ddof=1),
                                                               rel=1e-12)
        fits[scale] = payload["fit"]
    reference = fits[1.0]
    for scale, fit in fits.items():
        assert fit["residual_max"] == pytest.approx(reference["residual_max"], rel=1e-9)
        assert fit["failure_reason"] == reference["failure_reason"]
        assert fit["gaussian"] == reference["gaussian"]
    assert fits[1e-3]["A"][0][0] == pytest.approx(1e6 * reference["A"][0][0], rel=1e-6)


def test_fit_input_maps_the_gaussian_back(run_cli_json, tmp_path):
    # a tolerance loose enough to accept the KDE fit: (A, b, c), the mean
    # and the covariance are reported in the sample's own coordinates
    z = np.random.default_rng(5).standard_normal(400)
    payloads = {}
    for scale in (1.0, 1e-3):
        path = tmp_path / f"scaled_{scale:g}.csv"
        path.write_text("".join(f"{v!r}\n" for v in (5.0 + scale * z).tolist()))
        payloads[scale] = run_cli_json(["fit", "--input", str(path), "--tol", "10"])
    unit, small = payloads[1.0]["fit"], payloads[1e-3]["fit"]
    assert (small["gaussian"]["mean"][0] - 5.0) == pytest.approx(
        1e-3 * (unit["gaussian"]["mean"][0] - 5.0), rel=1e-6)
    assert small["gaussian"]["covariance"][0][0] == pytest.approx(
        1e-6 * unit["gaussian"]["covariance"][0][0], rel=1e-9)
    # the form in x is the reported Gaussian's exponent: A is its precision
    # and -b / A its mean; at the sample mean, log f is 1000 times the
    # density (log 1000 higher) at the smaller scale
    at_mean = {}
    for scale, payload in payloads.items():
        fit, x = payload["fit"], payload["lattice"]["center"][0]
        assert fit["A"][0][0] * fit["gaussian"]["covariance"][0][0] == pytest.approx(1.0, rel=1e-12)
        assert -fit["b"][0] / fit["A"][0][0] == pytest.approx(fit["gaussian"]["mean"][0], rel=1e-12)
        at_mean[scale] = -(0.5 * fit["A"][0][0] * x * x + fit["b"][0] * x + fit["c"])
    assert at_mean[1e-3] - at_mean[1.0] == pytest.approx(math.log(1e3), abs=1e-6)

    # a covariance of 1e-14 is a Gaussian too, not refused by an absolute floor
    path = tmp_path / "scaled_1e-07.csv"
    path.write_text("".join(f"{v!r}\n" for v in (5.0 + 1e-7 * z).tolist()))
    tiny = run_cli_json(["fit", "--input", str(path), "--tol", "10"])["fit"]["gaussian"]
    assert tiny["covariance"][0][0] == pytest.approx(
        1e-14 * unit["gaussian"]["covariance"][0][0], rel=1e-6)


def test_fit_input_reads_each_axis_at_its_own_scale(run_cli_json, tmp_path):
    # axis scales 1e150 and 1e-150: one rescale factor for both axes crushed
    # the small axis's sd to 0, and the fit was refused with a warning
    z = np.random.default_rng(5).standard_normal((60, 2))
    fits = {}
    for name, values in (("unit", z), ("mixed", z * [1e150, 1e-150])):
        path = tmp_path / f"{name}.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n"
                                for row in values.tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            payload = run_cli_json(["fit", "--input", str(path)])
        assert payload["lattice"]["scale"] == values.std(axis=0, ddof=1).tolist()
        fits[name] = payload["fit"]
    assert fits["mixed"]["residual_max"] == pytest.approx(fits["unit"]["residual_max"],
                                                          rel=1e-9)
    assert fits["mixed"]["failure_reason"] == fits["unit"]["failure_reason"]


@pytest.mark.parametrize("scale, flags", [(1e-200, []), (1e200, ["--tol", "10"])])
def test_fit_input_out_of_double_range_is_refused(run_cli, capsys, tmp_path,
                                                  scale, flags):
    # at sd 1e-200 the precision A in x is 1e400; at 1e200 an accepted
    # fit's covariance is 1e400: refused in words, with no overflow warning
    z = np.random.default_rng(5).standard_normal(400)
    path = tmp_path / "far.csv"
    path.write_text("".join(f"{v!r}\n" for v in (scale * z).tolist()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["fit", "--input", str(path)] + flags)
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: the fit at sample scale {scale * np.std(z, ddof=1):.3g} ")
    assert "leaves double range" in err


# ------------------------------------------------------------------- test


def test_test_subcommand_full_payload(run_cli_json, normal_csv):
    payload = run_cli_json(["test", "--input", str(normal_csv),
                            "--reps", "99", "--seed", "5"])
    assert payload["schema_version"] == 1
    assert payload["sample"] == {"count": 60, "dimension": 1}
    report = payload["report"]
    assert report["statistic"] == pytest.approx(9.654638336626796, rel=1e-11)
    assert report["p_value"] == 0.54
    assert report["reps"] == 99
    assert [d["alpha"] for d in report["decisions"]] == [0.01, 0.05, 0.10]
    assert all(d["reject"] is False for d in report["decisions"])
    provenance = payload["provenance"]
    assert provenance["backend"] in ("compiled", "pure")
    assert provenance["grid"]["x_range"] == [[-3.0, 3.0, 61]]


def test_test_output_is_byte_identical(run_cli, normal_csv):
    argv = ["test", "--input", str(normal_csv), "--reps", "99", "--seed", "5"]
    code_a, text_a = run_cli(argv)
    code_b, text_b = run_cli(argv)
    assert code_a == code_b == 0
    assert text_a == text_b
    assert text_a.endswith("\n")


def test_test_alpha_override(run_cli_json, normal_csv):
    payload = run_cli_json(["test", "--input", str(normal_csv),
                            "--reps", "99", "--seed", "5",
                            "--alpha", "0.5"])
    decisions = payload["report"]["decisions"]
    assert decisions == [{"alpha": 0.5, "reject": False}]


def test_test_grid_flags(run_cli, run_cli_json, normal_csv):
    payload = run_cli_json(["test", "--input", str(normal_csv),
                            "--points", "31", "--reps", "99"])
    assert payload["provenance"]["grid"]["x_range"] == [[-3.0, 3.0, 31]]
    code, _ = run_cli(["test", "--input", str(normal_csv),
                       "--x-range", "5,1"])
    assert code == 2


def _sample_csv(tmp_path, dimension, draw="normal"):
    """A seeded sample as a header-less CSV: a 2-D (50 rows, correlated) or
    3-D (40 rows, axis scales 1, 2 and 1/2) normal one, or a 1-D (300 rows)
    or 2-D (60 rows) standard Cauchy one."""
    if draw == "cauchy":
        m, seed = {1: (300, 41), 2: (60, 43)}[dimension]
        x = np.random.default_rng(seed).standard_cauchy((m, dimension))
    elif dimension == 2:
        z = np.random.default_rng(21).standard_normal((50, 2))
        x = np.column_stack((z[:, 0], 0.6 * z[:, 0] + 0.8 * z[:, 1]))
    else:
        x = np.random.default_rng(31).standard_normal((40, 3)) * [1.0, 2.0, 0.5]
    path = tmp_path / f"{draw}_{dimension}d.csv"
    path.write_text("".join(",".join(repr(v) for v in row) + "\n"
                            for row in x.tolist()))
    return str(path)


@pytest.mark.parametrize("dimension, statistic, p_value, bandwidth", [
    # the nearest of the 99 replicates lies 0.50% from the observed value
    (2, 47.656963184569705, 0.4, [0.4023939951239009, 0.4115745467345939]),
    # the nearest lies 0.059% away
    (3, 49.04819216330444, 0.85,
     [0.43035862490551635, 0.4303586249055163, 0.43035862490551646]),
])
def test_test_nd_regression(run_cli_json, tmp_path, dimension, statistic,
                            p_value, bandwidth):
    # an n-D test runs on the grid plan and a KDE table; the replicate
    # margins keep the frozen p-values stable against rounding differences
    # between numpy and BLAS builds
    report = run_cli_json(["test", "--input", _sample_csv(tmp_path, dimension),
                           "--reps", "99", "--seed", "3"])["report"]
    assert report["statistic"] == pytest.approx(statistic, rel=1e-11)
    assert report["p_value"] == p_value
    assert report["bandwidth"] == pytest.approx(bandwidth, rel=1e-12)


@pytest.mark.parametrize("dimension, statistic", [
    (1, 102602.93637028329),
    (2, 75013.44657363874),
], ids=["1", "2"])
def test_test_heavy_tail_regression(run_cli_json, tmp_path, dimension, statistic):
    # a seeded Cauchy sample: most offsets of the observed KDE's table pass
    # the span limit (10 of the 1-D lattice's 11, 40 of the 2-D grid's 41),
    # so the direct kernel redoes their rows; the statistic lies far above
    # every Gaussian replicate's
    path = _sample_csv(tmp_path, dimension, "cauchy")
    report = run_cli_json(["test", "--input", path,
                           "--reps", "199", "--seed", "0"])["report"]
    assert report["statistic"] == pytest.approx(statistic, rel=1e-11)
    assert report["p_value"] == 0.005


def test_test_1d_regression(run_cli_json, data_dir):
    # a 1-D test runs on the lattice, factored over anchors and offsets; the
    # observed statistic is 4.6 times the largest of the 199 replicates
    # (65.72), so the frozen p-value does not hang on rounding
    report = run_cli_json(["test", "--input", str(data_dir / "laplace_500.csv"),
                           "--reps", "199", "--seed", "0"])["report"]
    assert report["statistic"] == pytest.approx(301.9952512578307, rel=1e-11)
    assert report["p_value"] == 0.005
    assert report["bandwidth"] == 0.18647078879052792


def test_test_far_step_leaves_the_lattice(run_cli_json, data_dir):
    # a 1e4 step would pad the 1-D lattice to 200,101 points; the grid plan
    # evaluates at most 1,281
    payload = run_cli_json(["test", "--input", str(data_dir / "normal_200.csv"),
                            "--steps", "1e4", "--reps", "99"])
    assert payload["provenance"]["grid"]["steps"] == [1e4]
    assert 0.0 < payload["report"]["p_value"] <= 1.0


def test_test_step_beyond_the_kde_range_is_refused(run_cli, capsys, data_dir):
    # the squared scaled gaps of a 1e300 step overflow in the kernel
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["test", "--input", str(data_dir / "normal_200.csv"),
                             "--steps", "1e300", "--reps", "99"])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    # the first point past the KDE's finite range, in standardized units
    assert err.startswith("error: the log-density at [-1e+300] ")


@pytest.mark.parametrize("flags, point", [
    (["test", "--reps", "99", "--x-range", "-1e300,1e300"], "-1e+300"),
    (["probe", "--points", "5", "--x-range", "-1e300,1e300"], "-1e+300"),
    # shifts and steps on the x spacing: the 1-D lattice plan
    (["test", "--reps", "99", "--x-range", "-3e300,3e300", "--steps", "1e299",
      "--y-set", "1e299"], "-3.2e+300"),
])
def test_x_range_beyond_the_kde_range_is_refused(run_cli, capsys, data_dir,
                                                 flags, point):
    # x itself lies too far from the sample for its KDE's log-density
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(flags + ["--input", str(data_dir / "normal_200.csv")])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith(
        f"error: the log-density at [{point}] ")


@pytest.mark.parametrize("model, bound, point", [
    ("gaussian", "1e300", "-1e+300"),  # (x - mu)^2 overflows
    ("quartic", "1e100", "-1e+100"),   # x^4 overflows
])
def test_closed_form_beyond_its_finite_range_is_refused(run_cli, capsys, model,
                                                        bound, point):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["probe", "--model", model, f"--x-range=-{bound},{bound}"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith(
        f"error: the log-density at [{point}] is -inf, out of the range")


def test_laplace_answers_at_the_edge_of_double_range(run_cli_json):
    # |x| stays finite, and so does every second difference of log h
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = run_cli_json(["probe", "--model", "laplace",
                                "--x-range=-1e300,1e300"])
    assert payload["properties"]["log-convex"]["points_checked"] > 0


@pytest.mark.parametrize("argv", [
    ["test", "--input", "normal_200.csv"],
    ["probe", "--input", "normal_200.csv"],
    ["probe", "--model", "laplace"],
    ["counterexample", "laplace"],
])
def test_x_range_wider_than_double_range_is_refused(run_cli, capsys, data_dir,
                                                    argv):
    # hi - lo overflows, and linspace would fill the axis with inf and nan
    argv = [str(data_dir / a) if a.endswith(".csv") else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(argv + ["--x-range", "-1.7e308,1.7e308"])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert "-1.7e+308" in err and "1.7e+308) is wider than double range" in err


def test_probe_range_past_double_range_is_refused(run_cli, capsys, tmp_path):
    # each axis's sd is about 1e308, so mean +- 4 sd overflows: refused by
    # axis, with no overflow warning (the mean of the sds overflowed into
    # "zero spread")
    path = tmp_path / "huge.csv"
    np.savetxt(path, np.random.default_rng(7).uniform(-1, 1, (40, 2)) * 1.7e308,
               delimiter=",")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["probe", "--input", str(path)])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: axis 0: the probe range mean +- 4 sd (")
    assert err.rstrip().endswith(") leaves double range")


def _child_env():
    """The environment of a child interpreter that imports this package."""
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=SRC_DIR + (os.pathsep + inherited if inherited else ""))


@pytest.mark.parametrize("source", ["flags", "sample"])
def test_grid_points_past_double_range_are_refused(tmp_path, source):
    # every x range is finite, but x + y (flags) or the scaled default shifts
    # and steps (a sample of sd 5.8e303 centred 6 sd below the largest
    # double) leave double range: refused by axis, with no warning even
    # under -W error
    if source == "flags":
        argv = ["probe", "--model", "laplace", "--x-range=1e308,1.5e308",
                "--y-set", "1e308"]
    else:
        z = np.random.default_rng(3).standard_normal(50)
        z = (z - z.mean()) / z.std(ddof=1)
        values = (sys.float_info.max - 6 * 5.8e303) + 5.8e303 * z
        path = tmp_path / "far.csv"
        path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        argv = ["probe", "--input", str(path)]
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "ratio_convexity.cli"] + argv,
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith(
        "error: axis 0: the grid's points leave double range (|x| up to ")
    assert result.stderr.count("\n") == 1


def test_grid_without_flags_is_the_base_grid():
    # no flag set: the base grid comes back, not a copy validated again
    args = cli._shared_parser().parse_args(["probe", "--model", "laplace"])
    grid = ProbeGrid.for_dimension(1)
    assert cli._apply_grid_flags(args, grid) is grid
    args = cli._shared_parser().parse_args(["probe", "--model", "laplace",
                                            "--points", "11"])
    assert cli._apply_grid_flags(args, grid).x_range == ((-5.0, 5.0, 11),)


def test_step_whose_square_underflows(run_cli, run_cli_json, capsys, data_dir):
    # the statistic divides by t * t, which is 0 for t = 1e-170; a probe
    # does not divide by it and still answers
    csv_path = str(data_dir / "normal_200.csv")
    code, out = run_cli(["test", "--input", csv_path, "--steps", "1e-170",
                         "--reps", "99"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith(
        "error: step 1e-170 is too small for the statistic")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = run_cli_json(["probe", "--input", csv_path, "--steps", "1e-170",
                                "--property", "log-convex", "--points", "21"])
    assert payload["grid"]["steps"] == [1e-170]


def _write_column(path, values):
    path.write_text("x\n" + "".join(f"{v!r}\n" for v in values.tolist()))
    return str(path)


def test_test_and_probe_answer_at_extreme_scales(run_cli_json, tmp_path):
    # squaring 1e+-200 used to overflow or underflow into "sample variance
    # is zero" (test) and "zero spread" / "no usable spread" (probe)
    z = np.random.default_rng(8).standard_normal(40)
    test_argv = ["--reps", "99", "--seed", "2"]
    probe_argv = ["--property", "log-convex", "--points", "41"]
    reference = run_cli_json(["test", "--input", _write_column(
        tmp_path / "affine.csv", 3.0 + 2.0 * z)] + test_argv)["report"]
    unit = run_cli_json(["probe", "--input", _write_column(
        tmp_path / "unit.csv", z)] + probe_argv)
    for name, scale in (("huge", 1e200), ("tiny", 1e-200)):
        path = _write_column(tmp_path / f"{name}.csv", scale * z)
        report = run_cli_json(["test", "--input", path] + test_argv)["report"]
        assert report["statistic"] == pytest.approx(reference["statistic"],
                                                    rel=1e-9)
        assert report["p_value"] == reference["p_value"]
        probe = run_cli_json(["probe", "--input", path] + probe_argv)
        assert probe["model"]["bandwidth"][0] == pytest.approx(
            scale * unit["model"]["bandwidth"][0], rel=1e-12)
        np.testing.assert_allclose(probe["grid"]["x_range"][0][:2],
                                   np.multiply(scale, unit["grid"]["x_range"][0][:2]),
                                   rtol=1e-12)
        assert probe["properties"]["log-convex"]["points_checked"] > 0


def test_test_and_probe_answer_on_mostly_tied_sample(run_cli_json, tmp_path):
    # 37 of 40 values tie at 0, so the IQR is 0 while sd is not
    values = np.round(0.3 * np.random.default_rng(57).standard_normal(40))
    path = _write_column(tmp_path / "tied.csv", values)
    report = run_cli_json(["test", "--input", path, "--reps", "99"])["report"]
    assert 0.0 < report["p_value"] <= 1.0
    probe = run_cli_json(["probe", "--input", path, "--property", "log-convex",
                          "--points", "41"])
    assert probe["model"]["bandwidth"][0] > 0.0


def test_test_requires_input(run_cli):
    code, _ = run_cli(["test", "--model", "gaussian", "--mu", "0",
                       "--sigma", "1"])
    assert code == 2


# --------------------------------------------------------- counterexample


def test_counterexample_laplace(run_cli_json):
    payload = run_cli_json(["counterexample", "laplace"])
    assert payload["family"] == "laplace"
    assert payload["max_difference_vs_density"] <= 1e-14
    assert len(payload["branches"]) == 4
    for row in payload["rows"]:
        assert row["log_ratio"] == pytest.approx(
            laplace_log_ratio(row["x"], row["y"]), abs=1e-14)
        assert row["branch"] in payload["branches"].values()


def test_counterexample_quartic(run_cli_json):
    payload = run_cli_json(["counterexample", "quartic"])
    root6 = math.sqrt(6.0)
    assert payload["convexity_threshold"] == pytest.approx(root6, rel=1e-15)
    ys = {row["y"] for row in payload["rows"]}
    assert root6 in ys and -root6 in ys
    for row in payload["rows"]:
        if abs(row["y"]) >= root6:
            assert row["bracket"] >= 0.0
            assert row["bracket_sign"] >= 0
    # the advertised local failure: y = 0.1 at x = 1
    bad = [row for row in payload["rows"]
           if row["y"] == 0.1 and row["x"] == 1.0]
    assert bad and bad[0]["h_xx"] < 0.0


def test_counterexample_quartic_custom_shifts(run_cli_json):
    payload = run_cli_json(["counterexample", "quartic", "--y-set", "1",
                            "--x-range", "-1,1", "--points", "5"])
    ys = sorted({row["y"] for row in payload["rows"]})
    root6 = math.sqrt(6.0)
    assert ys == [-root6, 1.0, root6]  # threshold rows are always appended


# ------------------------------------------------------------- exit codes


def test_usage_errors_exit_2(run_cli, tmp_path, data_dir):
    assert run_cli(["probe", "--model", "gaussian", "--mu", "0",
                    "--sigma", "-1"])[0] == 2
    assert run_cli(["probe", "--model", "gaussian", "--mu", "0",
                    "--sigma", "1", "--points", "2"])[0] == 2
    assert run_cli(["probe", "--model", "gaussian", "--mu", "0",
                    "--sigma", "1", "--x-range", "5,1"])[0] == 2
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    assert run_cli(["probe", "--input", str(ragged)])[0] == 2
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("x\n1\n2\n3\n")
    code, _ = run_cli(["test", "--input", str(tiny)])
    assert code == 2
    # a zero or empty flag value reaches its validation instead of the default
    normal = str(data_dir / "normal_200.csv")
    assert run_cli(["probe", "--model", "laplace", "--points", "0"])[0] == 2
    assert run_cli(["probe", "--model", "laplace", "--steps", ""])[0] == 2
    assert run_cli(["test", "--input", normal, "--points", "0"])[0] == 2
    assert run_cli(["test", "--input", normal, "--steps", ""])[0] == 2
    assert run_cli(["test", "--input", normal, "--alpha", ""])[0] == 2
    assert run_cli(["counterexample", "laplace", "--points", "0"])[0] == 2


def test_unknown_subcommand_exits_2(run_cli):
    assert run_cli(["frobnicate"])[0] == 2


def test_numeric_failure_exits_3(run_cli, tmp_path):
    constant = tmp_path / "constant.csv"
    constant.write_text("x\n" + "5.0\n" * 30)
    code, _ = run_cli(["test", "--input", str(constant)])
    assert code == 3


def test_singular_bootstrap_replicate_exits_3(run_cli, capsys, tmp_path):
    # the sample passes the singularity floor; some of its replicates do not
    z = np.random.default_rng(5).standard_normal((20, 2))
    x = np.column_stack((z[:, 0], math.sqrt(1.5e-12) * z[:, 1]))
    path = tmp_path / "nearly_singular.csv"
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in x.tolist()))
    code, out = run_cli(["test", "--input", str(path), "--reps", "99", "--seed", "1"])
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert "bootstrap replication" in err
    assert "fitted covariance is too close to singular" in err


def test_negative_numbers_parse_in_flag_values(run_cli_json):
    payload = run_cli_json(["probe", "--model", "gaussian", "--mu", "-2",
                            "--sigma", "1", "--x-range", "-6,-1",
                            "--points", "5", "--y-set", "-0.5",
                            "--steps", "0.5"])
    assert payload["grid"]["x_range"][0][:2] == [-6.0, -1.0]


def test_output_flag_writes_file(run_cli, tmp_path):
    target = tmp_path / "out.json"
    code, text = run_cli(["fit", "--model", "laplace",
                          "--output", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["command"] == "fit"


def test_help_exits_zero(run_cli):
    code, text = run_cli(["--help"])
    assert code == 0
    assert "probe" in text and "counterexample" in text


def test_parser_builds_and_rejects_empty(run_cli):
    parser = build_parser()
    assert parser.prog == "ratio-convexity"
    code, _ = run_cli([])
    assert code == 2


def test_repeated_main_calls_share_no_state(run_cli, run_cli_json):
    # main reuses one parser per process: neither a call's values, appended
    # ones included, nor its error reaches the next call
    assert cli._shared_parser() is cli._shared_parser()
    first = run_cli_json(["probe", "--model", "laplace", "--property", "log-convex",
                          "--property", "concave"])
    assert sorted(first["properties"]) == ["concave", "log-convex"]
    second = run_cli_json(["probe", "--model", "laplace", "--property", "convex"])
    assert list(second["properties"]) == ["convex"]
    code, _ = run_cli(["probe", "--model", "cauchy"])
    assert code == 2
    code, text = run_cli(["counterexample", "laplace"])
    assert code == 0
    assert json.loads(text)["family"] == "laplace"


def test_main_accepts_none_argv(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["ratio-convexity", "counterexample",
                                     "laplace"])
    assert main() == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"] == "laplace"


# the package needs numpy alone, so every command runs in a child
# interpreter that refuses to import scipy
_WITHOUT_SCIPY = """
import contextlib, io, json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, RefuseScipy())
from ratio_convexity import cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
loaded = sorted(name for name in sys.modules
                if name == "scipy" or name.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy_modules": loaded}))
"""


def test_commands_run_without_scipy(data_dir):
    properties = ",".join(kind.value for kind in PropertyKind)
    commands = [
        ["probe", "--model", "quartic", "--property", properties],
        ["fit", "--model", "gaussian"],
        ["test", "--input", str(data_dir / "normal_200.csv"), "--reps", "99"],
        ["counterexample", "quartic"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(commands)],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report == {"codes": [0, 0, 0, 0], "scipy_modules": []}


_SERIAL_TEST = """
import contextlib, io, json, sys

from ratio_convexity import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
pool = sorted(name for name in ("concurrent.futures.process", "multiprocessing")
              if name in sys.modules)
print(json.dumps({"code": code, "pool_modules": pool}))
"""


def test_serial_test_imports_no_worker_pool(data_dir):
    # the worker pool's modules load only when a run asks for workers
    argv = ["test", "--input", str(data_dir / "normal_200.csv"), "--reps", "99"]
    env = _child_env()
    env.pop("RATIO_CONVEXITY_THREADS", None)
    result = subprocess.run(
        [sys.executable, "-c", _SERIAL_TEST, json.dumps(argv)],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"code": 0, "pool_modules": []}


def test_fixture_files_match_their_generators(data_dir):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "make_fixtures", data_dir / "make_fixtures.py")
    generators = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generators)

    for name, distribution, seed, count in generators.RECIPES:
        on_disk = (data_dir / name).read_text()
        assert on_disk == generators.render(distribution, seed, count), name

"""The three workloads: seeded inputs, one op per call, correctness checks.

Every input is made from the run's ``--seed`` and the op's index, so one
seed gives the same op sequence on every run.  Inputs are written as CSV
files into the run's work directory; the package sees only those files (or,
for ``kde-2d``, the sample arrays).  Each workload cycles through a fixed
pool of inputs so that the mix of op kinds in a run does not depend on how
many ops the run completes.
"""

import contextlib
import functools
import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ratio_convexity import cli, normtest
from ratio_convexity.density import Laplace1D, Quartic1D

import oracle
from program import ROOT

#: the committed CSV behind the package's byte-identical-report pin
PIN_CSV = ROOT / "tests" / "data" / "normal_200.csv"
PIN_STATISTIC = 11.410438866935378
PIN_P_VALUE = 0.89

ALL_PROPERTIES = "convex,log-convex,log-concave,quasi-convex,concave"
WITNESS_REPLAY_TOL = 1e-12
FIT_TOL = 1e-8
LAPLACE_GAP_TOL = 1e-14
ORACLE_TOL = 1e-9


class CheckError(Exception):
    """An op's output is wrong."""


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple = ()
    sample: np.ndarray | None = None
    #: checks a CLI op's parsed JSON report; raises CheckError
    check: Callable | None = None


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    stderr: str


def run_cli(argv):
    """``ratio_convexity.cli.main`` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return CliOutput(code, out.getvalue(), err.getvalue())


def cli_payload(output):
    if output.code != 0:
        raise CheckError(f"exit code {output.code}: {output.stderr.strip()}")
    return json.loads(output.stdout)


def is_rank_pvalue(p_value, reps):
    """True when p equals (1 + k) / (reps + 1) for an integer k in [0, reps]."""
    k = round(p_value * (reps + 1) - 1)
    return 0 <= k <= reps and (1.0 + k) / (reps + 1.0) == p_value


def _rng(seed, salt, index):
    return np.random.default_rng([seed, salt, index])


def _write_csv(path, data):
    data = np.asarray(data, dtype=float).reshape(len(data), -1)
    header = ",".join(f"x{j}" for j in range(data.shape[1]))
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")
    return path


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Workload:
    """One named workload; subclasses define the pool, the op and its checks."""

    name = ""
    #: ops in a traced run, fixed so that its counts repeat for a seed
    traced_ops = 0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)

    def op(self, index):
        raise NotImplementedError

    def run(self, op):
        return run_cli(op.argv)

    def check(self, index, op, output):
        """Raise CheckError if the op's output is wrong."""
        raise NotImplementedError

    def final_checks(self):
        """Checks made after the timed loop: a list of (op index or None, message)."""
        return []

    def setup_spec(self):
        """What a fresh interpreter runs as its first op (see setup_child.py)."""
        return {"kind": "cli", "argv": list(self.op(0).argv)}


# ---------------------------------------------------------- normtest-1d

class NormalityTest1D(Workload):
    """``test --input <csv> --reps 199`` on 1-D samples with m=200."""

    name = "normtest-1d"
    traced_ops = 32
    POOL = 16
    COUNT = 200
    REPS = 199

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.paths = []
        for i in range(self.POOL):
            rng = _rng(seed, 1, i)
            loc = rng.uniform(-10.0, 10.0)
            scale = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            if i % 4 == 3:
                if rng.random() < 0.5:
                    z = rng.laplace(size=self.COUNT)
                else:
                    z = rng.standard_t(3, size=self.COUNT)
            else:
                z = rng.standard_normal(self.COUNT)
            self.paths.append(_write_csv(self.workdir / f"test-{i}.csv", loc + scale * z))

    def op(self, index):
        return Op(label="test", argv=(
            "test", "--input", str(self.paths[index % self.POOL]),
            "--reps", str(self.REPS), "--seed", str(index)))

    def check(self, index, op, output):
        payload = cli_payload(output)
        if payload["sample"] != {"count": self.COUNT, "dimension": 1}:
            raise CheckError(f"sample block {payload['sample']}")
        check_test_report(payload["report"], self.REPS)

    def final_checks(self):
        payload = cli_payload(run_cli(
            ("test", "--input", str(PIN_CSV), "--reps", "199", "--seed", "0")))
        report = payload["report"]
        if not (_close(report["statistic"], PIN_STATISTIC, 1e-11)
                and report["p_value"] == PIN_P_VALUE):
            return [(None, f"{PIN_CSV.name} pin: statistic {report['statistic']!r}, "
                           f"p {report['p_value']!r}")]
        return []


def check_test_report(report, reps):
    p_value = report["p_value"]
    if report["reps"] != reps:
        raise CheckError(f"reps {report['reps']} != {reps}")
    if not is_rank_pvalue(p_value, reps):
        raise CheckError(f"p-value {p_value!r} is not (1+k)/{reps + 1}")
    for decision in report["decisions"]:
        if decision["reject"] != (p_value <= decision["alpha"]):
            raise CheckError(f"decision {decision} disagrees with p={p_value}")
    if not (math.isfinite(report["statistic"]) and report["statistic"] >= 0.0):
        raise CheckError(f"statistic {report['statistic']!r}")


# --------------------------------------------------------- probe-closed

def _gaussian_params(rng, n):
    mean = rng.uniform(-1.5, 1.5, size=n)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    variances = np.exp(rng.uniform(math.log(0.4), math.log(2.5), size=n))
    cov = basis @ np.diag(variances) @ basis.T
    return mean, 0.5 * (cov + cov.T)


def _gaussian_flags(mean, cov):
    values = cov.ravel() if len(mean) > 1 else cov[0]
    return ("--mu=" + ",".join(repr(float(v)) for v in mean),
            "--sigma=" + ",".join(repr(float(v)) for v in values))


class ProbeClosed(Workload):
    """CLI commands on the built-in closed-form models.

    The 12-op cycle holds six Gaussian probes (n = 1, 2, 3, twice), three
    Laplace/Quartic probes of all five properties and three cheap commands.
    Sorted by cost, the median lands inside the Laplace probes and p90 inside
    the n=3 Gaussian probes, away from the boundaries between op kinds, so
    both percentiles stay put when the op count changes by a few.
    """

    name = "probe-closed"
    traced_ops = 24
    CYCLES = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pool = []
        for cycle in range(self.CYCLES):
            rng = _rng(seed, 2, cycle)
            for n in (1, 2, 3, 1, 2, 3):
                mean, cov = _gaussian_params(rng, n)
                self.pool.append(Op(
                    label=f"probe gaussian n={n}",
                    argv=("probe", "--model", "gaussian") + _gaussian_flags(mean, cov),
                    check=functools.partial(check_gaussian_probe, mean=mean, cov=cov)))
            for model in ("laplace", "laplace", "quartic"):
                self.pool.append(Op(
                    label=f"probe {model}",
                    argv=("probe", "--model", model, "--property", ALL_PROPERTIES),
                    check=functools.partial(check_witness_probe, model_name=model)))
            n = int(rng.integers(1, 4))
            mean, cov = _gaussian_params(rng, n)
            self.pool.append(Op(
                label=f"fit gaussian n={n}",
                argv=("fit", "--model", "gaussian") + _gaussian_flags(mean, cov),
                check=functools.partial(check_fit, mean=mean, cov=cov)))
            self.pool.append(Op(label="counterexample laplace",
                                argv=("counterexample", "laplace"),
                                check=check_laplace_table))
            self.pool.append(Op(label="counterexample quartic",
                                argv=("counterexample", "quartic"),
                                check=check_quartic_table))

    def op(self, index):
        return self.pool[index % len(self.pool)]

    def check(self, index, op, output):
        payload = cli_payload(output)
        if payload["command"] != op.argv[0]:
            raise CheckError(f"report is for command {payload['command']!r}")
        op.check(payload)


def check_gaussian_probe(payload, mean, cov):
    for name, verdict in payload["properties"].items():
        if verdict["violation_count"] != 0 or verdict["witnesses"]:
            raise CheckError(f"Gaussian probe reports a {name} violation")
        if verdict["points_checked"] <= 0:
            raise CheckError(f"{name}: no points checked")
    if len(mean) == 1:
        # log h(x, y) = -(2 (x - mu) y + y^2) / (2 sigma^2) for a 1-D Gaussian
        for entry in payload["series"]:
            x = np.asarray(entry["x"])
            y = entry["y"][0]
            exact = -(2.0 * (x - mean[0]) * y + y * y) / (2.0 * cov[0, 0])
            got = np.asarray(entry["log_ratio"])
            if np.any(np.abs(got - exact) > 1e-9 * np.maximum(1.0, np.abs(exact))):
                raise CheckError(f"series for y={y} is not the Gaussian affine form")


_MODELS = {"laplace": Laplace1D, "quartic": Quartic1D}


def replay_margin(model, witness):
    """A witness's margin recomputed from its points through ``log_density``."""
    y = np.asarray(witness["y"], dtype=float)
    phi_minus, phi_center, phi_plus = (
        model.log_density(np.asarray(point) + y) - model.log_density(np.asarray(point))
        for point in witness["triple"])
    kind = witness["property"]
    if kind in ("log-convex", "log-concave"):
        return phi_plus - 2.0 * phi_center + phi_minus
    h_center = math.exp(phi_center)
    if kind == "quasi-convex":
        return h_center * -math.expm1(max(phi_plus, phi_minus) - phi_center)
    return h_center * (math.expm1(phi_plus - phi_center)
                       + math.expm1(phi_minus - phi_center))


def check_witness_probe(payload, model_name):
    model = _MODELS[model_name]()
    properties = payload["properties"]
    if sorted(properties) != sorted(ALL_PROPERTIES.split(",")):
        raise CheckError(f"properties {sorted(properties)}")
    if properties["concave"]["violation_count"] == 0:
        raise CheckError(f"{model_name}: no concavity violation, which every density has")
    for name, verdict in properties.items():
        witnesses = verdict["witnesses"]
        if len(witnesses) > verdict["violation_count"]:
            raise CheckError(f"{name}: more witnesses than violations")
        for witness in witnesses:
            margin = witness["margin"]
            replayed = replay_margin(model, witness)
            if abs(replayed - margin) > WITNESS_REPLAY_TOL * max(1.0, abs(margin)):
                raise CheckError(f"{name} witness margin {margin!r} replays as {replayed!r}")
            if abs(margin) < witness["tolerance_used"] * (1.0 - 1e-12):
                raise CheckError(f"{name} witness margin {margin!r} is within tolerance")
    for entry in payload["series"]:
        x = np.asarray(entry["x"])
        y = entry["y"][0]
        if model_name == "laplace":
            exact = np.abs(x) - np.abs(x + y)
        else:
            exact = x ** 4 - (x + y) ** 4
        got = np.asarray(entry["log_ratio"])
        if np.any(np.abs(got - exact) > 1e-12 * np.maximum(1.0, np.abs(exact))):
            raise CheckError(f"{model_name} series for y={y} is off")


def check_fit(payload, mean, cov):
    gaussian = payload["fit"]["gaussian"]
    if gaussian is None:
        raise CheckError(f"fit failed: {payload['fit']['failure_reason']}")
    if np.max(np.abs(np.asarray(gaussian["mean"]) - mean)) > FIT_TOL:
        raise CheckError(f"fitted mean {gaussian['mean']} != {mean.tolist()}")
    if np.max(np.abs(np.asarray(gaussian["covariance"]) - cov)) > FIT_TOL:
        raise CheckError(f"fitted covariance {gaussian['covariance']} != {cov.tolist()}")


def check_laplace_table(payload):
    if not payload["max_difference_vs_density"] <= LAPLACE_GAP_TOL:
        raise CheckError(f"max_difference_vs_density {payload['max_difference_vs_density']!r}")
    for row in payload["rows"]:
        exact = abs(row["x"]) - abs(row["x"] + row["y"])
        if abs(row["log_ratio"] - exact) > 1e-12 * max(1.0, abs(exact)):
            raise CheckError(f"Laplace row {row}")


def check_quartic_table(payload):
    threshold = math.sqrt(6.0)
    if payload["convexity_threshold"] != threshold:
        raise CheckError(f"threshold {payload['convexity_threshold']!r}")
    for row in payload["rows"]:
        x, y, bracket = row["x"], row["y"], row["bracket"]
        u = 2.0 * x + y
        exact = -12.0 * u * y + y * y * (3.0 * u * u + y * y) ** 2
        if abs(bracket - exact) > 1e-12 * max(1.0, abs(exact)):
            raise CheckError(f"quartic bracket {row}")
        if row["bracket_sign"] != (0 if bracket == 0.0 else int(math.copysign(1, bracket))):
            raise CheckError(f"quartic bracket sign {row}")
        if abs(y) > threshold * (1.0 + 1e-12) and bracket < 0.0:
            raise CheckError(f"quartic bracket negative beyond sqrt(6): {row}")


# --------------------------------------------------------------- kde-2d

class Kde2D(Workload):
    """``violation_statistic(kde_log_density(Sample(x)))`` on 2-D samples, m=40."""

    name = "kde-2d"
    traced_ops = 16
    POOL = 16
    COUNT = 40
    #: one Gaussian, t(3), Gaussian and Laplace sample each (see __init__)
    ORACLE_SLOTS = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.samples = []
        for i in range(self.POOL):
            rng = _rng(seed, 3, i)
            mean, cov = _gaussian_params(rng, 2)
            mean *= 0.2
            root = np.linalg.cholesky(cov)
            z = rng.standard_normal((self.COUNT, 2))
            if i % 4 == 1:
                z /= np.sqrt(rng.chisquare(3, size=(self.COUNT, 1)) / 3.0)  # t(3)
            elif i % 4 == 3:
                z = rng.laplace(size=(self.COUNT, 2))
            self.samples.append(mean + z @ root.T)
        self.grid = normtest.default_test_grid(2)
        self.statistics = {}

    def op(self, index):
        return Op(label="kde statistic", sample=self.samples[index % self.POOL])

    def run(self, op):
        return normtest.violation_statistic(
            normtest.kde_log_density(normtest.Sample(op.sample)))

    def check(self, index, op, output):
        if not (math.isfinite(output) and output >= 0.0):
            raise CheckError(f"statistic {output!r}")
        self.statistics[index] = output

    def final_checks(self):
        """Ops on the first ORACLE_SLOTS pool samples against the dense oracle.

        Every other op must repeat, bit for bit, the statistic of the first
        op on the same sample.
        """
        first = {}
        failures = []
        for index, statistic in sorted(self.statistics.items()):
            slot = index % self.POOL
            if slot not in first:
                first[slot] = statistic
                if slot < self.ORACLE_SLOTS:
                    expected = oracle.violation_statistic(self.samples[slot], self.grid)
                    if not _close(statistic, expected, ORACLE_TOL):
                        failures.append(
                            (index, f"statistic {statistic!r} != oracle {expected!r}"))
            elif statistic != first[slot]:
                failures.append((index, f"statistic {statistic!r} != {first[slot]!r} "
                                        "from an earlier op on the same sample"))
        return failures

    def setup_spec(self):
        return {"kind": "kde", "csv": str(_write_csv(self.workdir / "kde-0.csv",
                                                     self.samples[0]))}


WORKLOADS = {cls.name: cls for cls in (NormalityTest1D, ProbeClosed, Kde2D)}

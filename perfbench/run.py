#!/usr/bin/env python3
"""Benchmark of the ratio_convexity package, driven from outside it.

    python3 perfbench/run.py --workload normtest-1d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see README.md for why each was chosen and what it should move):

* ``normtest-1d``: ``test --input <csv> --reps 199`` on 1-D samples, m=200;
* ``probe-closed``: ``probe``/``fit``/``counterexample`` on built-in models;
* ``kde-2d``: ``violation_statistic(kde_log_density(Sample(x)))``, 2-D, m=40.

Every op runs in this process, one at a time (a closed loop with one
client).  CLI ops go through ``ratio_convexity.cli.main``.  ``--trace 0``
times ops for ``--seconds`` seconds of op time (and at least until p90 has
ten samples beyond it) with no wrapper installed, and reports the end-to-end
metrics, with every time scaled by the speed of a calibration loop run
between ops (see calibrate.py).  ``--trace 1`` runs a fixed number of ops, each once with and once
without layer wrappers, and reports the per-layer metrics.  Either way
every op's output is checked, and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import program
import stats

HERE = Path(__file__).resolve().parent
OUT_DIR = program.ROOT / ".bench_out"
WORK_DIR = program.ROOT / ".bench_work"

#: end-to-end metrics: (name, unit, better, bound as a share of the parent's median).
#: Times are scaled to the calibration loop's nominal speed (calibrate.py);
#: even so they move by 5-10% between runs a minute apart on a shared 2-core
#: machine, so time bounds sit at the 0.25 ceiling.
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_s.p50", "s", "lower", 0.25),
    ("op_s.p90", "s", "lower", 0.25),
    ("cpu_s_per_op", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
WORKLOAD_NAMES = ("normtest-1d", "probe-closed", "kde-2d")

#: fresh interpreters per run for ``setup_s``; the median is reported
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60.0
#: the loop stops here even if p90 still lacks samples, so a run ends in time
MAX_LOOP_S = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# ------------------------------------------------------------- one op

def execute(workload, index, op, tracer=None):
    """Run and check one op: (wall s, cpu s, output, error message or None).

    Only the op itself is timed; checking its output is not.
    """
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(op)
        else:
            output = tracer.run_op(index, lambda: workload.run(op))
    except Exception:  # a raising op is a failed op; the run goes on
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return wall, cpu, None, f"{op.label}: raised\n{traceback.format_exc(limit=4)}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    try:
        workload.check(index, op, output)
    except Exception as exc:  # wrong or malformed output fails the op
        return wall, cpu, output, f"{op.label} (op {index}): {exc!r}"
    return wall, cpu, output, None


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = set()
        self.problems = []  # failures outside the timed ops
        self.metrics = {}  # name -> (value, unit)
        self.lines = []  # extra human-readable report lines
        self.extra = {}

    def record(self, index, error):
        if error is not None:
            self.failed.add(index)
            print(f"perfbench: {error}", file=sys.stderr)

    def result(self):
        return {"correct": not self.failed and not self.problems,
                "attempted": self.attempted,
                "failed": len(self.failed),
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}


def final_checks(workload, outcome):
    for index, message in workload.final_checks():
        if index is None:
            outcome.problems.append(message)
        else:
            outcome.failed.add(index)
        print(f"perfbench: {message}", file=sys.stderr)


def warm_up(workload, outcome):
    *_, error = execute(workload, 0, workload.op(0))
    if error is not None:
        outcome.problems.append(f"warm-up {error}")


# -------------------------------------------------------------- runs

def measure_setup(workload):
    """Per fresh interpreter: (seconds to import the CLI and run the first op,
    median calibration-loop seconds measured right after it)."""
    spec_path = workload.workdir / "setup.json"
    spec_path.write_text(json.dumps(workload.setup_spec()), encoding="utf-8")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(spec_path)],
            cwd=program.ROOT, env=program.child_env(), capture_output=True,
            text=True, timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr.strip()}")
        setup_s, speed = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(setup_s), float(speed)))
    return times


def timed_run(workload, seconds):
    outcome = Outcome()
    setup = measure_setup(workload)
    warm_up(workload, outcome)

    calibrate.warm_up()
    samples = [calibrate.sample() for _ in range(calibrate.NEIGHBOURS)]
    walls, cpus, mids = [], [], []
    loop_start = time.perf_counter()
    index = 0
    while True:
        if time.perf_counter() - samples[-1][0] >= calibrate.INTERVAL_S:
            samples.append(calibrate.sample())
        start = time.perf_counter()
        wall, cpu, _, error = execute(workload, index, workload.op(index))
        walls.append(wall)
        cpus.append(cpu)
        mids.append(start + wall / 2.0)
        outcome.record(index, error)
        index += 1
        if sum(walls) >= seconds and index >= stats.MIN_SAMPLES_FOR_P90:
            break
        if time.perf_counter() - loop_start >= MAX_LOOP_S:
            break
    samples += [calibrate.sample() for _ in range(calibrate.NEIGHBOURS)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome.attempted = index
    final_checks(workload, outcome)

    op_s = calibrate.correct(walls, mids, samples, column=1)
    cpu_s = calibrate.correct(cpus, mids, samples, column=2)
    setup_s = [raw * calibrate.NOMINAL_S / speed for raw, speed in setup]
    count = len(walls)
    tail = stats.tail_percentile(count)
    outcome.metrics = {
        "ops_per_s": (count / float(op_s.sum()), "1/s"),
        "op_s.p50": (stats.percentile(op_s, 50), "s"),
        "op_s.p90": (stats.percentile(op_s, 90), "s"),
        "cpu_s_per_op": (float(cpu_s.sum()) / count, "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw_tail = f"p{tail:g} = {stats.percentile(walls, tail):.6g} s" if tail else "none"
    outcome.lines = [
        f"samples: {count} ops in {sum(walls):.3f} s of op time; highest percentile "
        f"with >= {stats.TAIL_SAMPLES} samples beyond it: "
        + (f"p{tail:g} = {stats.percentile(op_s, tail):.6g} s" if tail else "none"),
        f"times are scaled to a {calibrate.NOMINAL_S * 1e3:g} ms calibration loop; "
        f"{len(samples)} calibration samples, median "
        f"{statistics.median(s[1] for s in samples) * 1e3:.4g} ms",
        f"unscaled: ops_per_s {count / sum(walls):.6g}, "
        f"op_s.p50 {stats.percentile(walls, 50):.6g} s, "
        f"op_s.p90 {stats.percentile(walls, 90):.6g} s, {raw_tail}, "
        f"cpu_s_per_op {sum(cpus) / count:.6g} s, "
        f"setup_s {statistics.median(raw for raw, _ in setup):.6g} s",
        f"setup_s: median of {len(setup)} fresh interpreters: "
        + ", ".join(f"{t:.4f}" for t in setup_s),
        f"failed_frac: {len(outcome.failed) / count:.6g} "
        f"({len(outcome.failed)} of {count} ops)",
    ]
    outcome.extra = {"op_s": walls, "cpu_s": cpus, "op_mid_s": mids,
                     "calibration": samples, "setup": setup}
    return outcome


def traced_run(workload):
    """Each of ``traced_ops`` ops once with and once without the wrappers.

    The order alternates from op to op so that drift in machine speed hits
    both sides alike; the summed walls give ``trace.overhead_frac``.
    """
    import tracing  # imports ratio_convexity, so only after program.load()

    outcome = Outcome()
    warm_up(workload, outcome)
    tracer = tracing.Tracer()
    walls = {False: 0.0, True: 0.0}
    output_bytes = 0
    for index in range(workload.traced_ops):
        op = workload.op(index)
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            wall, _, output, error = execute(
                workload, index, op, tracer if traced else None)
            walls[traced] += wall
            outcome.record(index, error)
            if traced and output is not None:
                output_bytes += len(getattr(output, "stdout", "").encode("utf-8"))
    outcome.attempted = 2 * workload.traced_ops
    final_checks(workload, outcome)

    spans = tracer.spans()
    values = tracing.layer_metrics(spans, output_bytes=output_bytes,
                                   traced_s=walls[True], untraced_s=walls[False])
    outcome.metrics = {name: (values[name], unit)
                       for name, unit, _ in tracing.LAYER_METRICS}
    OUT_DIR.mkdir(exist_ok=True)
    span_path = OUT_DIR / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    tracing.write_spans(spans, span_path)
    outcome.lines = [f"traced ops: {workload.traced_ops} (each also run untraced); "
                     f"{len(spans)} spans written to {span_path.name}"]
    return outcome


# ------------------------------------------------------------ report

def report(args, outcome, provenance):
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    for line in outcome.lines:
        print(f"  {line}")
    for problem in outcome.problems:
        print(f"  check failed: {problem}")
    result = outcome.result()
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                "provenance": provenance, "result": result,
                                "problems": outcome.problems, **outcome.extra},
                               indent=1), encoding="utf-8")
    print(json.dumps(result))


def run_one(args):
    try:
        program.load()
    except ImportError as exc:
        print(f"perfbench: cannot load ratio_convexity from this checkout: {exc}",
              file=sys.stderr)
        return 2
    import workloads  # imports ratio_convexity, so only after program.load()

    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            outcome = traced_run(workload)
        else:
            outcome = timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, outcome, program.provenance(args.seed))
    return 0


def run_all(args):
    """Every workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

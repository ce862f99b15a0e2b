"""Layer spans recorded from outside the package.

A traced op runs with a wrapper around each layer's public entry points,
installed at the binding its caller looks up (``cli.probe_property``, not
``probe.probe_property``, because ``cli`` imported the name).  An untraced op
runs with no wrapper installed.  Spans stay in memory and are written out
once, when the run ends.

The layers are the package modules.  A layer's self time is its spans'
duration minus the part of each span that its child spans cover.
"""

import functools
import json
import time
from typing import NamedTuple

import numpy as np

from ratio_convexity import cli, density, kernels, normtest

LAYERS = ("cli", "normtest", "probe", "characterize", "density", "kernels",
          "ratio")

#: span name of one benchmark op; its self time is the harness's own
OP_SPAN = "bench.op"
STATISTIC_SPAN = "normtest.violation_statistic"

#: per-layer metrics of a traced run: (name, unit, better)
LAYER_METRICS = (
    ("kernels.calls", "count", "lower"),
    ("kernels.pairs", "count", "lower"),
    ("kernels.busy_s", "s", "lower"),
    ("kernels.ns_per_pair", "ns", "lower"),
    ("kernels.bytes_computed", "B-computed", "lower"),
    ("normtest.calls", "count", "lower"),
    ("normtest.replicates", "count", "lower"),
    ("normtest.self_s", "s", "lower"),
    ("normtest.self_us_per_replicate", "us", "lower"),
    ("normtest.statistic_calls", "count", "lower"),
    ("normtest.statistic_self_s", "s", "lower"),
    ("normtest.logf_per_cell", "evals/cell", "lower"),
    ("density.calls", "count", "lower"),
    ("density.points", "count", "lower"),
    ("density.self_s", "s", "lower"),
    ("density.ns_per_point", "ns", "lower"),
    ("probe.calls", "count", "lower"),
    ("probe.points_checked", "count", "lower"),
    ("probe.self_s", "s", "lower"),
    ("probe.violations", "count", "higher"),
    ("probe.witnesses", "count", "higher"),
    ("probe.logf_per_check", "evals/check", "lower"),
    ("characterize.calls", "count", "lower"),
    ("characterize.self_s", "s", "lower"),
    ("ratio.calls", "count", "lower"),
    ("ratio.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int
    info: object = None


# ------------------------------------------------ what each span records

def _kernel_shape(args, kwargs, result):
    points, data = args[0], args[1]
    observations, dimension = np.shape(data)
    return (int(np.shape(points)[0]), int(observations), int(dimension))


def _rows(args, kwargs, result):
    return int(np.shape(result)[0])


def _one_point(args, kwargs, result):
    return 1


def _reps(args, kwargs, result):
    return int(result.reps)


def _verdict(args, kwargs, result):
    return (result.points_checked, result.violation_count, len(result.witnesses))


def _grid_cells(grid):
    return len(grid.y_set) * len(grid.directions) * len(grid.steps) * grid.point_count


@functools.lru_cache(maxsize=None)
def _default_cells(dimension):
    return _grid_cells(normtest.default_test_grid(dimension))


def _cells(args, kwargs, result):
    model = args[0]
    grid = args[1] if len(args) > 1 else kwargs.get("grid")
    return _default_cells(model.dimension) if grid is None else _grid_cells(grid)


#: (owner, attribute, layer, info) for every wrapped entry point; ``info``
#: turns (args, kwargs, result) into the span's counts
BINDINGS = (
    (cli, "main", "cli", None),
    (cli, "test_normality", "normtest", _reps),
    (normtest, "kde_log_density", "normtest", None),
    (normtest, "violation_statistic", "normtest", _cells),
    (cli, "probe_property", "probe", _verdict),
    (cli, "default_fit_lattice", "characterize", None),
    (cli, "fit_log_quadratic", "characterize", None),
    (cli, "classify_gaussian", "characterize", None),
    (cli, "laplace_log_ratio", "ratio", None),
    (cli, "quartic_hxx", "ratio", None),
    (density.DensityModel, "log_density", "density", _one_point),
    (density.DensityModel, "log_density_many", "density", _rows),
    (kernels, "kde_log_density_batch", "kernels", _kernel_shape),
)


class Tracer:
    """In-memory span recorder that wraps the layers while it is installed."""

    def __init__(self):
        self._records = []
        self._stack = []
        self._saved = []
        self.op = -1

    def _wrap(self, fn, name, layer, info):
        records, stack = self._records, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else None,
                      self.op, None]
            stack.append(len(records))
            records.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if info is not None:
                record[6] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attribute, layer, info in BINDINGS:
            original = vars(owner)[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute,
                    self._wrap(original, f"{layer}.{attribute}", layer, info))

    def uninstall(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def run_op(self, op_index, fn):
        """Run ``fn()`` as op ``op_index`` under a root span, wrappers installed."""
        self.op = op_index
        self.install()
        try:
            return self._wrap(fn, OP_SPAN, "bench", None)()
        finally:
            self.uninstall()

    def spans(self):
        return [Span(*record) for record in self._records]


def write_spans(spans, path):
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span._asdict(), default=str) + "\n")


# ------------------------------------------------------------ analysis

def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    return [span.end - span.start
            - _covered([(spans[c].start, spans[c].end) for c in kids],
                       span.start, span.end)
            for span, kids in zip(spans, children)]


def _ancestors(spans, index):
    parent = spans[index].parent
    while parent is not None:
        yield spans[parent]
        parent = spans[parent].parent


def _ratio(numerator, denominator, scale=1.0):
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(spans, *, output_bytes, traced_s, untraced_s):
    """Per-layer metrics of a traced run, as {name: value} in LAYER_METRICS order.

    ``traced_s`` and ``untraced_s`` are the summed wall times of the same ops
    run with and without the wrappers.  A ratio whose denominator is zero
    reads 0.
    """
    own = self_times(spans)
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    pairs = computed = 0
    kernel_busy = 0.0
    replicates = statistic_calls = cells = statistic_points = 0
    statistic_self = 0.0
    density_points = probe_points = 0
    checked = violations = witnesses = 0

    for index, span in enumerate(spans):
        if span.layer not in calls:
            continue
        self_s[span.layer] += own[index]
        if span.name == STATISTIC_SPAN:
            statistic_calls += 1
            statistic_self += own[index]
        up = list(_ancestors(spans, index))
        if any(a.layer == span.layer for a in up):
            continue  # nested in its own layer: not a new entry
        calls[span.layer] += 1
        if span.info is None:
            continue  # the call raised, or its layer records no counts
        if span.layer == "kernels":
            points, observations, dimension = span.info
            pairs += points * observations
            computed += points * observations * dimension * 8
            kernel_busy += span.end - span.start
        elif span.layer == "density":
            density_points += span.info
            if any(a.name == STATISTIC_SPAN for a in up):
                statistic_points += span.info
            if any(a.layer == "probe" for a in up):
                probe_points += span.info
        elif span.layer == "probe":
            checked += span.info[0]
            violations += span.info[1]
            witnesses += span.info[2]
        elif span.name == "normtest.test_normality":
            replicates += span.info
        elif span.name == STATISTIC_SPAN:
            cells += span.info

    return {
        "kernels.calls": calls["kernels"],
        "kernels.pairs": pairs,
        "kernels.busy_s": kernel_busy,
        "kernels.ns_per_pair": _ratio(kernel_busy, pairs, 1e9),
        "kernels.bytes_computed": computed,
        "normtest.calls": calls["normtest"],
        "normtest.replicates": replicates,
        "normtest.self_s": self_s["normtest"],
        "normtest.self_us_per_replicate": _ratio(self_s["normtest"], replicates, 1e6),
        "normtest.statistic_calls": statistic_calls,
        "normtest.statistic_self_s": statistic_self,
        "normtest.logf_per_cell": _ratio(statistic_points, cells),
        "density.calls": calls["density"],
        "density.points": density_points,
        "density.self_s": self_s["density"],
        "density.ns_per_point": _ratio(self_s["density"], density_points, 1e9),
        "probe.calls": calls["probe"],
        "probe.points_checked": checked,
        "probe.self_s": self_s["probe"],
        "probe.violations": violations,
        "probe.witnesses": witnesses,
        "probe.logf_per_check": _ratio(probe_points, checked),
        "characterize.calls": calls["characterize"],
        "characterize.self_s": self_s["characterize"],
        "ratio.calls": calls["ratio"],
        "ratio.self_s": self_s["ratio"],
        "cli.calls": calls["cli"],
        "cli.self_s": self_s["cli"],
        "cli.output_bytes": output_bytes,
        "trace.overhead_frac": _ratio(traced_s, untraced_s) - 1.0,
    }

"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import calibrate
import run
import stats
import tracing
import workloads
from ratio_convexity import kernels, normtest


def _span(name, start, end, parent=None, layer=None, info=None):
    return tracing.Span(name, layer or name.split(".")[0], start, end, parent, 0, info)


def test_self_time_subtracts_nested_children():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("probe.probe_property", 1.0, 4.0, parent=0),
        _span("density.log_density_many", 2.0, 3.0, parent=1),
        _span("ratio.quartic_hxx", 5.0, 7.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("probe.probe_property", 1.0, 4.0, parent=0),
        _span("probe.probe_property", 3.0, 6.0, parent=0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


@pytest.mark.parametrize("count, expected", [
    (0, None), (99, None), (stats.MIN_SAMPLES_FOR_P90, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9), (10 ** 6, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


@pytest.mark.parametrize("p_value, reps, ok", [
    (0.89, 199, True),
    (1.0 / 200.0, 199, True),
    (1.0, 199, True),
    (0.5, 199, True),
    (0.0, 199, False),          # k = -1
    (0.001, 199, False),        # not a multiple of 1/200
    (0.89 + 1e-12, 199, False),
    (0.01, 99, True),
])
def test_rank_pvalue_check(p_value, reps, ok):
    assert workloads.is_rank_pvalue(p_value, reps) is ok


def test_kernel_pairs_on_a_hand_worked_case():
    # 3 points x 4 observations, then 5 points x 4 observations, both in 2-D:
    # 12 + 20 = 32 pairs and 32 * 2 * 8 = 512 bytes computed
    data = np.arange(8.0).reshape(4, 2)
    tracer = tracing.Tracer()

    def op():
        kernels.kde_log_density_batch(np.zeros((3, 2)), data, np.ones(2), 0.0)
        kernels.kde_log_density_batch(np.ones((5, 2)), data, np.ones(2), 0.0)

    tracer.run_op(0, op)
    metrics = tracing.layer_metrics(tracer.spans(), output_bytes=0,
                                    traced_s=1.0, untraced_s=1.0)
    assert metrics["kernels.calls"] == 2
    assert metrics["kernels.pairs"] == 32
    assert metrics["kernels.bytes_computed"] == 512
    assert metrics["trace.overhead_frac"] == 0.0


def test_tracer_restores_every_binding():
    before = kernels.kde_log_density_batch, normtest.violation_statistic
    tracer = tracing.Tracer()
    tracer.run_op(0, lambda: None)
    assert (kernels.kde_log_density_batch, normtest.violation_statistic) == before


def test_oracle_matches_the_package_on_one_sample():
    import oracle

    x = np.random.default_rng(7).standard_normal((40, 2))
    grid = normtest.default_test_grid(2)
    expected = oracle.violation_statistic(x, grid)
    got = normtest.violation_statistic(normtest.kde_log_density(normtest.Sample(x)))
    assert got == pytest.approx(expected, rel=workloads.ORACLE_TOL)


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.program.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.LAYER_METRICS]


def test_local_medians_use_the_nearest_samples():
    times = [0.0, 1.0, 2.0, 3.0, 10.0]
    values = [1.0, 5.0, 2.0, 3.0, 100.0]
    # nearest three to t=1.9 are at 2, 1 and 3; to t=9 at 10, 3 and 2
    got = calibrate.local_medians(times, values, [1.9, 9.0], neighbours=3)
    assert got.tolist() == [3.0, 3.0]


def test_correct_divides_out_the_calibration_speed():
    nominal = calibrate.NOMINAL_S
    # the loop ran at nominal speed around t=0 and twice as slow around t=100
    samples = [(t, nominal, nominal) for t in (0.0, 0.1, 0.2)]
    samples += [(t, 2.0 * nominal, 4.0 * nominal) for t in (100.0, 100.1, 100.2)]
    walls = calibrate.correct([0.3, 0.3], [0.1, 100.1], samples, column=1)
    cpus = calibrate.correct([0.3, 0.3], [0.1, 100.1], samples, column=2)
    assert walls == pytest.approx([0.3, 0.15])
    assert cpus == pytest.approx([0.3, 0.075])

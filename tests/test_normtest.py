import math

import numpy as np
import pytest

from ratio_convexity import normtest
from ratio_convexity.density import Custom, Gaussian, GaussianParams, Laplace1D
from ratio_convexity.errors import DegenerateSampleError, UsageError
from ratio_convexity.normtest import (
    DEFAULT_ALPHAS,
    MAX_TEST_DIMENSION,
    MIN_SAMPLE_SIZE,
    Sample,
    TestReport,
    _BLOCK_VALUES,
    _block_statistics,
    _fitted_root,
    _lattice_plan,
    _lattice_statistic,
    _pipeline_statistic,
    _replicate_statistics,
    _silverman_per_axis,
    _standardize,
    bandwidth_silverman,
    default_test_grid,
    kde_log_density,
    monte_carlo_pvalue,
    pvalue_from_replicates,
    substream_seed,
    test_normality,
    thread_budget,
    violation_statistic,
)
from ratio_convexity.probe import ProbeGrid, _grid_plan

from _oracles import (
    adaptive_simpson,
    kde_log_density_naive,
    lattice_pipeline_loop,
    lattice_statistic_loop,
    per_replicate_grid_statistics,
    per_replicate_statistics,
    per_shift_statistic,
    ratio_second_difference,
    splitmix64_reference,
)


# ------------------------------------------------------------------ Sample


def test_sample_accepts_flat_vector():
    sample = Sample(np.zeros(25) + np.arange(25))
    assert sample.count == 25
    assert sample.dimension == 1
    assert sample.data.shape == (25, 1)


def test_sample_floor_and_relaxation():
    with pytest.raises(UsageError):
        Sample(np.zeros((MIN_SAMPLE_SIZE - 1, 1)) + np.arange(19).reshape(-1, 1))
    small = Sample([[0.0], [1.0], [2.0]], min_count=2)
    assert small.count == 3
    with pytest.raises(UsageError):
        Sample([[0.0]], min_count=0)  # structural floor of two stays


def test_sample_rejects_non_finite():
    bad = np.ones((30, 2))
    bad[7, 1] = np.inf
    with pytest.raises(UsageError):
        Sample(bad)


def test_sample_data_is_read_only():
    sample = Sample(np.arange(30.0))
    with pytest.raises(ValueError):
        sample.data[0, 0] = 99.0


# ----------------------------------------------------------- substreams


def test_substream_seed_matches_splitmix64_reference():
    gamma = 0x9E3779B97F4A7C15
    for seed in (0, 1, 42, 2**63):
        for index in (0, 1, 2, 1000):
            state = (seed + index * gamma) & ((1 << 64) - 1)
            assert substream_seed(seed, index) == splitmix64_reference(state)


def test_substream_seeds_are_distinct():
    seeds = {substream_seed(7, r) for r in range(10_000)}
    assert len(seeds) == 10_000
    assert all(0 <= s < 2**64 for s in seeds)


# --------------------------------------------------------- thread budget


def test_thread_budget_parsing(monkeypatch):
    monkeypatch.delenv("RATIO_CONVEXITY_THREADS", raising=False)
    assert thread_budget() == 1
    monkeypatch.setenv("RATIO_CONVEXITY_THREADS", "")
    assert thread_budget() == 1
    monkeypatch.setenv("RATIO_CONVEXITY_THREADS", "4")
    assert thread_budget() == 4
    monkeypatch.setenv("RATIO_CONVEXITY_THREADS", "0")
    assert thread_budget() >= 1
    monkeypatch.setenv("RATIO_CONVEXITY_THREADS", "-2")
    with pytest.raises(UsageError):
        thread_budget()
    monkeypatch.setenv("RATIO_CONVEXITY_THREADS", "many")
    with pytest.raises(UsageError):
        thread_budget()


# ------------------------------------------------------------- bandwidth


def test_bandwidth_silverman_formula():
    rng = np.random.default_rng(55)
    data = rng.standard_normal(80)
    sample = Sample(data)
    sd = np.std(data, ddof=1)
    iqr = np.subtract(*np.percentile(data, [75.0, 25.0]))
    expected = 0.9 * min(sd, iqr / 1.34) * 80 ** (-0.2)
    assert bandwidth_silverman(sample) == pytest.approx(expected, rel=1e-12)


def test_bandwidth_silverman_per_axis():
    rng = np.random.default_rng(56)
    data = rng.standard_normal((60, 2)) * np.array([1.0, 10.0])
    h = bandwidth_silverman(Sample(data))
    assert h.shape == (2,)
    assert h[1] > 5.0 * h[0]


def test_bandwidth_degenerate_axis():
    data = np.column_stack([np.arange(30.0), np.full(30, 3.0)])
    with pytest.raises(DegenerateSampleError):
        bandwidth_silverman(Sample(data))


def test_bandwidth_falls_back_to_sd_when_most_values_tie():
    # 37 of 40 values are 0, so the IQR is 0 while sd is not
    data = np.round(0.3 * np.random.default_rng(57).standard_normal(40))
    assert np.count_nonzero(data == 0.0) == 37
    sd = np.std(data, ddof=1)
    assert bandwidth_silverman(Sample(data)) == pytest.approx(
        0.9 * sd * 40 ** (-0.2), rel=1e-12)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_bandwidth_at_extreme_scales(scale):
    data = np.random.default_rng(58).standard_normal((50, 2))
    h = bandwidth_silverman(Sample(data))
    np.testing.assert_allclose(bandwidth_silverman(Sample(scale * data)),
                               scale * h, rtol=1e-13)


# ------------------------------------------------------------------- KDE


def test_kde_matches_naive_oracle():
    rng = np.random.default_rng(60)
    for dimension in (1, 2):
        data = rng.standard_normal((40, dimension))
        model = kde_log_density(Sample(data, min_count=2))
        points = rng.standard_normal((30, dimension)) * 2.0
        oracle = kde_log_density_naive(points, data, model.bandwidths)
        np.testing.assert_allclose(model.log_density_many(points), oracle,
                                   rtol=1e-12)
        single = model.log_density(points[0])
        assert single == pytest.approx(oracle[0], rel=1e-12)


def test_kde_integrates_to_one():
    rng = np.random.default_rng(61)
    model = kde_log_density(Sample(rng.standard_normal(50)))
    total = adaptive_simpson(lambda t: math.exp(model.log_density([t])),
                             -12.0, 12.0, tol=1e-10)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_kde_explicit_bandwidth():
    data = np.arange(30.0)
    model = kde_log_density(Sample(data), bandwidth=2.5)
    assert model.bandwidths.tolist() == [2.5]
    assert model.label == "gaussian-kde"
    assert model.sample_count == 30
    with pytest.raises(UsageError):
        kde_log_density(Sample(data), bandwidth=-1.0)


# ------------------------------------------------------------- statistic


def test_statistic_vanishes_for_exact_gaussians():
    rng = np.random.default_rng(70)
    for n in (1, 2):
        a = rng.standard_normal((n, n))
        params = GaussianParams(rng.standard_normal(n), a @ a.T + 0.5 * np.eye(n))
        assert violation_statistic(Gaussian(params)) <= 1e-9


def test_statistic_laplace_hand_value():
    # log h is piecewise linear with slope jumps of size 2; the largest
    # scaled second difference is 2/t at a kink, so the default grid
    # (t = 0.2 with kinks on grid points) yields exactly 10
    statistic = violation_statistic(Laplace1D())
    assert statistic == pytest.approx(10.0, rel=1e-12)


def test_statistic_matches_direct_loop():
    rng = np.random.default_rng(71)
    model = kde_log_density(Sample(rng.standard_normal(25), min_count=2))
    grid = ProbeGrid(x_range=((-2.0, 2.0, 9),), y_set=([0.7], [-0.7]),
                     directions=([1.0],), steps=(0.3, 0.6))
    best = 0.0
    for y in grid.y_set:
        for x in grid.base_points():
            for t in grid.steps:
                d2 = ratio_second_difference(
                    lambda p: model.log_density(p), x, y, [1.0], t)
                best = max(best, abs(float(d2)) / (t * t))
    assert violation_statistic(model, grid) == pytest.approx(best, rel=1e-10)


@pytest.mark.parametrize("dimension, draw", [
    (2, "standard_normal"), (2, "laplace"), (3, "standard_normal")])
def test_statistic_equals_per_shift_oracle(dimension, draw):
    data = getattr(np.random.default_rng(72), draw)(size=(25, dimension))
    model = kde_log_density(Sample(data, min_count=2))
    grid = default_test_grid(dimension)
    assert violation_statistic(model, grid) == per_shift_statistic(model, grid)


def test_statistic_equals_per_shift_oracle_off_lattice():
    # shifts and steps off the lattice spacing, plus one repeated shift
    # whose centres all coincide with those of the first
    model = kde_log_density(
        Sample(np.random.default_rng(75).standard_normal((30, 2)), min_count=2))
    grid = ProbeGrid(x_range=((-2.3, 1.9, 11), (-1.7, 2.6, 7)),
                     y_set=([0.37, -0.21], [-1.3, 0.0], [0.37, -0.21]),
                     directions=([1.0, 0.0], [0.6, 0.8]),
                     steps=(0.13, 0.71))
    assert violation_statistic(model, grid) == per_shift_statistic(model, grid)


def test_statistic_evaluates_each_distinct_point_once():
    calls = []
    gaussian = Gaussian(GaussianParams(np.zeros(2), np.eye(2)))

    def batch(points):
        calls.append(points.shape[0])
        return gaussian.log_density_many(points)

    model = Custom(2, gaussian.log_density, batch_evaluator=batch)
    violation_statistic(model, default_test_grid(2))
    # 169 base points and 377 distinct shifted centres, each at itself and
    # at +/- t d for 10 directions x 2 steps: (169 + 377) * 41 rows
    assert sum(calls) == 22386


def test_statistic_validates_grid_dimension():
    with pytest.raises(UsageError):
        violation_statistic(Laplace1D(), default_test_grid(2))


# ------------------------------------------------------------ lattice path


def test_default_grid_is_lattice_eligible():
    assert _lattice_plan(default_test_grid(1)) is not None
    assert _lattice_plan(default_test_grid(2)) is None  # 1-D fast path only


def test_lattice_and_generic_paths_agree():
    rng = np.random.default_rng(80)
    grid = default_test_grid(1)
    plan = _lattice_plan(grid)
    for _ in range(3):
        data = rng.standard_normal((40, 1))
        fast, _ = _pipeline_statistic(data, plan)
        slow, _ = _pipeline_statistic(data, _grid_plan(grid))
        assert fast == pytest.approx(slow, rel=1e-9)


def _lattice_samples(m, seed):
    """Plain, 1e+-200-scaled and mostly tied 1-D samples of size m."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(m)
    tied = np.round(0.3 * rng.standard_normal(m))
    return {"plain": 3.0 + 2.0 * z, "big": 1e200 * z, "small": 1e-200 * z,
            "tied": tied}


@pytest.mark.parametrize("m", [20, 200, 500])
def test_block_bootstrap_equals_per_replicate_oracle(m):
    grid = default_test_grid(1)
    plan = _lattice_plan(grid)
    for name, values in _lattice_samples(m, 100 + m).items():
        data = values.reshape(-1, 1)
        statistic, bandwidths = _pipeline_statistic(data, plan)
        assert (statistic, float(bandwidths[0])) == lattice_pipeline_loop(data, plan), name
        root = _fitted_root(data)
        batched = _replicate_statistics(root, m, plan, 9, 1, 41)
        assert batched.tolist() == per_replicate_statistics(root, m, plan, 9, 1, 41), name


def test_block_statistics_equal_one_sample_calls():
    plan = _lattice_plan(default_test_grid(1))
    rng = np.random.default_rng(101)
    samples = [rng.standard_normal(60), rng.laplace(size=60),
               np.round(0.3 * rng.standard_normal(60)), rng.standard_t(3, size=60)]
    block = np.stack([_standardize(s.reshape(-1, 1)) for s in samples])
    statistics, bandwidths = _block_statistics(block, plan)
    for r in range(block.shape[0]):
        one_statistic, one_bandwidths = _block_statistics(block[r:r + 1], plan)
        assert statistics[r] == one_statistic[0]
        assert bandwidths[r, 0] == one_bandwidths[0, 0] == _silverman_per_axis(block[r])[0]

    # the lattice statistic alone, column by column, against the
    # pair-by-pair loop; a NaN lattice value is skipped like the loop skips it
    log_values = np.column_stack([
        kde_log_density(Sample(s)).log_density_many(plan.points) for s in samples])
    log_values[plan.pad + 7, 1] = np.nan
    together = _lattice_statistic(log_values, plan)
    for r in range(log_values.shape[1]):
        alone = _lattice_statistic(log_values[:, r:r + 1], plan)
        assert together[r] == alone[0] == lattice_statistic_loop(log_values[:, r], plan)


def test_bootstrap_blocks_stay_within_block_values(monkeypatch):
    shapes = []

    def recording(block, plan):
        shapes.append(block.shape)
        return _block_statistics(block, plan)

    monkeypatch.setattr(normtest, "_block_statistics", recording)
    data = np.random.default_rng(102).standard_normal(5000)
    monte_carlo_pvalue(Sample(data), reps=99, seed=2)
    # the observed sample, then 99 replicates in blocks of 65536 // 5000
    assert shapes == [(1, 5000, 1)] + [(13, 5000, 1)] * 7 + [(8, 5000, 1)]
    assert all(width * m * n <= _BLOCK_VALUES for width, m, n in shapes)


@pytest.mark.parametrize("dimension", [2, 3])
def test_grid_block_bootstrap_equals_per_replicate_oracle(monkeypatch, dimension):
    data = np.random.default_rng(103).laplace(size=(20, dimension))
    grid = default_test_grid(dimension)
    root = _fitted_root(data)
    expected = per_replicate_grid_statistics(root, 20, grid, 9, 1, 6)
    assert _replicate_statistics(root, 20, _grid_plan(grid), 9, 1, 6).tolist() == expected
    # two replicates per block: the last block is partial
    monkeypatch.setattr(normtest, "_BLOCK_VALUES", 2 * 20 * dimension)
    assert _replicate_statistics(root, 20, _grid_plan(grid), 9, 1, 6).tolist() == expected


def test_grid_test_plans_once_in_bounded_blocks(monkeypatch):
    calls, shapes = [], []
    base_points = ProbeGrid.base_points

    def counting(grid):
        calls.append(grid)
        return base_points(grid)

    def recording(block, plan):
        shapes.append(block.shape)
        return _block_statistics(block, plan)

    monkeypatch.setattr(ProbeGrid, "base_points", counting)
    monkeypatch.setattr(normtest, "_block_statistics", recording)
    monkeypatch.setattr(normtest, "_BLOCK_VALUES", 40 * 20 * 2)
    data = np.random.default_rng(104).standard_normal((20, 2))
    monte_carlo_pvalue(Sample(data), reps=99, seed=2)
    assert len(calls) == 1
    assert shapes == [(1, 20, 2), (40, 20, 2), (40, 20, 2), (19, 20, 2)]
    assert all(width * m * n <= normtest._BLOCK_VALUES for width, m, n in shapes)


def test_non_lattice_steps_fall_back():
    # a step off the lattice, a shift off it, and a step far under half
    # the 0.1 spacing: its offset rounds to 0 within the lattice tolerance
    for y_magnitudes, steps in (((0.5,), (0.21,)), ((0.55,), (0.2,)),
                                ((0.5,), (1e-13,))):
        grid = ProbeGrid.for_dimension(1, x_min=-3.0, x_max=3.0, points=61,
                                       y_magnitudes=y_magnitudes, steps=steps)
        assert _lattice_plan(grid) is None


# ------------------------------------------------------------- p-values


def test_pvalue_from_replicates_hand_count():
    replicates = np.arange(1.0, 11.0)  # 1..10
    assert pvalue_from_replicates(5.0, replicates) == pytest.approx(7.0 / 11.0)
    assert pvalue_from_replicates(99.0, replicates) == pytest.approx(1.0 / 11.0)
    assert pvalue_from_replicates(0.0, replicates) == pytest.approx(1.0)
    with pytest.raises(UsageError):
        pvalue_from_replicates(1.0, [])


def test_standardize_properties():
    rng = np.random.default_rng(90)
    data = rng.standard_normal((200, 2)) @ np.array([[2.0, 0.3], [0.0, 0.5]])
    z = _standardize(data)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    cov = z.T @ z / (len(z) - 1)
    np.testing.assert_allclose(cov, np.eye(2), atol=1e-10)
    with pytest.raises(DegenerateSampleError):
        _standardize(np.ones((30, 1)))


@pytest.mark.parametrize("scale", [1e200, 1e-7, 1e-200])
def test_standardize_and_fit_at_extreme_scales(scale):
    # squaring 1e+-200 overflows or underflows; the moments are formed on
    # an exactly rescaled copy.  At 1e-7 the 2-D covariance (~1e-14) was
    # refused as singular by a threshold that was absolute below 1.  The
    # fitted root is the covariance's shape alone, so it is scale-free.
    rng = np.random.default_rng(92)
    for data in (rng.standard_normal((60, 1)), rng.standard_normal((60, 2))):
        np.testing.assert_allclose(_standardize(scale * data), _standardize(data),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(_fitted_root(scale * data), _fitted_root(data),
                                   rtol=1e-12)


def test_null_is_the_standard_normal_in_1d(monkeypatch):
    # in 1-D the fitted root is exactly 1, so T* depends on (m, reps,
    # seed, grid) alone and not on the sample's location, scale or shape
    rng = np.random.default_rng(94)
    x = rng.standard_normal(50)
    samples = (x, 3.0 * rng.laplace(size=50) - 7.0, 1e200 * x)
    replicates = []

    def recording(*args):
        replicates.append(_replicate_statistics(*args))
        return replicates[-1]

    monkeypatch.setattr(normtest, "_replicate_statistics", recording)
    for data in samples:
        assert _fitted_root(data.reshape(-1, 1)).tolist() == [[1.0]]
        monte_carlo_pvalue(Sample(data), reps=99, seed=4)
    assert replicates[0].tolist() == replicates[1].tolist() == replicates[2].tolist()


def test_statistic_is_location_scale_invariant_1d():
    rng = np.random.default_rng(91)
    data = rng.standard_normal((50, 1))
    grid = default_test_grid(1)
    plan = _lattice_plan(grid)
    base, _ = _pipeline_statistic(data, plan)
    moved, _ = _pipeline_statistic(3.0 * data - 7.0, plan)
    assert moved == pytest.approx(base, rel=1e-9)


# ----------------------------------------------------- monte_carlo_pvalue


def test_monte_carlo_null_regression():
    data = np.random.default_rng(7).standard_normal((60, 1))
    report = monte_carlo_pvalue(Sample(data), reps=99, seed=5)
    # the nearest replicate is more than 1% away from the observed value,
    # so the frozen p-value is stable against rounding differences between
    # numpy and BLAS builds
    assert report.statistic == pytest.approx(9.654638336626796, rel=1e-11)
    assert report.p_value == 0.54
    assert report.bandwidth == pytest.approx(0.36167864902392255, rel=1e-11)
    assert report.reps == 99
    assert report.seed == 5
    assert report.decision_at == ((0.01, False), (0.05, False), (0.10, False))


def test_monte_carlo_rejects_laplace_sample():
    draw = np.random.default_rng(3).laplace(size=(200, 1))
    report = monte_carlo_pvalue(Sample(draw), reps=99, seed=0)
    assert report.statistic == pytest.approx(414.0257, rel=1e-4)
    assert report.p_value == pytest.approx(0.01)
    assert report.decision_at == ((0.01, True), (0.05, True), (0.10, True))


def test_monte_carlo_is_scale_free_at_extreme_scales():
    z = np.random.default_rng(93).standard_normal(40)
    reference = monte_carlo_pvalue(Sample(3.0 + 2.0 * z), reps=99, seed=4)
    for scale in (1e200, 1e-200):
        report = monte_carlo_pvalue(Sample(scale * z), reps=99, seed=4)
        assert report.statistic == pytest.approx(reference.statistic, rel=1e-9)
        assert report.p_value == reference.p_value


def test_monte_carlo_answers_on_mostly_tied_sample():
    data = np.round(0.3 * np.random.default_rng(57).standard_normal(40))
    report = monte_carlo_pvalue(Sample(data), reps=99, seed=1)
    assert report.statistic > 0.0
    assert 0.0 < report.p_value <= 1.0


def test_monte_carlo_is_deterministic():
    data = np.random.default_rng(12).standard_normal((40, 1))
    first = monte_carlo_pvalue(Sample(data), reps=99, seed=21)
    second = monte_carlo_pvalue(Sample(data), reps=99, seed=21)
    assert first.statistic == second.statistic
    assert first.p_value == second.p_value
    third = monte_carlo_pvalue(Sample(data), reps=99, seed=22)
    assert third.p_value != first.p_value or third.statistic == first.statistic


def test_parallel_workers_match_serial(monkeypatch):
    data = np.random.default_rng(13).standard_normal((40, 1))
    monkeypatch.delenv("RATIO_CONVEXITY_THREADS", raising=False)
    serial = monte_carlo_pvalue(Sample(data), reps=99, seed=3)
    monkeypatch.setenv("RATIO_CONVEXITY_THREADS", "3")
    parallel = monte_carlo_pvalue(Sample(data), reps=99, seed=3)
    assert parallel.statistic == serial.statistic
    assert parallel.p_value == serial.p_value


class _RecordingPool:
    """In-process stand-in for the worker pool: records the worker count
    and runs the batches serially, so no process is started."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, function, *iterables):
        return map(function, *iterables)


def test_workers_are_bounded_by_core_count(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "max_workers", [])
    data = np.random.default_rng(13).standard_normal((40, 1))
    monkeypatch.delenv("RATIO_CONVEXITY_THREADS", raising=False)
    serial = monte_carlo_pvalue(Sample(data), reps=99, seed=3)
    monkeypatch.setattr(normtest, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(normtest.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("RATIO_CONVEXITY_THREADS", "64")
    bounded = monte_carlo_pvalue(Sample(data), reps=99, seed=3)
    assert _RecordingPool.max_workers == [2]
    assert bounded.p_value == serial.p_value


def test_grid_workers_match_serial(monkeypatch):
    data = np.random.default_rng(105).laplace(size=(20, 2))
    monkeypatch.delenv("RATIO_CONVEXITY_THREADS", raising=False)
    serial = monte_carlo_pvalue(Sample(data), reps=99, seed=6)
    monkeypatch.setattr(_RecordingPool, "max_workers", [])
    monkeypatch.setattr(normtest, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(normtest.os, "cpu_count", lambda: 3)
    monkeypatch.setenv("RATIO_CONVEXITY_THREADS", "3")
    pooled = monte_carlo_pvalue(Sample(data), reps=99, seed=6)
    assert _RecordingPool.max_workers == [3]
    assert (pooled.statistic, pooled.p_value) == (serial.statistic, serial.p_value)


def test_monte_carlo_validates_arguments():
    data = np.random.default_rng(14).standard_normal((40, 1))
    sample = Sample(data)
    with pytest.raises(UsageError):
        monte_carlo_pvalue(sample, reps=50)
    with pytest.raises(UsageError):
        monte_carlo_pvalue(sample, alphas=(0.0,))
    with pytest.raises(UsageError):
        monte_carlo_pvalue(sample, grid=default_test_grid(2))
    small = Sample(np.arange(5.0).reshape(-1, 1), min_count=2)
    with pytest.raises(UsageError):
        monte_carlo_pvalue(small)
    wide = Sample(np.random.default_rng(15).standard_normal(
        (30, MAX_TEST_DIMENSION + 1)))
    with pytest.raises(UsageError):
        monte_carlo_pvalue(wide)


def test_test_normality_wrapper():
    data = np.random.default_rng(16).standard_normal((40, 1))
    via_wrapper = test_normality(data, reps=99, seed=4)
    direct = monte_carlo_pvalue(Sample(data), reps=99, seed=4)
    assert isinstance(via_wrapper, TestReport)
    assert via_wrapper == direct or (
        via_wrapper.statistic == direct.statistic
        and via_wrapper.p_value == direct.p_value)


def test_default_alphas_are_sane():
    assert DEFAULT_ALPHAS == (0.01, 0.05, 0.10)

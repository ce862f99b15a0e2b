import concurrent.futures
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ratio_convexity import cli, kernels, normtest, probe
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
from ratio_convexity.probe import (ProbeGrid, PropertyKind, _grid_plan,
                                   probe_property)

from _oracles import (
    adaptive_simpson,
    grid_statistic_loop,
    kde_log_density_naive,
    lattice_pipeline_loop,
    lattice_statistic_loop,
    per_replicate_grid_statistics,
    per_replicate_statistics,
    per_shift_statistic,
    ratio_second_difference,
    replicate_draw,
    silverman_unsorted,
    splitmix64_reference,
    standardize_alone,
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


def test_vectorized_substream_seeds_are_substream_seed():
    # the block's seeds come from uint64 arrays, whose products wrap
    # without a warning; a negative seed is taken modulo 2**64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 1, 2**63 + 5, 2**64 - 1, 12345678901234, -1):
            for start, stop in ((0, 300), (2**40, 2**40 + 3), (7, 8)):
                seeds = normtest._substream_seeds(seed, start, stop)
                assert seeds.dtype == np.uint64
                assert seeds.tolist() == [substream_seed(seed, r)
                                          for r in range(start, stop)], seed


def test_substream_states_are_default_rng_states():
    # _pcg64_states writes out numpy's SeedSequence hash and PCG64 seeding:
    # a numpy that changes either fails here instead of moving every T*
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + np.random.default_rng(19).integers(
        0, 2**64, 2000, dtype=np.uint64).tolist()
    states = normtest._pcg64_states(seeds)
    assert len(states) == len(seeds)
    for seed, state in zip(seeds, states):
        assert state == np.random.default_rng(seed).bit_generator.state, seed


@pytest.mark.parametrize("width, m, n", [(199, 200, 1), (13, 40, 3)])
def test_block_draws_are_default_rng_draws(monkeypatch, width, m, n):
    # the replicates of one block, as _replicate_statistics draws them,
    # bit for bit against a fresh default_rng per replicate
    blocks = []

    def recording_standardize(block):
        blocks.append(block.copy())
        return block

    monkeypatch.setattr(normtest, "_standardize", recording_standardize)
    monkeypatch.setattr(normtest, "_block_statistics",
                        lambda block, plan: (np.zeros(len(block)), None))
    # the identity root multiplies each draw by exactly 1; a negative seed
    # is taken modulo 2**64
    for seed in (11, -1, 2**64 - 1):
        blocks.clear()
        _replicate_statistics(np.eye(n), m, None, seed, 1, 1 + width)
        assert [block.shape for block in blocks] == [(width, m, n)]
        for r, draws in enumerate(blocks[0], 1):
            expected = np.empty((m, n))
            np.random.default_rng(substream_seed(seed, r)).standard_normal(
                out=expected)
            assert draws.tobytes() == expected.tobytes(), (seed, r)


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


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 20, 199, 200, 201, 500])
def test_silverman_quartiles_are_numpy_percentiles(m):
    # the quartiles read from the sorted copy are np.percentile's values,
    # on every interpolation weight (m mod 4) and on rounded, mostly tied
    # data, and the bandwidths its bits.  Sorting and partitioning may
    # order a tied -0.0 and 0.0 differently, so a quartile of 0 may differ
    # in sign, which no bandwidth sees
    rng = np.random.default_rng(5900 + m)
    for n in (1, 2, 3):
        stack = rng.standard_normal((6, m, n)) * rng.uniform(0.1, 10.0, n)
        stack[3:] = np.round(stack[3:] * 0.7)
        ordered = np.sort(stack, axis=-2)
        for q in (0.25, 0.75):
            assert (normtest._sorted_quantile(ordered, q).tolist()
                    == np.percentile(stack, 100 * q, axis=-2).tolist()), (n, q)
        spread = stack.std(axis=-2, ddof=1) > 0
        if spread.all():
            assert (_silverman_per_axis(stack).tobytes()
                    == silverman_unsorted(stack).tobytes()), n


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


@pytest.mark.parametrize("scale", [
    1e200, 1e-200,
    pytest.param(2.0 ** np.array([600, -600]), id="2d-per-axis"),
    pytest.param(2.0 ** np.array([600, -600, 0]), id="3d-per-axis")])
def test_bandwidth_at_extreme_scales(scale):
    # per axis by a power of two the rule is exact: the unit sample's bits
    data = np.random.default_rng(58).standard_normal((50, max(2, np.size(scale))))
    h = bandwidth_silverman(Sample(data))
    scaled = Sample(scale * data)
    if np.ndim(scale) == 0:
        np.testing.assert_allclose(bandwidth_silverman(scaled), scale * h, rtol=1e-13)
    else:
        exact = (h * scale).tolist()  # exact: powers of two, no subnormal
        assert bandwidth_silverman(scaled).tolist() == exact
        assert kde_log_density(scaled).bandwidths.tolist() == exact


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


@pytest.mark.parametrize("bandwidth", [[1.0, 2.0, 3.0], [[1.0, 2.0]], "abc"])
def test_kde_refuses_a_bandwidth_of_the_wrong_shape(bandwidth):
    data = np.random.default_rng(62).standard_normal((30, 2))
    with pytest.raises(UsageError, match="a scalar or 2 values"):
        kde_log_density(Sample(data), bandwidth=bandwidth)


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


#: relative agreement of a KDE statistic from the factored table with the
#: direct kernel's rows.  Each table value is within about 1e-14 (1 + |log f|)
#: of the direct one (4.4e-14 at worst on heavy-tailed samples), a second
#: difference sums eight of them, and the statistic divides it by t^2 >=
#: 0.01 on these grids: well under 1e-12 of statistics of 10 to 100
STATISTIC_RTOL = 1e-12


@pytest.mark.parametrize("dimension, draw", [
    (2, "standard_normal"), (2, "laplace"), (3, "standard_normal")])
def test_statistic_equals_per_shift_oracle(dimension, draw):
    data = getattr(np.random.default_rng(72), draw)(size=(25, dimension))
    model = kde_log_density(Sample(data, min_count=2))
    grid = default_test_grid(dimension)
    assert violation_statistic(model, grid) == pytest.approx(
        per_shift_statistic(model, grid), rel=STATISTIC_RTOL)


def test_statistic_equals_per_shift_oracle_off_lattice():
    # shifts and steps off the lattice spacing, plus one repeated shift
    # whose centres all coincide with those of the first
    model = kde_log_density(
        Sample(np.random.default_rng(75).standard_normal((30, 2)), min_count=2))
    grid = ProbeGrid(x_range=((-2.3, 1.9, 11), (-1.7, 2.6, 7)),
                     y_set=([0.37, -0.21], [-1.3, 0.0], [0.37, -0.21]),
                     directions=([1.0, 0.0], [0.6, 0.8]),
                     steps=(0.13, 0.71))
    assert violation_statistic(model, grid) == pytest.approx(
        per_shift_statistic(model, grid), rel=STATISTIC_RTOL)


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


def _kde_table(plan, data):
    """The KDE table of one standardized sample over a grid plan, as the
    statistic reads it."""
    z = _standardize(data[None])[0]
    h = _silverman_per_axis(z)
    return kernels.kde_log_density_table(
        plan.anchors, plan.offsets, z[None], 1.0 / h[None],
        [normtest._log_norm(len(z), h.tolist())])[0]


def _blocks_per_chunk(plan):
    return max(1, kernels._CHUNK_VALUES // plan.centres.size)


@pytest.mark.parametrize("dimension", [2, 3])
@pytest.mark.parametrize("draw", ["standard_normal", "laplace", "standard_cauchy"])
def test_grid_statistic_is_the_block_loop_on_default_tables(dimension, draw):
    plan = normtest._statistic_plan(None, dimension)
    blocks = (len(plan.offsets) - 1) // 2
    # several chunks, the last one partial
    assert blocks > _blocks_per_chunk(plan) and blocks % _blocks_per_chunk(plan)
    table = _kde_table(
        plan, getattr(np.random.default_rng(110), draw)(size=(40, dimension)))
    assert normtest._grid_statistic((table,), plan) == grid_statistic_loop(
        (table,), plan)


def _chunked_grids():
    # 30 blocks of 4 shifts x 1681 points: 4 a chunk, the last one of 2
    several = ProbeGrid.for_dimension(2, x_min=-3.0, x_max=3.0, points=41,
                                      y_magnitudes=(1.0,), steps=(0.2, 0.4, 0.6))
    # one block of 12 shifts x 3721 points holds more than a chunk
    wide = ProbeGrid.for_dimension(2, x_min=-3.0, x_max=3.0, points=61,
                                   y_magnitudes=(0.5, 1.0, 2.0), steps=(0.2, 0.4))
    # a step off the 1-D lattice sends the default 1-D grid to the grid plan
    far = ProbeGrid.for_dimension(1, x_min=-3.0, x_max=3.0, points=61,
                                  y_magnitudes=(0.5, 1.0, 2.0), steps=(20.05,))
    return {"several": several, "wide": wide, "far": far}


@pytest.mark.parametrize("name", ["several", "wide", "far"])
def test_grid_statistic_is_the_block_loop_across_chunks(name):
    grid = _chunked_grids()[name]
    plan = normtest._statistic_plan(grid, grid.dimension)
    assert isinstance(plan, probe._GridPlan)
    per_chunk = _blocks_per_chunk(plan)
    blocks = (len(plan.offsets) - 1) // 2
    if name == "several":
        assert (per_chunk, blocks) == (4, 30)
    elif name == "wide":
        assert plan.centres.size > kernels._CHUNK_VALUES
    table = _kde_table(
        plan, np.random.default_rng(111).laplace(size=(30, grid.dimension)))
    expected = grid_statistic_loop((table,), plan)
    assert normtest._grid_statistic((table,), plan) == expected
    # any split into the 0 row and whole (-t d, +t d) pairs reads the same
    split = (table[:3], table[3:5 + 2 * per_chunk], table[5 + 2 * per_chunk:])
    assert normtest._grid_statistic(split, plan) == expected


@pytest.mark.parametrize("chunk", [None, 1000, 3 * 2028])
def test_grid_statistic_reads_every_block_with_its_step(monkeypatch, chunk):
    # one block at a time holds the largest gap: the statistic must find it
    # in its chunk and divide it by that block's t^2.  The default 2-D
    # blocks gather 12 x 169 = 2028 values: 16 a chunk by default, one
    # when a block exceeds the chunk, or 3 with a partial last chunk
    plan = normtest._statistic_plan(None, 2)
    if chunk is not None:
        monkeypatch.setattr(kernels, "_CHUNK_VALUES", chunk)
    rng = np.random.default_rng(112)
    background = rng.uniform(-1e-3, 1e-3, size=(len(plan.offsets), len(plan.anchors)))
    blocks = (len(plan.offsets) - 1) // 2
    for block in range(blocks):
        table = background.copy()
        # a bump at one shifted centre of the block's +t d row
        table[2 + 2 * block, plan.centres[block % len(plan.centres), 84]] += 1.0
        expected = grid_statistic_loop((table,), plan)
        step = plan.steps[block % len(plan.steps)]
        assert expected > 0.9 / (step * step)
        assert normtest._grid_statistic((table,), plan) == expected


def test_grid_statistic_skips_a_nan_block_as_the_loop_does():
    plan = normtest._statistic_plan(None, 2)
    table = _kde_table(plan, np.random.default_rng(113).standard_normal((40, 2)))
    for row in (1, 2 + 2 * 15, len(table) - 1):
        bad = table.copy()
        bad[row, plan.centres[3, 7]] = np.nan
        with np.errstate(invalid="ignore"):
            statistic = normtest._grid_statistic((bad,), plan)
            assert statistic == grid_statistic_loop((bad,), plan)
        assert math.isfinite(statistic)


@pytest.mark.parametrize("dimension", [2, 3])
def test_grid_statistic_of_streamed_rows_is_the_block_loop(dimension):
    plan = normtest._statistic_plan(None, dimension)
    a = np.random.default_rng(114).standard_normal((dimension, dimension))
    gaussian = Gaussian(GaussianParams(np.full(dimension, 0.3),
                                       a @ a.T + np.eye(dimension)))
    def log_f(points):
        return -np.sqrt(1.0 + (points * points).sum(axis=-1))

    custom = Custom(dimension, log_f, batch_evaluator=log_f)
    for model in (gaussian, custom):
        streamed = normtest._grid_statistic(
            probe._offset_rows(model.log_density_many, plan), plan)
        assert streamed == grid_statistic_loop(
            probe._offset_rows(model.log_density_many, plan), plan)
        assert streamed == violation_statistic(model)


def test_grid_statistic_memory_stays_within_a_few_chunks():
    # the table of 61 rows over 1681 + 4 x 1681 anchors holds 3.9 MB; a
    # chunk of 4 blocks holds 4 x 6724 gaps and 4 rows of second differences
    grid = _chunked_grids()["several"]
    plan = normtest._statistic_plan(grid, 2)
    table = np.random.default_rng(115).standard_normal(
        (len(plan.offsets), len(plan.anchors)))
    assert table.nbytes > 3 * 4 * 8 * kernels._CHUNK_VALUES
    tracemalloc.start()
    try:
        normtest._grid_statistic((table,), plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * kernels._CHUNK_VALUES


def _counting_plan_builds(monkeypatch):
    """Record each lattice or grid plan the statistic builds, from an empty
    cache of the default grids' plans."""
    builds = []
    for name in ("_lattice_plan", "_grid_plan"):
        def counting(grid, build=getattr(normtest, name), name=name):
            builds.append(name)
            return build(grid)
        monkeypatch.setattr(normtest, name, counting)
    monkeypatch.setattr(normtest, "_shared_plans", {})
    return builds


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_default_statistic_plans_once(monkeypatch, dimension):
    builds = _counting_plan_builds(monkeypatch)
    data = np.random.default_rng(76).laplace(size=(30, dimension))
    model = kde_log_density(Sample(data))
    first = violation_statistic(model)
    assert violation_statistic(model) == first
    assert first == violation_statistic(model, default_test_grid(dimension))
    # the lattice in 1-D; the grid plan, after the lattice declines, above
    assert builds == (["_lattice_plan"] if dimension == 1
                      else ["_lattice_plan", "_grid_plan"])
    plan = normtest._statistic_plan(None, dimension)
    assert isinstance(plan, normtest._LatticePlan) == (dimension == 1)
    arrays = [values for values in vars(plan).values()
              if isinstance(values, np.ndarray)]
    assert len(arrays) >= 3
    assert not any(values.flags.writeable for values in arrays)
    assert default_test_grid(dimension) is default_test_grid(dimension)


@pytest.mark.parametrize("dimension", [2, 3])
def test_default_statistic_plans_factor_their_anchors_once(monkeypatch,
                                                           dimension):
    _counting_plan_builds(monkeypatch)
    factored = []

    def counting(anchors, factor=kernels.anchor_axes):
        factored.append(len(anchors))
        return factor(anchors)

    monkeypatch.setattr(kernels, "anchor_axes", counting)
    data = np.random.default_rng(77).standard_normal((30, dimension))
    model = kde_log_density(Sample(data))
    first = violation_statistic(model)
    assert violation_statistic(model) == first
    plan = normtest._statistic_plan(None, dimension)
    # once per process for the default plan, and never inside the kernel
    assert factored == [len(plan.anchors)]
    assert len(plan.axes) == dimension
    for k, (values, index) in enumerate(plan.axes):
        assert not values.flags.writeable and not index.flags.writeable
        assert values[index].tobytes() == plan.anchors[:, k].tobytes()
    # any other grid factors its own plan's anchors, per call
    grid = ProbeGrid.for_dimension(dimension, x_min=-3.0, x_max=3.0, points=5,
                                   y_magnitudes=(0.5, 1.0), steps=(0.2, 0.4))
    assert violation_statistic(model, grid) == violation_statistic(model, grid)
    assert factored[1:] == [factored[1]] * 2 and len(factored) == 3
    assert normtest._shared_plans.keys() == {dimension}


@pytest.mark.parametrize("m", [20, 40, 200])
@pytest.mark.parametrize("draw", ["standard_normal", "t3", "standard_cauchy"])
@pytest.mark.parametrize("dimension", [2, 3])
def test_statistic_of_per_axis_table_equals_per_shift_oracle(dimension, draw, m):
    # the table's anchor terms are products of per-axis rows; the oracle
    # evaluates every shift's points through the direct kernel
    rng = np.random.default_rng(7700 + 10 * dimension + m)
    if draw == "t3":
        data = rng.standard_t(3, size=(m, dimension))
    else:
        data = getattr(rng, draw)(size=(m, dimension))
    model = kde_log_density(Sample(data))
    grid = default_test_grid(dimension)
    assert violation_statistic(model) == pytest.approx(
        per_shift_statistic(model, grid), rel=STATISTIC_RTOL)


def test_only_the_default_grid_plan_is_shared(monkeypatch):
    builds = _counting_plan_builds(monkeypatch)
    model = Laplace1D()
    # an equal grid that is not the default one is planned per call
    grid = ProbeGrid.for_dimension(1, x_min=-3.0, x_max=3.0, points=61,
                                   y_magnitudes=(0.5, 1.0, 2.0),
                                   steps=(0.2, 0.4))
    assert violation_statistic(model, grid) == violation_statistic(model, grid)
    assert builds == ["_lattice_plan"] * 2
    assert normtest._shared_plans == {}


@pytest.mark.parametrize("dimension", [1, 2])
def test_cli_tests_and_the_statistic_share_one_plan(monkeypatch, capsys,
                                                    tmp_path, dimension):
    # two test runs and a default-grid statistic: one plan build in all
    builds = _counting_plan_builds(monkeypatch)
    data = np.random.default_rng(77).standard_normal((40, dimension))
    path = tmp_path / "sample.csv"
    np.savetxt(path, data, delimiter=",")
    for seed in ("0", "1"):
        assert cli.main(["test", "--input", str(path), "--reps", "99",
                         "--seed", seed]) == 0
    violation_statistic(kde_log_density(Sample(data)))
    capsys.readouterr()
    assert len(builds) == len(set(builds)) == (1 if dimension == 1 else 2)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_observed_statistic_is_the_kde_statistic(dimension):
    # the test and violation_statistic read the default grid through one
    # plan: in 1-D both read the lattice
    x = 2.0 + 3.0 * np.random.default_rng(78).laplace(size=(40, dimension))
    z = _standardize(x[None])[0]
    report = test_normality(Sample(x), reps=99, seed=0)
    model = kde_log_density(Sample(z))
    assert report.statistic == violation_statistic(model)
    assert np.atleast_1d(report.bandwidth).tolist() == model.bandwidths.tolist()


def test_statistic_of_a_1d_model_reads_the_lattice_once():
    points = []
    laplace = Laplace1D()

    def batch(rows):
        points.append(rows.copy())
        return laplace.log_density_many(rows)

    model = Custom(1, laplace.log_density, batch_evaluator=batch)
    statistic = violation_statistic(model)
    plan = normtest._statistic_plan(None, 1)
    # 61 grid points padded by the largest shift and step, 24 spacings a side
    assert len(plan.points) == 109
    evaluated = np.concatenate(points)
    assert np.array_equal(evaluated.view(np.int64), plan.points.view(np.int64))
    assert statistic == pytest.approx(10.0, rel=1e-12)


def test_statistic_validates_grid_dimension():
    with pytest.raises(UsageError):
        violation_statistic(Laplace1D(), default_test_grid(2))


def test_statistic_refuses_a_step_whose_square_underflows():
    # 1e-170 squared is 0: the statistic would divide by zero
    grid = ProbeGrid.for_dimension(1, x_min=-3.0, x_max=3.0, points=61,
                                   y_magnitudes=(0.5,), steps=(1e-170,))
    with pytest.raises(UsageError, match=r"step 1e-170 is too small"):
        violation_statistic(Laplace1D(), grid)


@pytest.mark.parametrize("check", ["statistic", "probe"])
def test_kde_beyond_its_finite_range_is_refused(data_dir, check):
    # the squared scaled gaps of a 1e300 step overflow in the kernel; the
    # KDE model refuses the values before a probe or a statistic reads them
    data = np.loadtxt(data_dir / "normal_200.csv", skiprows=1)
    model = kde_log_density(Sample(data))
    grid = ProbeGrid.for_dimension(1, steps=(1e300,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match=r"the log-density at \[-1e\+300\]"):
            if check == "statistic":
                violation_statistic(model, grid)
            else:
                probe_property(model, PropertyKind.LOG_CONVEX, grid)


def test_log_density_range_check_names_the_first_point():
    limit = probe._LOG_DENSITY_LIMIT
    # the worst second difference of log h from values below the limit is
    # finite: phi = log f(. + y) - log f(.) at +-2 (limit-), weights 1, -2, 1
    below = np.nextafter(limit, 0.0)
    phi = np.array([below - -below, -below - below, below - -below])
    assert math.isfinite(phi[2] - 2.0 * phi[1] + phi[0])
    points = np.arange(4.0).reshape(-1, 1)
    # the last value below the limit passes, on either side
    probe._check_log_density_range(np.array([0.0, -below, below, 1.0]), points)
    for bad in (limit, -limit, np.inf, -np.inf, np.nan):
        values = np.zeros((4, 3))
        values[2, 1] = bad
        values[3, 0] = np.nan
        with pytest.raises(UsageError, match=r"the log-density at \[2.0\]"):
            probe._check_log_density_range(values, points)


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


#: the factored lattice KDE against the direct kernel's lattice (the
#: oracle).  A lattice value sums terms no larger than |log f|, its
#: offset's exponent span (at most 111 on these samples and replicates;
#: never above kernels._SPAN_LIMIT) and |e'.(a' - c)|, each to a few units
#: in the last place, so it is within about 1e-14 (1 + |log f|) of the
#: direct one; a statistic takes a difference of two second differences
#: (eight values) and divides by t^2 >= 0.04.  The worst gap here was
#: 9.3e-14 relative, on statistics of 3.8 to 204.  Bandwidths do not pass
#: the kernel and stay bit for bit.
@pytest.mark.parametrize("m", [20, 200, 500])
def test_block_bootstrap_equals_per_replicate_oracle(monkeypatch, m):
    grid = default_test_grid(1)
    plan = _lattice_plan(grid)
    for name, values in _lattice_samples(m, 100 + m).items():
        data = values.reshape(-1, 1)
        statistic, bandwidths = _pipeline_statistic(data, plan)
        want_statistic, want_bandwidth = lattice_pipeline_loop(data, plan)
        assert statistic == pytest.approx(want_statistic, rel=STATISTIC_RTOL), name
        assert float(bandwidths[0]) == want_bandwidth, name
        root = _fitted_root(data)
        batched = _replicate_statistics(root, m, plan, 9, 1, 41)
        np.testing.assert_allclose(
            batched, per_replicate_statistics(root, m, plan, 9, 1, 41),
            rtol=STATISTIC_RTOL, err_msg=name)
        # three replicates per block, the last block partial: the same bits
        with monkeypatch.context() as patch:
            patch.setattr(normtest, "_BLOCK_VALUES", 3 * m)
            partial = _replicate_statistics(root, m, plan, 9, 1, 41)
        assert partial.tolist() == batched.tolist(), name


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_block_statistics_equal_one_sample_calls(dimension):
    # the 1-D lattice, and the 2-D grid plan, whose tables come two
    # samples per kernel call, and the 3-D one, one per call
    grid = default_test_grid(dimension)
    plan = _lattice_plan(grid) or _grid_plan(grid)
    rng = np.random.default_rng(101)
    shape = (60, dimension)
    samples = [rng.standard_normal(shape), rng.laplace(size=shape),
               np.round(0.3 * rng.standard_normal(shape)),
               rng.standard_t(3, size=shape), rng.standard_t(2, size=shape)]
    block = np.stack([_standardize(s) for s in samples])
    statistics, bandwidths = _block_statistics(block, plan)
    # quartiles from a sorted copy: the bits of the rule on the block as
    # drawn, ties (an IQR of 0) and a t(2) tail included
    assert bandwidths.tolist() == silverman_unsorted(block).tolist()
    for r in range(block.shape[0]):
        one_statistic, one_bandwidths = _block_statistics(block[r:r + 1], plan)
        assert statistics[r] == one_statistic[0]
        assert (bandwidths[r].tolist() == one_bandwidths[0].tolist()
                == _silverman_per_axis(block[r]).tolist())


def test_lattice_statistic_reads_each_column_alone():
    # the lattice statistic alone, column by column, against the
    # pair-by-pair loop; a NaN lattice value is skipped like the loop skips it
    plan = _lattice_plan(default_test_grid(1))
    rng = np.random.default_rng(101)
    samples = [rng.standard_normal(60), rng.laplace(size=60),
               np.round(0.3 * rng.standard_normal(60)), rng.standard_t(3, size=60)]
    log_values = np.column_stack([
        kde_log_density(Sample(s)).log_density_many(plan.points) for s in samples])
    log_values[plan.pad + 7, 1] = np.nan
    together = _lattice_statistic(log_values, plan)
    for r in range(log_values.shape[1]):
        alone = _lattice_statistic(log_values[:, r:r + 1], plan)
        assert together[r] == alone[0] == lattice_statistic_loop(log_values[:, r], plan)


@pytest.mark.parametrize("width", [3, normtest._WIDE_BLOCK + 24])
def test_narrow_and_wide_lattice_blocks_read_each_column_alone(monkeypatch, width):
    # a narrow block's lattice values are laid out sample by sample, a wide
    # block's point by point; either way each statistic is its sample's
    # table read alone by the loop
    plan = _lattice_plan(default_test_grid(1))
    rng = np.random.default_rng(1900 + width)
    block = _standardize(rng.standard_normal((width, 60, 1)))
    bandwidths = _silverman_per_axis(block)
    layouts = []

    def recording_statistic(log_values, plan):
        layouts.append(log_values.strides[0] == log_values.itemsize)
        return _lattice_statistic(log_values, plan)

    monkeypatch.setattr(normtest, "_lattice_statistic", recording_statistic)
    statistics = normtest._kde_statistics(block, bandwidths, plan)
    assert layouts == [width < normtest._WIDE_BLOCK]
    for r in range(width):
        table = kernels.kde_log_density_table(
            plan.anchors, plan.offsets, block[r:r + 1], 1.0 / bandwidths[r:r + 1],
            [normtest._log_norm(60, bandwidths[r].tolist())])[0]
        column = table.T.reshape(-1)[:len(plan.points)]
        assert statistics[r] == lattice_statistic_loop(column, plan), r


def test_kde_statistic_is_the_one_sample_block_statistic():
    # on this sample np.log and math.log disagree on a bandwidth, and the
    # statistic moves with the log-norm formula: the KDE and the bootstrap
    # take the same one
    z = _standardize(np.random.default_rng(1603).standard_normal((20, 2))[None])[0]
    h = _silverman_per_axis(z)
    assert [float(np.log(v)) for v in h.tolist()] != [math.log(v) for v in h.tolist()]
    model = kde_log_density(Sample(z), h)
    assert model._log_norm == -(math.log(20) + (math.log(h[0]) + math.log(h[1]))
                                + math.log(2.0 * math.pi))
    grid = default_test_grid(2)
    statistics, _ = _block_statistics(z[None], _grid_plan(grid))
    assert violation_statistic(model, grid) == statistics[0]


def test_grid_block_tables_stay_small():
    # 40 default 2-D tables of 546 x 41 values would take 7.2 MB at once;
    # the block reads them two at a time
    block = _standardize(np.random.default_rng(105).standard_normal((40, 40, 2)))
    plan = _grid_plan(default_test_grid(2))
    tracemalloc.start()
    try:
        _block_statistics(block, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20


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


def test_fine_lattice_bootstrap_blocks_stay_small():
    # 12,001 grid points pad to a 21,601-point lattice, whose tables and
    # (lattice points, R) arrays all 40 replicates of a block at once took
    # 28 MB (218 MB for 327); read 65536 // 21609 = 3 tables at a time,
    # they hold 4.4 MB
    plan = _lattice_plan(ProbeGrid.for_dimension(
        1, x_min=-3.0, x_max=3.0, points=12001, y_magnitudes=(0.5, 1.0, 2.0),
        steps=(0.2, 0.4)))
    assert plan.points.shape[0] == 21601
    tracemalloc.start()
    try:
        _replicate_statistics(np.ones((1, 1)), 200, plan, 0, 1, 41)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("dimension", [2, 3])
def test_grid_block_bootstrap_equals_per_replicate_oracle(monkeypatch, dimension):
    data = np.random.default_rng(103).laplace(size=(20, dimension))
    grid = default_test_grid(dimension)
    root = _fitted_root(data)
    expected = per_replicate_grid_statistics(root, 20, grid, 9, 1, 6)
    whole = _replicate_statistics(root, 20, _grid_plan(grid), 9, 1, 6)
    np.testing.assert_allclose(whole, expected, rtol=STATISTIC_RTOL)
    # two replicates per block, the last block partial: the same bits
    monkeypatch.setattr(normtest, "_BLOCK_VALUES", 2 * 20 * dimension)
    assert _replicate_statistics(root, 20, _grid_plan(grid), 9, 1, 6).tolist() == whole.tolist()


def test_grid_test_plans_once_in_bounded_blocks(monkeypatch):
    builds = _counting_plan_builds(monkeypatch)
    shapes = []

    def recording(block, plan):
        shapes.append(block.shape)
        return _block_statistics(block, plan)

    monkeypatch.setattr(normtest, "_block_statistics", recording)
    monkeypatch.setattr(normtest, "_BLOCK_VALUES", 40 * 20 * 2)
    data = np.random.default_rng(104).standard_normal((20, 2))
    monte_carlo_pvalue(Sample(data), reps=99, seed=2)
    assert builds.count("_grid_plan") == 1
    assert shapes == [(1, 20, 2), (40, 20, 2), (40, 20, 2), (19, 20, 2)]
    assert all(width * m * n <= normtest._BLOCK_VALUES for width, m, n in shapes)
    # a second test reads the shared plan
    monte_carlo_pvalue(Sample(data), reps=99, seed=3)
    assert builds.count("_grid_plan") == 1


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [20, 200, 5000])
def test_block_draws_and_standardizes_as_the_per_replicate_oracle(monkeypatch, m, n):
    if n == 1:
        root = np.array([[1.0]])
    else:
        rng = np.random.default_rng(106 + n)
        root = _fitted_root(rng.standard_normal((50, n)) @ rng.standard_normal((n, n)))
    expected_draws = np.stack([replicate_draw(root, m, 9, r) for r in range(1, 8)])
    expected = np.stack([standardize_alone(x) for x in expected_draws])
    draws, blocks = [], []

    def recording_standardize(data):
        draws.append(data.copy())
        return _standardize(data)

    def recording_statistics(block, plan):
        blocks.append(block.copy())
        return np.zeros(len(block)), np.ones((len(block), n))

    monkeypatch.setattr(normtest, "_standardize", recording_standardize)
    monkeypatch.setattr(normtest, "_block_statistics", recording_statistics)
    # seven replicates in whole blocks (in 3-D at m = 5000: four, then a
    # partial three), then in blocks of three, the last one partial
    for block_values in (_BLOCK_VALUES, 3 * m * n):
        monkeypatch.setattr(normtest, "_BLOCK_VALUES", block_values)
        draws.clear()
        blocks.clear()
        _replicate_statistics(root, m, None, 9, 1, 8)
        assert len(blocks) > 1 or block_values == _BLOCK_VALUES
        np.testing.assert_array_equal(np.concatenate(draws), expected_draws)
        np.testing.assert_array_equal(np.concatenate(blocks), expected)


@pytest.mark.parametrize("scale", [1e200, 1e-7, 1e-200])
def test_observed_sample_standardizes_as_the_oracle_at_extreme_scales(scale):
    # a one-sample stack, and a stack beside a sample at unit scale, take
    # the rescaled moments of that sample alone
    rng = np.random.default_rng(92)
    for data in (rng.standard_normal((60, 1)), rng.standard_normal((60, 2)),
                 rng.standard_normal((60, 3))):
        x = scale * data
        np.testing.assert_array_equal(_standardize(x[None])[0], standardize_alone(x))
        np.testing.assert_array_equal(_standardize(np.stack([data, x])),
                                      [standardize_alone(data), standardize_alone(x)])


def test_stack_with_a_degenerate_sample_raises_as_that_sample_alone():
    z = np.random.default_rng(96).standard_normal((30, 2))
    for good, bad in ((z[:, :1], np.full((30, 1), 5.0)),
                      (z, np.column_stack((z[:, 0], 2.0 * z[:, 0])))):
        with pytest.raises(DegenerateSampleError) as alone:
            _standardize(bad[None])
        with pytest.raises(DegenerateSampleError) as stacked:
            _standardize(np.stack([good, bad, good]))
        assert str(stacked.value) == str(alone.value)


def test_singular_bootstrap_replicate_names_the_replication():
    # the observed covariance ratio (2.5e-12) passes the 1e-12 floor, and
    # some replicates drawn from its shape fall under it
    z = np.random.default_rng(5).standard_normal((20, 2))
    x = np.column_stack((z[:, 0], math.sqrt(1.5e-12) * z[:, 1]))
    _fitted_root(x)
    with pytest.raises(DegenerateSampleError,
                       match=r"^bootstrap replication \d+: sample covariance is "
                             r"singular; the fitted covariance is too close to "
                             r"singular .*eigenvalue 2\.5\de-12"):
        monte_carlo_pvalue(Sample(x), reps=99, seed=1)


def test_non_lattice_steps_fall_back():
    # a step off the lattice, a shift off it, and a step far under half
    # the 0.1 spacing: its offset rounds to 0 within the lattice tolerance
    for y_magnitudes, steps in (((0.5,), (0.21,)), ((0.55,), (0.2,)),
                                ((0.5,), (1e-13,))):
        grid = ProbeGrid.for_dimension(1, x_min=-3.0, x_max=3.0, points=61,
                                       y_magnitudes=y_magnitudes, steps=steps)
        assert _lattice_plan(grid) is None


def test_far_steps_leave_the_lattice_to_the_grid_plan():
    # a lattice padded past the grid plan's 61 * 7 * (1 + 2 * steps) rows
    # is not built: (0.1, 1e4) would need 400,361 points, 1e300 about 2e302
    for steps in ((0.1, 1e4), (1e300,), (60.0,)):
        grid = ProbeGrid.for_dimension(1, x_min=-3.0, x_max=3.0, points=61,
                                       y_magnitudes=(0.5, 1.0, 2.0), steps=steps)
        assert _lattice_plan(grid) is None
    # the widest step whose lattice still fits: 61 + 2 * (20 + 590) = 1,281
    # points against 61 * 7 * 3 = 1,281
    grid = ProbeGrid.for_dimension(1, x_min=-3.0, x_max=3.0, points=61,
                                   y_magnitudes=(0.5, 1.0, 2.0), steps=(59.0,))
    assert _lattice_plan(grid).points.shape == (1281, 1)


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
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
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
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
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

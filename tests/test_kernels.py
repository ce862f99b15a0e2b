import dataclasses
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from ratio_convexity import kernels, normtest
from ratio_convexity.probe import ProbeGrid, _grid_plan

from _oracles import kde_log_density_einsum, kde_log_density_naive


def make_case(rng, n_points, m_data, dimension):
    points = rng.standard_normal((n_points, dimension)) * 2.0
    data = rng.standard_normal((m_data, dimension))
    bandwidths = rng.uniform(0.3, 1.5, size=dimension)
    return points, data, bandwidths


def log_norm_of(data, bandwidths):
    m, n = data.shape
    return -(np.log(m) + np.log(bandwidths).sum()
             + 0.5 * n * np.log(2.0 * np.pi))


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_pure_backend_matches_naive_oracle(dimension):
    rng = np.random.default_rng(1000 + dimension)
    points, data, bandwidths = make_case(rng, 64, 37, dimension)
    got = kernels.kde_log_density_batch(
        points, data, 1.0 / bandwidths, log_norm_of(data, bandwidths))
    oracle = kde_log_density_naive(points, data, bandwidths)
    np.testing.assert_allclose(got, oracle, rtol=1e-12)


def test_wrapper_handles_non_contiguous_input():
    rng = np.random.default_rng(4000)
    wide = rng.standard_normal((40, 6))
    points = wide[:, ::3]  # strided view, not C-contiguous
    data = rng.standard_normal((25, 2))
    bandwidths = np.array([0.8, 1.1])
    got = kernels.kde_log_density_batch(points, data, 1.0 / bandwidths,
                                        log_norm_of(data, bandwidths))
    oracle = kde_log_density_naive(np.ascontiguousarray(points), data, bandwidths)
    np.testing.assert_allclose(got, oracle, rtol=1e-12)


def test_extreme_separation_does_not_overflow():
    # points far from all data: the log-density is a huge negative number
    # but must stay finite through the shifted accumulation
    data = np.zeros((10, 1))
    bandwidths = np.array([1.0])
    points = np.array([[500.0], [-500.0], [0.0]])
    values = kernels.kde_log_density_batch(points, data, 1.0 / bandwidths,
                                           log_norm_of(data, bandwidths))
    assert np.all(np.isfinite(values))
    assert values[0] == pytest.approx(values[1])
    assert values[0] < -100_000.0


def _equivalence_cases(dimension):
    """(points, data) pairs that cross the kernel's chunking in every way."""
    rng = np.random.default_rng(5000 + dimension)
    many = kernels._CHUNK_VALUES + 1000
    rows = kernels._CHUNK_VALUES // 37
    wide = rng.standard_normal((300, 3 * dimension)) * 2.0
    yield "m=1", rng.standard_normal((50, dimension)), rng.standard_normal((1, dimension))
    # the last chunk is partial
    yield ("ragged", rng.standard_normal((2 * rows + 17, dimension)) * 2.0,
           rng.standard_normal((37, dimension)))
    # more observations than one chunk's budget: one row per chunk
    yield ("one-row", rng.standard_normal((5, dimension)) * 2.0,
           rng.standard_normal((many, dimension)))
    yield "strided", wide[:, ::3], rng.standard_normal((25, dimension))


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_blocked_kernel_is_bit_identical_to_einsum_kernel(dimension):
    # the reductions run along contiguous rows in both kernels, and 3-D
    # squares are added in einsum's (0 + 2) + 1 order
    for label, points, data in _equivalence_cases(dimension):
        bandwidths = np.linspace(0.4, 1.2, dimension)
        log_norm = log_norm_of(data, bandwidths)
        got = kernels.kde_log_density_batch(points, data, 1.0 / bandwidths, log_norm)
        want = kde_log_density_einsum(points, data, 1.0 / bandwidths, log_norm)
        assert got.tolist() == want.tolist(), label


@pytest.mark.parametrize("n_points, m_data, dimension",
                         [(109, 100_000, 1), (8192, 2000, 2)])
def test_kernel_memory_does_not_grow_with_the_call(n_points, m_data, dimension):
    # the einsum kernel peaked at 350 MB (1-D) and 328 MB (2-D) here
    rng = np.random.default_rng(6000 + dimension)
    points = rng.standard_normal((n_points, dimension)) * 2.0
    data = rng.standard_normal((m_data, dimension))
    bandwidths = np.full(dimension, 0.3)
    log_norm = log_norm_of(data, bandwidths)
    tracemalloc.start()
    try:
        kernels.kde_log_density_batch(points, data, 1.0 / bandwidths, log_norm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


# ------------------------------------------------------ the factored table


def _plan_and_sample(dimension, m, draw):
    """The default test grid's plan and a standardized sample with its
    Silverman bandwidths, as the n-D test sees them."""
    from ratio_convexity import normtest
    from ratio_convexity.probe import _grid_plan

    rng = np.random.default_rng(7000 + 10 * dimension + m)
    if draw == "t3":
        x = rng.standard_t(3, size=(m, dimension))
    elif draw == "outlier":
        x = rng.standard_normal((m, dimension))
    else:
        x = getattr(rng, draw)(size=(m, dimension))
    z = normtest._standardize(x)
    bandwidths = normtest._silverman_per_axis(z)
    if draw == "outlier":
        # one observation about 1e3 bandwidths out along the first axis
        z[0, 0] = 1e3 * bandwidths[0]
    return _grid_plan(normtest.default_test_grid(dimension)), z, bandwidths


def _table_and_rows(plan, data, bandwidths):
    """The table, the direct kernel's rows in the table's layout, and the
    call of each."""
    n = data.shape[1]
    inv, log_norm = 1.0 / bandwidths, log_norm_of(data, bandwidths)
    rows = (plan.anchors + plan.offsets[:, None, :]).reshape(-1, n)

    def table_call():
        return kernels.kde_log_density_table(plan.anchors, plan.offsets, data[None],
                                             inv[None], [log_norm])[0]

    def direct_call():
        return kernels.kde_log_density_batch(rows, data, inv, log_norm)

    table = table_call()
    return table, direct_call().reshape(table.shape), table_call, direct_call


def _median_time_ratio(call, reference, budget=1.2, window=0.03):
    """Median over pairs of windows of ``call``'s seconds per call over
    ``reference``'s.  Each pair's two windows of at least ``window`` seconds
    run back to back, in turns first, so that both see about the same load;
    a busy moment moves the pairs it falls in, which the median ignores.
    As many pairs as the two first calls fit in ``budget`` seconds, an odd
    count from 5 to 15."""

    def seconds_per_call(function):
        count, start = 0, time.perf_counter()
        while True:
            function()
            count += 1
            elapsed = time.perf_counter() - start
            if elapsed >= window:
                return elapsed / count

    first = seconds_per_call(call) + seconds_per_call(reference)
    ratios = []
    for pair in range(max(5, min(15, int(budget / first))) | 1):
        if pair % 2:
            reference_s = seconds_per_call(reference)
            call_s = seconds_per_call(call)
        else:
            call_s = seconds_per_call(call)
            reference_s = seconds_per_call(reference)
        ratios.append(call_s / reference_s)
    return float(np.median(ratios))


#: the table's agreement with the direct kernel, relative to 1 + |log f|.
#: A table value sums terms no larger than |log f|, the offset's exponent
#: span (at most kernels._SPAN_LIMIT = 600) and |e'.(a' - c)|, each to a
#: few units in the last place, and the log of a sum of m positive terms
#: from one product; measured at most 4.4e-14 on these samples
TABLE_RTOL = 1e-12


@pytest.mark.parametrize("draw", ["standard_normal", "t3", "laplace",
                                  "standard_cauchy", "outlier"])
@pytest.mark.parametrize("m", [40, 200])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_table_matches_direct_kernel(dimension, m, draw):
    plan, data, bandwidths = _plan_and_sample(dimension, m, draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table, direct, table_call, direct_call = _table_and_rows(
            plan, data, bandwidths)
    assert table.shape == (plan.offsets.shape[0], plan.anchors.shape[0])
    assert np.all(np.abs(table - direct) <= TABLE_RTOL * (1.0 + np.abs(direct)))
    if draw == "standard_cauchy":
        # the direct kernel redoes the offsets whose span passes the limit,
        # so a heavy tail costs about what the direct kernel does (0.35 to
        # 1.15 of its time here in median, the wasted factored pass
        # included); the 25% allows for timer noise
        assert _median_time_ratio(table_call, direct_call) <= 1.25


def test_table_leaves_wide_spans_to_the_direct_kernel():
    plan, data, bandwidths = _plan_and_sample(2, 40, "outlier")
    table, direct, _, _ = _table_and_rows(plan, data, bandwidths)
    scaled = data / bandwidths
    spans = np.ptp(plan.offsets / bandwidths @ scaled.T, axis=1)
    wide = spans > kernels._SPAN_LIMIT
    assert wide.any() and not wide.all()
    # those offsets' rows come from the direct kernel itself
    assert table[wide].tolist() == direct[wide].tolist()


@pytest.mark.parametrize("m, points", [(40, 7), (4000, 7), (40, 19)])
def test_table_memory_does_not_grow_with_m_or_anchors(m, points):
    grid = ProbeGrid.for_dimension(3, x_min=-3.0, x_max=3.0, points=points,
                                   y_magnitudes=(0.5, 1.0, 2.0), steps=(0.2, 0.4))
    plan = _grid_plan(grid)
    rng = np.random.default_rng(6100)
    data = rng.standard_normal((m, 3))
    bandwidths = np.full(3, 0.4)
    log_norm = log_norm_of(data, bandwidths)
    tracemalloc.start()
    try:
        table = kernels.kde_log_density_table(plan.anchors, plan.offsets, data[None],
                                              1.0 / bandwidths[None], [log_norm])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 2,450 or 65,694 anchors and 45 offsets.  Beyond its output and two
    # scaled copies of the anchors, a call held 0.26 MB at m = 40 (either
    # anchor count) and 1.65 MB at m = 4000, in buffers of about
    # _CHUNK_VALUES values; one (anchors, m) array would take 78 MB there
    assert peak - table.nbytes - 2 * plan.anchors.nbytes < 2 * 2 ** 20


def test_short_cells_take_memory_by_their_count():
    # a standardized 3-D Cauchy sample on 65,694 anchors and 45 offsets
    # has 897 short cells.  Beyond its 22.6 MB output and two scaled copies
    # of the anchors, the call held 1.3 MB with their indices, and 3.7 MB
    # with a one-byte mask over the whole output
    plan = _grid_plan(ProbeGrid.for_dimension(
        3, x_min=-3.0, x_max=3.0, points=19, y_magnitudes=(0.5, 1.0, 2.0),
        steps=(0.2, 0.4)))
    data = normtest._standardize(np.random.default_rng(6100).standard_cauchy((40, 3)))
    bandwidths = normtest._silverman_per_axis(data)
    inv, log_norm = 1.0 / bandwidths, log_norm_of(data, bandwidths)
    _, short = _fill_call(plan.anchors, plan.offsets, data[None], inv[None],
                          np.array([log_norm]))
    assert np.count_nonzero(short) == 897
    tracemalloc.start()
    try:
        table = kernels.kde_log_density_table(plan.anchors, plan.offsets, data[None],
                                              inv[None], [log_norm])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - table.nbytes - 2 * plan.anchors.nbytes < 2 * 2 ** 20


# ------------------------------------------------- per-axis anchor terms


def test_anchor_axes_rebuild_every_anchor():
    plan = normtest._statistic_plan(None, 3)
    axes = kernels.anchor_axes(plan.anchors)
    assert [len(values) for values, _ in axes] == [19, 19, 19]
    for k, (values, index) in enumerate(axes):
        assert (np.diff(values) > 0).all()
        assert values[index].tobytes() == plan.anchors[:, k].tobytes()
    # a 1-D lattice's anchors are their own distinct coordinates, and its
    # index rebuilds them too
    lattice = normtest._statistic_plan(None, 1)
    ((values, index),) = kernels.anchor_axes(lattice.anchors)
    assert len(values) == len(lattice.anchors)
    assert values[index].tobytes() == lattice.anchors[:, 0].tobytes()


def _off_lattice_plan():
    """The 1-D grid plan of ``test --steps 20.05``: the default grid with a
    step off the lattice's spacing, whose 208 anchors take 148 distinct
    coordinates."""
    grid = dataclasses.replace(normtest.default_test_grid(1), steps=(20.05,))
    return normtest._statistic_plan(grid, 1)


@pytest.mark.parametrize("name, per_axis", [("lattice", False), ("off-lattice", True)])
def test_per_axis_route_is_taken_when_coordinates_are_fewer(monkeypatch, name,
                                                            per_axis):
    # the default 1-D lattice's anchors are their own distinct coordinates,
    # so it forms each chunk's terms whole; the off-lattice grid plan has
    # fewer coordinates than anchors and gathers their per-axis terms
    plan = normtest._statistic_plan(None, 1) if name == "lattice" else _off_lattice_plan()
    counts = sum(len(values) for values, _ in plan.axes)
    assert (counts < len(plan.anchors)) == per_axis
    samples, inv, log_norms = _stack(1, 200, ("standard_normal",), 4300)

    def refuse(*args):
        raise RuntimeError("per-axis terms gathered")

    monkeypatch.setattr(kernels, "_gathered_terms", refuse)
    if per_axis:
        with pytest.raises(RuntimeError, match="per-axis terms gathered"):
            _stacked_call(plan, samples, inv, log_norms)
    else:
        _stacked_call(plan, samples, inv, log_norms)


def _cross_sample():
    """The default 2-D plan and a sample on the two axes only, at h = 0.05.
    An anchor off both axes meets an observation near each of its
    coordinates, so its per-axis peaks are near 0, while its nearest
    observation is a whole coordinate away on the other axis."""
    t = np.linspace(-3.0, 3.0, 21)
    data = np.concatenate((np.stack((t, np.zeros_like(t)), axis=1),
                           np.stack((np.zeros_like(t), t), axis=1)))
    return normtest._statistic_plan(None, 2), data, np.full(2, 0.05)


def test_cross_sample_sends_low_anchors_to_the_direct_kernel():
    # at h = 0.05 the cross sample's per-axis peaks overstate an anchor's
    # own by far more than exp underflows past, and some of its factored
    # sums fall to 0.  The direct kernel redoes those cells alone
    plan, data, bandwidths = _cross_sample()
    scaled = plan.anchors / bandwidths
    v = data / bandwidths
    squares = (scaled[:, None, :] - v[None, :, :]) ** 2
    axis_peaks = (-0.5 * squares).max(axis=1).sum(axis=1)
    true_peaks = (-0.5 * squares.sum(axis=2)).max(axis=1)
    assert (axis_peaks - true_peaks).max() > 700.0
    inv, log_norm = 1.0 / bandwidths, log_norm_of(data, bandwidths)
    _, short = _fill_call(plan.anchors, plan.offsets, data[None], inv[None],
                          np.array([log_norm]))
    # beside the whole rows of its wide offsets, the mask holds some of the
    # other offsets' cells of the low anchors, and not all of them
    short = short[0]
    wide = short.all(axis=1)
    assert wide.any() and not wide.all()
    low_anchors = short[~wide].any(axis=0)
    assert low_anchors.any() and not low_anchors.all()
    assert not short[~wide][:, low_anchors].all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = kernels.kde_log_density_table(
            plan.anchors, plan.offsets, data[None], inv[None], [log_norm],
            plan.axes)[0]
        rows = (plan.anchors + plan.offsets[:, None, :]).reshape(-1, 2)
        direct = kernels.kde_log_density_batch(rows, data, inv, log_norm)
    direct = direct.reshape(table.shape)
    assert np.all(np.abs(table - direct) <= TABLE_RTOL * (1.0 + np.abs(direct)))


@pytest.mark.parametrize("sample", ["cross", "outlier"])
def test_direct_kernel_redoes_exactly_the_short_cells(sample):
    # the cells outside the short mask keep their factored bits, and the
    # cells inside it are the direct kernel's.  The far outlier makes wide
    # offsets, whose whole rows fall short
    if sample == "cross":
        plan, data, bandwidths = _cross_sample()
    else:
        plan, data, bandwidths = _plan_and_sample(2, 40, "outlier")
    inv, log_norm = 1.0 / bandwidths, log_norm_of(data, bandwidths)
    factored, short = _fill_call(plan.anchors, plan.offsets, data[None],
                                 inv[None], np.array([log_norm]))
    factored, short = factored[0], short[0]
    assert short.any() and not short.all()
    if sample == "outlier":
        assert short.all(axis=1).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table, direct, _, _ = _table_and_rows(plan, data, bandwidths)
    assert table[~short].tobytes() == factored[~short].tobytes()
    assert table[short].tobytes() == direct[short].tobytes()
    assert np.all(np.abs(table - direct) <= TABLE_RTOL * (1.0 + np.abs(direct)))


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_per_chunk_anchor_terms_agree_with_shared_ones(monkeypatch, dimension):
    # past one chunk of per-axis terms (large m) each chunk forms its
    # anchors' terms whole; refusing the shared terms sends a small call
    # down that route, which agrees to the table's tolerance, and in 1-D,
    # where both take the same steps, to the bit.  The default 1-D lattice
    # takes the whole route either way, so 1-D reads the off-lattice plan
    if dimension == 1:
        plan = _off_lattice_plan()
    else:
        plan = normtest._statistic_plan(None, dimension)
    samples, inv, log_norms = _stack(dimension, 40, ("standard_normal", "t3"), 4100)
    shared = _stacked_call(plan, samples, inv, log_norms)
    monkeypatch.setattr(kernels, "_fits_one_chunk", lambda rows, m: False)
    per_chunk = _stacked_call(plan, samples, inv, log_norms)
    if dimension == 1:
        assert shared.tobytes() == per_chunk.tobytes()
    assert np.all(np.abs(shared - per_chunk)
                  <= TABLE_RTOL * (1.0 + np.abs(per_chunk)))


@pytest.mark.parametrize("dimension", [2, 3])
def test_table_past_one_chunk_of_axis_terms_matches_direct_kernel(dimension):
    # at m = 1000 the default plans' per-axis terms (42 or 57 rows) pass
    # one chunk, and each anchor chunk forms its anchors' terms whole
    plan = normtest._statistic_plan(None, dimension)
    assert not kernels._fits_one_chunk(
        sum(len(values) for values, _ in plan.axes), 1000)
    samples, inv, log_norms = _stack(dimension, 1000, ("t3",), 4200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = _stacked_call(plan, samples, inv, log_norms)[0]
        rows = (plan.anchors + plan.offsets[:, None, :]).reshape(-1, dimension)
        direct = kernels.kde_log_density_batch(rows, samples[0], inv[0],
                                               log_norms[0]).reshape(table.shape)
    assert np.all(np.abs(table - direct) <= TABLE_RTOL * (1.0 + np.abs(direct)))


# ------------------------------------------------------- stacked samples


def _stack(n, m, draws, seed):
    """Standardized samples of size m in n dimensions, one per draw, as an
    (R, m, n) stack with their Silverman inverse bandwidths and
    log-norms."""
    rng = np.random.default_rng(seed)
    stack, bandwidths = [], []
    for draw in draws:
        if draw == "t3":
            x = rng.standard_t(3, size=(m, n))
        elif draw == "tied":
            x = np.round(0.3 * rng.standard_normal((m, n)))
        elif draw == "outlier":
            x = rng.standard_normal((m, n))
        else:
            x = getattr(rng, draw)(size=(m, n))
        z = normtest._standardize(x)
        h = normtest._silverman_per_axis(z)
        if draw == "outlier":
            # one observation about 1e3 bandwidths out along the first axis
            z[0, 0] = 1e3 * h[0]
        stack.append(z)
        bandwidths.append(h)
    bandwidths = np.array(bandwidths)
    log_norms = np.array([log_norm_of(z, h) for z, h in zip(stack, bandwidths)])
    return np.array(stack), 1.0 / bandwidths, log_norms


def _stacked_call(plan, samples, inv, log_norms):
    return kernels.kde_log_density_table(plan.anchors, plan.offsets, samples,
                                         inv, log_norms)


_STACK_DRAWS = ("standard_normal", "t3", "outlier", "laplace", "standard_cauchy",
                "standard_normal", "standard_normal", "laplace", "t3")


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_stacked_table_is_each_sample_alone(dimension):
    # each sample's slice of a stacked call is the bits of its own call,
    # wide spans (the outlier, the Cauchy sample) included, over three
    # stacks of the kernel's own width, the last one partial.  Every stack
    # fills the buffers the one before it filled, and the second puts a
    # wide sample straight after a narrow one.  In 3-D one shift magnitude
    # keeps the anchors x offsets sums small enough for stacks
    if dimension == 1:
        plan, m = normtest._lattice_plan(normtest.default_test_grid(1)), 200
    else:
        plan, m = _grid_plan(ProbeGrid.for_dimension(
            dimension, x_min=-3.0, x_max=3.0, points=3,
            y_magnitudes=(0.5, 1.0, 2.0) if dimension == 2 else (1.0,),
            steps=(0.2, 0.4))), 20
    stack = kernels._stack_width(plan.anchors.shape[0], plan.offsets.shape[0], m)
    assert stack >= 2
    draws = [_STACK_DRAWS[r % len(_STACK_DRAWS)] for r in range(2 * stack + 2)]
    draws[stack:stack + 2] = ["standard_normal", "outlier"]
    samples, inv, log_norms = _stack(dimension, m, draws, 8200 + dimension)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _stacked_call(plan, samples, inv, log_norms)
    assert stacked.shape == (len(draws), plan.offsets.shape[0],
                             plan.anchors.shape[0])
    redone = np.zeros(len(draws), dtype=int)
    for r in range(len(draws)):
        alone = _stacked_call(plan, samples[r:r + 1], inv[r:r + 1], log_norms[r:r + 1])
        assert stacked[r].tolist() == alone[0].tolist(), (r, draws[r])
        # the wide offsets' rows are the direct kernel's bits
        scaled = samples[r] * inv[r]
        wide = np.ptp(plan.offsets * inv[r] @ scaled.T, axis=1) > kernels._SPAN_LIMIT
        rows = (plan.anchors + plan.offsets[wide, None, :]).reshape(-1, dimension)
        direct = kernels.kde_log_density_batch(rows, samples[r], inv[r], log_norms[r])
        assert stacked[r, wide].reshape(-1).tolist() == direct.tolist(), (r, draws[r])
        redone[r] = wide.sum()
    assert redone[stack] == 0 and redone[stack + 1] > 0


# ------------------------------------------------ the 1-D lattice as a table


def _lattices():
    """The default 1-D test lattice (109 points) and the widest lattice a
    1-D test builds (1,281 points, step 59), as lattice plans."""
    default = normtest._lattice_plan(normtest.default_test_grid(1))
    far = normtest._lattice_plan(ProbeGrid.for_dimension(
        1, x_min=-3.0, x_max=3.0, points=61, y_magnitudes=(0.5, 1.0, 2.0),
        steps=(59.0,)))
    return {"default": default, "far-step": far}


def _lattice_call(plan, samples, inv, log_norms):
    """Log f of (R, m, 1) samples on a lattice plan's points, as the
    (points, R) array of the 1-D test: lattice point a B + b is anchor a
    plus offset b."""
    tables = _stacked_call(plan, samples, inv, log_norms)
    values = tables.transpose(0, 2, 1).reshape(samples.shape[0], -1)
    return values[:, :plan.points.shape[0]].T


_LATTICE_DRAWS = ("standard_normal", "t3", "laplace", "standard_cauchy",
                  "outlier", "tied")


@pytest.mark.parametrize("lattice", ["default", "far-step"])
@pytest.mark.parametrize("m", [20, 200, 500, 5000])
def test_lattice_matches_direct_kernel(lattice, m):
    plan = _lattices()[lattice]
    samples, inv, log_norms = _stack(1, m, _LATTICE_DRAWS, 8000 + m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _lattice_call(plan, samples, inv, log_norms)
        assert values.shape == (plan.points.shape[0], len(_LATTICE_DRAWS))
        for r, draw in enumerate(_LATTICE_DRAWS):
            direct = kernels.kde_log_density_batch(
                plan.points, samples[r], inv[r], log_norms[r])
            gap = np.abs(values[:, r] - direct)
            assert np.all(gap <= TABLE_RTOL * (1.0 + np.abs(direct))), draw


@pytest.mark.parametrize("m, draws", [
    pytest.param(200, ("standard_normal", "outlier"), id="200-outlier"),
    pytest.param(200, ("standard_normal", "standard_cauchy"), id="200-standard_cauchy"),
    pytest.param(5000, ("standard_normal", "standard_normal"), id="5000-standard_normal"),
    pytest.param(200, ("outlier", "standard_cauchy"), id="200-outlier-standard_cauchy"),
])
def test_lattice_routes_a_sample_to_the_table_alone(m, draws):
    # a sample keeps the bits it has alone in a block whose offset spans
    # pass the limit (a far outlier, a heavy tail), and a sample whose
    # buffers pass the chunk has no stack; each sample's wide offsets are
    # the direct kernel's bits
    plan = _lattices()["default"]
    samples, inv, log_norms = _stack(1, m, draws, 8100 + m)
    tables = _stacked_call(plan, samples, inv, log_norms)
    spans = np.ptp(samples[:, :, 0], axis=1)[:, None] * inv ** 2 * plan.offsets[:, 0]
    wide = spans > kernels._SPAN_LIMIT
    per_sample = (plan.anchors.shape[0] + plan.offsets.shape[0]) * m
    assert per_sample > kernels._CHUNK_VALUES or wide.any()
    if wide.any(axis=1).all():
        # two wide samples in one stack, wide at different offsets
        assert (wide[0] != wide[1]).any()
    for r in range(2):
        alone = _stacked_call(plan, samples[r:r + 1], inv[r:r + 1], log_norms[r:r + 1])
        assert tables[r].tolist() == alone[0].tolist()
        rows = (plan.anchors + plan.offsets[wide[r], None, :]).reshape(-1, 1)
        direct = kernels.kde_log_density_batch(rows, samples[r], inv[r], log_norms[r])
        assert tables[r, wide[r]].reshape(-1).tolist() == direct.tolist()


def _with_zero_axis(values, fill=0.0):
    """1-D values (..., 1) with a second axis of ``fill``."""
    return np.concatenate((values, np.full(values.shape[:-1] + (1,), fill)), axis=-1)


def _fill_call(anchors, offsets, samples, inv, log_norms):
    """``kernels._fill_table``'s factored tables, before the direct kernel
    redoes the short cells, and the mask of those cells, shaped as the
    tables, from the ascending flat indices it returns per sample."""
    out = np.empty((samples.shape[0], offsets.shape[0], anchors.shape[0]))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cells = kernels._fill_table(out, anchors, offsets, samples, inv,
                                    log_norms, kernels.anchor_axes(anchors))
    short = np.zeros(out.shape, dtype=bool)
    for r, indices in cells.items():
        assert indices.size and (np.diff(indices) > 0).all()
        short[r].reshape(-1)[indices] = True
    return out, short


@pytest.mark.parametrize("steps", [None, (20.05,), (1e4,)],
                         ids=["default", "step-20.05", "step-1e4"])
def test_1d_span_from_extremes_is_the_per_group_span(steps):
    # in 1-D each offset's peak and span come from the sample's extremes,
    # and the short cells are exactly the rows of the wide offsets.  The
    # same samples with a second axis of zeros take the n-D route, whose
    # linear terms are the same products plus exact zeros and whose peak
    # and span reduce each offset's m terms: the short mask and every
    # table value must be the same bits.  The default lattice has only
    # offsets >= 0, the long steps' grid plans negative ones too; the last
    # three offsets are past double range (an overflowing product, and an
    # infinite scaled offset either way) and must count as wide
    if steps is None:
        plan = normtest._lattice_plan(normtest.default_test_grid(1))
    else:
        plan = _grid_plan(ProbeGrid.for_dimension(
            1, x_min=-3.0, x_max=3.0, points=61, y_magnitudes=(0.5, 1.0, 2.0),
            steps=steps))
    offsets = np.concatenate((plan.offsets, [[1e307], [1e308], [-1e308]]))
    samples, inv, log_norms = _stack(
        1, 200, ("standard_normal", "outlier", "standard_cauchy", "t3"), 8300)
    table, short = _fill_call(plan.anchors, offsets, samples, inv, log_norms)
    generic_table, generic_short = _fill_call(
        _with_zero_axis(plan.anchors), _with_zero_axis(offsets),
        _with_zero_axis(samples), _with_zero_axis(inv, 1.0), log_norms)
    assert short.tolist() == generic_short.tolist()
    assert table[~short].tobytes() == generic_table[~short].tobytes()
    # the per-group reference: the range of e'.(v_j - c) over the sample
    scaled = samples[:, :, 0] * inv
    centre = 0.5 * (scaled.max(axis=1) + scaled.min(axis=1))
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (offsets[:, 0] * inv)[:, :, None] * (scaled - centre[:, None])[:, None, :]
        spans = terms.max(axis=2) - terms.min(axis=2)
    wide = ~(spans <= kernels._SPAN_LIMIT)
    assert short.tolist() == np.broadcast_to(wide[:, :, None], short.shape).tolist()
    assert wide[:, -3:].all() and not np.isfinite(spans[:, -3:]).any()
    assert wide[:, :-3].any() and not wide[:, :-3].all()
    if steps is not None:
        # a long step is wide on a Gaussian sample too
        assert wide[0, :-3].any()
    # and the whole call, the direct kernel's rows included
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = kernels.kde_log_density_table(plan.anchors, offsets, samples,
                                              inv, log_norms)
        generic = kernels.kde_log_density_table(
            _with_zero_axis(plan.anchors), _with_zero_axis(offsets),
            _with_zero_axis(samples), _with_zero_axis(inv, 1.0), log_norms)
    assert whole.tobytes() == generic.tobytes()


@pytest.mark.parametrize("width, m", [(327, 200), (1, 100_000)])
def test_lattice_memory_stays_near_one_chunk(width, m):
    # a full bootstrap block at m = 200, and one sample too large for a
    # stack, which goes alone
    plan = _lattices()["default"]
    rng = np.random.default_rng(6200)
    samples = rng.standard_normal((width, m, 1))
    inv = np.full((width, 1), 1.0 / 0.3)
    log_norms = np.full(width, -np.log(m) + np.log(inv[0, 0]) - 0.5 * np.log(2.0 * np.pi))
    tracemalloc.start()
    try:
        tables = _stacked_call(plan, samples, inv, log_norms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # beyond its output (and two scaled copies of one sample, 0.8 MB each
    # at m = 100,000), the block held 0.37 MB in stacks of seven samples,
    # and the large sample 1.5 MB, one offset row and one anchor row
    assert peak - tables.nbytes - 2 * samples[0].nbytes < 2 * 2 ** 20

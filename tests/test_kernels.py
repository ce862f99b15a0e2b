import tracemalloc

import numpy as np
import pytest

from ratio_convexity import kernels

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

import numpy as np
import pytest

from ratio_convexity import kernels

from _oracles import kde_log_density_naive


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

"""KDE evaluation kernel: a chunked numpy log-sum-exp.

``kde_log_density_batch`` is the one place where a Gaussian product-kernel
KDE meets its evaluation points.  Rows are processed in chunks so that the
(points x observations x dimension) gap array stays small.
"""

import numpy as np

__all__ = ["backend_name", "kde_log_density_batch"]

_CHUNK_ROWS = 4096


def backend_name():
    """Name of the kernel implementation, as recorded in test provenance."""
    return "pure"


def kde_log_density_batch(points, data, inv_bandwidth, log_norm):
    """Log-density of a Gaussian product-kernel KDE at each point row.

    ``log_norm`` is the precomputed additive constant
    -log m - sum(log h_j) - n/2 * log(2 pi).
    """
    inv = np.asarray(inv_bandwidth, dtype=np.float64)
    scaled_points = np.asarray(points, dtype=np.float64) * inv
    scaled_data = np.asarray(data, dtype=np.float64) * inv
    log_norm = float(log_norm)
    total = scaled_points.shape[0]
    out = np.empty(total)
    for start in range(0, total, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, total)
        gap = scaled_points[start:stop, None, :] - scaled_data[None, :, :]
        quad = -0.5 * np.einsum("prj,prj->pr", gap, gap)
        peak = quad.max(axis=1)
        out[start:stop] = peak + np.log(
            np.exp(quad - peak[:, None]).sum(axis=1)) + log_norm
    return out

"""KDE evaluation kernel: a cache-blocked, in-place numpy log-sum-exp.

``kde_log_density_batch`` is the one place where a Gaussian product-kernel
KDE meets its evaluation points.  It works through the points in chunks of
``rows = max(1, _CHUNK_VALUES // m)`` rows, so one chunk holds at most
about 32k (point, observation) values, or one row when m is larger.  Each
chunk reuses two (rows, m) buffers: the squared gaps are accumulated axis
by axis, and the log-sum-exp runs in place on the sum.  A call therefore
needs two chunk buffers, the scaled copies of its inputs and its output,
whatever the number of points; no (points x observations x dimension) array
is formed.

Every reduction runs along one contiguous row (numpy's pairwise sum), so a
point's value does not depend on the chunk it falls in, and for n <= 3 it
is the same bits as an ``einsum`` evaluation of the whole (points x
observations x dimension) gap array.
"""

import numpy as np

__all__ = ["backend_name", "kde_log_density_batch"]

#: most (point, observation) values held by one chunk, unless m is larger
_CHUNK_VALUES = 1 << 15


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
    data_t = np.ascontiguousarray((np.asarray(data, dtype=np.float64) * inv).T)
    n, m = data_t.shape
    log_norm = float(log_norm)
    total = scaled_points.shape[0]
    out = np.empty(total)
    rows = max(1, _CHUNK_VALUES // m)
    quad = np.empty((min(rows, total), m))
    gap = np.empty_like(quad) if n > 1 else None
    # numpy's einsum("prj,prj->pr") adds three squared axes as (0 + 2) + 1;
    # the same order keeps 3-D values the bits of a whole-array evaluation
    first, *rest = (0, 2, 1) if n == 3 else range(n)
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        p = scaled_points[start:stop]
        q = quad[:stop - start]
        np.subtract(p[:, first, None], data_t[first], out=q)
        np.multiply(q, q, out=q)
        for j in rest:
            t = gap[:stop - start]
            np.subtract(p[:, j, None], data_t[j], out=t)
            np.multiply(t, t, out=t)
            q += t
        q *= -0.5
        peak = q.max(axis=1)
        q -= peak[:, None]
        np.exp(q, out=q)
        out[start:stop] = peak + np.log(q.sum(axis=1)) + log_norm
    return out

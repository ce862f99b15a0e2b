"""KDE evaluation kernels: cache-blocked, in-place numpy log-sum-exps.

``kde_log_density_batch`` is the direct kernel: it evaluates a Gaussian
product-kernel KDE at each of its points.  It works through the points in
chunks of ``rows = max(1, _CHUNK_VALUES // m)`` rows, so one chunk holds at
most about 32k (point, observation) values, or one row when m is larger.
Each chunk reuses two (rows, m) buffers: the squared gaps are accumulated
axis by axis, and the log-sum-exp runs in place on the sum.  A call
therefore needs two chunk buffers, the scaled copies of its inputs and its
output, whatever the number of points; no (points x observations x
dimension) array is formed.

Every reduction runs along one contiguous row (numpy's pairwise sum), so a
point's value does not depend on the chunk it falls in, and for n <= 3 it
is the same bits as an ``einsum`` evaluation of the whole (points x
observations x dimension) gap array.

``kde_log_density_table`` evaluates the same KDE at every anchor a plus
every offset e.  In bandwidth units (a' = a/h, e' = e/h, v_j = x_j/h per
axis) the exponent factors exactly:

    -|a' + e' - v_j|^2 / 2 = -|a' - v_j|^2 / 2 + e'.(v_j - c) - e'.(a' - c) - |e'|^2 / 2

for any centre c.  So the whole (offsets x anchors) table takes one exp per
(anchor, observation), one per (offset, observation) and one matrix product
over the observations, where the direct kernel takes one exp per (anchor,
offset, observation).  Each sum is stabilized by its anchor's largest
term and its offset's largest term.  The offset's terms exp(e'.v_j - max)
span exp(-span) to 1, where span is the range of e'.v_j over the
observations; the anchor's largest term meets one of them, so a table sum
is at least exp(-span).  Offsets whose span exceeds ``_SPAN_LIMIT`` (a far
outlier, a long step) take the direct kernel instead, so no sum underflows.

``kde_log_density_lattice`` factors a one-dimensional lattice the same way,
for a block of samples at once: each lattice point is one of about
sqrt(points) anchors plus one of about sqrt(points) offsets, and a stacked
matrix product forms the sums of a chunk of samples.
"""

import math

import numpy as np

__all__ = ["backend_name", "kde_log_density_batch", "kde_log_density_lattice",
           "kde_log_density_table"]

#: most (point, observation) values held by one chunk, unless m is larger
_CHUNK_VALUES = 1 << 15
#: widest exponent span of an offset's factored terms: every table sum is
#: then at least exp(-600), about 1e-261, a normal float (exp underflows
#: past about -708, to subnormals, and to 0 past -745)
_SPAN_LIMIT = 600.0
#: most multiply-adds in one of the table's matrix products.  OpenBLAS runs
#: a larger product on several threads, which at these sizes costs more
#: than it saves: a default 2-D table at m = 40 took 1.6 ms of wall and
#: 2.7 ms of CPU threaded, against 0.47 ms of each in products below this
#: size (2-core host)
_PRODUCT_TERMS = 1 << 18


def backend_name():
    """Name of the kernel implementation, as recorded in test provenance."""
    return "pure"


def _scaled_kernel_terms(scaled_points, data_t, quad, gap):
    """Fill ``quad`` with exp(-|p - v_j|^2 / 2 - peak) for each point row p
    and observation column v_j, and return each row's peak.

    ``gap`` is a spare buffer of the same shape, unused when n = 1.
    """
    n = data_t.shape[0]
    # numpy's einsum("prj,prj->pr") adds three squared axes as (0 + 2) + 1;
    # the same order keeps 3-D values the bits of a whole-array evaluation
    first, *rest = (0, 2, 1) if n == 3 else range(n)
    np.subtract(scaled_points[:, first, None], data_t[first], out=quad)
    np.multiply(quad, quad, out=quad)
    for j in rest:
        np.subtract(scaled_points[:, j, None], data_t[j], out=gap)
        np.multiply(gap, gap, out=gap)
        quad += gap
    quad *= -0.5
    peak = quad.max(axis=1)
    quad -= peak[:, None]
    np.exp(quad, out=quad)
    return peak


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
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        q = quad[:stop - start]
        peak = _scaled_kernel_terms(scaled_points[start:stop], data_t, q,
                                    None if gap is None else gap[:stop - start])
        out[start:stop] = peak + np.log(q.sum(axis=1)) + log_norm
    return out


def kde_log_density_table(anchors, offsets, data, inv_bandwidth, log_norm):
    """Log-density of a Gaussian product-kernel KDE at every anchor plus
    every offset, as an (offsets, anchors) array: ``[b, p]`` holds log f
    at ``anchors[p] + offsets[b]``.

    Same KDE and ``log_norm`` as :func:`kde_log_density_batch`.  A value
    agrees with the direct kernel's to a few units in the last place of
    the largest term it sums: |log f|, the offset's exponent span (at most
    ``_SPAN_LIMIT``) and |e'.(a' - c)|.  Offsets are taken in groups of at
    most ``_CHUNK_VALUES // m`` and anchors in chunks whose (anchor,
    observation) and (anchor, offset) buffers together hold at most about
    ``_CHUNK_VALUES`` values (fewer when the product would pass
    ``_PRODUCT_TERMS``); offsets left to the direct kernel go to it in
    calls of about ``_CHUNK_VALUES`` rows.  So a call needs those buffers,
    the scaled copies of its inputs and its output, whatever m or the
    anchor count.
    """
    inv = np.asarray(inv_bandwidth, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    data = np.asarray(data, dtype=np.float64)
    scaled_anchors = anchors * inv
    data_t = np.ascontiguousarray((data * inv).T)
    n, m = data_t.shape
    log_norm = float(log_norm)
    total = anchors.shape[0]
    out = np.empty((offsets.shape[0], total))
    # the linear terms are taken about the sample's midrange, so that they
    # stay the size of the sample's spread wherever the sample lies
    centre = 0.5 * (data_t.max(axis=1) + data_t.min(axis=1))
    centred_data = data_t - centre[:, None]
    centred_anchors = scaled_anchors - centre
    group = max(1, _CHUNK_VALUES // m)
    for first in range(0, offsets.shape[0], group):
        scaled_offsets = offsets[first:first + group] * inv
        linear = scaled_offsets @ centred_data
        peak = linear.max(axis=1)
        # a NaN span (an offset past double range) fails the test too
        factored = peak - linear.min(axis=1) <= _SPAN_LIMIT
        # the direct kernel takes the others, a few offsets per call
        wide = first + np.flatnonzero(~factored)
        per_call = max(1, _CHUNK_VALUES // total)
        for start in range(0, wide.size, per_call):
            batch = wide[start:start + per_call]
            points = (anchors + offsets[batch, None, :]).reshape(-1, n)
            out[batch] = kde_log_density_batch(
                points, data, inv, log_norm).reshape(-1, total)
        if not factored.any():
            continue
        picked = first + np.flatnonzero(factored)
        # the weights take over the exponents' buffer, and a group's
        # buffers go before the next group's come: at m past _CHUNK_VALUES
        # a call then holds one row of each beside its scaled samples
        weights = linear if factored.all() else linear[factored]
        del linear
        weights -= peak[factored, None]
        np.exp(weights, out=weights)
        scaled_offsets = scaled_offsets[factored]
        constant = (log_norm + peak[factored]
                    - 0.5 * np.einsum("bj,bj->b", scaled_offsets, scaled_offsets))
        width = picked.size
        rows = max(1, min(_CHUNK_VALUES // (m + width),
                          _PRODUCT_TERMS // (m * width)))
        quad = np.empty((min(rows, total), m))
        gap = np.empty_like(quad) if n > 1 else None
        for start in range(0, total, rows):
            stop = min(start + rows, total)
            q = quad[:stop - start]
            row_peak = _scaled_kernel_terms(
                scaled_anchors[start:stop], data_t, q,
                None if gap is None else gap[:stop - start])
            sums = q @ weights.T
            np.log(sums, out=sums)
            sums += row_peak[:, None]
            sums -= centred_anchors[start:stop] @ scaled_offsets.T
            sums += constant
            out[picked, start:stop] = sums.T
        del weights, quad, q, gap
    return out


def kde_log_density_lattice(start, spacing, count, samples, inv_bandwidths,
                            log_norms):
    """Log-density of R one-dimensional Gaussian KDEs on one lattice, as a
    (count, R) array: ``[k, r]`` holds log f of sample ``samples[r]`` at
    ``start + k * spacing``.

    ``samples`` is an (R, m) array, one sample per row, with its inverse
    bandwidths and ``log_norm`` constants (R,) as in
    :func:`kde_log_density_table`.  Lattice index k is a B + b with
    B = ceil(sqrt(count)) offsets b * spacing and A = ceil(count / B)
    anchors start + a B spacing, so a sample takes (A + B) m exps in place
    of count m; the last A B - count points are computed and dropped.  The
    samples' (A, m) anchor terms and (B, m) offset weights are formed and
    stabilized as in the table, and one stacked matrix product serves a
    chunk of samples whose buffers hold about ``_CHUNK_VALUES`` values.

    A sample whose offset span passes ``_SPAN_LIMIT`` (or is NaN), or whose
    own buffers pass ``_CHUNK_VALUES``, goes to
    :func:`kde_log_density_table` alone.  The route depends only on that
    sample's values, and a stacked product multiplies each sample's
    matrices on their own, so a sample's bits do not depend on the other
    samples it comes with.
    """
    samples = np.asarray(samples, dtype=np.float64)
    inv = np.asarray(inv_bandwidths, dtype=np.float64)
    log_norms = np.asarray(log_norms, dtype=np.float64)
    width, m = samples.shape
    offset_count = math.isqrt(count - 1) + 1
    anchor_count = -(-count // offset_count)
    anchors = start + (np.arange(anchor_count) * offset_count) * spacing
    offsets = np.arange(offset_count) * spacing
    out = np.empty((count, width))
    # the table's midrange and its widest offset's span, from each sample's
    # extremes: inv > 0 and rounding are monotone, so these are the bits of
    # the table's maxima and minima over the scaled values
    high = samples.max(axis=1) * inv
    low = samples.min(axis=1) * inv
    centre = 0.5 * (high + low)
    widest = offsets[-1] * inv
    span = widest * (high - centre) - widest * (low - centre)
    per_sample = (anchor_count + offset_count) * m
    batched = (span <= _SPAN_LIMIT) & (per_sample <= _CHUNK_VALUES)
    for r in np.flatnonzero(~batched):
        table = kde_log_density_table(anchors[:, None], offsets[:, None],
                                      samples[r, :, None], inv[r:r + 1],
                                      log_norms[r])
        out[:, r] = table.T.reshape(-1)[:count]
    picked = np.flatnonzero(batched)
    rows = max(1, _CHUNK_VALUES // per_sample)
    for first in range(0, picked.size, rows):
        chunk = picked[first:first + rows]
        scaled = samples[chunk] * inv[chunk, None]
        scaled_offsets = offsets * inv[chunk, None]
        weights = scaled_offsets[:, :, None] * (scaled - centre[chunk, None])[:, None, :]
        peak = weights.max(axis=2)
        weights -= peak[:, :, None]
        np.exp(weights, out=weights)
        scaled_anchors = anchors * inv[chunk, None]
        quad = scaled_anchors[:, :, None] - scaled[:, None, :]
        np.multiply(quad, quad, out=quad)
        quad *= -0.5
        row_peak = quad.max(axis=2)
        quad -= row_peak[:, :, None]
        np.exp(quad, out=quad)
        sums = quad @ weights.transpose(0, 2, 1)
        np.log(sums, out=sums)
        sums += row_peak[:, :, None]
        sums -= ((scaled_anchors - centre[chunk, None])[:, :, None]
                 * scaled_offsets[:, None, :])
        sums += (log_norms[chunk, None] + peak
                 - 0.5 * scaled_offsets * scaled_offsets)[:, None, :]
        out[:, chunk] = sums.reshape(chunk.size, -1)[:, :count].T
    return out

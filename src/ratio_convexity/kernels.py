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
every offset e, for a stack of samples at once.  In bandwidth units
(a' = a/h, e' = e/h, v_j = x_j/h per axis) the exponent factors exactly:

    -|a' + e' - v_j|^2 / 2 = -|a' - v_j|^2 / 2 + e'.(v_j - c) - e'.(a' - c) - |e'|^2 / 2

for any centre c.  So a sample's whole (offsets x anchors) table takes one
exp per (anchor, observation), one per (offset, observation) and one
matrix product over the observations, where the direct kernel takes one
exp per (anchor, offset, observation).  Each sum is stabilized by its
anchor's largest term and its offset's largest term.  The offset's terms
exp(e'.v_j - max) span exp(-span) to 1, where span is the range of e'.v_j
over the observations; the anchor's largest term meets one of them, so a
table sum is at least exp(-span).  Every offset is factored, and then
the direct kernel redoes the rows of the offsets whose span exceeds
``_SPAN_LIMIT`` (a far outlier, a long step), whose sums may underflow.

A call forms each sample's per-offset terms once: its midrange c, its
scaled offsets and their half squares, and in 1-D each offset's peak, wide
flag and constant, read from the sample's two extremes.  It then takes the
samples in stacks (:func:`_stack_width`), which fill one set of buffers in
turn, so a stack costs its numpy calls and no allocation.

The one-dimensional lattice of the normality test is such a table: each
lattice point is one of about sqrt(points) anchors plus one of about
sqrt(points) offsets, and a block of bootstrap replicates is one call.
"""

import numpy as np

__all__ = ["backend_name", "kde_log_density_batch", "kde_log_density_table"]

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


def _square_sum_order(n):
    """The order in which numpy's einsum (``"ij,ij->i"`` and its stacked
    forms) adds the squares of n <= 3 axes: (0 + 2) + 1 for three, in turn
    for fewer.  Adding squares axis by axis in this order gives the bits
    of an einsum evaluation.  Above three axes einsum's order follows
    numpy's SIMD build."""
    return (0, 2, 1) if n == 3 else tuple(range(n))


def _scaled_kernel_terms(scaled_points, data_t, quad, gap):
    """Fill ``quad`` with exp(-|p - v_j|^2 / 2 - peak) for each point row p
    and observation column v_j, and return each row's peak.

    The points are (rows, n), the observations (n, m), and ``quad`` and
    ``gap`` (rows, m), or each with the same leading stack axis.  ``gap``
    is a spare buffer, unused when n = 1.
    """
    n = data_t.shape[-2]
    # the squares go in einsum's order, so that values are the bits of a
    # whole-array evaluation
    first, *rest = _square_sum_order(n)
    np.subtract(scaled_points[..., first, None], data_t[..., first, None, :],
                out=quad)
    np.multiply(quad, quad, out=quad)
    for j in rest:
        np.subtract(scaled_points[..., j, None], data_t[..., j, None, :],
                    out=gap)
        np.multiply(gap, gap, out=gap)
        quad += gap
    quad *= -0.5
    peak = quad.max(axis=-1)
    quad -= peak[..., None]
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


def kde_log_density_table(anchors, offsets, samples, inv_bandwidths, log_norms):
    """Log-density of R Gaussian product-kernel KDEs at every anchor plus
    every offset, as an (R, offsets, anchors) array: ``[r, b, p]`` holds
    log f of sample ``samples[r]`` at ``anchors[p] + offsets[b]``.

    ``samples`` is an (R, m, n) stack, one sample per first index, with
    its positive inverse bandwidths (R, n) and ``log_norm`` constants (R,)
    as in :func:`kde_log_density_batch`.  A value agrees with the direct
    kernel's to a few units in the last place of the largest term it sums:
    |log f|, the offset's exponent span (at most ``_SPAN_LIMIT``) and
    |e'.(a' - c)|.

    Every offset of every sample is factored.  Each sample's midrange,
    scaled offsets and their half squares are formed once per call, and in
    1-D each offset's peak, wide flag and constant too, from the sample's
    extremes.  The samples then go in stacks of :func:`_stack_width`, the
    offsets in groups of at most ``_CHUNK_VALUES // m`` (a stack's make one
    group) and the anchors in chunks whose (anchor, observation) and
    (anchor, offset) buffers together hold at most about ``_CHUNK_VALUES``
    values (fewer when the product would pass ``_PRODUCT_TERMS``).  Every
    stack fills one set of buffers, allocated per offset group: its scaled
    and centred data and anchors, its weights (in n-D, from which each
    offset's peak, flag and constant are read) and an anchor chunk's
    terms, sums and linear terms.  Then the direct kernel redoes each
    (sample, offset) row whose span passes ``_SPAN_LIMIT`` (or is NaN), in
    calls of about ``_CHUNK_VALUES`` values.  So a call needs those
    buffers, a few values per (sample, offset), the scaled copies of its
    inputs and its output, whatever m or the anchor count.  Stacked or
    alone, a sample passes the same operations on its own values, and a
    stacked product multiplies each sample's matrices on their own, with
    an anchor chunk of the same size (the bits of a BLAS product depend on
    its size), so its values are the bits it has alone.  No floating-point
    warning is raised: a value past double range comes back inf or NaN,
    for the caller to check.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    samples = np.asarray(samples, dtype=np.float64)
    inv = np.asarray(inv_bandwidths, dtype=np.float64)
    log_norms = np.asarray(log_norms, dtype=np.float64)
    n = samples.shape[2]
    total = anchors.shape[0]
    out = np.empty((samples.shape[0], offsets.shape[0], total))
    # an offset past double range scales to inf, and a wide offset's
    # factored log may be -inf or NaN until its row is redone
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        wide = _fill_table(out, anchors, offsets, samples, inv, log_norms)
        if not np.count_nonzero(wide):
            return out
        # the direct kernel redoes the wide rows, a few offsets per call
        per_call = max(1, _CHUNK_VALUES // total)
        for r in np.flatnonzero(wide.any(axis=1)):
            redo = np.flatnonzero(wide[r])
            for start in range(0, redo.size, per_call):
                batch = redo[start:start + per_call]
                points = (anchors + offsets[batch, None, :]).reshape(-1, n)
                out[r, batch] = kde_log_density_batch(
                    points, samples[r], inv[r], log_norms[r]).reshape(-1, total)
    return out


def _stack_width(total, count, m):
    """Samples per stack of a table of ``total`` anchors and ``count``
    offsets over m observations: as many as fill 2 * ``_CHUNK_VALUES``
    values of a stack's main buffers, the (anchors + offsets) x m terms and
    two anchors x offsets sums, or one.

    Against stacks of ``_CHUNK_VALUES`` (anchors + offsets) x m values (7
    samples at m = 200, 78 at m = 20), a 199-sample call on the default
    1-D lattice took 0.91 of the time at m = 200 (14 samples a stack),
    0.89 at m = 500, 0.82 at m = 1000 and 0.94 at m = 50, and 1.03 at
    m = 20 (102 a stack), where the buffers outweigh the calls they save
    (medians of interleaved in-process calls, 2-core host).
    """
    return max(1, 2 * _CHUNK_VALUES // ((total + count) * m + 2 * total * count))


def _fill_table(out, anchors, offsets, samples, inv, log_norms):
    """Fill ``out`` with the factored tables of the arguments of
    :func:`kde_log_density_table`, and return the (samples, offsets) mask
    of the wide offsets, whose values the caller redoes."""
    width, m, n = samples.shape
    total, count = anchors.shape[0], offsets.shape[0]
    # the linear terms are taken about each sample's midrange, so that they
    # stay the size of the sample's spread wherever the sample lies; the
    # inverse bandwidths are positive, so the extremes scale to the bits
    # of the scaled values' extremes
    high = samples.max(axis=1) * inv
    low = samples.min(axis=1) * inv
    centre = 0.5 * (high + low)
    scaled_offsets = offsets * inv[:, None, :]
    half_squares = 0.5 * np.einsum("rbj,rbj->rb", scaled_offsets, scaled_offsets)
    peak, constant = np.empty((2, width, count))
    wide = np.empty((width, count), dtype=bool)
    if n == 1:
        # rounding is monotone, so an offset's largest and smallest linear
        # terms are its products with the sample's centred extremes
        extremes = np.concatenate((high - centre, low - centre), axis=1)
        _offset_peaks(scaled_offsets * extremes[:, None, :], half_squares,
                      log_norms, peak, wide, constant)
    stack = min(max(width, 1), _stack_width(total, count, m))
    group = max(1, _CHUNK_VALUES // m)
    # the buffers that every stack fills in turn
    data_t, centred_data = np.empty((2, stack, n, m))
    scaled_anchors, centred_anchors = np.empty((2, stack, total, n))
    for first in range(0, count, group):
        picked = slice(first, first + group)
        columns = min(group, count - first)
        rows = max(1, min(_CHUNK_VALUES // (m + columns),
                          _PRODUCT_TERMS // (m * columns)))
        weights = np.empty((stack, columns, m))
        quad = np.empty((stack, min(rows, total), m))
        gap = np.empty_like(quad) if n > 1 else None
        sums, linear = np.empty((2, stack, min(rows, total), columns))
        for lo in range(0, width, stack):
            chunk = slice(lo, lo + stack)
            size = min(stack, width - lo)
            data = data_t[:size]
            np.multiply(samples[chunk].transpose(0, 2, 1), inv[chunk, :, None],
                        out=data)
            centred = np.subtract(data, centre[chunk, :, None],
                                  out=centred_data[:size])
            points = np.multiply(anchors, inv[chunk, None, :],
                                 out=scaled_anchors[:size])
            centred_points = np.subtract(points, centre[chunk, None, :],
                                         out=centred_anchors[:size])
            offset_rows = scaled_offsets[chunk, picked]
            # the exponents' linear terms, whose buffer then holds the
            # weights; in 1-D, the product's one term per entry, which numpy
            # forms twice as fast by broadcasting as in its generic matrix
            # loop
            w = weights[:size]
            if n == 1:
                np.multiply(offset_rows, centred, out=w)
            else:
                np.matmul(offset_rows, centred, out=w)
                _offset_peaks(w, half_squares[chunk, picked], log_norms[chunk],
                              peak[chunk, picked], wide[chunk, picked],
                              constant[chunk, picked])
            w -= peak[chunk, picked, None]
            np.exp(w, out=w)
            w = w.transpose(0, 2, 1)
            offset_columns = offset_rows.transpose(0, 2, 1)
            for start in range(0, total, rows):
                stop = min(start + rows, total)
                q = quad[:size, :stop - start]
                row_peak = _scaled_kernel_terms(
                    points[:, start:stop], data, q,
                    None if gap is None else gap[:size, :stop - start])
                s = np.matmul(q, w, out=sums[:size, :stop - start])
                np.log(s, out=s)
                s += row_peak[:, :, None]
                s -= np.matmul(centred_points[:, start:stop], offset_columns,
                               out=linear[:size, :stop - start])
                s += constant[chunk, None, picked]
                out[chunk, picked, start:stop] = s.transpose(0, 2, 1)
        # a group's buffers go before the next group's come: at m past
        # _CHUNK_VALUES a call then holds one row of each beside its scaled
        # samples
        weights = w = quad = q = gap = sums = linear = s = None
    return wide


def _offset_peaks(ends, half_squares, log_norms, peak, wide, constant):
    """Set each offset's ``peak``, its largest linear term, ``wide`` flag
    and ``constant``, from ``ends``, whose last axis holds its largest and
    smallest linear terms among others."""
    np.max(ends, axis=-1, out=peak)
    # a NaN span (an offset past double range) is wide too
    np.logical_not(peak - ends.min(axis=-1) <= _SPAN_LIMIT, out=wide)
    if np.count_nonzero(wide):
        # a wide offset's row is redone, so its weights are set to 0 by an
        # infinite shift: past the span limit they would hold subnormals,
        # which made a lone 1-D sample's product 17 times slower
        np.copyto(peak, np.inf, where=wide)
    np.subtract(log_norms[:, None] + peak, half_squares, out=constant)

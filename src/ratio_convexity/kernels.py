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

for any centre c, and the anchor's part factors again over the axes of
the product kernel:

    exp(-|a' - v_j|^2 / 2) = prod_k exp(-(a'_k - v_kj)^2 / 2 - P_k(a_k)) * exp(sum_k P_k(a_k))

where P_k(u) is the largest of -(u' - v_kj)^2 / 2 over the observations.
So a sample's whole (offsets x anchors) table takes one exp per (distinct
coordinate of an axis, observation), one per (offset, observation), a
product of gathered rows per (anchor, observation) and one matrix product
over the observations, where the direct kernel takes one exp per (anchor,
offset, observation).  A grid's anchors take few distinct values per axis
(21 per axis for the 546 anchors of the default 2-D plan), so most of the
anchors' exps are shared; in 1-D the distinct coordinates are the anchors
themselves.  Each sum is stabilized by its anchor's per-axis peaks and its
offset's largest term.  The offset's terms exp(e'.v_j - max) span
exp(-span) to 1, where span is the range of e'.v_j over the observations;
the per-axis peaks only bound the anchor's own, by a gap, so a table sum is
at least exp(-span - gap) (the gap is 0 in 1-D).  Every offset is
factored, and then the direct kernel redoes the rows of the offsets whose
span exceeds ``_SPAN_LIMIT`` (a far outlier, a long step), whose sums may
underflow, and the columns of the anchors with a sum below ``_SUM_FLOOR``
(a gap of several hundred: an anchor whose nearest observations along
each axis lie far from it along the others).

A call forms each sample's per-offset terms once: its midrange c, its
scaled offsets and their half squares, and in 1-D each offset's peak, wide
flag and constant, read from the sample's two extremes.  It then takes the
samples in stacks (:func:`_stack_width`), which fill one set of buffers in
turn, so a stack costs its numpy calls and no allocation.

The one-dimensional lattice of the normality test is such a table: each
lattice point is one of about sqrt(points) anchors plus one of about
sqrt(points) offsets, and a block of bootstrap replicates is one call.
"""

import itertools

import numpy as np

__all__ = ["anchor_axes", "backend_name", "kde_log_density_batch",
           "kde_log_density_table"]

#: most (point, observation) values held by one chunk, unless m is larger
_CHUNK_VALUES = 1 << 15
#: widest exponent span of an offset's factored terms: every table sum is
#: then at least exp(-600), about 1e-261, a normal float (exp underflows
#: past about -708, to subnormals, and to 0 past -745)
_SPAN_LIMIT = 600.0
#: smallest table sum kept: about 1e-289, a normal float 2**62 above the
#: subnormals, so the terms that round to subnormals or to 0 (each off by
#: at most 2**-1075) cannot move a kept sum by more than m * 2**-115 of it
_SUM_FLOOR = 2.0 ** -960
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
    return _stabilized_exp(quad)


def _stabilized_exp(quad):
    """Replace each squared gap g in ``quad`` by exp(-g / 2 - peak), where
    peak is its row's largest -g / 2, and return the peaks."""
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


def anchor_axes(anchors):
    """Each axis's distinct anchor coordinates and each anchor's index into
    them: one ``(values, index)`` pair per axis, the values ascending.  The
    index is None where the values are the anchors' own coordinates, in
    order (a 1-D lattice's anchors)."""
    axes = []
    for column in np.asarray(anchors, dtype=np.float64).T:
        values, index = np.unique(column, return_inverse=True)
        if len(values) == len(column) and np.array_equal(values, column):
            index = None
        else:
            # the narrowest integers that hold it: a grid of 65,694 anchors
            # keeps 64 KB per axis in place of 513 KB
            index = index.astype(np.min_scalar_type(len(values) - 1))
        axes.append((values, index))
    return tuple(axes)


def kde_log_density_table(anchors, offsets, samples, inv_bandwidths, log_norms,
                          axes=None):
    """Log-density of R Gaussian product-kernel KDEs at every anchor plus
    every offset, as an (R, offsets, anchors) array: ``[r, b, p]`` holds
    log f of sample ``samples[r]`` at ``anchors[p] + offsets[b]``.

    ``samples`` is an (R, m, n) stack, one sample per first index, with
    its positive inverse bandwidths (R, n) and ``log_norm`` constants (R,)
    as in :func:`kde_log_density_batch`.  ``axes`` is
    :func:`anchor_axes` of the anchors, formed here when None (a caller
    that reads the same anchors again forms it once).  A value agrees with
    the direct kernel's to a few units in the last place of the largest
    term it sums: |log f|, the offset's exponent span (at most
    ``_SPAN_LIMIT``), the sum of the anchor's per-axis peaks
    sum_k |P_k| and |e'.(a' - c)|.

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
    offset's peak, flag and constant are read), each axis's terms over its
    distinct coordinates when all of them fit in ``_CHUNK_VALUES`` values
    (else each chunk forms its anchors' terms whole, stabilized by each
    anchor's own peak), and an anchor chunk's terms, sums and linear
    terms.  Then the direct kernel
    redoes each (sample, offset) row whose span passes ``_SPAN_LIMIT`` (or
    is NaN), and each (sample, anchor) column with a sum over an offset
    that is not wide below ``_SUM_FLOOR`` (or NaN), in calls of about
    ``_CHUNK_VALUES`` values.  So a call needs those buffers, a few values
    per (sample, offset) and per (sample, anchor), the scaled copies of its
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
    total, count = anchors.shape[0], offsets.shape[0]
    out = np.empty((samples.shape[0], count, total))
    low_anchors = np.zeros((samples.shape[0], total), dtype=bool)
    # an offset past double range scales to inf, and a wide offset's or a
    # low anchor's factored log may be -inf or NaN until it is redone
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        wide = _fill_table(out, anchors, offsets, samples, inv, log_norms,
                           axes, low_anchors)
        if not (np.count_nonzero(wide) or np.count_nonzero(low_anchors)):
            return out
        # the direct kernel redoes the wide rows, a few offsets per call,
        # and then the low columns' other offsets, a few anchors per call
        per_call = max(1, _CHUNK_VALUES // total)
        for r in np.flatnonzero(wide.any(axis=1)):
            redo = np.flatnonzero(wide[r])
            for start in range(0, redo.size, per_call):
                batch = redo[start:start + per_call]
                points = (anchors + offsets[batch, None, :]).reshape(-1, n)
                out[r, batch] = kde_log_density_batch(
                    points, samples[r], inv[r], log_norms[r]).reshape(-1, total)
        for r in np.flatnonzero(low_anchors.any(axis=1)):
            redo = np.flatnonzero(low_anchors[r])
            kept = np.flatnonzero(~wide[r])
            per_anchors = max(1, _CHUNK_VALUES // kept.size)
            for start in range(0, redo.size, per_anchors):
                batch = redo[start:start + per_anchors]
                points = (anchors[batch, None, :] + offsets[kept]).reshape(-1, n)
                out[r][np.ix_(kept, batch)] = kde_log_density_batch(
                    points, samples[r], inv[r], log_norms[r]).reshape(-1, kept.size).T
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


def _fill_table(out, anchors, offsets, samples, inv, log_norms, axes=None,
                low_anchors=None):
    """Fill ``out`` with the factored tables of the arguments of
    :func:`kde_log_density_table`, and return the (samples, offsets) mask
    of the wide offsets, and set ``low_anchors``, a (samples, anchors) mask
    when given, at the low anchors: the caller redoes the values of both."""
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
    if axes is None:
        axes = anchor_axes(anchors)
    if low_anchors is None:
        low_anchors = np.zeros((width, total), dtype=bool)
    # every axis's terms over its distinct coordinates, one block of rows
    # per axis, when they fit in one chunk of values (a choice of the
    # sample's own, so the same alone or stacked); each anchor reads its
    # row of every axis through the index.  Past that (large m) each chunk
    # forms its anchors' terms whole, as the direct kernel does, with one
    # exp per (anchor, observation): per-axis terms of each chunk's own
    # anchors took 1.4 times as long.  In 1-D with the anchors' own
    # coordinates a chunk's terms are a slice of the block
    counts = [len(values) for values, _ in axes]
    shared = _fits_one_chunk(sum(counts), m)
    sliced = shared and n == 1 and axes[0][1] is None
    if shared:
        terms = np.empty((stack, sum(counts), m))
    if shared and not sliced:
        coordinates = np.concatenate([values for values, _ in axes])
        owner = np.repeat(np.arange(n), counts)
        blocks = list(itertools.accumulate(counts, initial=0))
        blocks = [slice(lo, hi) for lo, hi in zip(blocks[:-1], blocks[1:])]
        scaled_coordinates = np.empty((stack, len(coordinates)))
        row_peaks = np.empty((stack, total))
    # the buffers that every stack fills in turn
    data_t, centred_data = np.empty((2, stack, n, m))
    scaled_anchors, centred_anchors = np.empty((2, stack, total, n))
    for first in range(0, count, group):
        picked = slice(first, first + group)
        columns = min(group, count - first)
        rows = max(1, min(_CHUNK_VALUES // (m + columns),
                          _PRODUCT_TERMS // (m * columns)))
        weights = np.empty((stack, columns, m))
        quad = None if sliced else np.empty((stack, min(rows, total), m))
        spare = np.empty_like(quad) if n > 1 else None
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
            table = terms[:size] if shared else None
            if sliced:
                # the coordinates are the scaled anchors themselves
                anchor_peaks = _axis_terms(points[..., 0], data, table)
            elif shared:
                # each row's observations along its axis, gathered into the
                # terms' buffer, and then each axis's rows of the terms and
                # of their peaks with the index the anchors read them by
                observations = data.take(owner, axis=1, out=table, mode="clip")
                axis_peaks = _axis_terms(
                    np.multiply(coordinates, inv[chunk][:, owner],
                                out=scaled_coordinates[:size]),
                    observations, table)
                sources = [(table[:, block], axis_peaks[:, block], index)
                           for (_, index), block in zip(axes, blocks)]
                anchor_peaks = _peak_sums(sources, row_peaks[:size])
            for start in range(0, total, rows):
                stop = min(start + rows, total)
                if sliced:
                    q = table[:, start:stop]
                else:
                    q = quad[:size, :stop - start]
                    buffer = None if spare is None else spare[:size, :stop - start]
                if not shared:
                    row_peak = _scaled_kernel_terms(points[:, start:stop], data,
                                                    q, buffer)
                else:
                    row_peak = anchor_peaks[:, start:stop]
                    if not sliced:
                        _gathered_terms(sources, start, stop, q, buffer)
                s = np.matmul(q, w, out=sums[:size, :stop - start])
                # a sum below the floor (or NaN) of an offset that is not
                # wide marks its anchor for the direct kernel
                if not s.min() >= _SUM_FLOOR:
                    short = np.logical_not(s >= _SUM_FLOOR)
                    short &= ~wide[chunk, None, picked]
                    low_anchors[chunk, start:stop] |= short.any(axis=2)
                np.log(s, out=s)
                s += row_peak[:, :, None]
                s -= np.matmul(centred_points[:, start:stop], offset_columns,
                               out=linear[:size, :stop - start])
                s += constant[chunk, None, picked]
                out[chunk, picked, start:stop] = s.transpose(0, 2, 1)
        # a group's buffers go before the next group's come: at m past
        # _CHUNK_VALUES a call then holds one row of each beside its scaled
        # samples
        weights = w = quad = q = spare = buffer = sums = linear = s = None
    return wide


def _fits_one_chunk(rows, m):
    """Whether ``rows`` rows of m terms fit in one chunk of values."""
    return rows * m <= _CHUNK_VALUES


def _axis_terms(scaled, observations, out):
    """Fill ``out`` with exp(-(u - v_j)^2 / 2 - P(u)) for each scaled
    coordinate u (..., rows) and the observations v_j along its axis
    (..., rows or 1, m), and return each row's P(u), the largest of
    -(u - v_j)^2 / 2.  ``observations`` may be ``out`` itself."""
    np.subtract(scaled[..., None], observations, out=out)
    np.multiply(out, out, out=out)
    return _stabilized_exp(out)


def _peak_sums(sources, out):
    """Set ``out`` (stack, anchors) to each anchor's sum of its per-axis
    peaks, read from each axis's (terms, peaks, index) in ``sources``, and
    return it.  The anchors go in pieces of about ``_CHUNK_VALUES`` values,
    so that a large grid gathers no anchor-sized temporary."""
    width, total = out.shape
    piece = max(1, _CHUNK_VALUES // width)
    for lo in range(0, total, piece):
        part = slice(lo, lo + piece)
        for k, (_, peaks, index) in enumerate(sources):
            peaks = peaks[:, part] if index is None else peaks.take(index[part],
                                                                    axis=1)
            if k:
                out[:, part] += peaks
            else:
                out[:, part] = peaks
    return out


def _gathered_terms(sources, start, stop, q, spare):
    """Fill ``q`` with the product over the axes of the terms that anchors
    ``start`` to ``stop`` read from each axis's (terms, peaks, index) in
    ``sources``."""
    for k, (terms, _, index) in enumerate(sources):
        rows = spare if k else q
        if index is None:
            np.copyto(rows, terms[:, start:stop])
        else:
            terms.take(index[start:stop], axis=1, out=rows, mode="clip")
        if k:
            q *= rows


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

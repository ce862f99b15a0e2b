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
anchors' exps are shared.  The table takes this per-axis route when the
axes' distinct coordinates, summed, are fewer than the anchors and their
terms fit in one chunk of values; otherwise (a 1-D lattice, whose anchors
are their own distinct coordinates, or a large m) each chunk of anchors
forms its terms whole, as the direct kernel does.  In 1-D the two routes
take the same operations on each anchor, the gather aside, and give the
same bits.  Each sum is stabilized by its anchor's per-axis peaks and its
offset's largest term.  The offset's terms exp(e'.v_j - max) span
exp(-span) to 1, where span is the range of e'.v_j over the observations;
the per-axis peaks only bound the anchor's own, by a gap, so a table sum is
at least exp(-span - gap) (the gap is 0 in 1-D).  Every cell is factored,
and then the direct kernel redoes exactly the short cells, those whose
factored sum is below ``_SUM_FLOOR`` or NaN.  A cell falls short where the
gap is several hundred (an anchor whose nearest observations along each
axis lie far from it along the others), and across the whole row of an
offset whose span passes ``_SPAN_LIMIT`` (a far outlier, a long step):
such an offset's weights are set to 0, so that its product meets no
subnormals, and all its sums fall short.  In 1-D the short cells are
exactly the rows of those wide offsets.

A call forms each sample's per-offset terms once: its midrange c, its
scaled offsets and their half squares, and in 1-D each offset's peak and
constant, read from the sample's two extremes.  It then takes the
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
#: widest exponent span of an offset's factored terms: a 1-D table sum is
#: then at least exp(-600), about 1e-261, a normal float (exp underflows
#: past about -708, to subnormals, and to 0 past -745).  It is the guard
#: against slow subnormal products: a wider offset's weights are set to 0,
#: so its row falls short and the direct kernel redoes it
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
    them: one ``(values, index)`` pair per axis, the values ascending."""
    axes = []
    for column in np.asarray(anchors, dtype=np.float64).T:
        values, index = np.unique(column, return_inverse=True)
        # the narrowest integers that hold it: a grid of 65,694 anchors
        # keeps 64 KB per axis in place of 513 KB
        axes.append((values, index.astype(np.min_scalar_type(len(values) - 1))))
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

    Every cell of every sample is factored.  Each sample's midrange,
    scaled offsets and their half squares are formed once per call, and in
    1-D each offset's peak and constant too, from the sample's
    extremes.  The samples then go in stacks of :func:`_stack_width`, the
    offsets in groups of at most ``_CHUNK_VALUES // m`` (a stack's make one
    group) and the anchors in chunks whose (anchor, observation) and
    (anchor, offset) buffers together hold at most about ``_CHUNK_VALUES``
    values (fewer when the product would pass ``_PRODUCT_TERMS``).  Every
    stack fills one set of buffers, allocated per offset group: its scaled
    and centred data and anchors, its weights (in n-D, from which each
    offset's peak and constant are read), each axis's terms over its
    distinct coordinates when they are fewer than the anchors and all of
    them fit in ``_CHUNK_VALUES`` values (else each chunk forms its
    anchors' terms whole, stabilized by each anchor's own peak), and an
    anchor chunk's terms, sums and linear terms.  Then the direct kernel
    redoes each short cell, one whose factored sum is below ``_SUM_FLOOR``
    or NaN (every cell of an offset whose span passes ``_SPAN_LIMIT``
    among them), ``_CHUNK_VALUES`` cells of a sample per call.  So a call
    needs those buffers, a few values per (sample, offset) and per
    (sample, anchor), the scaled copies of its inputs and its output,
    whatever m or the anchor count, and 8 bytes per short cell for its
    index.  Stacked or alone, a sample passes the same operations on
    its own values, and a stacked product multiplies each sample's
    matrices on their own, with an anchor chunk of the same size (the bits
    of a BLAS product depend on its size), so its values are the bits it
    has alone, and so are its short cells.  No floating-point warning is
    raised: a value past double range comes back inf or NaN, for the
    caller to check.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    samples = np.asarray(samples, dtype=np.float64)
    inv = np.asarray(inv_bandwidths, dtype=np.float64)
    log_norms = np.asarray(log_norms, dtype=np.float64)
    if axes is None:
        axes = anchor_axes(anchors)
    total = anchors.shape[0]
    out = np.empty((samples.shape[0], offsets.shape[0], total))
    # an offset past double range scales to inf, and a short cell's
    # factored log may be -inf or NaN until it is redone
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        short = _fill_table(out, anchors, offsets, samples, inv, log_norms, axes)
        # the direct kernel redoes each sample's short cells, a chunk of
        # them per call
        cells = out.reshape(len(out), -1)
        for r, redo in short.items():
            for start in range(0, redo.size, _CHUNK_VALUES):
                batch = redo[start:start + _CHUNK_VALUES]
                b, a = np.divmod(batch, total)
                cells[r, batch] = kde_log_density_batch(
                    anchors[a] + offsets[b], samples[r], inv[r], log_norms[r])
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


def _fill_table(out, anchors, offsets, samples, inv, log_norms, axes):
    """Fill ``out`` with the factored tables of the arguments of
    :func:`kde_log_density_table`, and return its short cells, those whose
    factored sum is below ``_SUM_FLOOR`` or NaN, for the caller to redo: a
    dict from each sample with short cells to their flat indices in its
    (offsets, anchors) table, ascending.  Each chunk that falls short adds
    its cells' indices, so they take a few bytes per short cell."""
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
    short = {}
    if n == 1:
        # rounding is monotone, so an offset's largest and smallest linear
        # terms are its products with the sample's centred extremes
        ends = (scaled_offsets[..., 0] * (high - centre),
                scaled_offsets[..., 0] * (low - centre))
        _offset_peaks(np.maximum(*ends, out=peak), np.minimum(*ends),
                      half_squares, log_norms, constant)
    stack = min(max(width, 1), _stack_width(total, count, m))
    group = max(1, _CHUNK_VALUES // m)
    # every axis's terms over its distinct coordinates, one block of rows
    # per axis, when those coordinates, summed over the axes, are fewer
    # than the anchors and fit in one chunk of values (a choice of the
    # sample's own, so the same alone or stacked); each anchor reads its
    # row of every axis through the index.  Otherwise each chunk forms its
    # anchors' terms whole, as the direct kernel does, with one exp per
    # (anchor, observation): past one chunk (large m) per-axis terms of
    # each chunk's own anchors took 1.4 times as long, and where the
    # anchors are their own distinct coordinates (a 1-D lattice) the whole
    # route takes the per-axis route's operations without the gather
    counts = [len(values) for values, _ in axes]
    shared = sum(counts) < total and _fits_one_chunk(sum(counts), m)
    if shared:
        terms = np.empty((stack, sum(counts), m))
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
        quad = np.empty((stack, min(rows, total), m))
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
            # weights; in 1-D, the product's one term per entry, which
            # einsum forms 1.8 times as fast as a broadcast multiply and
            # 2.6 times as fast as numpy's generic matrix loop (a stack of
            # 14 samples, 11 offsets, m = 200)
            w = weights[:size]
            if n == 1:
                np.einsum("rbi,rij->rbj", offset_rows, centred, out=w)
            else:
                np.matmul(offset_rows, centred, out=w)
                _offset_peaks(np.max(w, axis=-1, out=peak[chunk, picked]),
                              w.min(axis=-1), half_squares[chunk, picked],
                              log_norms[chunk], constant[chunk, picked])
            w -= peak[chunk, picked, None]
            np.exp(w, out=w)
            w = w.transpose(0, 2, 1)
            offset_columns = offset_rows.transpose(0, 2, 1)
            if shared:
                # each row's observations along its axis, gathered into the
                # terms' buffer, and then each axis's rows of the terms and
                # of their peaks with the index the anchors read them by
                table = terms[:size]
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
                q = quad[:size, :stop - start]
                buffer = None if spare is None else spare[:size, :stop - start]
                if shared:
                    row_peak = anchor_peaks[:, start:stop]
                    _gathered_terms(sources, start, stop, q, buffer)
                else:
                    row_peak = _scaled_kernel_terms(points[:, start:stop], data,
                                                    q, buffer)
                s = np.matmul(q, w, out=sums[:size, :stop - start])
                # a sum below the floor (or NaN) marks its cell for the
                # direct kernel, by its flat index in its sample's table
                if not s.min() >= _SUM_FLOOR:
                    r, a, b = np.nonzero(np.logical_not(s >= _SUM_FLOOR))
                    cells = (b + first) * total + (a + start)
                    for i in np.unique(r).tolist():
                        short.setdefault(lo + i, []).append(cells[r == i])
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
    return {r: np.sort(np.concatenate(cells)) for r, cells in sorted(short.items())}


def _fits_one_chunk(rows, m):
    """Whether ``rows`` rows of m terms fit in one chunk of values."""
    return rows * m <= _CHUNK_VALUES


def _axis_terms(scaled, observations, out):
    """Fill ``out`` with exp(-(u - v_j)^2 / 2 - P(u)) for each scaled
    coordinate u (..., rows) and the observations v_j along its axis
    (..., rows, m), and return each row's P(u), the largest of
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
            peaks = peaks.take(index[part], axis=1)
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
        terms.take(index[start:stop], axis=1, out=rows, mode="clip")
        if k:
            q *= rows


def _offset_peaks(peak, trough, half_squares, log_norms, constant):
    """Set each offset's ``constant`` from ``peak`` and ``trough``, its
    largest and smallest linear terms.  A wide offset, whose span
    ``peak - trough`` passes ``_SPAN_LIMIT`` (or is NaN), first gets an
    infinite peak: its weights are then 0 (or NaN), so every sum of its
    row falls short and is redone."""
    # a NaN span (an offset past double range) is wide too
    wide = np.logical_not(peak - trough <= _SPAN_LIMIT)
    if np.count_nonzero(wide):
        # past the span limit the weights would hold subnormals, which
        # made a lone 1-D sample's product 17 times slower
        np.copyto(peak, np.inf, where=wide)
    np.subtract(log_norms[:, None] + peak, half_squares, out=constant)

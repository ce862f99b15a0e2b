"""Independent reference implementations used to check the package.

Everything in here is deliberately written the slow, obvious way (plain
loops, textbook quadrature, dense broadcasting) so that agreement with the
library is evidence rather than tautology.
"""

import math

import numpy as np


def adaptive_simpson(f, a, b, tol=1e-12, max_depth=40):
    """Adaptive Simpson quadrature of f over [a, b]."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        fl = f(0.5 * (lo + mid))
        fr = f(0.5 * (mid + hi))
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, fl, fmid, left, eps / 2.0, depth - 1)
                + recurse(mid, hi, fmid, fr, fhi, right, eps / 2.0, depth - 1))

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)


def second_derivative_richardson(f, x, t1=1e-3):
    """Richardson-extrapolated central second difference of a scalar f.

    Combines the O(t^2) estimates at steps t1 and t1/2 into an O(t^4) one:
    (4 D2(t/2) - D2(t)) / 3.
    """
    def d2(t):
        return (f(x + t) - 2.0 * f(x) + f(x - t)) / (t * t)

    return (4.0 * d2(t1 / 2.0) - d2(t1)) / 3.0


def ratio_second_difference(log_density, x, y, direction, step):
    """phi(x+td) - 2 phi(x) + phi(x-td) with phi(x) = log f(x+y) - log f(x).

    Pure-Python reference for one probe cell, point by point.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = np.atleast_1d(np.asarray(direction, dtype=float))

    def phi(point):
        return log_density(point + y) - log_density(point)

    offset = step * d
    return phi(x + offset) - 2.0 * phi(x) + phi(x - offset)


def brute_force_h_margin(log_density, kind, x, y, direction, step):
    """Margin of one probe cell on h itself, in the probe's scaled arithmetic.

    kind is "convex", "concave", or "quasi-convex"; the returned value is
    h(x) times the relative second difference (or midpoint excess).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = np.atleast_1d(np.asarray(direction, dtype=float))

    def phi(point):
        return log_density(point + y) - log_density(point)

    offset = step * d
    center = phi(x)
    plus = phi(x + offset)
    minus = phi(x - offset)
    if kind == "quasi-convex":
        relative = -math.expm1(max(plus, minus) - center)
    else:
        relative = math.expm1(plus - center) + math.expm1(minus - center)
    return math.exp(center) * relative


def kde_log_density_naive(points, data, bandwidths):
    """Dense Gaussian product-kernel KDE, stabilised only by logaddexp.

    points : (N, n), data : (m, n), bandwidths : (n,).  Returns (N,).
    """
    points = np.asarray(points, dtype=float)
    data = np.asarray(data, dtype=float)
    bandwidths = np.asarray(bandwidths, dtype=float)
    m, n = data.shape
    scaled = (points[:, None, :] - data[None, :, :]) / bandwidths
    log_terms = -0.5 * np.sum(scaled * scaled, axis=2)
    log_norm = -(math.log(m) + float(np.log(bandwidths).sum())
                 + 0.5 * n * math.log(2.0 * math.pi))
    return np.logaddexp.reduce(log_terms, axis=1) + log_norm


def kde_log_density_einsum(points, data, inv_bandwidth, log_norm, chunk_rows=4096):
    """Whole-array KDE kernel, the bit-for-bit reference of the blocked one.

    Each chunk of 4096 rows forms the whole (rows, m, n) gap array, then
    full-size temporaries for einsum, the shifted exponent and exp; its
    memory grows with m.  Same signature as
    ``kernels.kde_log_density_batch``.
    """
    inv = np.asarray(inv_bandwidth, dtype=np.float64)
    scaled_points = np.asarray(points, dtype=np.float64) * inv
    scaled_data = np.asarray(data, dtype=np.float64) * inv
    log_norm = float(log_norm)
    total = scaled_points.shape[0]
    out = np.empty(total)
    for start in range(0, total, chunk_rows):
        stop = min(start + chunk_rows, total)
        gap = scaled_points[start:stop, None, :] - scaled_data[None, :, :]
        quad = -0.5 * np.einsum("prj,prj->pr", gap, gap)
        peak = quad.max(axis=1)
        out[start:stop] = peak + np.log(
            np.exp(quad - peak[:, None]).sum(axis=1)) + log_norm
    return out


def gaussian_log_density_einsum(model, points):
    """A Gaussian model's log-densities by one whole-array formula: whiten
    by the BLAS product ``points @ W``, subtract ``mean @ W``, then sum
    the squares with ``einsum``.  The bit-for-bit reference of
    ``Gaussian._log_density_many``, which sums up to three axes column by
    column."""
    z = points @ model._whiten
    z -= model.params.mean @ model._whiten
    return model._log_norm - 0.5 * np.einsum("ij,ij->i", z, z)


def splitmix64_reference(state):
    """Textbook SplitMix64 finalizer of a 64-bit state."""
    mask = (1 << 64) - 1
    z = state & mask
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def quadratic_fit_1d(xs, values):
    """np.polyfit-based quadratic fit of scalar data.

    Returns (coefficients a2, a1, a0, max abs residual) for
    values ~ a2 x^2 + a1 x + a0.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    coeffs = np.polyfit(xs, values, 2)
    residuals = np.polyval(coeffs, xs) - values
    return coeffs, float(np.max(np.abs(residuals)))


def distinct_rows_unique(points):
    """``(first, inverse)`` of the distinct int64 bit patterns among the
    rows, by ``np.unique``: the reference of ``probe._distinct_rows``."""
    _, first, inverse = np.unique(points.view(np.int64), axis=0,
                                  return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def per_shift_log_ratios(model, grid):
    """Yield (shift, direction, step index, phi_minus, phi_center, phi_plus).

    The per-shift stacking the grid evaluators used before they shared one
    evaluator: for every shift y it evaluates log f at x, x + y, x -/+ t d
    and x + y -/+ t d in one batch, with no reuse across shifts, and forms
    phi = log f(. + y) - log f(.) on the (base point) axis.
    """
    base = grid.base_points()
    k = base.shape[0]
    offsets = [(di, ti, step * direction)
               for di, direction in enumerate(grid.directions)
               for ti, step in enumerate(grid.steps)]
    for yi, y in enumerate(grid.y_set):
        stack = [base, base + y]
        for _, _, offset in offsets:
            stack.extend((base - offset, base + offset,
                          base + y - offset, base + y + offset))
        values = model.log_density_many(np.vstack(stack))
        phi_center = values[k:2 * k] - values[:k]
        for block, (di, ti, _) in enumerate(offsets):
            at = (2 + 4 * block) * k
            phi_minus = values[at + 2 * k:at + 3 * k] - values[at:at + k]
            phi_plus = values[at + 3 * k:at + 4 * k] - values[at + k:at + 2 * k]
            yield yi, di, ti, phi_minus, phi_center, phi_plus


def per_shift_statistic(model, grid):
    """max over the grid of |second difference of log h| / t^2, shift by shift."""
    best = 0.0
    for _, _, ti, phi_minus, phi_center, phi_plus in per_shift_log_ratios(model, grid):
        step = grid.steps[ti]
        d2 = phi_plus - 2.0 * phi_center + phi_minus
        best = max(best, float(np.max(np.abs(d2))) / (step * step))
    return best


def lattice_statistic_loop(log_values, plan):
    """One sample's lattice statistic, pair by pair with fancy indexing.

    ``log_values`` holds the KDE log-density at ``plan.points`` (one value
    per lattice point); the statistic is the running max over the plan's
    (shift, step) pairs of |second difference of log h| / t^2.
    """
    d2_at = {}
    for ot in plan.t_offsets:
        d2_at[ot] = (log_values[2 * ot:] - 2.0 * log_values[ot:-ot]
                     + log_values[:-2 * ot])
    base = plan.pad + np.arange(plan.count)
    best = 0.0
    for oy, ot, t in plan.pairs:
        d2 = d2_at[ot]
        j = base - ot
        worst = float(np.max(np.abs(d2[j + oy] - d2[j]))) / (t * t)
        if worst > best:
            best = worst
    return best


def grid_statistic_loop(tables, plan):
    """The grid statistic block by block: for each (-t d, +t d) pair of
    log f rows one second difference over every anchor, a fancy-indexed
    gap between each shifted centre's and its base point's, and a running
    max of |gap| / t^2 that skips a NaN block.

    ``tables`` are log f over the plan's anchors plus its offsets, one row
    per offset in the plan's order, split into arrays of any number of
    rows.
    """
    k = plan.base.shape[0]
    rows = (row for table in tables for row in table)
    centre = 2.0 * next(rows)
    best = 0.0
    for block, (minus, plus) in enumerate(zip(rows, rows)):
        step = plan.steps[block % len(plan.steps)]
        d2 = plus - centre + minus
        gap = d2[plan.centres] - d2[:k]
        best = max(best, float(np.max(np.abs(gap))) / (step * step))
    return best


def replicate_draw(root, m, seed, index):
    """Bootstrap replication ``index`` alone: m draws from N(0, root root')
    on its own SplitMix64 substream of ``seed``."""
    state = seed + index * 0x9E3779B97F4A7C15
    rng = np.random.default_rng(splitmix64_reference(state))
    return rng.standard_normal((m, root.shape[0])) @ root


def standardize_alone(data):
    """One (m, n) sample centered and whitened, step by step.

    Mean over the rows; the variance as a dot product (n = 1) or the
    covariance as ``centered.T @ centered``; both formed again on a copy
    rescaled by powers of two when a standard deviation leaves
    [2**-300, 2**300]; then division by the standard deviation, or
    whitening by the eigenvectors and eigenvalues of ``eigh``.
    """
    m, n = data.shape

    def covariance(centered):
        if n == 1:
            return np.array([[float(centered[:, 0] @ centered[:, 0]) / (m - 1)]])
        return centered.T @ centered / (m - 1)

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        centered = data - data.mean(axis=0)
        cov = covariance(centered)
    if not all(2.0 ** -600 <= v <= 2.0 ** 600 for v in np.diagonal(cov).tolist()):
        _, first = np.frexp(np.abs(data).max())
        scaled = np.ldexp(data, -first)
        centered = scaled - scaled.mean(axis=0)
        _, second = np.frexp(np.abs(centered).max())
        centered = np.ldexp(centered, -second)
        cov = covariance(centered)
    if n == 1:
        return centered / math.sqrt(float(cov[0, 0]))
    eigenvalues, basis = np.linalg.eigh(cov)
    eigenvalues, basis = eigenvalues[::-1], basis[:, ::-1]
    whiten = basis @ np.diag(1.0 / np.sqrt(eigenvalues)) @ basis.T
    return centered @ whiten


def silverman_unsorted(data):
    """Silverman bandwidths (..., n) of a sample (m, n) or a stack of them,
    with the quartiles taken by ``np.percentile`` from the data as given."""
    sd = data.std(axis=-2, ddof=1)
    q25, q75 = np.percentile(data, [25.0, 75.0], axis=-2)
    spread = np.where(q75 > q25, np.minimum(sd, (q75 - q25) / 1.34), sd)
    return 0.9 * spread * data.shape[-2] ** (-0.2)


def lattice_pipeline_loop(data, plan):
    """Statistic and bandwidth of one 1-D sample on a lattice plan, alone.

    Standardize, Silverman bandwidth of the (m, 1) sample, one kernel call
    on the lattice, and the pair-by-pair statistic.
    """
    from ratio_convexity import kernels, normtest

    z = standardize_alone(data)
    bandwidths = normtest._silverman_per_axis(z)
    log_norm = -(math.log(z.shape[0]) + math.log(float(bandwidths[0]))
                 + 0.5 * math.log(2.0 * math.pi))
    log_values = kernels.kde_log_density_batch(
        plan.points, z, 1.0 / bandwidths, log_norm)
    return lattice_statistic_loop(log_values, plan), float(bandwidths[0])


def per_replicate_statistics(root, m, plan, seed, start, stop):
    """T* of bootstrap replications start..stop-1 on a 1-D lattice plan.

    The loop the 1-D bootstrap ran before replicates were batched: each
    replicate is drawn from N(0, root root') on its own substream and
    pushed through :func:`lattice_pipeline_loop` on its own.
    """
    return [lattice_pipeline_loop(replicate_draw(root, m, seed, r), plan)[0]
            for r in range(start, stop)]


def per_replicate_grid_statistics(root, m, grid, seed, start, stop):
    """T* of bootstrap replications start..stop-1 on a probe grid.

    Each replicate is drawn from N(0, root root') on its own substream,
    standardized, given its Silverman bandwidths and KDE alone, and scanned
    shift by shift with :func:`per_shift_statistic`.
    """
    from ratio_convexity import normtest

    statistics = []
    for r in range(start, stop):
        z = standardize_alone(replicate_draw(root, m, seed, r))
        model = normtest.kde_log_density(
            normtest.Sample(z, min_count=2), normtest._silverman_per_axis(z))
        statistics.append(per_shift_statistic(model, grid))
    return statistics


def witness_dict(witness):
    """A probe witness as the plain dict whose JSON text is its report
    entry: the oracle that the CLI's witness template is held to."""
    return {
        "property": witness.kind.value,
        "x": witness.x.tolist(),
        "y": witness.y.tolist(),
        "direction": witness.direction.tolist(),
        "step": witness.step,
        "triple": [point.tolist() for point in witness.triple],
        "values": list(witness.values),
        "margin": witness.margin,
        "tolerance_used": witness.tolerance_used,
        "position": list(witness.position),
    }

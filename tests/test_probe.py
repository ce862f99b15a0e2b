import math

import numpy as np
import pytest

from ratio_convexity.density import Custom, Gaussian, GaussianParams, Laplace1D, Quartic1D
from ratio_convexity.errors import InconclusiveScanError, UsageError
from ratio_convexity.normtest import Sample, default_test_grid, kde_log_density
from ratio_convexity.probe import (
    _ROW_BUDGET,
    ProbeGrid,
    PropertyKind,
    _distinct_rows,
    _margins,
    concavity_impossibility_scan,
    default_tolerance,
    probe_properties,
    probe_property,
    replay_witness,
    second_difference,
)

from _oracles import (brute_force_h_margin, distinct_rows_unique,
                      per_shift_log_ratios, ratio_second_difference)


LAPLACE_EXACT_GRID = ProbeGrid(x_range=((-4.0, 4.0, 9),), y_set=([1.0],),
                               directions=([1.0],), steps=(1.0,))


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.5 * np.eye(n)


# ---------------------------------------------------------------- ProbeGrid


def test_probe_grid_validation():
    with pytest.raises(UsageError):
        ProbeGrid(x_range=(), y_set=([1.0],), directions=([1.0],), steps=(1.0,))
    with pytest.raises(UsageError):
        ProbeGrid(x_range=((0.0, 1.0, 2),), y_set=([1.0],),
                  directions=([1.0],), steps=(1.0,))
    with pytest.raises(UsageError):
        ProbeGrid(x_range=((1.0, 0.0, 5),), y_set=([1.0],),
                  directions=([1.0],), steps=(1.0,))
    with pytest.raises(UsageError):
        ProbeGrid(x_range=((0.0, 1.0, 5),), y_set=(),
                  directions=([1.0],), steps=(1.0,))
    with pytest.raises(UsageError):
        ProbeGrid(x_range=((0.0, 1.0, 5),), y_set=([1.0],),
                  directions=([2.0],), steps=(1.0,))  # not unit length
    with pytest.raises(UsageError):
        ProbeGrid(x_range=((0.0, 1.0, 5),), y_set=([1.0],),
                  directions=([1.0],), steps=(-1.0,))
    with pytest.raises(UsageError):
        ProbeGrid(x_range=((0.0, 1.0, 5),), y_set=([1.0, 0.0],),
                  directions=([1.0],), steps=(1.0,))  # shift dimension


def test_default_grid_shapes():
    g1 = ProbeGrid.for_dimension(1)
    assert g1.dimension == 1
    assert g1.point_count == 201
    assert len(g1.y_set) == 10  # five magnitudes, two signs
    assert len(g1.directions) == 1

    g2 = ProbeGrid.for_dimension(2)
    assert g2.point_count == 21 * 21
    assert len(g2.y_set) == 20  # five magnitudes, two signs, two axes
    assert len(g2.directions) == 10  # axes plus eight seeded extras
    for d in g2.directions:
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)


def test_default_grid_directions_are_deterministic():
    a = ProbeGrid.for_dimension(3)
    b = ProbeGrid.for_dimension(3)
    for da, db in zip(a.directions, b.directions):
        np.testing.assert_array_equal(da, db)


def test_base_points_row_major_and_spacing():
    grid = ProbeGrid(x_range=((0.0, 1.0, 3), (0.0, 2.0, 3)),
                     y_set=([1.0, 0.0],), directions=([1.0, 0.0],), steps=(0.5,))
    points = grid.base_points()
    assert points.shape == (9, 2)
    np.testing.assert_array_equal(points[0], [0.0, 0.0])
    np.testing.assert_array_equal(points[1], [0.0, 1.0])  # last axis fastest
    np.testing.assert_array_equal(points[-1], [1.0, 2.0])
    assert grid.spacing() == (0.5, 1.0)


def test_scaled_grid():
    grid = LAPLACE_EXACT_GRID.scaled(2.0)
    assert grid.x_range == ((-8.0, 8.0, 9),)
    assert grid.y_set[0][0] == 2.0
    assert grid.steps == (1.0,)  # steps are unchanged


# ---------------------------------------------------- second_difference


def test_second_difference_of_quadratic():
    rng = np.random.default_rng(17)
    m = random_spd(rng, 3)

    def quad(x):
        return float(x @ m @ x)

    x = rng.standard_normal(3)
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    for t in (0.1, 0.5, 2.0):
        expected = 2.0 * t * t * float(d @ m @ d)
        assert second_difference(quad, x, d, t) == pytest.approx(expected,
                                                                 rel=1e-9)


def test_second_difference_validates():
    with pytest.raises(UsageError):
        second_difference(lambda x: 0.0, [0.0], [1.0], -1.0)
    with pytest.raises(UsageError):
        second_difference(lambda x: 0.0, [0.0], [1.0, 0.0], 1.0)


# ------------------------------------------------------------ Gaussian null


@pytest.mark.parametrize("kind", ["convex", "log-convex", "log-concave"])
def test_gaussian_ratios_pass_all_probes(kind):
    rng = np.random.default_rng(123)
    for n in (1, 2):
        params = GaussianParams(rng.standard_normal(n), random_spd(rng, n))
        verdict = probe_property(Gaussian(params), kind)
        assert not verdict.found
        assert verdict.violation_count == 0
        assert verdict.points_checked > 0
        assert "no violation found" in str(verdict)


# ----------------------------------------------------------- Laplace probes


def test_laplace_is_quasi_convex():
    verdict = probe_property(Laplace1D(), PropertyKind.QUASI_CONVEX)
    assert not verdict.found


def test_laplace_convexity_witness_on_exact_grid():
    verdict = probe_property(Laplace1D(), "convex", LAPLACE_EXACT_GRID)
    assert verdict.found
    assert verdict.violation_count == 1
    witness = verdict.worst
    assert witness.x.tolist() == [-1.0]
    assert witness.y.tolist() == [1.0]
    assert witness.step == 1.0
    # hand value: h(-2) + h(0) - 2 h(-1) = e + 1/e - 2e
    expected = math.exp(1) + math.exp(-1) - 2.0 * math.exp(1)
    assert witness.margin == pytest.approx(expected, abs=1e-12)
    assert witness.margin < 0.0
    assert abs(witness.margin) > witness.tolerance_used
    # the witness triple carries the h values at x - t, x, x + t
    np.testing.assert_allclose(witness.values,
                               [math.exp(1), math.exp(1), math.exp(-1)],
                               rtol=1e-14)


def test_laplace_default_grid_finds_convexity_violations():
    verdict = probe_property(Laplace1D(), "convex")
    assert verdict.found
    assert verdict.violation_count > len(verdict.witnesses)
    margins = [abs(w.margin) for w in verdict.witnesses]
    assert margins == sorted(margins, reverse=True)


def test_witness_cap_limits_materialization_not_count():
    full = probe_property(Laplace1D(), "convex")
    capped = probe_property(Laplace1D(), "convex", witness_cap=3)
    assert len(capped.witnesses) == 3
    assert capped.violation_count == full.violation_count
    for a, b in zip(capped.witnesses, full.witnesses):
        assert a.margin == b.margin


def test_huge_tolerance_suppresses_laplace_witness():
    verdict = probe_property(Laplace1D(), "convex", LAPLACE_EXACT_GRID,
                             tolerance=10.0)
    assert not verdict.found


# ------------------------------------------------------------ quartic probes


def test_quartic_convexity_violation_at_unit_x():
    grid = ProbeGrid(x_range=((0.0, 2.0, 21),), y_set=([0.1],),
                     directions=([1.0],), steps=(0.1,))
    verdict = probe_property(Quartic1D(), "convex", grid)
    assert verdict.found
    assert any(w.x.tolist() == [1.0] and w.margin < 0.0
               for w in verdict.witnesses)


def test_quartic_log_convexity_fails_on_default_grid():
    verdict = probe_property(Quartic1D(), "log-convex")
    assert verdict.found


# ------------------------------------------------------------ witness replay


@pytest.mark.parametrize("model, kind", [
    (Laplace1D(), "convex"),
    (Laplace1D(), "log-convex"),
    (Quartic1D(), "convex"),
    (Quartic1D(), "log-convex"),
    (Quartic1D(), "concave"),
])
def test_witness_replay_reproduces_margin(model, kind):
    verdict = probe_property(model, kind)
    assert verdict.found
    for witness in verdict.witnesses[:10]:
        replayed = replay_witness(model, witness)
        assert replayed == pytest.approx(witness.margin,
                                         rel=1e-12, abs=1e-300)


# ----------------------------------------------- brute-force equivalence


def test_probe_matches_brute_force_cell_by_cell():
    # a deliberately non-smooth 2-D model: Laplace x Gaussian product
    def single(point):
        return -abs(float(point[0])) - 0.5 * float(point[1]) ** 2

    model = Custom(2, single)
    grid = ProbeGrid(
        x_range=((-2.0, 2.0, 5), (-2.0, 2.0, 5)),
        y_set=([1.0, 0.0], [0.0, -1.0]),
        directions=([1.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)]),
        steps=(0.5, 1.0),
    )
    tol = 1e-7
    verdict = probe_property(model, "convex", grid, tolerance=tol,
                             witness_cap=10_000)

    expected = []
    for y in grid.y_set:
        for x in grid.base_points():
            for d in grid.directions:
                for t in grid.steps:
                    margin = brute_force_h_margin(single, "convex", x, y, d, t)
                    h_center = math.exp(single(x + y) - single(x))
                    if margin / h_center < -tol * max(1.0 / h_center, 1.0):
                        expected.append(margin)
    assert verdict.violation_count == len(expected)
    got = sorted(w.margin for w in verdict.witnesses)
    np.testing.assert_allclose(got, sorted(expected), rtol=1e-10)


def test_log_probe_matches_direct_second_difference():
    model = Laplace1D()
    grid = ProbeGrid(x_range=((-3.0, 3.0, 13),), y_set=([2.0],),
                     directions=([1.0],), steps=(0.5,))
    verdict = probe_property(model, "log-convex", grid, tolerance=1e-9,
                             witness_cap=1000)
    for witness in verdict.witnesses:
        direct = ratio_second_difference(
            lambda p: model.log_density(p), witness.x, witness.y,
            witness.direction, witness.step)
        assert float(direct) == pytest.approx(witness.margin, rel=1e-12)


# ------------------------------------------ shared grid evaluator


def _per_shift_verdict(cells, kind, tol, cap):
    """(points_checked, violation_count, [(position, margin)]) from the
    per-shift oracle cells, witnesses ranked as the probe ranks them."""
    kind = PropertyKind(kind)
    checked = count = 0
    ranked = []
    for yi, di, ti, phi_minus, phi_center, phi_plus in cells:
        margin, _, mask, _ = _margins(kind, phi_minus, phi_center, phi_plus, tol)
        checked += mask.size
        count += int(np.count_nonzero(mask))
        for xi in np.flatnonzero(mask & np.isfinite(margin)).tolist():
            m = float(margin[xi])
            ranked.append((-abs(m), (yi, xi, di, ti), m))
    ranked.sort()
    return checked, count, [(position, m) for _, position, m in ranked[:cap]]


def _kde_2d():
    rng = np.random.default_rng(130)
    return kde_log_density(Sample(rng.laplace(size=(30, 2))))


@pytest.mark.parametrize("model", [
    Laplace1D(),
    Quartic1D(),
    Gaussian(GaussianParams([0.5], [[2.0]])),
    Gaussian(GaussianParams([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]])),
    Gaussian(GaussianParams([0.0, 1.0, -1.0], np.diag([1.0, 2.0, 0.5]))),
    _kde_2d(),
], ids=["laplace", "quartic", "gaussian-1", "gaussian-2", "gaussian-3", "kde-2"])
def test_probe_matches_per_shift_oracle(model):
    grid = ProbeGrid.for_dimension(model.dimension)
    cells = list(per_shift_log_ratios(model, grid))
    tol = default_tolerance(model)
    for cap in (64, 3):
        together = probe_properties(model, list(PropertyKind), grid,
                                    witness_cap=cap)
        assert [v.kind for v in together] == list(PropertyKind)
        for kind, joint in zip(PropertyKind, together):
            checked, count, expected = _per_shift_verdict(cells, kind, tol, cap)
            for verdict in (probe_property(model, kind, grid, witness_cap=cap),
                            joint):
                assert verdict.points_checked == checked
                assert verdict.violation_count == count
                assert [(w.position, w.margin)
                        for w in verdict.witnesses] == expected


def _recording_gaussian_3d(calls):
    gaussian = Gaussian(GaussianParams(np.zeros(3), np.eye(3)))

    def batch(points):
        calls.append(points.shape[0])
        return gaussian.log_density_many(points)

    return Custom(3, gaussian.log_density, batch_evaluator=batch)


def test_probe_properties_evaluate_log_f_once():
    calls = []
    model = _recording_gaussian_3d(calls)
    grid = ProbeGrid.for_dimension(3)
    verdicts = probe_properties(model, list(PropertyKind), grid)
    assert len(verdicts) == 5
    # all five properties cost what one did: each distinct point once
    assert sum(calls) == (343 + 9408) * 67
    assert max(calls) <= _ROW_BUDGET


def test_probe_properties_keeps_order_and_validates():
    model = Laplace1D()
    kinds = ["concave", "convex", "log-convex"]
    verdicts = probe_properties(model, kinds, LAPLACE_EXACT_GRID)
    assert [v.kind.value for v in verdicts] == kinds
    assert probe_properties(model, [], LAPLACE_EXACT_GRID) == ()
    with pytest.raises(UsageError):
        probe_properties(model, ["convex"], ProbeGrid.for_dimension(2))
    with pytest.raises(ValueError):
        probe_properties(model, ["convex", "not-a-property"])


def test_probe_calls_stay_within_row_budget():
    calls = []
    model = _recording_gaussian_3d(calls)
    grid = ProbeGrid.for_dimension(3)
    probe_property(model, "log-convex", grid)
    # the budget is below the largest per-shift stack of the default grids
    # (n = 2: (2 + 4 * 30) * 441 rows)
    assert _ROW_BUDGET <= 53802
    assert max(calls) <= _ROW_BUDGET
    # each distinct point once: 343 base points and 9408 distinct shifted
    # centres, each at itself and at +/- t d for 11 directions x 3 steps
    assert sum(calls) == (343 + 9408) * 67
    # a grid whose single (direction, step) block exceeds the budget
    calls.clear()
    big = ProbeGrid.for_dimension(3, points=25, y_magnitudes=(0.3,), steps=(0.1,))
    probe_property(model, "log-convex", big)
    assert max(calls) <= _ROW_BUDGET
    assert sum(calls) == (25 ** 3 + 6 * 25 ** 3) * 23


def _shifted_centres(grid):
    base = grid.base_points()
    return (base + np.asarray(grid.y_set)[:, None, :]).reshape(-1, base.shape[1])


# the second axis ends at -0.0, and -0.0 + -0.0 is -0.0 where -0.0 + 0.0 is
# 0.0; the shifts +-0.5 and +-1 land many centres on the same points
SIGNED_ZERO_GRID = ProbeGrid(
    x_range=((-1.0, 1.0, 5), (-1.0, -0.0, 3)),
    y_set=([0.5, -0.0], [-0.5, 0.0], [1.0, -0.0], [-1.0, -0.0]),
    directions=([1.0, 0.0],), steps=(0.5,))


@pytest.mark.parametrize("grid", [
    default_test_grid(2),
    default_test_grid(3),
    ProbeGrid.for_dimension(1),
    ProbeGrid.for_dimension(2),
    ProbeGrid.for_dimension(3),
    SIGNED_ZERO_GRID,
], ids=["test-2", "test-3", "probe-1", "probe-2", "probe-3", "signed-zeros"])
def test_distinct_rows_match_unique(grid):
    shifted = _shifted_centres(grid)
    first, inverse = _distinct_rows(shifted)
    expected_first, expected_inverse = distinct_rows_unique(shifted)
    assert np.array_equal(first, expected_first)
    assert np.array_equal(inverse, expected_inverse)


def test_distinct_rows_keep_signed_zeros_apart():
    shifted = _shifted_centres(SIGNED_ZERO_GRID)
    first, inverse = _distinct_rows(shifted)
    assert len(first) < len(shifted)
    np.testing.assert_array_equal(shifted[first][inverse].view(np.int64),
                                  shifted.view(np.int64))
    column = shifted[first][:, 1]
    zero = column == 0.0
    assert np.any(zero & np.signbit(column))
    assert np.any(zero & ~np.signbit(column))


# ------------------------------------------------------------- validation


def test_probe_validates_arguments():
    model = Laplace1D()
    grid2 = ProbeGrid.for_dimension(2)
    with pytest.raises(UsageError):
        probe_property(model, "convex", grid2)
    with pytest.raises(UsageError):
        probe_property(model, "convex", tolerance=-1.0)
    with pytest.raises(UsageError):
        probe_property(model, "convex", witness_cap=0)
    with pytest.raises(ValueError):
        probe_property(model, "not-a-property")


def test_default_tolerance_tiers():
    assert default_tolerance(Laplace1D()) == 1e-9
    assert default_tolerance(Custom(1, lambda p: 0.0)) == 1e-7


# -------------------------------------------------- impossibility scan


@pytest.mark.parametrize("model", [
    Gaussian(GaussianParams([0.0], [[1.0]])),
    Laplace1D(),
    Quartic1D(),
    Gaussian(GaussianParams([1.0, -1.0], [[2.0, 0.5], [0.5, 1.0]])),
])
def test_concavity_scan_returns_replayable_witness(model):
    witness = concavity_impossibility_scan(model)
    assert witness.kind is PropertyKind.CONCAVE
    assert witness.margin > witness.tolerance_used > 0.0
    replayed = replay_witness(model, witness)
    assert replayed == pytest.approx(witness.margin, rel=1e-12)


def test_concavity_scan_expands_until_margin_is_detectable():
    model = Gaussian(GaussianParams([0.0], [[1.0]]))
    tiny = ProbeGrid(x_range=((-1e-3, 1e-3, 3),), y_set=([1e-3],),
                     directions=([1.0],), steps=(1e-3,))
    # the starting grid is too small to clear the tolerance...
    assert not probe_property(model, "concave", tiny).found
    # ...but doubling the extents and shifts eventually surfaces a witness
    witness = concavity_impossibility_scan(model, tiny)
    assert witness.margin > 0.0
    with pytest.raises(InconclusiveScanError):
        concavity_impossibility_scan(model, tiny, max_expansions=0)


def test_gaussian_concavity_witness_regression():
    # on the default grid for a standard normal the strongest concavity
    # violation sits at the corner: log h(x, 4) = -4x - 8, so at x=-5, t=1
    # the margin is h(-5) * (expm1(4) + expm1(-4))
    witness = concavity_impossibility_scan(Gaussian(GaussianParams([0.0], [[1.0]])))
    assert witness.x.tolist() == [-5.0]
    assert witness.y.tolist() == [4.0]
    assert witness.step == 1.0
    expected = math.exp(12.0) * (math.expm1(4.0) + math.expm1(-4.0))
    assert witness.margin == pytest.approx(expected, rel=1e-12)

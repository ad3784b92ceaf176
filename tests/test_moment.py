"""Weighted moment maps, compactified amoeba clouds and Hadamard skeletons."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from hgamoeba import (
    DomainError,
    LaurentPolynomial,
    LogWindow,
    adaptive_window,
    containment_violation,
    facet_description,
    moment_map,
    newton_polytope,
    point_in_wca_gap,
    rasterize_amoeba,
    rasterize_wca,
    skeleton_approximation,
    wca_occupancy,
)
from hgamoeba import moment
from hgamoeba.moment import _moment_from_logs, _zero_locus_log_points, hadamard_clouds

LP = LaurentPolynomial


def small_window(res=100, angles=128, half=8.0):
    return LogWindow(-half, half, -half, half, res, angles)


# -- pointwise moment map -------------------------------------------------


def test_single_monomial_maps_to_its_exponent():
    p = LP(2, {(2, 1): 7})
    assert tuple(moment_map(p, (0.3 + 1j, -2.0))) == (2.0, 1.0)


def test_unweighted_barycenter_at_ones():
    out = moment_map(line := LP(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}),
                     (1.0, 1.0), weighted=False)
    assert np.allclose(out, [1 / 3, 1 / 3])


def test_weighted_two_lines_at_ones():
    p = LP(2, {(1, 0): 1, (0, 1): 1, (1, 1): 6, (2, 2): 1})
    assert np.allclose(moment_map(p, (1.0, 1.0)), [1.0, 1.0])


def test_moment_map_rejects_zero_coordinate():
    with pytest.raises(DomainError):
        moment_map(LP(2, {(1, 0): 1}), (0.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        st.fractions(min_value=Fraction(1, 10), max_value=10),
        min_size=1,
        max_size=8,
    )
)
def test_weighted_moment_at_ones_is_coefficient_barycenter(terms):
    p = LP(2, terms)
    total = sum(p.terms.values())
    expect = [
        sum(c * e[k] for e, c in p.terms.items()) / total for k in range(2)
    ]
    assert np.allclose(moment_map(p, (1.0, 1.0)), [float(v) for v in expect])


def test_moment_map_extreme_point_no_overflow():
    # |x^s| up to 1e390 would overflow a naive weight computation
    p = LP(2, {(0, 0): 1, (3, 0): 1, (0, 3): 1})
    out = moment_map(p, (1e130, 1.0))
    assert np.all(np.isfinite(out))
    assert np.allclose(out, [3.0, 0.0], atol=1e-10)


def whole_moment_from_logs(p, xi_rows, weighted):
    """The moment map of all rows in one piece, as before it ran in blocks."""
    exps = np.array([e for e, _ in p.sorted_terms()], dtype=float)
    logs = xi_rows @ exps.T
    if weighted:
        logs += np.array([float(np.log(abs(float(c)))) for _, c in p.sorted_terms()])
    logs -= logs.max(axis=1, keepdims=True)
    w = np.exp(logs, out=logs)
    return (w @ exps) / w.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("block", [2, 7, 4999, 1 << 14])
def test_blocked_moment_map_matches_the_whole(p3_paper, monkeypatch, weighted, block):
    xi = np.random.default_rng(3).normal(size=(5000, 2)) * 40.0
    expected = whole_moment_from_logs(p3_paper, xi, weighted)
    monkeypatch.setattr(moment, "MOMENT_BLOCK_ROWS", block)
    assert np.array_equal(_moment_from_logs(p3_paper, xi, weighted), expected)


def test_moment_map_of_a_cloud_holds_no_whole_cloud_weight_matrix(p3_paper):
    import tracemalloc

    xi = np.random.default_rng(4).normal(size=(200_000, 2))
    terms = len(p3_paper.terms)
    tracemalloc.start()
    try:
        out = _moment_from_logs(p3_paper, xi, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (200_000, 2)
    # the output plus one block's temporaries, well below one (samples, terms) array
    assert peak < 200_000 * terms * 8 / 2


# -- WCA clouds -----------------------------------------------------------


def test_wca_cloud_contained_in_newton_polytope(p3_paper):
    cloud = rasterize_wca(p3_paper, small_window())
    assert len(cloud.points) > 0
    assert containment_violation(cloud, p3_paper) <= 1e-9


def test_wca_needs_two_variables():
    with pytest.raises(DomainError):
        rasterize_wca(LP(1, {(0,): 1, (1,): 1}))


def test_unweighted_cloud_also_contained(p3_paper):
    cloud = rasterize_wca(p3_paper, small_window(), weighted=False)
    assert containment_violation(cloud, p3_paper) <= 1e-9


# -- one sweep, two views -------------------------------------------------


@pytest.mark.parametrize("name", ["p3_paper", "laurent", "appell_5443"])
def test_cloud_samples_bin_to_the_amoeba_raster(name, request):
    if name == "laurent":
        p = LP(2, {(0, 0): 10, (1, 0): 2, (-1, 0): 1, (0, 1): 1, (0, -1): 3})
    else:
        p = request.getfixturevalue(name)
    w = adaptive_window(p, 48, 64)
    res = w.resolution
    logs = _zero_locus_log_points(p, w)
    ix = np.floor((logs[:, 0] - w.x_min) / ((w.x_max - w.x_min) / res)).astype(int)
    iy = np.floor((logs[:, 1] - w.y_min) / ((w.y_max - w.y_min) / res)).astype(int)
    keep = (ix >= 0) & (ix < res) & (iy >= 0) & (iy < res)
    grid = np.zeros((res, res), dtype=bool)
    grid[ix[keep], iy[keep]] = True
    grid = ndimage.binary_dilation(grid, iterations=1)
    assert grid.any() and not grid.all()
    assert np.array_equal(grid, rasterize_amoeba(p, w).grid)


# -- skeletons ------------------------------------------------------------


def test_skeleton_orders_recorded(p3_paper):
    clouds = skeleton_approximation(p3_paper, [1, 4], small_window(res=60, angles=64))
    assert [c.hadamard_order for c in clouds] == [1.0, 4.0]
    for c in clouds:
        assert containment_violation(c, p3_paper) <= 1e-9


def test_hadamard_clouds_are_made_one_at_a_time(p3_paper):
    w = small_window(res=40, angles=64)
    clouds = hadamard_clouds(p3_paper, [1, 4], w)
    first = next(clouds)
    assert first.hadamard_order == 1.0
    rest = list(clouds)
    want = skeleton_approximation(p3_paper, [1, 4], w)
    assert [c.hadamard_order for c in [first, *rest]] == [1.0, 4.0]
    assert all(np.array_equal(a.points, b.points) for a, b in zip([first, *rest], want))


def test_hadamard_clouds_check_their_arguments_at_the_call(p3_paper):
    with pytest.raises(DomainError):
        hadamard_clouds(LP(2, {(0, 0): 1, (1, 0): -1, (0, 1): 1}), [2])
    with pytest.raises(ValueError):
        hadamard_clouds(p3_paper, [])


def test_skeleton_rejects_signed_coefficients():
    p = LP(2, {(0, 0): 1, (1, 0): -1, (0, 1): 1})
    with pytest.raises(DomainError):
        skeleton_approximation(p, [2])


def test_skeleton_rejects_empty_r_list(p3_paper):
    with pytest.raises(ValueError):
        skeleton_approximation(p3_paper, [])


# -- occupancy and gaps ---------------------------------------------------


def test_occupancy_grid_shape(p3_paper):
    cloud = rasterize_wca(p3_paper, small_window())
    P = newton_polytope(p3_paper)
    grid, (x0, x1, y0, y1) = wca_occupancy(cloud, P, resolution=120)
    assert grid.shape == (120, 120)
    assert (x0, y0) == (0.0, 0.0) and (x1, y1) == (3.0, 3.0)
    assert grid.any()


def test_point_outside_cloud_support_is_gap(p3_paper):
    cloud = rasterize_wca(p3_paper, small_window())
    P = newton_polytope(p3_paper)
    # a corner of the bounding box far outside the Newton polygon
    assert point_in_wca_gap(cloud, P, (0.05, 0.05), resolution=120)
    # far outside the bounding box: reported as not-a-gap
    assert not point_in_wca_gap(cloud, P, (50.0, 50.0), resolution=120)


def test_dense_region_is_not_gap(p3_paper):
    cloud = rasterize_wca(p3_paper, small_window())
    P = newton_polytope(p3_paper)
    # the centroid of the cloud lies in occupied territory
    cx, cy = cloud.points.mean(axis=0)
    assert not point_in_wca_gap(cloud, P, (cx, cy), resolution=80)


def test_points_just_outside_the_box_are_not_gaps():
    line = LP(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    cloud = rasterize_wca(line, small_window(half=5.0))
    P = newton_polytope(line)
    # the bounding box is [0, 1]^2; these lie a hair outside it
    assert not point_in_wca_gap(cloud, P, (-0.001, 0.5))
    assert not point_in_wca_gap(cloud, P, (0.5, -0.001))

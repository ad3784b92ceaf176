"""Amoeba rasters, complement components, orders, lopsidedness, optimality."""

import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.optimize
from scipy import ndimage

from hgamoeba import (
    AmoebaRaster,
    ComplexLaurentPolynomial,
    DomainError,
    LaurentPolynomial,
    LogWindow,
    NeedsDeeperPointError,
    adaptive_window,
    complement_components,
    component_order,
    cross_polytope_optimal,
    lattice_points,
    newton_polytope,
    optimality_report,
    rasterize_amoeba,
    resolved_components,
)
from hgamoeba import amoeba

LP = LaurentPolynomial


def line():
    return LP(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})


def small_window(res=100, angles=128, half=8.0):
    return LogWindow(-half, half, -half, half, res, angles)


# -- windows --------------------------------------------------------------


def test_adaptive_window_is_square_and_padded():
    w = adaptive_window(line())
    assert w.x_min == -w.x_max and w.y_min == -w.y_max
    assert w.x_max >= 5.0


def test_adaptive_window_tracks_large_coefficients():
    p = LP(2, {(0, 0): 1, (1, 0): 10 ** 10, (0, 1): 1})
    w = adaptive_window(p)
    assert w.x_max >= math.log(1e10) - 1.0


def test_adaptive_window_needs_two_variables():
    p = LP(3, {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    with pytest.raises(DomainError, match="two variables"):
        adaptive_window(p)


def loop_adaptive_window(p, resolution=400, angular_samples=512, pad=4.0):
    """Reference window: the tie point of each triple of weighted monomials
    solved one at a time."""
    pts = [(np.array(e, dtype=float), math.log(abs(complex(c)))) for e, c in p.sorted_terms()]
    xs, ys = [0.0], [0.0]
    for (e1, l1), (e2, l2), (e3, l3) in itertools.combinations(pts, 3):
        mat = np.array([e2 - e1, e3 - e1])
        rhs = np.array([l1 - l2, l1 - l3])
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        sol = np.linalg.solve(mat, rhs)
        xs.append(sol[0])
        ys.append(sol[1])
    half = max(5.0, max(xs) + pad, pad - min(xs), max(ys) + pad, pad - min(ys))
    return LogWindow(-half, half, -half, half, resolution, angular_samples)


@pytest.mark.parametrize(
    "name", ["p0_paper", "p1_paper", "p3_paper", "appell_5443", "cross_poly", "hirzebruch_poly"]
)
def test_adaptive_window_equals_the_triple_loop(name, request):
    p = request.getfixturevalue(name)
    assert adaptive_window(p, 200, 256) == loop_adaptive_window(p, 200, 256)


def test_window_validation():
    with pytest.raises(ValueError):
        LogWindow(1.0, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        LogWindow(-1, 1, -1, 1, resolution=8)


@pytest.mark.parametrize(
    "bounds",
    [
        (-math.inf, math.inf, -5, 5),
        (-5, 5, -5, math.inf),
        (math.nan, 5, -5, 5),
        (-1e308, 1e308, -5, 5),  # finite bounds, but the span overflows
        (-5, 5, -1e308, 1e308),
    ],
)
def test_window_bounds_and_spans_must_be_finite(bounds):
    with pytest.raises(ValueError, match="finite"):
        LogWindow(*bounds)


# -- rasterization --------------------------------------------------------


def test_raster_shapes_and_domain_errors():
    r = rasterize_amoeba(line(), small_window())
    assert r.grid.shape == (100, 100)
    assert r.grid.any() and not r.grid.all()
    with pytest.raises(DomainError):
        rasterize_amoeba(LP(2, {(1, 1): 2}), small_window())
    with pytest.raises(DomainError):
        rasterize_amoeba(LP(1, {(0,): 1, (1,): 1}), small_window())
    with pytest.raises(DomainError):
        # one-dimensional support
        rasterize_amoeba(LP(2, {(0, 0): 1, (1, 1): 1, (2, 2): 1}), small_window())


@pytest.mark.parametrize(
    "p",
    [
        LP(2, {(0, 0): 1, (1, 0): 10 ** 400, (0, 1): 3}),
        LP(2, {(0, 0): 1, (1, 0): Fraction(1, 10 ** 400), (0, 1): 3}),
        ComplexLaurentPolynomial(2, {(0, 0): 1, (1, 0): complex(math.inf, 0), (0, 1): 3}),
    ],
    ids=["overflow", "underflow", "infinite"],
)
def test_coefficients_outside_the_float_range_are_domain_errors(p):
    for call in (
        lambda: adaptive_window(p),
        lambda: rasterize_amoeba(p, small_window()),
        lambda: optimality_report(p, small_window()),
    ):
        with pytest.raises(DomainError, match="coefficient"):
            call()


def test_line_amoeba_three_components():
    r = rasterize_amoeba(line(), small_window())
    comps, _ = resolved_components(line(), r)
    assert len(comps) == 3
    assert {c.order for c in comps} == {(0, 0), (1, 0), (0, 1)}
    assert all(not c.bounded for c in comps)


def test_product_of_lines_four_components():
    p = LP(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    r = rasterize_amoeba(p, small_window())
    comps, _ = resolved_components(p, r)
    assert len(comps) == 4
    assert {c.order for c in comps} == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_components_share_the_raster_labels():
    r = rasterize_amoeba(line(), small_window())
    comps = complement_components(r)
    assert r.labels is r.labels
    assert int(r.labels.max()) == len(comps) == 3
    assert np.array_equal(r.labels == 0, r.grid)
    for c in comps:
        assert int((r.labels == c.label).sum()) == c.pixel_count


def _per_label_components(r):
    """Reference labelling: one full-grid mask, depth map and argsort per
    label.  Oracle for counts, boundedness and depths."""
    labels = r.labels
    dist = ndimage.distance_transform_edt(~r.grid)
    out = {}
    for lab in range(1, int(labels.max()) + 1):
        mask = labels == lab
        touches = mask[0, :].any() or mask[-1, :].any() or mask[:, 0].any() or mask[:, -1].any()
        d = np.where(mask, dist, -1.0)
        order_idx = np.argsort(d.ravel())[::-1]
        depths = [float(d.ravel()[k]) for k in order_idx[: min(8, int(mask.sum()))]]
        out[lab] = (int(mask.sum()), not touches, depths)
    return out


def _tied_raster():
    """Hand-made raster: a cross of amoeba pixels, a closed box around a 4x4
    hole (four centre pixels of equal depth) and a closed 2x2 pocket."""
    grid = np.zeros((24, 24), dtype=bool)
    grid[12, :] = grid[:, 12] = True
    grid[2:8, 2] = grid[2:8, 7] = grid[2, 2:8] = grid[7, 2:8] = True
    grid[15:19, 15] = grid[15:19, 18] = grid[15, 15:19] = grid[18, 15:19] = True
    return AmoebaRaster(small_window(res=24), grid)


@pytest.mark.parametrize("which", ["tied", "p3"])
def test_labelling_matches_the_per_label_loop(which, p3_paper):
    if which == "tied":
        r = _tied_raster()
    else:
        r = rasterize_amoeba(p3_paper, adaptive_window(p3_paper, 64, 64))
    oracle = _per_label_components(r)
    comps = complement_components(r)
    assert sorted(c.label for c in comps) == sorted(oracle)
    dist = ndimage.distance_transform_edt(~r.grid)
    for c in comps:
        pix, bounded, depths = oracle[c.label]
        assert (c.pixel_count, c.bounded) == (pix, bounded)
        assert [float(dist[q]) for q in c.deep_pixels] == depths
        assert all(r.labels[q] == c.label for q in c.deep_pixels)
        assert dist[c.deep_pixels[0]] == dist[r.labels == c.label].max()
        assert c.representative == r.window.pixel_center(*c.deep_pixels[0])
        for a, b in zip(c.deep_pixels, c.deep_pixels[1:]):
            assert dist[a] > dist[b] or (dist[a] == dist[b] and a < b)
    if which == "tied":
        assert {c.pixel_count for c in comps if c.bounded} == {16, 4}
        hole = next(c for c in comps if c.pixel_count == 16)
        assert hole.deep_pixels[:4] == [(4, 4), (4, 5), (5, 4), (5, 5)]


def test_laurent_support_is_handled():
    p = LP(2, {(-1, 0): 1, (0, -1): 1, (0, 0): 4, (1, 0): 1, (0, 1): 1})
    r = rasterize_amoeba(p, small_window())
    assert r.grid.any()


# -- orders ---------------------------------------------------------------


def test_component_order_of_line_corners():
    p = line()
    assert component_order(p, (-10.0, -10.0)) == (0, 0)
    assert component_order(p, (10.0, -10.0)) == (1, 0)
    assert component_order(p, (-10.0, 10.0)) == (0, 1)


def test_component_order_stable_within_component():
    p = line()
    base = (8.0, -9.0)
    for dx, dy in [(0, 0), (0.7, 0.3), (-0.4, 0.9), (1.3, -0.8), (0.2, 1.1)]:
        assert component_order(p, (base[0] + dx, base[1] + dy)) == (1, 0)


def test_monomial_factor_shifts_orders():
    p = line()
    q = p.shift((2, 1))
    assert component_order(q, (-10.0, -10.0)) == (2, 1)


# -- orders against independent references ---------------------------------

GENERIC_ANGLE = 0.4136


def _loop_values(p, xi, j, samples, angle_offset):
    exps, coeffs = amoeba._term_arrays(p)
    t = 2.0 * np.pi * np.arange(samples) / samples
    log_x = np.empty((samples, p.n), dtype=complex)
    for k in range(p.n):
        if k == j:
            log_x[:, k] = xi[k] + 1j * t
        else:
            log_x[:, k] = xi[k] + 1j * (GENERIC_ANGLE + angle_offset + 0.1 * k)
    logs = np.array([math.log(abs(c)) for c in coeffs]) + exps @ np.asarray(xi, dtype=float)
    vals = np.einsum("se,te->ts", exps, log_x)
    return (np.exp(vals - logs.max()) * coeffs).sum(axis=1)


def _winding(p, xi, j):
    offset = 0.0
    for _ in range(6):
        samples = 512
        while samples <= 1 << 16:
            vals = _loop_values(p, xi, j, samples, offset)
            mags = np.abs(vals)
            if mags.min() < 1e-8 * max(mags.max(), 1e-300):
                break
            args = np.angle(vals)
            steps = np.diff(np.concatenate([args, args[:1]]))
            steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
            if np.abs(steps).max() < 0.5 * np.pi:
                total = steps.sum() / (2.0 * np.pi)
                nu = round(total)
                if abs(total - nu) > 0.25:
                    break
                return int(nu)
            samples *= 2
        offset += 0.37
    raise NeedsDeeperPointError(f"winding ill-conditioned at {xi}")


def loop_winding_order(p, xi):
    """Reference orders: the winding number of p along the torus loop that
    turns one coordinate while the others stay at a generic angle, sampled
    until every argument step is below pi/2."""
    return tuple(_winding(p, xi, j) for j in range(p.n))


def mp_fiber_counts(p, xi, j, angles=64):
    """Per ring angle (k + 1/2) 2 pi / angles, k < angles / 2: the lowest
    exponent of x_j plus the roots of x_j^(-lowest) p with log|x_j| < xi_j,
    found by ``mpmath.polyroots`` at 20 digits; and the least distance
    |log|x_j| - xi_j| of a root.  For real coefficients the fibers at theta and
    2 pi - theta are conjugate, so half the ring covers it."""
    lo = min(e[j] for e in p.terms)
    counts, margin = [], mpmath.inf
    with mpmath.workdps(20):
        coeffs = [(e, mpmath.mpf(c.numerator) / c.denominator) for e, c in p.terms.items()]
        for k in range(angles // 2):
            theta = 2 * mpmath.pi * (k + mpmath.mpf(1) / 2) / angles
            fiber = {}
            for e, c in coeffs:
                arg = sum(e[i] * (xi[i] + 1j * theta) for i in range(p.n) if i != j)
                fiber[e[j] - lo] = fiber.get(e[j] - lo, 0) + c * mpmath.exp(arg)
            poly = [fiber.get(d, 0) for d in range(max(fiber), -1, -1)]
            roots = mpmath.polyroots(poly, maxsteps=200, extraprec=60) if len(poly) > 1 else []
            logs = [mpmath.log(abs(r)) - xi[j] for r in roots]
            counts.append(lo + sum(1 for v in logs if v < 0))
            margin = min([margin] + [abs(v) for v in logs])
    return counts, margin


@pytest.mark.parametrize("name", ["p1_paper", "p0_paper", "p3_paper", "appell_5443"])
def test_orders_equal_the_loop_sampler_at_deep_pixels(name, request):
    p = request.getfixturevalue(name)
    w = adaptive_window(p, 100, 128)
    points = [w.pixel_center(*pix)
              for c in complement_components(rasterize_amoeba(p, w)) for pix in c.deep_pixels[:3]]
    assert len(points) >= 24
    for xi in points:
        assert component_order(p, xi) == loop_winding_order(p, xi)


def test_orders_equal_mpmath_root_counts():
    """Seeded Laurent polynomials at random points and at points on their
    amoebas: the order is the high-precision count when it is the same at
    every ring angle, and the call raises when it is not."""
    rng = np.random.default_rng(12)
    cells = [(a, b) for a in range(-1, 3) for b in range(-1, 3)]
    seen = {"off": 0, "on": 0}
    for trial in range(8):
        pick = rng.choice(len(cells), size=rng.integers(4, 7), replace=False)
        terms = {cells[i]: float(rng.choice([-1, 1]) * 10 ** rng.uniform(-1.5, 1.5)) for i in pick}
        p = LP(2, terms)
        xi = rng.uniform(-3.0, 3.0, 2)
        if trial % 2:  # on the amoeba: a root of the x-fiber over y = e^(xi_y + i theta0)
            y = np.exp(xi[1] + 2j * np.pi * rng.integers(64) / 64)  # midway between ring angles
            fiber = np.zeros(4, dtype=complex)
            for (a, b), c in terms.items():
                fiber[2 - a] += c * y ** b
            roots = np.roots(np.trim_zeros(fiber, "f"))
            xi[0] = math.log(abs(rng.choice(roots[roots != 0])))
        per_axis = [mp_fiber_counts(p, xi, j) for j in range(2)]
        assert min(m for _, m in per_axis) > 1e-6
        if all(min(c) == max(c) for c, _ in per_axis):
            seen["off"] += 1
            assert component_order(p, xi) == tuple(c[0] for c, _ in per_axis)
        else:
            seen["on"] += 1
            with pytest.raises(NeedsDeeperPointError):
                component_order(p, xi)
    assert seen["off"] >= 3 and seen["on"] >= 3


def test_order_on_the_amoeba_raises():
    """(0, 0) lies on the amoeba of 1 + x + y: the x-root -(1 + y) crosses
    the unit circle as y turns."""
    with pytest.raises(NeedsDeeperPointError):
        component_order(line(), (0.0, 0.0))


def test_nonconverged_roots_raise(monkeypatch):
    solve = amoeba.aberth_roots_batch

    def one_lost(coeffs):
        roots = solve(coeffs)
        roots[0, 0] = np.nan
        return roots

    monkeypatch.setattr(amoeba, "aberth_roots_batch", one_lost)
    with pytest.raises(NeedsDeeperPointError):
        component_order(line(), (10.0, -10.0))
    monkeypatch.setattr(amoeba, "aberth_roots_batch", lambda c: np.full(
        (len(c), c.shape[1] - 1), np.nan, dtype=complex))
    with pytest.raises(NeedsDeeperPointError):
        component_order(line(), (-10.0, -10.0))


def cross_polytope_3d(rng):
    """c + sum_j (a_j x_j + b_j / x_j) in three variables."""
    terms = {(0, 0, 0): float(10 ** rng.uniform(0.0, 2.0))}
    for j in range(3):
        unit = [0, 0, 0]
        unit[j] = 1
        terms[tuple(unit)] = float(10 ** rng.uniform(-2.0, 2.0))
        unit[j] = -1
        terms[tuple(unit)] = float(10 ** rng.uniform(-2.0, 2.0))
    return LP(3, terms)


def lopsided_at(p, xi):
    """Dominant exponent if one weighted monomial outweighs the rest at the
    log-point xi, else None: a dominant exponent puts xi in the complement
    component of that order.  The oracle for the orders in n variables."""
    xi = np.asarray(xi, dtype=float)
    exps, coeffs = amoeba._term_arrays(p)
    logs = np.array([math.log(abs(c)) for c in coeffs]) + exps @ xi
    k = int(np.argmax(logs))
    if np.exp(np.delete(logs, k) - logs[k]).sum() < 1.0:
        return tuple(int(v) for v in exps[k])
    return None


def test_three_variable_orders_equal_lopsided_exponents():
    rng = np.random.default_rng(3)
    checked = set()
    for _ in range(6):
        p = cross_polytope_3d(rng)
        for xi in rng.uniform(-8.0, 8.0, (12, 3)):
            alpha = lopsided_at(p, xi)
            if alpha is not None:
                assert component_order(p, xi) == alpha
                checked.add(alpha)
    assert len(checked) == 7  # the constant and all six vertices


@pytest.mark.parametrize(
    "p",
    [
        LP(1, {(0,): 1, (1,): 1}),
        line(),
        cross_polytope_3d(np.random.default_rng(3)),
        ComplexLaurentPolynomial(2, {(0, 0): 1, (1, 0): 1j, (0, 1): 1}),
    ],
)
def test_component_order_solves_one_fiber_per_coordinate(p, monkeypatch):
    """One solve per coordinate, over half the ring for real coefficients."""
    calls = []
    solve = amoeba._fiber_roots

    def counted(rows):
        calls.append(rows.shape)
        return solve(rows)

    monkeypatch.setattr(amoeba, "_fiber_roots", counted)
    component_order(p, (-12.0,) * p.n)
    real = all(complex(c).imag == 0 for c in p.terms.values())
    solved = amoeba.ORDER_ANGLES // 2 if real else amoeba.ORDER_ANGLES
    assert [rows for rows, _ in calls] == [solved] * p.n


def test_half_ring_orders_equal_the_full_ring(p1_paper, monkeypatch):
    """Conjugate fibers count alike: on and off the amoeba, half the ring of
    a real polynomial gives the order, or the error, of the whole ring."""
    rng = np.random.default_rng(5)
    points = [tuple(xi) for xi in rng.uniform(-12.0, 12.0, (40, 2))]

    def outcomes():
        out = []
        for xi in points:
            try:
                out.append(component_order(p1_paper, xi))
            except NeedsDeeperPointError:
                out.append(None)
        return out

    half = outcomes()
    monkeypatch.setattr(amoeba, "_ring", lambda c, n: 2.0 * np.pi * (np.arange(n) + 0.5) / n)
    assert half == outcomes()
    assert None in half and len(set(half) - {None}) >= 10


# -- lopsidedness ---------------------------------------------------------


def test_lopsided_implies_nonvanishing(p3_paper):
    xi = (15.0, 0.0)
    # certified dominance: the polynomial cannot vanish on that torus fiber
    for t1 in np.linspace(0, 2 * np.pi, 7):
        for t2 in np.linspace(0, 2 * np.pi, 7):
            x = (math.exp(xi[0]) * np.exp(1j * t1), math.exp(xi[1]) * np.exp(1j * t2))
            assert abs(p3_paper.evaluate(x)) > 0


# -- lopsidedness certificates of cyclic resultants ------------------------


def test_cross_polytope_centre_is_certified_iff_optimal():
    """c + a1 x + b1/x + a2 y + b2/y: plain lopsidedness at the LP point is
    sharp, so the centre is certified exactly when the closed form says
    optimal.  Instances lie at least 5 % away from sum sqrt(a_j b_j) = c/2.
    The LP point is the centre of its optimal face, not a vertex the box
    happens to cap, so nearly all vertex orders are certified too."""
    rng = random.Random(20081)
    seen = set()
    vertices = 0
    for _ in range(30):
        a = [rng.uniform(0.2, 5.0) for _ in range(2)]
        b = [rng.uniform(0.2, 5.0) for _ in range(2)]
        s = sum(math.sqrt(x * y) for x, y in zip(a, b))
        c = 2.0 * s * rng.choice([rng.uniform(0.5, 0.95), rng.uniform(1.05, 2.0)])
        p = LP(2, {(0, 0): c, (1, 0): a[0], (-1, 0): b[0], (0, 1): a[1], (0, -1): b[1]})
        points = lattice_points(newton_polytope(p)).points
        certs = amoeba.lopsided_certificates(p, points, amoeba._report_box(adaptive_window(p)))
        optimal = cross_polytope_optimal(a, b, c)
        assert ((0, 0) in certs) is optimal
        seen.add(optimal)
        vertices += len(set(certs) & {(1, 0), (-1, 0), (0, 1), (0, -1)})
    assert seen == {True, False}
    assert vertices >= 110  # of 120


def _lp_case(rng, n):
    """A seeded dominance LP (exps, logs, alpha, box) in n variables: a
    random, collinear or tied support, a box that may cap the optimum, and
    sometimes an alpha that carries no monomial."""
    kind = rng.choice(["random", "collinear", "tied"])
    if kind == "collinear" and n == 2:
        step = rng.choice([(1, 0), (1, 1), (1, 2), (2, -1)])
        ks = rng.sample(range(-6, 7), rng.randint(3, 9))
        exps = [tuple(k * s for s in step) for k in ks]
    else:
        grid = list(itertools.product(range(-4, 5) if n == 2 else range(-2, 3), repeat=n))
        exps = rng.sample(grid, rng.randint(3, 40 if n == 2 else 15))
    if kind == "tied":
        logs = [math.log(rng.choice([1.0, 2.0])) for _ in exps]
    else:
        logs = [rng.gauss(0.0, 3.0) for _ in exps]
    box = []
    for _ in range(n):
        centre, half = rng.uniform(-3.0, 3.0), rng.choice([0.1, 1.0, 5.0, 50.0])
        box.append((centre - half, centre + half))
    alpha = rng.choice(exps)
    if rng.random() < 0.15:
        alpha = tuple(a + rng.choice([-9, 9]) for a in alpha)
    return np.array(exps, dtype=float), np.array(logs), alpha, box


def test_dominance_point_matches_linprog():
    """The numpy LP against scipy's: the margin of alpha at the returned
    point is linprog's optimum, the point lies in the box, and None comes
    back exactly when that optimum is not positive or alpha carries no
    monomial.  The first case is 1 + xy + x^2 y^2, whose middle term at
    best ties the other two: a margin of exactly 0."""
    rng = random.Random(2214)
    tie = (np.array([(0, 0), (1, 1), (2, 2)], dtype=float), np.zeros(3), (1, 1), [(-5, 5)] * 2)
    cases = [tie] + [_lp_case(rng, 2) for _ in range(150)] + [_lp_case(rng, 3) for _ in range(20)]
    outcomes = set()
    for exps, logs, alpha, box in cases:
        xi = amoeba._dominance_point(exps, logs, alpha, box)
        at = (exps == np.array(alpha, dtype=float)).all(axis=1)
        if not at.any():
            assert xi is None
            outcomes.add("no monomial")
            continue
        d, b = exps[~at] - exps[at], logs[at] - logs[~at]
        n = len(box)
        res = scipy.optimize.linprog(
            [0.0] * n + [-1.0], A_ub=np.column_stack([d, np.ones(len(d))]), b_ub=b,
            bounds=list(box) + [(None, None)], method="highs",
        )
        assert res.status == 0
        best = -res.fun
        if best <= 0.0:
            assert xi is None, (alpha, box, best)
            outcomes.add("no margin")
            continue
        assert xi is not None, (alpha, box, best)
        assert all(lo <= v <= hi for v, (lo, hi) in zip(xi, box))
        margin = (b - d @ np.array(xi)).min()
        assert abs(margin - best) <= 1e-9 * (1.0 + abs(best)), (alpha, box, margin, best)
        capped = any(v in (lo, hi) for v, (lo, hi) in zip(xi, box))
        outcomes.add("capped" if capped else "inside")
    assert outcomes == {"no monomial", "no margin", "capped", "inside"}


def _interior(N, alpha):
    return all(f.value(alpha) < 0 for f in N.facets)


@pytest.mark.parametrize("name", ["p0_paper", "p1_paper", "p3_paper"])
def test_certificates_prove_optimal_without_a_raster(name, request, monkeypatch):
    p = request.getfixturevalue(name)

    def no_raster(*args, **kwargs):
        raise AssertionError("rasterize_amoeba called")

    monkeypatch.setattr(amoeba, "rasterize_amoeba", no_raster)
    rep = optimality_report(p)
    N = newton_polytope(p)
    assert rep.optimal is True and rep.vertices_covered
    assert {c.order for c in rep.components} == set(lattice_points(N).points)
    assert len(rep.components) == rep.lattice_point_count
    for c in rep.components:
        assert component_order(p, c.representative) == c.order
        assert c.bounded == _interior(N, c.order)
        assert (c.pixel_count, c.label) == (0, 0)


def _mp_cyclic_resultant(exps, w, k):
    """Q with R_k p(x) = Q(x^k), by multiplying out the k^2 factors
    p(zeta^j x) at 50 digits; asserts that R_k p has no term off k Z^2."""
    with mpmath.workdps(50):
        terms = [(tuple(int(v) for v in e), mpmath.mpc(complex(c))) for e, c in zip(exps, w)]
        prod = {(0, 0): mpmath.mpc(1)}
        for j0 in range(k):
            for j1 in range(k):
                factor = [
                    (e, c * mpmath.expjpi(mpmath.mpf(2 * (j0 * e[0] + j1 * e[1])) / k))
                    for e, c in terms
                ]
                out = {}
                for (a0, a1), x in prod.items():
                    for (b0, b1), y in factor:
                        out[(a0 + b0, a1 + b1)] = out.get((a0 + b0, a1 + b1), 0) + x * y
                prod = out
        top = max(abs(v) for v in prod.values())
        assert all(abs(v) < mpmath.mpf(10) ** -40 * top
                   for e, v in prod.items() if e[0] % k or e[1] % k)
        return {(e[0] // k, e[1] // k): v for e, v in prod.items() if not (e[0] % k or e[1] % k)}


@pytest.mark.parametrize("name", ["cross_poly", "line", "p3_paper"])
def test_cyclic_resultant_error_is_within_its_bound(name, request):
    """At every dominance point, for k = 1, 2, 3: the computed coefficients
    of R_k p are within the computed l1 bound of a 50-digit product."""
    p = line() if name == "line" else request.getfixturevalue(name)
    exps, coeffs = amoeba._term_arrays(p)
    exps -= exps.min(axis=0)
    logs = np.array([math.log(abs(c)) for c in coeffs])
    box = amoeba._report_box(adaptive_window(p))
    checked = 0
    for alpha in sorted(lattice_points(newton_polytope(p)).points):
        xi = amoeba._dominance_point(exps, logs, alpha, box)
        if xi is None:
            continue
        w, rho = amoeba._scaled_coefficients(exps, coeffs, np.round(xi, 6))
        for k in (1, 2, 3):
            resultant = amoeba._cyclic_resultant(exps, w, rho, k)
            if resultant is None:  # p too close to 0 on the grid: nothing to bound
                continue
            q, scale, err = resultant
            exact = _mp_cyclic_resultant(exps, w, k)
            assert set(exact) <= set(np.ndindex(q.shape))
            with mpmath.workdps(50):
                off = sum(abs(exact.get(b, 0) * mpmath.ldexp(1, -scale) - complex(q[b]))
                          for b in np.ndindex(q.shape))
            assert off <= err
            assert err < 1e-9 * np.abs(q).sum()
            checked += 1
    assert checked >= 9


def test_restored_component_on_an_edge_is_unbounded():
    """1 + 3x + x^2 + y: (1, 0) lies on the edge (0,0)-(2,0), not at a
    vertex; restored from its certificate, its component is unbounded."""
    p = LP(2, {(0, 0): 1, (1, 0): 3, (2, 0): 1, (0, 1): 1})
    r = rasterize_amoeba(p, LogWindow(-8, 8, -8, 8, 200, 256))
    gone = next(c for c in complement_components(r)
                if component_order(p, c.representative) == (1, 0))
    filled = AmoebaRaster(r.window, r.grid | (r.labels == gone.label))
    rep = optimality_report(p, raster=filled)
    restored = [c for c in rep.components if c.label == 0]
    assert [(c.order, c.bounded) for c in restored] == [((1, 0), False)]
    assert rep.optimal is True


# -- optimality reports ---------------------------------------------------


def test_line_report_optimal():
    rep = optimality_report(line(), small_window())
    assert rep.optimal is True
    assert rep.lattice_point_count == 3
    orders = [c.order for c in rep.components]
    assert len(orders) == len(set(orders)) and rep.vertices_covered


def test_one_lp_per_lattice_point(monkeypatch):
    """A component filled into the amoeba is restored from one certificate:
    one dominance LP per lattice point, none solved twice."""
    r = rasterize_amoeba(line(), small_window())
    gone = complement_components(r)[0]
    order = component_order(line(), gone.representative)
    filled = AmoebaRaster(r.window, r.grid | (r.labels == gone.label))
    calls = []
    solve = amoeba._dominance_point

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(amoeba, "_dominance_point", counted)
    rep = optimality_report(line(), raster=filled)
    assert len(calls) == 3
    assert rep.optimal is True
    assert [c.order for c in rep.components if c.label == 0] == [order]


def test_support_with_a_gap_is_not_optimal():
    """1 + x^2 + y: the line amoeba under X = x^2, three components for four
    lattice points; (1, 0) carries no monomial and gets no certificate."""
    p = LP(2, {(0, 0): 1, (2, 0): 1, (0, 1): 1})
    rep = optimality_report(p, small_window())
    assert rep.optimal is False
    assert len(rep.components) == 3
    assert rep.lattice_point_count == 4


def test_cross_poly_not_optimal(cross_poly):
    rep = optimality_report(cross_poly, small_window(res=150))
    assert rep.optimal is False
    assert len(rep.components) == 4
    assert (1, 1) not in {c.order for c in rep.components}


def test_report_json_dict(cross_poly):
    rep = optimality_report(cross_poly, small_window(res=150))
    d = rep.to_json_dict()
    assert d["lattice_points"] == 5
    assert d["optimal"] is False
    assert len(d["components"]) == 4


def test_unimodular_change_of_variables_maps_orders():
    """Orders transform by the same exponent matrix as the support."""
    p = line()
    v = [[1, 1], [0, 1]]
    q = p.monomial_substitution(v)
    r = rasterize_amoeba(q, small_window(half=12.0))
    comps, _ = resolved_components(q, r)
    assert {c.order for c in comps} == {(0, 0), (1, 1), (0, 1)}


# -- cross-polytope criterion ---------------------------------------------


def test_cross_polytope_criterion_cases():
    assert not cross_polytope_optimal([1, 1], [1, 1], 4)  # boundary: 2 == 4/2
    assert cross_polytope_optimal([1, 1], [1, 1], 6)
    assert cross_polytope_optimal([1, 1, 1], [1, 1, 1], 16)
    assert not cross_polytope_optimal([4], [4], 8)  # 4 == 8/2 boundary
    assert cross_polytope_optimal([1], [1], 3)


def test_cross_polytope_criterion_validation():
    with pytest.raises(ValueError):
        cross_polytope_optimal([1, 1], [1], 4)
    with pytest.raises(DomainError):
        cross_polytope_optimal([1, -1], [1, 1], 4)
    with pytest.raises(DomainError):
        cross_polytope_optimal([1], [1], 0)

"""Univariate and batched simultaneous root finding."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgamoeba import aberth_roots_batch, amoeba, univariate_roots
from hgamoeba import roots as kernel


def test_linear():
    assert univariate_roots([1, 1]) == [pytest.approx(-1)]
    (r,) = univariate_roots([3, -2])
    assert r == pytest.approx(1.5)


def test_quadratic_imaginary_pair():
    roots = sorted(univariate_roots([1, 0, 1]), key=lambda z: z.imag)
    assert roots[0] == pytest.approx(-1j, abs=1e-10)
    assert roots[1] == pytest.approx(1j, abs=1e-10)


def test_trailing_zero_leading_coefficients_trimmed():
    roots = univariate_roots([2, 1, 0, 0])
    assert len(roots) == 1
    assert roots[0] == pytest.approx(-2)


@pytest.mark.parametrize("coeffs", [[1e-301, 1e-301], [1, 2, 1e-305]])
def test_tiny_nonzero_leading_coefficient_keeps_its_roots(coeffs):
    """Only exact zeros are trimmed: a leading coefficient near the bottom
    of the float range still counts, and its huge roots are returned."""
    roots = univariate_roots(coeffs)
    assert len(roots) == len(coeffs) - 1
    with mpmath.workdps(30):
        ref = mpmath.polyroots(
            [mpmath.mpf(a) for a in coeffs[::-1]], maxsteps=500, extraprec=1000
        )
    for want in (complex(r) for r in ref):
        assert min(abs(z - want) for z in roots) <= 1e-12 * abs(want)


def test_degree_zero_and_zero_polynomial():
    assert univariate_roots([5]) == []
    with pytest.raises(ValueError):
        univariate_roots([0, 0])


def test_known_factorization():
    # (z - 1)(z - 2)(z + 3) = z^3 - 7z + 6
    roots = univariate_roots([6, -7, 0, 1])
    assert sorted(r.real for r in roots) == pytest.approx([-3, 1, 2], abs=1e-9)
    assert max(abs(r.imag) for r in roots) < 1e-9


def test_multiple_root_cluster():
    # (z - 1)^3: cluster accuracy degrades to ~eps^(1/3)
    roots = univariate_roots([-1, 3, -3, 1])
    assert all(abs(r - 1) < 1e-4 for r in roots)


def test_batch_shape_and_values():
    coeffs = np.array([[-1, 0, 1], [-4, 0, 1], [2, -3, 1]], dtype=complex)
    roots = aberth_roots_batch(coeffs)
    assert roots.shape == (3, 2)
    assert sorted(np.real(roots[0])) == pytest.approx([-1, 1], abs=1e-10)
    assert sorted(np.real(roots[1])) == pytest.approx([-2, 2], abs=1e-10)
    assert sorted(np.real(roots[2])) == pytest.approx([1, 2], abs=1e-10)


def test_batch_zero_leading_coefficient_rejected():
    with pytest.raises(ValueError):
        aberth_roots_batch(np.array([[1, 1, 0]], dtype=complex))


def backward_error(coeffs, z) -> float:
    """|p(z)| / sum_k |c_k| |z|^k, evaluated exactly at the float z."""
    with mpmath.workdps(60):
        z = mpmath.mpc(complex(z))
        terms = [mpmath.mpc(complex(a)) * z**k for k, a in enumerate(coeffs)]
        return float(abs(mpmath.fsum(terms)) / mpmath.fsum(abs(t) for t in terms))


def test_roots_meet_backward_error_bound():
    for c in ([6, -7, 0, 1], [-1, 0, 0, 0, 1], [1, 2, 3, 4, 5]):
        roots = univariate_roots(c)
        assert len(roots) == len(c) - 1
        assert max(backward_error(c, z) for z in roots) <= 1e-14


@pytest.mark.parametrize("d", [8, 10, 12])
def test_wide_coefficient_range_matches_mpmath(d):
    """Coefficients spanning 1e-30..1e30: every root is returned, with a
    small backward error, at the log-modulus mpmath finds."""
    rng = np.random.default_rng(d)
    mags = 10.0 ** rng.uniform(-30, 30, size=(6, d + 1))
    coeffs = mags * np.exp(2j * np.pi * rng.random((6, d + 1)))
    roots = aberth_roots_batch(coeffs)
    assert roots.shape == (6, d)
    assert np.isfinite(roots).all()
    for row, got in zip(coeffs, roots):
        assert max(backward_error(row, z) for z in got) <= 1e-12
        with mpmath.workdps(30):
            ref = mpmath.polyroots(
                [mpmath.mpc(complex(a)) for a in row[::-1]],
                maxsteps=200, extraprec=400, cleanup=False,
            )
            ref_logs = sorted(float(mpmath.log(abs(r))) for r in ref)
        assert np.allclose(sorted(np.log(np.abs(got))), ref_logs, atol=1e-9)


def test_huge_and_tiny_roots_together():
    # z^5 overflows at the largest root; its digits must survive anyway
    r = np.array([1e-120, 1e-40, 1.0, 1e40, 1e120])
    got = np.sort(np.abs(aberth_roots_batch(np.poly(r)[::-1][None, :])[0]))
    assert np.allclose(got / r, 1.0, rtol=1e-13)


def test_unconvergeable_root_is_nan():
    # the root of 1e300 + 1e-300 z is -1e600, beyond the float range
    roots = aberth_roots_batch(np.array([[1e300, 1e-300], [1.0, 1.0]], dtype=complex))
    assert np.isnan(roots[0, 0])
    assert roots[1, 0] == pytest.approx(-1.0)


def test_exact_zero_constant_terms_give_zero_roots():
    roots = aberth_roots_batch(np.array([[0, 0, -4, 0, 1], [1, 0, -5, 0, 4]], dtype=complex))
    assert roots[0, :2].tolist() == [0, 0]
    assert sorted(np.real(roots[0, 2:])) == pytest.approx([-2, 2], abs=1e-12)
    assert sorted(np.abs(roots[1])) == pytest.approx([0.5, 0.5, 1, 1], abs=1e-12)


def test_determinism():
    c = [3, 1, -4, 1, 5, -9, 2, 6, 1]
    assert univariate_roots(c) == univariate_roots(c)


coeff_lists = st.lists(
    st.complex_numbers(
        min_magnitude=0.0, max_magnitude=10.0,
        allow_nan=False, allow_infinity=False,
    ),
    min_size=13,
    max_size=13,
)


@settings(max_examples=40, deadline=None)
@given(coeff_lists)
def test_vieta_degree_12(coeffs):
    """Root sum and product match the coefficient formulas to 1e-8."""
    coeffs = list(coeffs)
    # keep constant and leading terms away from zero: a root cluster at the
    # origin or a degree drop would test conditioning, not correctness
    coeffs[0] = coeffs[0] if abs(coeffs[0]) > 1e-2 else 1.0 + 0j
    coeffs[-1] = coeffs[-1] if abs(coeffs[-1]) > 1e-2 else 1.0 + 0j
    roots = univariate_roots(coeffs)
    assert len(roots) == 12
    lead = coeffs[-1]
    s = sum(roots)
    p = 1.0 + 0j
    for r in roots:
        p *= r
    maxr = max(abs(r) for r in roots)
    expected_p = coeffs[0] / lead
    assert abs(s - (-coeffs[-2] / lead)) < 1e-8 * max(1.0, 12 * maxr)
    assert abs(p - expected_p) < 1e-8 * max(1.0, abs(expected_p))


# -- the in-place kernel against the array kernel it replaced ---------------
#
# ``reference_start`` and ``reference_aberth`` are the kernel as it was
# before it computed in place: the hull slopes as one (m, d + 1, d + 1) array,
# Horner on whole gathered coefficient rows.  The in-place kernel performs
# the same floating-point operations in the same order, so its Newton-polygon
# start must equal ``reference_start`` and, from the kernel's own start
# (closed-form roots for degree 1 and 2), its roots must be bitwise equal to
# ``reference_aberth``'s, NaNs included.


def reference_start(c):
    m, width = c.shape
    d = width - 1
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(c))
    logs = np.maximum(logs, -1e300)
    k = np.arange(width)
    gap = k[None, :] - k[:, None]
    upper = gap > 0
    slope = np.full((m, width, width), -np.inf)
    slope[:, upper] = (logs[:, None, :] - logs[:, :, None])[:, upper] / gap[upper]
    tail_max = np.maximum.accumulate(slope[:, :, ::-1], axis=2)[:, :, ::-1]
    tail_max[:, ~upper] = np.inf
    hull = tail_max.min(axis=1)[:, 1:]
    log_r = np.clip(-hull, -kernel._LOG_RADIUS_CAP, kernel._LOG_RADIUS_CAP)
    same_edge = np.isclose(hull[:, :, None], hull[:, None, :], rtol=1e-9, atol=1e-9)
    first = same_edge.argmax(axis=2)
    edge_width = same_edge.sum(axis=2)
    angle = 2.0 * np.pi * ((np.arange(d) - first) / edge_width + first / d) + 0.7
    return np.exp(log_r + 1j * angle)


def reference_aberth(c):
    m, width = c.shape
    d = width - 1
    z = kernel._start(c).ravel()
    tol = kernel.BACKWARD_TOL * d * kernel._EPS
    both = np.stack([c, c[:, ::-1]], axis=1).reshape(-1, width)
    both_abs = np.abs(both)
    idx = np.arange(m * d)
    with np.errstate(all="ignore"):
        for it in range(kernel.MAX_ITER + 1):
            zi = z[idx]
            big = np.abs(zi) > 1.0
            t = np.where(big, 1.0 / zi, zi)
            pick = 2 * (idx // d) + big
            a = both[pick]
            a_abs = both_abs[pick]
            at = np.abs(t)
            val = a[:, d]
            der = np.zeros_like(val)
            size = a_abs[:, d]
            for k in range(d - 1, -1, -1):
                der = der * t + val
                val = val * t + a[:, k]
                size = size * at + a_abs[:, k]
            moving = ~(np.abs(val) <= tol * size)
            idx, zi = idx[moving], zi[moving]
            if idx.size == 0 or it == kernel.MAX_ITER:
                break
            t, val, der, big = t[moving], val[moving], der[moving], big[moving]
            newton = np.where(big, zi * val / (d * val - t * der), val / der)
            row_start = idx - idx % d
            diff = zi[:, None] - z[row_start[:, None] + np.arange(d)]
            diff[np.arange(idx.size), idx % d] = np.inf
            repulsion = (1.0 / diff).sum(axis=1)
            step = newton / (1.0 - newton * repulsion)
            step = np.where(np.isfinite(step), step, newton)
            step = np.where(np.isfinite(newton), step, -1.0 / repulsion)
            step = np.where(np.isfinite(step), step, 0.0)
            z[idx] = zi - step
    z[idx] = np.nan
    return z.reshape(m, d)


def assert_kernel_matches_reference(c):
    assert np.array_equal(kernel._newton_polygon_start(c), reference_start(c))
    assert np.array_equal(kernel._aberth(c), reference_aberth(c), equal_nan=True)


@pytest.mark.parametrize("d", range(1, 13))
def test_kernel_matches_reference_on_wide_coefficients(d):
    rng = np.random.default_rng(1000 + d)
    m = 257
    mags = 10.0 ** rng.uniform(-30, 30, size=(m, d + 1))
    assert_kernel_matches_reference(mags * np.exp(2j * np.pi * rng.random((m, d + 1))))
    c = rng.normal(size=(m, d + 1)) + 1j * rng.normal(size=(m, d + 1))
    c[:, 1:-1][rng.random((m, d - 1)) < 0.4] = 0  # zero interior coefficients
    assert_kernel_matches_reference(c)


def test_kernel_matches_reference_on_a_root_beyond_the_float_range():
    c = np.array([[1e300, 1e-300], [1.0, 1.0], [1e-300, 1e300]], dtype=complex)
    assert np.isnan(kernel._aberth(c)[0, 0])
    assert_kernel_matches_reference(c)


def test_kernel_matches_reference_on_p1_fiber_rows(p1_paper):
    """A block of p1 fiber rows as the sweep builds them, in both axes."""
    exps, coeffs = amoeba._term_arrays(p1_paper)
    ring = amoeba._ring(coeffs, 512)
    for axis in (0, 1):
        log_mod = np.zeros((3, 2))
        log_mod[:, axis] = [-7.9, 0.05, 6.3]
        phases = amoeba._ring_phases(exps, coeffs, 1 - axis, ring)
        rows = amoeba._fiber_rows(exps, np.log(np.abs(coeffs)), 1 - axis, log_mod, phases)
        assert (rows[:, 0] != 0).all() and (rows[:, -1] != 0).all()
        assert_kernel_matches_reference(rows)


@pytest.mark.parametrize(
    "coeffs", [[-1, 0, 1], [4, 0, 1], [-2, 0, 0, 1]], ids=["z2-1", "z2+4", "z3-2"]
)
def test_iterate_on_a_critical_point_moves_off_it(coeffs, monkeypatch):
    """One iterate starts at 0, where p'(0) = 0 makes the Newton correction
    infinite; the Aberth step's limit -1 / S still moves it to a root."""
    start = kernel._start

    def start_on_the_critical_point(c):
        z = start(c)
        z[:, 0] = 0.0
        return z

    monkeypatch.setattr(kernel, "_start", start_on_the_critical_point)
    c = np.array([coeffs], dtype=complex)
    roots = kernel._aberth(c)[0]
    assert np.isfinite(roots).all()
    d = len(coeffs) - 1
    assert max(backward_error(coeffs, z) for z in roots) <= kernel.BACKWARD_TOL * d * kernel._EPS
    for want in np.roots(coeffs[::-1]):
        assert np.min(np.abs(roots - want)) <= 1e-14 * abs(want)
    assert_kernel_matches_reference(c)


def test_kernel_roots_do_not_depend_on_the_batch():
    rng = np.random.default_rng(11)
    c = 10.0 ** rng.uniform(-8, 8, size=(600, 7)) * np.exp(2j * np.pi * rng.random((600, 7)))
    whole = aberth_roots_batch(c)
    parts = np.concatenate([aberth_roots_batch(c[k : k + 97]) for k in range(0, 600, 97)])
    assert np.array_equal(whole, parts, equal_nan=True)


def test_kernel_memory_peak_on_a_sweep_block():
    """2048 degree-6 rows, one block of the sweep, peak at most 5 MB."""
    rng = np.random.default_rng(6)
    c = rng.normal(size=(2048, 7)) + 1j * rng.normal(size=(2048, 7))
    tracemalloc.start()
    try:
        aberth_roots_batch(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5e6


# -- closed-form starts of degree 1 and 2 -----------------------------------


def wide_rows(rng, d):
    """Seeded rows of degree d: coefficient moduli spanning 1e+-30, and
    roots of modulus 1e+-150."""
    m = 40
    c = 10.0 ** rng.uniform(-30, 30, (m, d + 1)) * np.exp(2j * np.pi * rng.random((m, d + 1)))
    r = 10.0 ** rng.uniform(-150, 150, (m, d)) * np.exp(2j * np.pi * rng.random((m, d)))
    if d == 1:
        lead = 10.0 ** rng.uniform(-150, 150, m)
        return np.concatenate([c, np.stack([-r[:, 0] * lead, lead], axis=1)])
    return np.concatenate([c, np.stack([r[:, 0] * r[:, 1], -(r[:, 0] + r[:, 1]), np.ones(m)], axis=1)])


DOUBLE_ROOTS = np.array([3.0, -2.5, 0.75 + 1.25j, 1j, 1024.0 - 0.5j])


def double_root_rows():
    """(z - r)^2 with every coefficient exact in floating point."""
    return np.stack([DOUBLE_ROOTS**2, -2 * DOUBLE_ROOTS, np.ones(len(DOUBLE_ROOTS))], axis=1)


def special_rows(rng, d):
    """Seeded rows of degree d with coefficients of modulus about 1; for
    d = 2 also b = 0, and positive, negative and imaginary discriminants."""
    m = 40
    c = rng.normal(size=(m, d + 1)) + 1j * rng.normal(size=(m, d + 1))
    if d == 1:
        return c
    rows = [c, np.stack([c[:, 0], np.zeros(m), c[:, 2]], axis=1)]  # b = 0
    a, b = rng.uniform(0.5, 2.0, (2, m))
    for disc in (b * b / 2, -b * b, 2j * b * b):  # b^2 - 4ac = disc
        rows.append(np.stack([(b * b - disc) / (4 * a), b, a], axis=1))
    return np.concatenate(rows).astype(complex)


def mpmath_roots(row):
    """The roots to 50 digits: the textbook formulas, at enough digits that
    the cancellation in -b + sqrt(b^2 - 4ac) over the float range costs none
    of those 50."""
    with mpmath.workdps(1300):
        c = [mpmath.mpc(complex(a)) for a in row]
        if len(c) == 2:
            return [complex(-c[0] / c[1])]
        s = mpmath.sqrt(c[1] ** 2 - 4 * c[2] * c[0])
        return [complex((-c[1] + s) / (2 * c[2])), complex((-c[1] - s) / (2 * c[2]))]


def assert_roots_match_mpmath(rows, roots, rel):
    """Every root finite, within the backward-error bound, and within
    ``rel`` of its mpmath root."""
    assert np.isfinite(roots).all()
    d = rows.shape[1] - 1
    tol = kernel.BACKWARD_TOL * d * kernel._EPS
    for row, got in zip(rows, roots):
        assert max(backward_error(row, z) for z in got) <= tol
        want = mpmath_roots(row)
        err = min(
            max(abs(z - w) / abs(w) for z, w in zip(got, perm))
            for perm in (want, want[::-1])
        )
        assert err <= rel


# a power of two scales a row exactly and moves no root; beyond about
# 2^+-511, b^2 or 4ac overflows or underflows in the closed form, so such
# rows fall back to the Newton-polygon start or iterate on from a poor start
SCALES = [0, 100, -100, 500, -500, 540, -540, 670, -670]


@pytest.mark.parametrize("d", [1, 2])
def test_closed_form_start_on_wide_rows(d):
    rng = np.random.default_rng(77 + d)
    rows = wide_rows(rng, d)
    assert_roots_match_mpmath(rows, aberth_roots_batch(rows), 1e-10)


@pytest.mark.parametrize("log2_scale", SCALES)
@pytest.mark.parametrize("d", [1, 2])
def test_closed_form_start_on_scaled_rows(d, log2_scale):
    rows = special_rows(np.random.default_rng(79 + d), d) * 2.0**log2_scale
    assert_roots_match_mpmath(rows, aberth_roots_batch(rows), 1e-10)


@pytest.mark.parametrize("log2_scale", SCALES)
def test_double_roots(log2_scale):
    """Exact while b^2 is a normal number: the closed form gives the double
    root at once.  Where b^2 overflows or underflows the row iterates from
    the Newton-polygon start to a pair about sqrt(eps) apart, as a double
    root's conditioning allows."""
    rows = double_root_rows() * 2.0**log2_scale
    roots = aberth_roots_batch(rows)
    if abs(log2_scale) <= 500:
        assert (roots == DOUBLE_ROOTS[:, None]).all()
    assert_roots_match_mpmath(rows, roots, 1e-7)


def test_closed_form_starts_need_no_iteration(cross_poly, monkeypatch):
    """Every fiber of the cross-polytope sweep at 400/512 is a quadratic whose
    closed-form roots already pass the stopping test: with no iterations
    allowed, no root is NaN, and each column keeps 2 roots per angle."""
    monkeypatch.setattr(kernel, "MAX_ITER", 0)
    w = amoeba.adaptive_window(cross_poly, 400, 512)
    counts = [len(vals) for _, _, _, vals in amoeba._sweep(cross_poly, w)]
    assert counts == [2 * 512] * 800

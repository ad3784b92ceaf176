"""Univariate and batched simultaneous root finding."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgamoeba import aberth_roots_batch, univariate_roots


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

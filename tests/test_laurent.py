"""Exact Laurent polynomial arithmetic, evaluation and transformations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgamoeba import (
    ComplexLaurentPolynomial,
    DomainError,
    InexactCoefficientError,
    InvalidTransformError,
    LaurentPolynomial,
    newton_polytope,
    require_exact,
)

LP = LaurentPolynomial


def x_plus_y():
    return LP(2, {(1, 0): 1, (0, 1): 1, (0, 0): 1})


# -- construction and equality -------------------------------------------


def test_zero_coefficients_dropped():
    p = LP(2, {(1, 0): 1, (0, 1): 0})
    assert p.support == {(1, 0)}


def test_terms_merge_and_cancel():
    p = LP(1, {(2,): 3}) + LP(1, {(2,): -3})
    assert p.is_zero()


def test_equality_with_rational():
    assert LP(2, {(0, 0): Fraction(3, 2)}) == Fraction(3, 2)
    assert LP(2, {(1, 0): 1}) != 1


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        LP(2, {(1,): 1})
    with pytest.raises(ValueError):
        x_plus_y() + LP(1, {(1,): 1})


# -- arithmetic -----------------------------------------------------------


def test_product_expansion():
    p = (1 + LP(2, {(1, 0): 1})) * (1 + LP(2, {(0, 1): 1}))
    assert p == LP(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_power_matches_repeated_product():
    p = x_plus_y()
    assert p ** 3 == p * p * p
    assert p ** 0 == 1


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        x_plus_y() ** -1


# -- evaluation -----------------------------------------------------------


def test_cross_polynomial_vanishes_at_minus_ones(cross_poly):
    assert cross_poly.evaluate((-1, -1)) == 0


def test_evaluate_exact_rational_point():
    p = LP(2, {(2, 1): Fraction(7), (-1, 0): Fraction(1, 2)})
    val = p.evaluate_exact((Fraction(1, 2), Fraction(3)))
    assert val == 7 * Fraction(1, 4) * 3 + Fraction(1, 2) * 2


def test_evaluate_zero_with_negative_exponent_raises():
    p = LP(2, {(-1, 0): 1})
    with pytest.raises(DomainError):
        p.evaluate((0, 1))
    with pytest.raises(DomainError):
        p.evaluate_exact((0, 1))


# -- monomial substitution ------------------------------------------------


def test_substitution_shear():
    p = x_plus_y()
    q = p.monomial_substitution([[1, 1], [0, 1]])
    assert q == LP(2, {(0, 0): 1, (1, 1): 1, (0, 1): 1})


def test_substitution_scale_and_shift():
    p = LP(2, {(1, 0): 1})
    q = p.monomial_substitution([[1, 0], [0, 1]], t=(Fraction(3), 1), a=(0, 2))
    assert q == LP(2, {(1, 2): 3})


def test_substitution_power():
    p = x_plus_y()
    q = p.monomial_substitution([[1, 0], [0, 1]], ell=2)
    assert q == p * p


def test_complex_power_matches_repeated_product():
    # small integer parts keep every product exact in floating point
    p = ComplexLaurentPolynomial(2, {(1, 0): 1 + 2j, (0, 1): -3, (-1, 1): 2j})
    ref = ComplexLaurentPolynomial(2, {(0, 0): 1})
    for k in range(8):
        assert (p ** k).terms == ref.terms, k
        ref = ref * p
    with pytest.raises(ValueError):
        p ** -1


def as_complex(p):
    return {e: complex(c) for e, c in p.terms.items()}


@pytest.mark.parametrize("seed", range(4))
def test_complex_flavour_agrees_with_the_exact_one(seed):
    """Small integer coefficients, dyadic scales and powers of two as points
    keep every floating product and sum exact, so the floating flavour must
    reproduce the exact results converted to complex."""
    rng = random.Random(seed)

    def draw():
        return LP(2, {
            (rng.randint(-2, 2), rng.randint(-2, 2)): rng.choice([-3, -2, -1, 1, 2, 3])
            for _ in range(rng.randint(1, 5))
        })

    for _ in range(25):
        p, q = draw(), draw()
        fp, fq = ComplexLaurentPolynomial(2, p.terms), ComplexLaurentPolynomial(2, q.terms)
        assert (fp * fq).terms == as_complex(p * q)
        k = rng.randint(0, 4)
        assert (fp ** k).terms == as_complex(p ** k)
        v = rng.choice([[[1, 0], [0, 1]], [[1, 1], [0, 1]], [[2, -1], [1, 1]]])
        scale = [rng.choice([1, -2, 4]) * Fraction(1, rng.choice([1, 2, 8])) for _ in range(2)]
        a = (rng.randint(-2, 2), rng.randint(-2, 2))
        ell = rng.randint(1, 2)
        floating = p.monomial_substitution(v, t=[float(c) for c in scale], a=a, ell=ell)
        assert isinstance(floating, ComplexLaurentPolynomial)
        assert floating.terms == as_complex(p.monomial_substitution(v, t=scale, a=a, ell=ell))
        s = [Fraction(rng.choice([-1, 1]) * 2 ** rng.randint(-3, 3)) for _ in range(2)]
        assert p.evaluate([float(x) for x in s]) == complex(p.evaluate_exact(s))


def test_substitution_singular_rejected():
    with pytest.raises(InvalidTransformError):
        x_plus_y().monomial_substitution([[1, 1], [1, 1]])


def test_substitution_zero_scale_rejected():
    with pytest.raises(DomainError):
        x_plus_y().monomial_substitution([[1, 0], [0, 1]], t=(0, 1))


@pytest.mark.parametrize("terms, t, ell", [
    ({(100, 0): 1, (0, 1): 1}, (1e10, 1), 1),  # the power overflows to NaN
    ({(100, 0): 1, (0, 1): 1}, (1e-10, 1), 1),  # the power underflows to 0
    ({(-100, 0): 1, (0, 1): 1}, (1e-10, 1), 1),  # 1 / (a power that underflows)
    ({(1, 0): 1, (0, 1): 1}, (float("nan"), 1), 1),
    ({(100, 0): 1, (0, 1): 1}, (float("inf"), 1), 1),
    ({(1, 0): 1e300, (0, 1): 1}, (1e200, 1), 1),  # the product overflows
    ({(1, 0): 1e200, (0, 1): 1}, (1.0, 1), 2),  # the ell-th power overflows
])
def test_substitution_float_scale_out_of_range_rejected(terms, t, ell):
    with pytest.raises(DomainError):
        LP(2, terms).monomial_substitution([[1, 0], [0, 1]], t=t, ell=ell)


def test_float_product_out_of_range_rejected():
    """(1e-200 x + y)^2 has the coefficient 1e-400 at x^2, which underflows:
    the product raises instead of dropping the term."""
    with pytest.raises(DomainError):
        LP(2, {(1, 0): 1e-200, (0, 1): 1}).monomial_substitution(
            [[1, 0], [0, 1]], t=(1.0, 1), ell=2
        )
    q = ComplexLaurentPolynomial(2, {(1, 0): 1e-200, (0, 1): 1})
    for bad in (lambda: q * q, lambda: q ** 2,
                lambda: ComplexLaurentPolynomial(2, {(0, 0): 1e200}) ** 2):
        with pytest.raises(DomainError):
            bad()
    assert len((ComplexLaurentPolynomial(2, {(1, 0): 1e-100, (0, 1): 1}) ** 2).terms) == 3


def test_substitution_irrational_scale_goes_inexact():
    q = x_plus_y().monomial_substitution([[1, 0], [0, 1]], t=(2.0 ** 0.5, 1))
    assert isinstance(q, ComplexLaurentPolynomial)
    with pytest.raises(InexactCoefficientError):
        require_exact(q)


unimodular = st.sampled_from(
    [
        [[1, 0], [0, 1]],
        [[1, 1], [0, 1]],
        [[1, 0], [1, 1]],
        [[0, 1], [-1, 0]],
        [[2, 1], [1, 1]],
        [[1, -2], [0, -1]],
    ]
)

small_polys = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.fractions(min_value=-5, max_value=5),
    min_size=1,
    max_size=6,
).map(lambda d: LP(2, d))


def _matmul(v, w):
    return [
        [sum(v[i][k] * w[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]


@settings(max_examples=60, deadline=None)
@given(small_polys, unimodular, unimodular)
def test_substitution_composition(p, v, w):
    """Substituting by v then w equals a single substitution by v @ w."""
    lhs = p.monomial_substitution(v).monomial_substitution(w)
    assert lhs == p.monomial_substitution(_matmul(v, w))


@settings(max_examples=60, deadline=None)
@given(small_polys, unimodular)
def test_substitution_round_trip(p, v):
    det = v[0][0] * v[1][1] - v[0][1] * v[1][0]
    inv = [[v[1][1] // det, -v[0][1] // det], [-v[1][0] // det, v[0][0] // det]]
    assert p.monomial_substitution(v).monomial_substitution(inv) == p


# -- Hadamard powers ------------------------------------------------------


def test_hadamard_integer_power_exact():
    p = LP(2, {(1, 0): Fraction(2, 3), (0, 1): -5})
    q = p.hadamard_power(3)
    assert q == LP(2, {(1, 0): Fraction(8, 27), (0, 1): -125})


def test_hadamard_zero_power_gives_indicator():
    p = LP(2, {(1, 0): 7, (0, 1): -2})
    assert p.hadamard_power(0) == LP(2, {(1, 0): 1, (0, 1): 1})


def test_hadamard_fractional_needs_positive_coefficients():
    with pytest.raises(DomainError):
        LP(2, {(1, 0): -1}).hadamard_power(0.5)


@pytest.mark.parametrize(
    "coeff, r",
    [
        (Fraction(1, 5), 500.0),  # 0.2^500 underflows to 0: the term would vanish
        (2, 1e6),  # 2^1e6 overflows
        (2, float("nan")),
        (2, float("inf")),
        (2, float("-inf")),
        (10 ** 400, 0.5),  # the coefficient itself is no float
        (Fraction(1, 10 ** 400), 0.5),
        (Fraction(1, 10 ** 400), -0.5),
    ],
)
def test_hadamard_floating_power_outside_the_float_range_is_a_domain_error(coeff, r):
    p = LP(2, {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): coeff})
    with pytest.raises(DomainError, match="float range"):
        p.hadamard_power(r)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=Fraction(1, 8), max_value=8),
        min_size=1,
        max_size=5,
    ),
    st.floats(0.25, 4.0),
    st.floats(0.25, 4.0),
)
def test_hadamard_power_additivity(terms, r1, r2):
    """Coefficientwise: c^(r1+r2) == c^r1 * c^r2 up to roundoff."""
    p = LP(2, terms)
    q = p.hadamard_power(r1 + r2)
    a = p.hadamard_power(r1)
    b = p.hadamard_power(r2)
    for e in p.support:
        lhs = q.terms[e]
        rhs = a.terms[e] * b.terms[e]
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


# -- scaling and geometry -------------------------------------------------


def test_scaled_to_integers_canonical():
    p = LP(2, {(1, 0): Fraction(2, 3), (0, 1): Fraction(4, 9)})
    q = p.scaled_to_integers()
    assert q == LP(2, {(1, 0): 3, (0, 1): 2})


@settings(max_examples=40, deadline=None)
@given(small_polys, st.fractions(min_value=Fraction(1, 7), max_value=7))
def test_scaled_to_integers_scale_invariant(p, c):
    assert (p * c).scaled_to_integers() == p.scaled_to_integers()


def test_shift():
    p = LP(2, {(1, 0): 2})
    assert p.shift((-1, 3)) == LP(2, {(0, 3): 2})


def test_newton_polytope_minkowski_sum_support_function():
    """N(pq) = N(p) + N(q): support functions add over sample directions."""
    p = LP(2, {(0, 0): 1, (2, 1): 3, (0, 3): 1})
    q = LP(2, {(1, 0): 1, (0, 2): 2, (-1, -1): 5})

    def h(P, d):
        return max(d[0] * v[0] + d[1] * v[1] for v in P.vertices)

    Np, Nq, Npq = newton_polytope(p), newton_polytope(q), newton_polytope(p * q)
    for d in [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 2), (3, -2), (-1, -1)]:
        assert h(Npq, d) == h(Np, d) + h(Nq, d)

"""Named polynomial families: Appell F1, Gauss 2F1, Toeplitz minors,
ball-biorthogonal basis."""

from fractions import Fraction

import pytest

from hgamoeba import (
    DomainError,
    F1Parameters,
    LaurentPolynomial,
    appell_f1,
    aster_scatter,
    biorthogonal_vtilde,
    chebyshev_dense,
    gauss_2f1_polynomial,
    lattice_points,
    newton_polytope,
    pochhammer,
    toeplitz_chebyshev,
)

LP = LaurentPolynomial


# -- Pochhammer -----------------------------------------------------------


def test_pochhammer_basics():
    assert pochhammer(Fraction(3), 0) == 1
    assert pochhammer(Fraction(3), 4) == 3 * 4 * 5 * 6
    assert pochhammer(Fraction(-2), 3) == 0
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)


# -- Appell F1 ------------------------------------------------------------


def test_f1_simplest_case():
    assert appell_f1(F1Parameters(-1, -1, -1, 1)) == LP(
        2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    )


def test_f1_pentagon_instance(appell_5443):
    p = appell_5443
    assert len(p.terms) == 19
    # first-order coefficients: a*b1/c and a*b2/c
    assert p.coefficient((1, 0)) == Fraction((-5) * (-4), 3)
    assert p.coefficient((0, 1)) == Fraction((-5) * (-4), 3)
    assert set(newton_polytope(p).vertices) == {
        (0, 0), (4, 0), (4, 1), (1, 4), (0, 4)
    }
    # optimal candidates fill the pentagon
    assert len(lattice_points(newton_polytope(p)).points) == 19


def test_f1_triangle_instance():
    p = appell_f1(F1Parameters(-4, 5, -7, 9))
    N = newton_polytope(p)
    assert set(N.vertices) == {(0, 0), (4, 0), (0, 4)}


def test_f1_coefficient_formula():
    params = F1Parameters(-3, -2, Fraction(1, 2), Fraction(5, 3))
    p = appell_f1(params)
    m, n = 2, 1
    expected = (
        pochhammer(params.a, m + n)
        * pochhammer(params.b1, m)
        * pochhammer(params.b2, n)
        / (pochhammer(params.c, m + n) * 2 * 1)
    )
    assert p.coefficient((m, n)) == expected


def test_f1_nonterminating_rejected():
    with pytest.raises(DomainError):
        appell_f1(F1Parameters(Fraction(1, 2), 1, 1, 3))


def test_f1_pole_in_support_rejected():
    with pytest.raises(DomainError):
        appell_f1(F1Parameters(-3, -1, -1, -1))


# -- Gauss 2F1 ------------------------------------------------------------


def test_2f1_linear():
    b, c = Fraction(2), Fraction(5)
    assert gauss_2f1_polynomial(-1, b, c) == [1, -b / c]


def test_2f1_binomial_square():
    # 2F1(-2, b; b; x) = (1 - x)^2 for any b (here b = c)
    assert gauss_2f1_polynomial(-2, Fraction(7, 3), Fraction(7, 3)) == [1, -2, 1]


def test_2f1_binomial_degree_12():
    from math import comb

    coeffs = gauss_2f1_polynomial(-12, Fraction(1, 10), Fraction(1, 10))
    assert coeffs == [Fraction((-1) ** k * comb(12, k)) for k in range(13)]


def test_2f1_positive_a_rejected():
    with pytest.raises(DomainError):
        gauss_2f1_polynomial(2, 1, 1)


def test_2f1_pole_rejected():
    with pytest.raises(DomainError):
        gauss_2f1_polynomial(-3, 1, -1)


# -- aster scatter --------------------------------------------------------


def test_aster_counts_and_pole_skipping():
    rows = aster_scatter(-12, [Fraction(1, 2), Fraction(1)], [Fraction(1, 2)])
    # two valid instances, 12 roots each
    assert len(rows) == 24
    assert {(b, c) for b, c, _ in rows} == {
        (Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))
    }
    # c = -1 hits a Pochhammer zero in the denominator and is skipped
    rows = aster_scatter(-12, [Fraction(1, 2)], [Fraction(-1)])
    assert rows == []


def test_aster_roots_are_roots():
    rows = aster_scatter(-3, [Fraction(2)], [Fraction(3)])
    coeffs = gauss_2f1_polynomial(-3, Fraction(2), Fraction(3))
    for _, _, z in rows:
        val = sum(complex(c) * z ** k for k, c in enumerate(coeffs))
        assert abs(val) < 1e-8


# -- Toeplitz minors -------------------------------------------------------


def test_toeplitz_small_cases():
    x = LP.variable(2, 0)
    y = LP.variable(2, 1)
    assert toeplitz_chebyshev(1, "first") == x
    assert toeplitz_chebyshev(1, "last") == y
    assert toeplitz_chebyshev(2, "first") == x * x - y
    assert toeplitz_chebyshev(2, "last") == y * y - x
    assert toeplitz_chebyshev(3, "first") == x ** 3 - 2 * x * y + 1


def _cofactor_det(rows):
    """Reference determinant: plain cofactor expansion along the first row."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    det = LP.zero(2)
    for j in range(k):
        if rows[0][j].is_zero():
            continue
        minor = [[r[m] for m in range(k) if m != j] for r in rows[1:]]
        cof = rows[0][j] * _cofactor_det(minor)
        det = det + cof if j % 2 == 0 else det - cof
    return det


@pytest.mark.parametrize("convention", ["first", "last"])
def test_toeplitz_matches_cofactor_expansion(convention):
    x, y, one = LP.variable(2, 0), LP.variable(2, 1), LP.constant(2, 1)
    band = {0: x, 1: y, -1: one, 2: one}
    for k in range(1, 10):
        cols = range(k) if convention == "first" else range(1, k + 1)
        rows = [[band.get(j - i, LP.zero(2)) for j in cols] for i in range(k)]
        ref = _cofactor_det(rows)
        assert toeplitz_chebyshev(k, convention) == ref, k
        # the dense form still maps back onto the reference minor
        q = chebyshev_dense(k, convention).monomial_substitution([[1, 1], [-1, 2]])
        shift = tuple(
            min(e[d] for e in ref.terms) - min(e[d] for e in q.terms) for d in range(2)
        )
        assert q.shift(shift) == ref, k


def test_toeplitz_bad_arguments():
    with pytest.raises(ValueError):
        toeplitz_chebyshev(0)
    with pytest.raises(ValueError):
        toeplitz_chebyshev(2, "middle")


def test_chebyshev_dense_coordinates():
    """In the xi = xy, eta = y^2/x coordinates the minors become dense."""
    from hgamoeba import DegeneratePolytopeError, LatticeSupport, is_zn_convex

    for k in range(2, 7):
        q = chebyshev_dense(k)
        try:
            N = newton_polytope(q)
        except DegeneratePolytopeError:
            # one-dimensional support (k = 2): density = no lattice gaps
            assert is_zn_convex(LatticeSupport.of(2, q.support)), k
            continue
        assert lattice_points(N).points == frozenset(q.support), k


def test_chebyshev_dense_round_trip():
    """Substituting the sublattice basis back recovers the minor."""
    for k in (3, 6):
        p = toeplitz_chebyshev(k)
        q = chebyshev_dense(k).monomial_substitution([[1, 1], [-1, 2]])
        # equal up to the monomial factor stripped during condensing
        shift = tuple(
            min(e[d] for e in p.terms) - min(e[d] for e in q.terms)
            for d in range(2)
        )
        assert q.shift(shift) == p


# -- ball-biorthogonal basis ----------------------------------------------


def test_biorthogonal_base_cases():
    assert biorthogonal_vtilde((0, 0)) == 1
    assert biorthogonal_vtilde((1, 0)) == 1
    assert biorthogonal_vtilde((0, 1)) == 1


def test_biorthogonal_small_explicit():
    # alpha = (2, 0): coefficient of a1^2 in (1 - 2<a,x> + |a|^2)^(-1/2)
    # is (3/2) x1^2 - 1/2; stripping nothing and halving exponents in x1^2
    v = biorthogonal_vtilde((2, 0))
    assert v == LP(2, {(1, 0): Fraction(3, 2), (0, 0): Fraction(-1, 2)})


def test_biorthogonal_6_10_dense_rectangle():
    v = biorthogonal_vtilde((6, 10))
    assert len(v.terms) == 24
    assert set(v.support) == {(i, j) for i in range(4) for j in range(6)}


def test_biorthogonal_needs_two_variables():
    with pytest.raises(DomainError):
        biorthogonal_vtilde((3,))

"""Ore-Sato coefficients, canonical polytope coefficients and Horn systems."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from hgamoeba import (
    DegeneratePolytopeError,
    DomainError,
    GammaFactor,
    LatticeSupport,
    LaurentPolynomial,
    LinearForm,
    OreSatoCoefficient,
    annihilator_for_support,
    apply_horn_operator,
    facet_description,
    horn_system,
    hypergeometric_polynomial,
    is_horn_solution,
    lattice_points,
    polynomial_from_coefficient,
    psi_coefficient,
    psi_from_polytope,
    reflect_to_reciprocal,
)
from conftest import QUADRILATERAL_VERTICES

LP = LaurentPolynomial


def affine(n, A, c):
    terms = {(0,) * n: Fraction(c)}
    for j, a in enumerate(A):
        if a:
            e = [0] * n
            e[j] = 1
            terms[tuple(e)] = Fraction(a)
    return LP(n, terms)


def pair_matches(derived, ref):
    """Operator pairs are canonical up to a simultaneous sign per pair."""
    P, Q = derived
    Pr, Qr = ref
    return (P == Pr and Q == Qr) or (P == -1 * Pr and Q == -1 * Qr)


# -- canonical polytope coefficient --------------------------------------


def test_psi_cross_polytope_values():
    P = facet_description([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert psi_coefficient(P, (0, 0)) == 1
    assert psi_coefficient(P, (1, 0)) == Fraction(1, 4)
    assert psi_coefficient(P, (2, 0)) == 0  # outside
    assert psi_coefficient(P, (1, 1)) == 0  # outside


def test_psi_hirzebruch_values():
    P = facet_description([(1, 0), (0, 1), (-1, 1), (0, -1)]).canonical_translate()
    vals = {s: 12 * psi_coefficient(P, s) for s in lattice_points(P).points}
    assert vals == {
        (1, 0): 3, (1, 1): 12, (2, 1): 2, (0, 2): 2, (1, 2): 3,
    }


def test_psi_positive_exactly_on_polytope():
    P = facet_description(QUADRILATERAL_VERTICES)
    for sx in range(-1, 5):
        for sy in range(-1, 5):
            v = psi_coefficient(P, (sx, sy))
            assert (v > 0) == P.contains((sx, sy))


def test_psi_from_polytope_matches_pointwise():
    P = facet_description(QUADRILATERAL_VERTICES)
    phi = psi_from_polytope(P)
    assert phi.is_reciprocal_only()
    for s in lattice_points(P).points:
        assert phi.value_at(s) == psi_coefficient(P, s)
    assert phi.value_at((-1, 0)) == 0


# -- hypergeometric polynomials of standard polytopes ---------------------


def test_box_polynomial():
    box = facet_description([(0, 0), (2, 0), (0, 3), (2, 3)])
    expected = (affine(2, (1, 0), 1) ** 2) * (affine(2, (0, 1), 1) ** 3)
    assert hypergeometric_polynomial(box) == expected.scaled_to_integers()


def test_simplex_polynomial():
    simplex = facet_description([(0, 0), (4, 0), (0, 4)])
    expected = affine(2, (1, 1), 1) ** 4
    assert hypergeometric_polynomial(simplex) == expected.scaled_to_integers()


def test_cross_polytope_polynomial(cross_poly):
    assert cross_poly == LP(
        2, {(1, 0): 1, (0, 1): 1, (1, 1): 4, (2, 1): 1, (1, 2): 1}
    )


def test_hirzebruch_polynomial(hirzebruch_poly):
    assert hirzebruch_poly == LP(
        2, {(1, 0): 3, (1, 1): 12, (2, 1): 2, (0, 2): 2, (1, 2): 3}
    )


def test_quadrilateral_polynomial(p3_constructed, p3_paper):
    assert p3_constructed == p3_paper


def test_disconnected_support_warns():
    P = facet_description([(0, 0), (3, 0), (0, 3), (3, 3)])
    # shrink to a polytope whose lattice points are connected: no warning
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hypergeometric_polynomial(P)
    # a long thin triangle with lattice width > 1 has isolated points
    thin = facet_description([(0, 0), (5, 1), (1, 5)])
    with pytest.warns(UserWarning):
        hypergeometric_polynomial(thin)


# -- polynomial_from_coefficient -----------------------------------------


def test_polynomial_from_coefficient_box_scan():
    P = facet_description(QUADRILATERAL_VERTICES)
    phi = psi_from_polytope(P)
    p = polynomial_from_coefficient(phi, (0, 0), (4, 4))
    assert p.scaled_to_integers() == hypergeometric_polynomial(P)


def test_p0_constructed_matches_listing(p0_constructed, p0_paper):
    assert p0_constructed == p0_paper


# -- Horn derivation ------------------------------------------------------


def test_two_lines_operators_match_reference(phi_two_lines):
    H = horn_system(phi_two_lines)
    s, t = (1, 0), (0, 1)
    P1 = affine(2, (2, -1), -2) * affine(2, (2, -1), -1)
    Q1 = affine(2, (1, -2), 2) * affine(2, (1, 1), -1)
    P2 = affine(2, (1, -2), 1) * affine(2, (1, -2), 2)
    Q2 = -1 * (affine(2, (2, -1), -2) * affine(2, (1, 1), -1))
    assert pair_matches(H.pairs[0], (P1, Q1))
    assert pair_matches(H.pairs[1], (P2, Q2))


def test_univariate_simplex_operators():
    k = 7
    P = facet_description([(0,), (k,)])
    H = horn_system(psi_from_polytope(P))
    assert pair_matches(H.pairs[0], (affine(1, (-1,), k), affine(1, (1,), 0)))


def test_horn_system_needs_enough_factors():
    phi = OreSatoCoefficient(2, (GammaFactor((1, 1), Fraction(0), -1),))
    with pytest.raises(DomainError):
        horn_system(phi)


def test_exponential_scales_p_side():
    phi = OreSatoCoefficient(
        1, (GammaFactor((-1,), Fraction(4), -1), GammaFactor((1,), Fraction(1), -1)),
        exponential=(Fraction(5),),
    )
    base = OreSatoCoefficient(
        1, (GammaFactor((-1,), Fraction(4), -1), GammaFactor((1,), Fraction(1), -1))
    )
    H, H0 = horn_system(phi), horn_system(base)
    assert H.pairs[0][0] == 5 * H0.pairs[0][0]
    assert H.pairs[0][1] == H0.pairs[0][1]
    # phi(s) = 5^s / (s! (3 - s)!) generates (1 + 5x)^3
    p = affine(1, (5,), 1) ** 3
    assert solves_expanded(p, H)
    assert is_horn_solution(p, phi, up_to_monomial=False)
    assert not is_horn_solution(p, base)
    # a translate far outside the search box around gamma = 0
    assert is_horn_solution(p.shift((40,)), phi)
    assert not is_horn_solution(p.shift((40,)) + LP(1, {(41,): 1}), phi)


def test_reflect_to_reciprocal():
    phi = OreSatoCoefficient(2, (GammaFactor((1, 0), Fraction(-6), 1),), None, (), ())
    r = reflect_to_reciprocal(phi)
    assert r.factors == (GammaFactor((-1, 0), Fraction(7), -1),)
    assert r.is_reciprocal_only()


def test_reflected_coefficient_value_ratio(phi1, p1_paper):
    """Coefficient ratios of the reflected form match the polynomial."""
    r = reflect_to_reciprocal(phi1)
    v32 = r.value_at((3, 0))
    v22 = r.value_at((2, 0))
    assert v22 != 0
    assert v32 / v22 == Fraction(64, 21)
    assert v32 / v22 == p1_paper.coefficient((3, 0)) / p1_paper.coefficient((2, 0))


# -- operator application and verification --------------------------------


def solves_expanded(p, H):
    """Every expanded operator x_j P_j(theta) - Q_j(theta) maps p to zero."""
    return all(apply_horn_operator(p, j, H).is_zero() for j in range(H.n))


def test_apply_operator_is_linear(phi_two_lines):
    H = horn_system(phi_two_lines)
    p = LP(2, {(1, 0): 2, (0, 1): 3})
    q = LP(2, {(1, 1): Fraction(5, 2)})
    for j in range(2):
        assert apply_horn_operator(p + q, j, H) == (
            apply_horn_operator(p, j, H) + apply_horn_operator(q, j, H)
        )


def test_two_lines_polynomial_solves_its_system(phi_two_lines):
    p = LP(2, {(1, 0): 1, (0, 1): 1, (1, 1): 6, (2, 2): 1})
    assert is_horn_solution(p, phi_two_lines)
    perturbed = p + LP(2, {(1, 1): 1})
    assert not is_horn_solution(perturbed, phi_two_lines)
    # translates far outside the search box around gamma = 0
    H = horn_system(phi_two_lines)
    assert solves_expanded(p, H)
    for gamma in ((10, 0), (40, 40), (-25, 7)):
        shifted = p.shift(gamma)
        assert not solves_expanded(shifted, H)
        assert is_horn_solution(shifted, phi_two_lines), gamma
        assert not is_horn_solution(shifted, phi_two_lines, up_to_monomial=False)
        middle = (1 + gamma[0], 1 + gamma[1])
        assert not is_horn_solution(shifted + LP(2, {middle: 1}), phi_two_lines)


def test_p3_solves_psi_system(p3_constructed):
    phi = psi_from_polytope(facet_description(QUADRILATERAL_VERTICES))
    assert is_horn_solution(p3_constructed, phi)


def test_solution_up_to_monomial_translate(phi_two_lines):
    p = LP(2, {(1, 0): 1, (0, 1): 1, (1, 1): 6, (2, 2): 1})
    shifted = p.shift((3, 2))
    assert is_horn_solution(shifted, phi_two_lines)
    assert not is_horn_solution(shifted, phi_two_lines, up_to_monomial=False)


def test_recurrence_check(p3_constructed, hirzebruch_poly):
    quad_phi = psi_from_polytope(facet_description(QUADRILATERAL_VERTICES))
    assert is_horn_solution(LP(2, dict(p3_constructed.terms)), quad_phi, up_to_monomial=False)
    bad = dict(p3_constructed.terms)
    bad[(2, 1)] += 1
    assert not is_horn_solution(LP(2, bad), quad_phi, up_to_monomial=False)

    hz = facet_description([(1, 0), (0, 1), (-1, 1), (0, -1)]).canonical_translate()
    assert is_horn_solution(
        LP(2, dict(hirzebruch_poly.terms)), psi_from_polytope(hz), up_to_monomial=False
    )


def test_reciprocal_ratio_consistency_on_grid(phi0):
    """phi(s) P_j(s) = phi(s+e_j) Q_j(s+e_j) wherever phi is defined."""
    H = horn_system(phi0)
    for sx in range(-3, 17):
        for sy in range(-3, 17):
            for j, e in ((0, (1, 0)), (1, (0, 1))):
                s = (sx, sy)
                up = (sx + e[0], sy + e[1])
                P, Q = H.pairs[j]
                assert phi0.value_at(s) * P.evaluate_exact(s) == (
                    phi0.value_at(up) * Q.evaluate_exact(up)
                )


def _seeded_coefficient(rng, n):
    """Gamma factors of both signs, rational numerator and denominator forms
    and, for half of them, an exponential; integer constants, so that
    value_at is defined wherever no pole is hit."""
    def form():
        return tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-3, 3)

    factors = [GammaFactor(*form(), rng.choice((1, -1))) for _ in range(rng.randint(1, 2))]
    num = [LinearForm(*form()) for _ in range(rng.randint(n - 1, 2))]
    den = [LinearForm(*form()) for _ in range(rng.randint(0, 2))]
    t = [Fraction(rng.choice((-3, -1, 2)), rng.choice((1, 5))) for _ in range(n)]
    return OreSatoCoefficient(n, factors, t if rng.random() < 0.5 else None, num, den)


def test_every_factor_telescopes_as_value_at_reads_it():
    """phi(s) P_j(s) = phi(s+e_j) Q_j(s+e_j) at every integer point where
    value_at is defined at both, for Gamma factors and rational parts alike."""
    rng = random.Random(21)
    checks = nonzero = 0
    for _ in range(100):
        n = rng.choice((1, 2))
        phi = _seeded_coefficient(rng, n)
        H = horn_system(phi)
        values = {}
        for s in itertools.product(range(-3, 5), repeat=n):
            try:
                values[s] = phi.value_at(s)
            except DomainError:  # a pole of a numerator Gamma or of U
                pass
        for s, value in values.items():
            for j, (P, Q) in enumerate(H.pairs):
                up = s[:j] + (s[j] + 1,) + s[j + 1:]
                if up in values:
                    lhs = value * P.evaluate_exact(s)
                    assert lhs == values[up] * Q.evaluate_exact(up), (phi, s, j)
                    checks += 1
                    nonzero += lhs != 0
    assert checks > 3000 and nonzero > 1000


def test_rational_part_coefficient_solves_its_own_system():
    """(s + 1) / (Gamma(s + 1) Gamma(5 - s)) is supported on [0, 4]."""
    phi = OreSatoCoefficient(
        1,
        (GammaFactor((1,), 1, -1), GammaFactor((-1,), 5, -1)),
        rational_num=(LinearForm((1,), 1),),
    )
    p = polynomial_from_coefficient(phi, (0,), (4,))
    assert len(p.terms) == 5
    assert is_horn_solution(p, phi, up_to_monomial=False)
    assert not is_horn_solution(p + LP(1, {(2,): 1}), phi)


# -- the shift search against a brute-force scan ----------------------------


def box_scan_shifts(p, phi, H):
    """Brute-force shift search: every nonzero gamma in the box |gamma_k| <= r.

    r = span + max|c| + max||A||_1 + 2.  One adjacent coefficient pair per
    direction filters the shifts before the exact check.
    """
    n = p.n
    span = max(
        max(e[k] for e in p.terms) - min(e[k] for e in p.terms) for k in range(n)
    )
    forms = list(phi.factors) + list(phi.rational_num) + list(phi.rational_den)
    c_bound = max(abs(f.c) for f in forms)
    a_bound = max(sum(abs(a) for a in f.A) for f in forms)
    radius = int(span + c_bound + a_bound + 2)

    probes = []
    for j in range(n):
        for s in sorted(p.terms):
            up = tuple(e + (k == j) for k, e in enumerate(s))
            if up in p.terms:
                probes.append((j, s, up, p.terms[s], p.terms[up]))
                break
    for gamma in itertools.product(range(-radius, radius + 1), repeat=n):
        if not any(gamma):
            continue
        if all(
            a * H.pairs[j][0].evaluate_exact([e + g for e, g in zip(s, gamma)])
            == b * H.pairs[j][1].evaluate_exact([e + g for e, g in zip(up, gamma)])
            for j, s, up, a, b in probes
        ):
            yield gamma


def oracle_is_solution(p, phi):
    """is_horn_solution's verdict from the expanded operators, shifts by the box scan."""
    H = horn_system(phi)
    if solves_expanded(p, H):
        return True
    return any(solves_expanded(p.shift(g), H) for g in box_scan_shifts(p, phi, H))


def _psi_instance(verts, numerator):
    """psi of the polygon with its polynomial, or the numerator-Gamma form of both.

    Gamma(1 - L) in place of 1/Gamma(L) changes the quotient in direction j
    by (-1)^{A_j} per factor, so the solution's coefficients change by
    (-1)^{<w, s>} with w the sum of the factors' A.
    """
    P = facet_description(verts)
    phi = psi_from_polytope(P)
    terms = {s: psi_coefficient(P, s) for s in lattice_points(P).points}
    if numerator:
        w = [sum(f.A[k] for f in phi.factors) for k in range(P.n)]
        terms = {
            s: c * (-1) ** (sum(a * x for a, x in zip(w, s)) % 2)
            for s, c in terms.items()
        }
        phi = OreSatoCoefficient(P.n, tuple(
            GammaFactor(tuple(-a for a in f.A), 1 - f.c, 1) for f in phi.factors
        ))
    return LP(P.n, terms), phi


points_2d = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def horn_cases(draw):
    """A 2-D polynomial and coefficient: (psi | annihilator | numerator) x
    (shifted | perturbed | widened)."""
    kind = draw(st.sampled_from(["psi", "annihilator", "numerator"]))
    if kind == "annihilator":
        pts = draw(st.sets(points_2d, min_size=1, max_size=5))
        coeffs = draw(st.lists(
            st.fractions(-9, 9, max_denominator=5).filter(bool),
            min_size=len(pts), max_size=len(pts),
        ))
        p = LP(2, dict(zip(sorted(pts), coeffs)))
        phi = annihilator_for_support(LatticeSupport.of(2, pts))
    else:
        verts = draw(st.lists(points_2d, min_size=3, max_size=5))
        try:
            p, phi = _psi_instance(verts, kind == "numerator")
        except DegeneratePolytopeError:
            assume(False)
        assert is_horn_solution(p, phi, up_to_monomial=False)
    q = p.shift(draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))))
    mode = draw(st.sampled_from(["shifted", "perturbed", "widened"]))
    if mode == "perturbed":
        e = draw(st.sampled_from(sorted(q.terms)))
        q = q + LP(2, {e: draw(st.fractions(1, 5, max_denominator=3).filter(bool))})
    elif mode == "widened":
        top = max(q.terms)
        q = q + LP(2, {(top[0] + draw(st.integers(0, 1)), top[1] + 1): 1})
    return q, phi


@seed(20261018)
@settings(max_examples=40, deadline=None)
@given(horn_cases())
def test_shift_search_agrees_with_box_scan(case):
    q, phi = case
    assert is_horn_solution(q, phi) == oracle_is_solution(q, phi)
    exact = solves_expanded(q, horn_system(phi))
    assert is_horn_solution(q, phi, up_to_monomial=False) == exact


def test_box_scan_oracle_finds_the_fixture_shift(phi_two_lines):
    p = LP(2, {(1, 0): 1, (0, 1): 1, (1, 1): 6, (2, 2): 1})
    H = horn_system(phi_two_lines)
    assert (-3, -2) in set(box_scan_shifts(p.shift((3, 2)), phi_two_lines, H))
    assert oracle_is_solution(p.shift((3, 2)), phi_two_lines)
    assert not oracle_is_solution(p.shift((3, 2)) + LP(2, {(4, 3): 1}), phi_two_lines)


def _cross(n, center=1):
    return [
        tuple(center + (d if j == k else 0) for j in range(n))
        for k in range(n) for d in (1, -1)
    ]


HIGHER_DIM_POLYTOPES = {
    "cross3": _cross(3),
    "box4": [tuple(v) for v in itertools.product((0, 1), (0, 2), (0, 1), (0, 1))],
    "simplex4": [(0, 0, 0, 0)] + [tuple(3 * (j == k) for j in range(4)) for k in range(4)],
    # the boundary cuts leave lines of candidate shifts here
    "cross4": _cross(4),
}


@pytest.mark.parametrize("name", sorted(HIGHER_DIM_POLYTOPES))
def test_shifted_psi_polynomials_in_3d_and_4d(name):
    P = facet_description(HIGHER_DIM_POLYTOPES[name])
    phi = psi_from_polytope(P)
    p = hypergeometric_polynomial(P)
    # each translate below solves the system at the shift -gamma, back to p
    assert solves_expanded(p, horn_system(phi))
    # the last two lie far outside the search box around gamma = 0
    for gamma in ((2, -1, 1, -2), (-1, 0, 3, 1), (30, -20, 15, 40), (-50, 3, 0, 12)):
        shifted = p.shift(gamma[:P.n])
        assert is_horn_solution(shifted, phi), gamma
        middle = sorted(shifted.terms)[len(shifted.terms) // 2]
        assert not is_horn_solution(shifted + LP(P.n, {middle: 1}), phi), gamma


def test_verification_never_expands_the_operators(monkeypatch):
    P = facet_description(HIGHER_DIM_POLYTOPES["cross4"])
    phi = psi_from_polytope(P)
    p = hypergeometric_polynomial(P)

    def expanded(*args):
        raise AssertionError("is_horn_solution expanded the operators")

    monkeypatch.setattr("hgamoeba.horn.horn_system", expanded)
    monkeypatch.setattr("hgamoeba.horn.apply_horn_operator", expanded)
    monkeypatch.setattr("hgamoeba.laurent.LaurentPolynomial.evaluate_exact", expanded)
    assert is_horn_solution(p.shift((3, -1, 0, 2)), phi)
    assert is_horn_solution(p, phi, up_to_monomial=False)


# -- annihilators ---------------------------------------------------------


def test_annihilator_single_point():
    phi = annihilator_for_support(LatticeSupport.of(2, [(0, 0)]))
    H = horn_system(phi)
    for j in range(2):
        assert pair_matches(H.pairs[j], (affine(2, (1, 1), 0), affine(2, (1, 0) if j == 0 else (0, 1), 0)))
    assert is_horn_solution(LP.constant(2, 5), phi)
    assert not is_horn_solution(LP(2, {(1, 0): 1, (0, 0): 1}), phi)


def _random_supported_poly(rng, n, max_points=12, max_exp=8):
    k = rng.randint(1, max_points)
    pts = {
        tuple(rng.randint(0, max_exp) for _ in range(n)) for _ in range(k)
    }
    return LP(n, {e: Fraction(rng.randint(1, 50), rng.randint(1, 9)) for e in pts})


def test_annihilator_random_supports_small():
    rng = random.Random(7)
    for n in (2, 3):
        for _ in range(5):
            p = _random_supported_poly(rng, n, max_points=6, max_exp=5)
            phi = annihilator_for_support(LatticeSupport.of(n, p.support))
            assert is_horn_solution(p, phi, up_to_monomial=False)


def test_annihilator_rejects_larger_support():
    S = LatticeSupport.of(2, [(0, 0), (1, 0)])
    phi = annihilator_for_support(S)
    outside = LP(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    assert not is_horn_solution(outside, phi, up_to_monomial=False)


# -- value_at domain handling ---------------------------------------------


def test_value_at_requires_integer_arguments():
    phi = OreSatoCoefficient(
        1, (GammaFactor((2,), Fraction(1, 2), -1),)
    )
    with pytest.raises(DomainError):
        phi.value_at((0,))


def test_value_at_numerator_pole():
    phi = OreSatoCoefficient(1, (GammaFactor((1,), Fraction(0), 1),))
    with pytest.raises(DomainError):
        phi.value_at((0,))


def test_value_at_rational_part_and_exponential():
    phi = OreSatoCoefficient(
        1,
        (GammaFactor((-1,), Fraction(5), -1),),
        exponential=(Fraction(3),),
        rational_num=(LinearForm((1,), Fraction(1)),),
        rational_den=(LinearForm((1,), Fraction(2)),),
    )
    # at s=2: 1/Gamma(3) * 3^2 * (2+1)/(2+2)
    assert phi.value_at((2,)) == Fraction(1, 2) * 9 * Fraction(3, 4)

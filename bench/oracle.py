"""Computations made apart from hgamoeba, used to check its outputs.

Nothing here imports the package: lattice points are counted by scanning a
box against facet inequalities written from the vertices, coefficients come
from factorials and binomials, fiber roots come from mpmath at high
precision and determinants from Fraction Gaussian elimination.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import comb, factorial, gcd

# A facet is (B, c): the polytope satisfies <B, s> + c <= 0.


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def polygon_facets(vertices):
    """Primitive outer normals of a counterclockwise lattice polygon."""
    out = []
    for k, p in enumerate(vertices):
        q = vertices[(k + 1) % len(vertices)]
        b = (q[1] - p[1], p[0] - q[0])
        g = gcd(abs(b[0]), abs(b[1]))
        b = (b[0] // g, b[1] // g)
        out.append((b, -_dot(b, p)))
    return out


def box_facets(hi):
    """Facets of the box [0, hi_1] x ... x [0, hi_n]."""
    n = len(hi)
    out = []
    for k in range(n):
        unit = tuple(1 if i == k else 0 for i in range(n))
        out.append((tuple(-u for u in unit), 0))
        out.append((unit, -hi[k]))
    return out


def cross3_facets(center):
    """Facets of the octahedron |s - center|_1 <= 1."""
    out = []
    for B in itertools.product((1, -1), repeat=3):
        out.append((B, -_dot(B, center) - 1))
    return out


def translate_facets(facets, offset):
    return [(B, c - _dot(B, offset)) for B, c in facets]


def lattice_points(vertices, facets) -> list[tuple[int, ...]]:
    """Every integer point of the polytope, by scanning its bounding box."""
    n = len(vertices[0])
    lo = [min(v[k] for v in vertices) for k in range(n)]
    hi = [max(v[k] for v in vertices) for k in range(n)]
    box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    return [s for s in box if all(_dot(B, s) + c <= 0 for B, c in facets)]


def is_interior(s, facets) -> bool:
    return all(_dot(B, s) + c < 0 for B, c in facets)


def psi(facets, s) -> Fraction:
    """1 / prod_j Gamma(1 - <B_j, s> - c_j) at an integer point, by factorials."""
    value = Fraction(1)
    for B, c in facets:
        arg = -_dot(B, s) - c
        if arg < 0:
            return Fraction(0)
        value /= factorial(arg)
    return value


def coprime_integers(terms: dict) -> dict:
    """The constant multiple of a rational coefficient table with coprime integers."""
    den = math.lcm(*(Fraction(c).denominator for c in terms.values()))
    num = gcd(*(Fraction(c).numerator for c in terms.values()))
    return {e: Fraction(c) * den / num for e, c in terms.items()}


def psi_polynomial(vertices, facets) -> dict:
    return coprime_integers({s: psi(facets, s) for s in lattice_points(vertices, facets)})


def box_polynomial(hi) -> dict:
    """prod_k (1 + x_k)^hi_k, coefficient by coefficient from math.comb."""
    out = {}
    for s in itertools.product(*(range(h + 1) for h in hi)):
        out[s] = Fraction(math.prod(comb(h, e) for h, e in zip(hi, s)))
    return out


def simplex_polynomial(k: int) -> dict:
    """(1 + x + y)^k from math.comb."""
    return {
        (a, b): Fraction(comb(k, a) * comb(k - a, b))
        for a in range(k + 1) for b in range(k + 1 - a)
    }


def eval_poly(terms, s) -> Fraction:
    """Exact value of sum c_e s^e (nonnegative exponents) at an integer point."""
    total = Fraction(0)
    for e, c in terms:
        total += Fraction(c) * math.prod(Fraction(x) ** k for x, k in zip(s, e))
    return total


# -- Toeplitz minor ------------------------------------------------------

def toeplitz_value(k: int, convention: str, x: Fraction, y: Fraction) -> Fraction:
    """Maximal minor of the banded k x (k+1) Toeplitz matrix at (x, y).

    x on the diagonal, y above it, ones on the sub-diagonal and two above;
    'first' keeps columns 0..k-1, 'last' columns 1..k.  Fraction Gaussian
    elimination with row pivoting.
    """
    band = {0: x, 1: y, -1: Fraction(1), 2: Fraction(1)}
    cols = range(k) if convention == "first" else range(1, k + 1)
    m = [[Fraction(band.get(j - i, 0)) for j in cols] for i in range(k)]
    det = Fraction(1)
    for col in range(k):
        piv = next((r for r in range(col, k) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, k):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


# -- fiber roots with mpmath ---------------------------------------------

def tropical_guesses(row):
    """Starting points for the roots of sum row[k] t^k, from the upper hull of
    (k, log|row[k]|): an edge of width m and slope -sigma stands for m roots
    of modulus exp(sigma) (Newton-polygon rule)."""
    import mpmath

    pts = [(k, mpmath.log(abs(a))) for k, a in enumerate(row) if a != 0]
    hull = []
    for p in pts:
        while len(hull) >= 2 and (
            (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])
            <= (p[1] - hull[-2][1]) * (hull[-1][0] - hull[-2][0])
        ):
            hull.pop()
        hull.append(p)
    guesses = []
    for (k1, l1), (k2, l2) in zip(hull, hull[1:]):
        m = k2 - k1
        radius = mpmath.exp((l1 - l2) / m)
        guesses += [radius * mpmath.expjpi(mpmath.mpf(2 * j + 0.3) / m + 0.1 * len(guesses))
                    for j in range(m)]
    return guesses


def fiber_roots(terms, axis: int, log_modulus: float, angle: float, dps: int = 60):
    """Roots in x_{1-axis} of p with x_axis = exp(log_modulus + i angle).

    ``terms`` is a list of ((e_0, e_1), Fraction).  Returns
    (lowest_power, roots): the fiber is t^lowest_power * g(t) with g(0) != 0
    and ``roots`` are the mpmath roots of g, as (log|root|, arg root).
    mpmath's Durand-Kerner iteration starts from the moduli the Newton
    polygon of g predicts and carries extra precision for the range of g's
    coefficients, which may span hundreds of orders of magnitude.
    """
    import mpmath

    with mpmath.workdps(dps):
        x = mpmath.exp(mpmath.mpf(log_modulus) + 1j * mpmath.mpf(angle))
        coeffs: dict[int, object] = {}
        for e, c in terms:
            term = mpmath.mpf(c.numerator) / c.denominator * x ** e[axis]
            coeffs[e[1 - axis]] = coeffs.get(e[1 - axis], 0) + term
        powers = sorted(k for k, v in coeffs.items() if v != 0)
        lo, hi = powers[0], powers[-1]
        if hi == lo:
            return lo, []
        row = [coeffs.get(k, mpmath.mpc(0)) for k in range(lo, hi + 1)]
        sizes = [abs(a) for a in row if a != 0]
        spread_bits = int(mpmath.log(max(sizes) / min(sizes), 2)) + 1
        roots = mpmath.polyroots(row[::-1], maxsteps=200, extraprec=spread_bits + 4 * dps,
                                 roots_init=tropical_guesses(row))
        return lo, [(float(mpmath.log(abs(z))), float(mpmath.arg(z))) for z in roots]


def winding_order(terms, xi, angle: float) -> tuple[int, int]:
    """Order vector of the complement component containing the log-point xi.

    Coordinate j is the number of zeros (with multiplicity, the origin
    included) of the fiber in x_j inside |x_j| < exp(xi_j), the other
    coordinate held at modulus exp(xi_k) and the given angle.
    """
    order = []
    for j in range(2):
        lo, roots = fiber_roots(terms, 1 - j, xi[1 - j], angle, dps=40)
        order.append(lo + sum(1 for log_abs, _ in roots if log_abs < xi[j]))
    return tuple(order)

"""Named polynomial families: Appell F1, Gauss 2F1 scatters, the banded
Toeplitz minor and the ball-biorthogonal basis.

Series are expanded with the standard Pochhammer conventions; all
coefficients are exact rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import DomainError
from .laurent import LaurentPolynomial

Grid = list[Fraction]


def pochhammer(a: Fraction, k: int) -> Fraction:
    """Rising factorial (a)_k."""
    a = Fraction(a)
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


@dataclass(frozen=True)
class F1Parameters:
    a: Fraction
    b1: Fraction
    b2: Fraction
    c: Fraction

    def __post_init__(self):
        for name in ("a", "b1", "b2", "c"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))


def _nonpositive_int(v: Fraction) -> bool:
    return v.denominator == 1 and v <= 0


def appell_f1(params: F1Parameters) -> LaurentPolynomial:
    """Terminating Appell F1(a, b1, b2, c; x, y) as an exact polynomial.

    Terminates when a is a nonpositive integer (total degree |a|) or when
    both b1 and b2 are nonpositive integers (partial degree bounds).
    """
    a, b1, b2, c = params.a, params.b1, params.b2, params.c
    if _nonpositive_int(a):
        total = -int(a)
        m_max = n_max = total
    elif _nonpositive_int(b1) and _nonpositive_int(b2):
        m_max, n_max = -int(b1), -int(b2)
        total = m_max + n_max
    else:
        raise DomainError("F1 series does not terminate for these parameters")
    if _nonpositive_int(b1):
        m_max = min(m_max, -int(b1))
    if _nonpositive_int(b2):
        n_max = min(n_max, -int(b2))

    terms = {}
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            if m + n > total:
                continue
            cp = pochhammer(c, m + n)
            if cp == 0:
                raise DomainError("pole of (c)_{m+n} inside the support")
            coeff = (
                pochhammer(a, m + n) * pochhammer(b1, m) * pochhammer(b2, n)
                / (cp * factorial(m) * factorial(n))
            )
            if coeff:
                terms[(m, n)] = coeff
    return LaurentPolynomial(2, terms)


def gauss_2f1_polynomial(a: int, b, c) -> list[Fraction]:
    """Coefficients of the terminating 2F1(a, b; c; x), constant term first."""
    a = int(a)
    if a >= 0:
        raise DomainError("a must be a negative integer for a polynomial instance")
    b, c = Fraction(b), Fraction(c)
    deg = -a
    coeffs = []
    for k in range(deg + 1):
        ck = pochhammer(c, k)
        if ck == 0:
            raise DomainError("pole of (c)_k inside the series")
        coeffs.append(pochhammer(Fraction(a), k) * pochhammer(b, k) / (ck * factorial(k)))
    return coeffs


def aster_scatter(a: int, b_values, c_values):
    """Root scatter of 2F1(a, b; c; x) over a (b, c) grid.

    Yields (b, c, root) triples; per-instance failures (parameter poles)
    are skipped.
    """
    from .roots import univariate_roots  # here: the only numeric function of this module

    out = []
    for b in b_values:
        for c in c_values:
            try:
                coeffs = gauss_2f1_polynomial(a, b, c)
                roots = univariate_roots([complex(v) for v in coeffs])
            except DomainError:
                continue
            out.extend((Fraction(b), Fraction(c), z) for z in roots)
    return out


def _toeplitz_matrix(k: int) -> list[list[LaurentPolynomial]]:
    x = LaurentPolynomial.variable(2, 0)
    y = LaurentPolynomial.variable(2, 1)
    one = LaurentPolynomial.constant(2, 1)
    zero = LaurentPolynomial.zero(2)
    rows = []
    for i in range(k):
        row = []
        for j in range(k + 1):
            d = j - i
            if d == 0:
                row.append(x)
            elif d == 1:
                row.append(y)
            elif d in (-1, 2):
                row.append(one)
            else:
                row.append(zero)
        rows.append(row)
    return rows


def _poly_det(rows: list[list[LaurentPolynomial]]) -> LaurentPolynomial:
    """Determinant by Laplace expansion along the rows, memoised on the columns left.

    Expanding row i leaves the rows below it on some set of columns; that
    minor depends only on the set, so each one is computed once.  A banded
    matrix has few nonzero entries per row and hence few distinct sets.
    """
    k = len(rows)
    memo: dict[tuple[int, ...], LaurentPolynomial] = {}

    def minor(cols: tuple[int, ...]) -> LaurentPolynomial:
        if not cols:
            return LaurentPolynomial.constant(2, 1)
        if cols not in memo:
            row = rows[k - len(cols)]
            det = LaurentPolynomial.zero(2)
            for i, c in enumerate(cols):
                if row[c].is_zero():
                    continue
                cof = row[c] * minor(cols[:i] + cols[i + 1:])
                det = det + cof if i % 2 == 0 else det - cof
            memo[cols] = det
        return memo[cols]

    return minor(tuple(range(k)))


def toeplitz_chebyshev(k: int, convention: str = "first") -> LaurentPolynomial:
    """Maximal minor of the k x (k+1) banded Toeplitz matrix in x, y.

    ``convention='first'`` keeps columns 1..k; ``'last'`` deletes the first
    column instead.  The band pattern follows the bivariate Chebyshev
    construction: x on the diagonal, y above it, ones on the adjacent bands.
    """
    if k < 1:
        raise ValueError("k must be positive")
    full = _toeplitz_matrix(k)
    if convention == "first":
        cols = range(k)
    elif convention == "last":
        cols = range(1, k + 1)
    else:
        raise ValueError("convention must be 'first' or 'last'")
    sub = [[row[j] for j in cols] for row in full]
    return _poly_det(sub)


def chebyshev_dense(k: int, convention: str = "first") -> LaurentPolynomial:
    """Toeplitz minor rewritten in the coordinates xi = x*y, eta = y^2/x.

    The minor's support lies in the index-3 sublattice spanned by (1, 1) and
    (-1, 2); expressing each monomial through the new coordinates divides
    that basis out and yields a dense polynomial.  Substituting the basis
    back (``monomial_substitution([[1, 1], [-1, 2]])``) recovers the minor
    up to a monomial factor.
    """
    p = toeplitz_chebyshev(k, convention)
    a0, b0 = min(p.terms)  # support is a coset of the sublattice; rebase it
    terms = {}
    for (a, b), c in p.terms.items():
        i, j = 2 * (a - a0) + (b - b0), (b - b0) - (a - a0)
        if i % 3 or j % 3:
            raise DomainError("minor support is not in the expected sublattice")
        terms[(i // 3, j // 3)] = c
    q = LaurentPolynomial(2, terms)
    mins = tuple(min(e[d] for e in q.terms) for d in range(2))
    return q.shift(tuple(-m for m in mins))


def biorthogonal_vtilde(alpha) -> LaurentPolynomial:
    """Even-variable form of the ball-biorthogonal basis element V_alpha.

    Extracts the a^alpha coefficient of the binomial expansion of
    (1 - 2<a,x> + ||a||^2)^((1-n)/2), strips the common monomial factor and
    halves the remaining (even) exponents.
    """
    alpha = tuple(int(v) for v in alpha)
    n = len(alpha)
    if n < 2:
        raise DomainError("needs at least two variables")
    lam = Fraction(n - 1, 2)
    total = sum(alpha)

    # w = 2<a,x> - ||a||^2; coefficient of a^alpha in sum_k (lam)_k / k! w^k
    terms: dict[tuple[int, ...], Fraction] = {}
    # choose m_j linear factors and p_j square factors per variable:
    # alpha_j = m_j + 2 p_j, a-degree matches automatically
    p_ranges = [range(aj // 2 + 1) for aj in alpha]
    for ps in itertools.product(*p_ranges):
        ms = tuple(aj - 2 * pj for aj, pj in zip(alpha, ps))
        if any(m < 0 for m in ms):
            continue
        k = sum(ms) + sum(ps)
        if k > total:
            continue
        multinom = factorial(k)
        for m, p in zip(ms, ps):
            multinom //= factorial(m) * factorial(p)
        coeff = (
            pochhammer(lam, k) / factorial(k)
            * multinom
            * Fraction(2) ** sum(ms)
            * Fraction(-1) ** sum(ps)
        )
        if coeff:
            terms[ms] = terms.get(ms, Fraction(0)) + coeff
    v = LaurentPolynomial(n, terms)
    if v.is_zero():
        return v
    mins = tuple(min(e[j] for e in v.terms) for j in range(n))
    stripped = v.shift(tuple(-m for m in mins))
    if any(e % 2 for exp in stripped.terms for e in exp):
        raise DomainError("residual odd exponents after monomial stripping")
    halved = {tuple(e // 2 for e in exp): c for exp, c in stripped.terms.items()}
    return LaurentPolynomial(n, halved)

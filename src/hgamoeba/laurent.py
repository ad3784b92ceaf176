"""Multivariate Laurent polynomials, exact and floating.

Polynomials are stored as a map from integer exponent vectors to nonzero
coefficients.  :class:`LaurentPolynomial` holds ``Fraction`` coefficients
and all its arithmetic is exact; transformations with non-rational scaling
and fractional Hadamard powers produce the floating-complex flavour
(:class:`ComplexLaurentPolynomial`), which exact verification code refuses
by its type (:func:`require_exact`).  The product, power, exponent shift,
monomial substitution and evaluation are each one loop for both number
types; only the type, its zero and its one differ.  Whether a substitution's
exponent matrix is singular is an exact rank (``polytope._rank``).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isfinite, lcm
from numbers import Rational
from typing import Any, Iterable, Mapping

from .errors import DomainError, InexactCoefficientError, InvalidTransformError
from .polytope import _rank

Exponent = tuple[int, ...]


def _clean_terms(n: int, terms: Mapping[Exponent, Fraction]) -> dict[Exponent, Fraction]:
    out: dict[Exponent, Fraction] = {}
    for exp, coeff in terms.items():
        exp = tuple(int(e) for e in exp)
        if len(exp) != n:
            raise ValueError(f"exponent {exp} does not have length {n}")
        c = Fraction(coeff)
        if c != 0:
            out[exp] = out.get(exp, Fraction(0)) + c
            if out[exp] == 0:
                del out[exp]
    return out


class _LaurentTerms:
    """What both flavours share.  A subclass has ``n`` and ``terms``, is built
    from ``(n, terms)`` and names the zero its sums start from in ``_zero``."""

    @property
    def support(self) -> set[Exponent]:
        return set(self.terms)

    def sorted_terms(self) -> list[tuple[Exponent, Any]]:
        """Terms in lexicographic exponent order (the canonical iteration order)."""
        return sorted(self.terms.items())

    def _product(self, other):
        """Term-by-term product with a polynomial of the same flavour."""
        zero = self._zero
        terms: dict[Exponent, Any] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, zero) + c1 * c2
        return type(self)(self.n, terms)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = type(self)(self.n, {(0,) * self.n: 1})
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def shift(self, a: Iterable[int]):
        """The product with the monomial x^a."""
        a = tuple(int(e) for e in a)
        return type(self)(
            self.n,
            {tuple(e + d for e, d in zip(exp, a)): c for exp, c in self.terms.items()},
        )


@dataclass(frozen=True)
class LaurentPolynomial(_LaurentTerms):
    """A Laurent polynomial in ``n`` variables with exact rational coefficients."""

    n: int
    terms: dict[Exponent, Fraction] = field(default_factory=dict)
    _zero = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "terms", _clean_terms(self.n, self.terms))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "LaurentPolynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c) -> "LaurentPolynomial":
        return cls(n, {(0,) * n: Fraction(c)})

    @classmethod
    def monomial(cls, n: int, exp: Iterable[int], coeff=1) -> "LaurentPolynomial":
        return cls(n, {tuple(int(e) for e in exp): Fraction(coeff)})

    @classmethod
    def variable(cls, n: int, j: int) -> "LaurentPolynomial":
        """The coordinate variable x_j (0-based index)."""
        exp = [0] * n
        exp[j] = 1
        return cls.monomial(n, exp)

    # -- basic queries --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(int(e) for e in exp), Fraction(0))

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPolynomial):
            return self.n == other.n and self.terms == other.terms
        if isinstance(other, Rational):
            return self == LaurentPolynomial.constant(self.n, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                f"x{j}^{e}" if e != 1 else f"x{j}"
                for j, e in enumerate(exp) if e != 0
            )
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    # -- ring operations ------------------------------------------------

    def __add__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, Fraction(0)) + c
        return LaurentPolynomial(self.n, terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPolynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LaurentPolynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "LaurentPolynomial":
        return self._product(self._coerce(other))

    __rmul__ = __mul__

    def _coerce(self, other) -> "LaurentPolynomial":
        if isinstance(other, LaurentPolynomial):
            if other.n != self.n:
                raise ValueError("dimension mismatch")
            return other
        if isinstance(other, Rational):
            return LaurentPolynomial.constant(self.n, other)
        raise TypeError(f"cannot combine LaurentPolynomial with {type(other)!r}")

    # -- evaluation -----------------------------------------------------

    def evaluate(self, x: Iterable[complex]) -> complex:
        """Evaluate at a complex point, summing in lexicographic exponent order."""
        return self._evaluate(x, complex, [(e, complex(c)) for e, c in self.sorted_terms()])

    def evaluate_exact(self, s: Iterable) -> Fraction:
        """Evaluate at a rational point with exact arithmetic.

        Requires nonnegative exponents at zero coordinates.
        """
        # an exact sum does not depend on the order
        return self._evaluate(s, Fraction, self.terms.items())

    def _evaluate(self, x, num, terms):
        """Sum of c * x^e over ``terms`` in their order, in the number type ``num``."""
        x = tuple(num(v) for v in x)
        if len(x) != self.n:
            raise ValueError("point dimension mismatch")
        total = num(0)
        for exp, c in terms:
            mono = num(1)
            for v, e in zip(x, exp):
                if e == 0:
                    continue
                if v == 0:
                    if e < 0:
                        raise DomainError("zero coordinate with negative exponent")
                    mono = num(0)
                    break
                mono *= v ** e
            total += c * mono
        return total

    # -- transformations ------------------------------------------------

    def monomial_substitution(self, v, t=None, a=None, ell: int = 1):
        """Apply x^a * p(t_1 x^{v_1}, ..., t_n x^{v_n})^ell.

        ``v`` is an integer n-by-n matrix given as rows; ``t`` a nonzero scale
        vector (rationals keep the result exact, anything else yields a
        :class:`ComplexLaurentPolynomial` of finite nonzero coefficients, or
        DomainError); ``a`` an integer shift vector.
        """
        n = self.n
        rows = [tuple(int(e) for e in row) for row in v]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("v must be an n-by-n integer matrix")
        if _rank(rows) < n:
            raise InvalidTransformError("singular exponent matrix")
        if t is None:
            t = (1,) * n
        t = tuple(t)
        if a is None:
            a = (0,) * n
        if ell < 1:
            raise ValueError("ell must be a positive integer")
        if any(val == 0 for val in t):
            raise DomainError("t must have nonzero entries")

        if all(isinstance(val, Rational) for val in t):
            num, flavour = Fraction, LaurentPolynomial
        else:
            num, flavour = complex, ComplexLaurentPolynomial
        terms = {}
        try:
            for exp, c in self.terms.items():
                new_exp = tuple(sum(e * row[k] for e, row in zip(exp, rows)) for k in range(n))
                scale = num(1)
                for val, e in zip(t, exp):
                    scale *= num(val) ** e
                # v is injective on exponents, so no two terms meet and none cancels
                terms[new_exp] = num(c) * scale
            q = flavour(n, terms) ** ell
        except (OverflowError, ZeroDivisionError):  # a float power out of range
            q = None
        if num is complex and (q is None or not all(
            c and cmath.isfinite(c) for c in (*terms.values(), *q.terms.values())
        )):
            raise DomainError("a scaled coefficient is not finite or leaves the float range")
        return q.shift(a)

    def hadamard_power(self, r):
        """Coefficientwise r-th power.

        Exact for nonnegative integer r (r = 0 gives the support indicator);
        otherwise the coefficients must be strictly positive, r finite and
        every c^r a finite nonzero float; the result has float coefficients.
        """
        if isinstance(r, Rational) and Fraction(r).denominator == 1 and r >= 0:
            return LaurentPolynomial(self.n, {e: c ** int(r) for e, c in self.terms.items()})
        if any(c <= 0 for c in self.terms.values()):
            raise DomainError("fractional Hadamard power needs strictly positive coefficients")
        r = float(r)
        try:
            powers = {e: float(c) ** r for e, c in self.terms.items()} if isfinite(r) else None
        except (OverflowError, ZeroDivisionError):
            powers = None
        if powers is None or 0.0 in powers.values():
            raise DomainError(f"Hadamard power {r} is not finite or leaves the float range")
        return ComplexLaurentPolynomial(self.n, powers)

    def scaled_to_integers(self) -> "LaurentPolynomial":
        """Canonical constant multiple: integer coefficients with unit content."""
        if self.is_zero():
            return self
        denom = lcm(*(c.denominator for c in self.terms.values()))
        numer = gcd(*(abs(c.numerator) for c in self.terms.values()))
        return self * Fraction(denom, numer)


class ComplexLaurentPolynomial(_LaurentTerms):
    """Floating-coefficient companion of :class:`LaurentPolynomial`.

    Produced by transformations with non-rational scale vectors and by
    fractional Hadamard powers.  Exact verification operations reject it;
    the amoeba numerics accept either flavor.
    """

    _zero = 0j

    def __init__(self, n: int, terms: Mapping[Exponent, complex]):
        self.n = n
        self.terms = {
            tuple(int(e) for e in exp): complex(c)
            for exp, c in terms.items()
            if c != 0
        }

    def __mul__(self, other):
        if isinstance(other, ComplexLaurentPolynomial):
            # a product c1 c2 of nonzero floats that is 0 underflowed: no sum
            # could tell it from a cancellation once it is dropped
            for c1 in self.terms.values():
                for c2 in other.terms.values():
                    c = c1 * c2
                    if not (c and cmath.isfinite(c)):
                        raise DomainError("a coefficient product leaves the float range")
            return self._product(other)
        return ComplexLaurentPolynomial(
            self.n, {e: c * complex(other) for e, c in self.terms.items()}
        )

    def __repr__(self):
        return f"ComplexLaurentPolynomial(n={self.n}, {len(self.terms)} terms)"


def require_exact(p) -> LaurentPolynomial:
    """Reject the inexact polynomial flavor in exact-verification code paths."""
    if isinstance(p, LaurentPolynomial):
        return p
    raise InexactCoefficientError(
        "operation requires a polynomial with exact rational coefficients"
    )


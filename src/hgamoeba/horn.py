"""Ore-Sato coefficients, canonical polytope coefficients and Horn systems.

The central constructions: the reciprocal-Gamma coefficient attached to an
integer polytope via its facet inequalities, the hypergeometric polynomial it
generates, derivation of the operator pairs (P_j, Q_j) by telescoping the
quotients phi(s + e_j)/phi(s), exact symbolic application of the operators,
and verification of solutions over the operators' affine factors.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, prod
from typing import Iterator, Sequence

from .errors import DomainError
from .laurent import LaurentPolynomial, require_exact
from .polytope import (
    IntegerPolytope,
    LatticeSupport,
    _add_row,
    _pivot,
    _primitive,
    _reduce,
    lattice_points,
    zn_connected_components,
)

IntVec = tuple[int, ...]
AffineFactor = tuple[IntVec, Fraction]  # (A, c): the form <A, theta> + c


@dataclass(frozen=True)
class LinearForm:
    """An affine form <A, s> + c: a factor of the rational part, or a Gamma argument."""

    A: IntVec
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(int(a) for a in self.A))
        object.__setattr__(self, "c", Fraction(self.c))

    def argument(self, s: Sequence) -> Fraction:
        return sum((Fraction(a) * Fraction(x) for a, x in zip(self.A, s)), self.c)


@dataclass(frozen=True)
class GammaFactor(LinearForm):
    """A factor Gamma(<A, s> + c)^sign of an Ore-Sato coefficient."""

    sign: int  # +1 numerator Gamma, -1 reciprocal Gamma

    def __post_init__(self):
        super().__post_init__()
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


@dataclass(frozen=True)
class OreSatoCoefficient:
    """t^s * U(s) * prod Gamma(<A_i, s> + c_i)^{sign_i}.

    The rational part U(s) = prod L / prod M is a quotient of products of
    affine forms; general periodic factors are out of scope.
    """

    n: int
    factors: tuple[GammaFactor, ...] = ()
    exponential: tuple[Fraction, ...] | None = None
    rational_num: tuple[LinearForm, ...] = ()
    rational_den: tuple[LinearForm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "rational_num", tuple(self.rational_num))
        object.__setattr__(self, "rational_den", tuple(self.rational_den))
        for f in self.factors + self.rational_num + self.rational_den:
            if len(f.A) != self.n:
                raise ValueError(f"factor {f.A} has {len(f.A)} entries, expected {self.n}")
        if self.exponential is not None:
            t = tuple(Fraction(v) for v in self.exponential)
            if len(t) != self.n:
                raise ValueError("exponential vector dimension mismatch")
            if any(v == 0 for v in t):
                raise DomainError("exponential vector must be nonzero")
            object.__setattr__(self, "exponential", t)

    def is_reciprocal_only(self) -> bool:
        return all(f.sign == -1 for f in self.factors)

    def value_at(self, s: Sequence[int]) -> Fraction:
        """Exact value at an integer point.

        Every Gamma argument must be an integer.  A reciprocal Gamma at a
        nonpositive integer is zero; a numerator Gamma there, like a zero
        of U's denominator, is a pole and raises DomainError.  The rational
        part and a rational exponential are multiplied in.
        """
        s = tuple(int(x) for x in s)
        value = Fraction(1)
        for f in self.factors:
            arg = f.argument(s)
            if arg.denominator != 1:
                raise DomainError("Gamma factor with non-integer argument at this point")
            arg = int(arg)
            if f.sign == -1:
                if arg <= 0:
                    return Fraction(0)
                value /= factorial(arg - 1)
            else:
                if arg <= 0:
                    raise DomainError("numerator Gamma pole; reflect to reciprocal form first")
                value *= factorial(arg - 1)
        for form in self.rational_num:
            value *= form.argument(s)
        for form in self.rational_den:
            den = form.argument(s)
            if den == 0:
                raise DomainError("rational part has a pole at this point")
            value /= den
        if self.exponential is not None:
            for t, x in zip(self.exponential, s):
                value *= Fraction(t) ** x
        return value


@dataclass(frozen=True)
class HornSystem:
    """Per-direction operator pairs x_j P_j(theta) f = Q_j(theta) f."""

    n: int
    pairs: tuple[tuple[LaurentPolynomial, LaurentPolynomial], ...]


def psi_from_polytope(P: IntegerPolytope) -> OreSatoCoefficient:
    """The canonical reciprocal coefficient 1 / prod_j Gamma(1 - <B_j, s> - c_j)."""
    factors = [
        GammaFactor(tuple(-b for b in f.B), Fraction(1 - f.c), -1) for f in P.facets
    ]
    return OreSatoCoefficient(P.n, tuple(factors))


def psi_coefficient(P: IntegerPolytope, s: Sequence[int]) -> Fraction:
    """Exact value of the canonical polytope coefficient at a lattice point.

    Positive exactly on the lattice points of P, zero elsewhere.
    """
    value = Fraction(1)
    for f in P.facets:
        arg = 1 - f.value(s)  # 1 - <B,s> - c
        if arg <= 0:
            return Fraction(0)
        value /= factorial(arg - 1)
    return value


def hypergeometric_polynomial(P: IntegerPolytope) -> LaurentPolynomial:
    """The canonical polynomial of the polytope, scaled to coprime integers.

    Emits a warning (not an error) when the lattice points split into several
    unit-step components; the construction still goes through but the result
    decomposes into independent solutions of the same system.
    """
    S = lattice_points(P)
    comps = zn_connected_components(S)
    if len(comps) > 1:
        names = ", ".join(str(sorted(c.points)) for c in comps)
        warnings.warn(
            f"lattice support splits into {len(comps)} unit-step components: {names}",
            stacklevel=2,
        )
    terms = {s: psi_coefficient(P, s) for s in S.points}
    return LaurentPolynomial(P.n, terms).scaled_to_integers()


def polynomial_from_coefficient(
    phi: OreSatoCoefficient, lo: Sequence[int], hi: Sequence[int]
) -> LaurentPolynomial:
    """Polynomial with coefficients phi(s) over an integer box scan."""
    ranges = [range(int(a), int(b) + 1) for a, b in zip(lo, hi)]
    terms = {}
    for s in itertools.product(*ranges):
        v = phi.value_at(s)
        if v != 0:
            terms[s] = v
    return LaurentPolynomial(phi.n, terms)


def reflect_to_reciprocal(phi: OreSatoCoefficient) -> OreSatoCoefficient:
    """Replace each numerator Gamma(l(s)) by 1/Gamma(1 - l(s)).

    The per-direction quotient functions are unchanged up to an exponential
    factor, which is dropped together with any existing exponential part
    (it affects neither the support nor the amoeba topology).
    """
    factors = []
    for f in phi.factors:
        if f.sign == 1:
            factors.append(GammaFactor(tuple(-a for a in f.A), 1 - f.c, -1))
        else:
            factors.append(f)
    return OreSatoCoefficient(
        phi.n, tuple(factors), None, phi.rational_num, phi.rational_den
    )


def _affine(n: int, A: Sequence[int], c: Fraction) -> LaurentPolynomial:
    terms = {(0,) * n: Fraction(c)}
    for j, a in enumerate(A):
        if a:
            exp = [0] * n
            exp[j] = 1
            terms[tuple(exp)] = Fraction(a)
    return LaurentPolynomial(n, terms)


def _telescoped_factors(
    phi: OreSatoCoefficient,
) -> tuple[tuple[tuple[AffineFactor, ...], tuple[AffineFactor, ...]], ...]:
    """The affine factors (A, c), meaning <A, theta> + c, of each pair (P_j, Q_j).

    A factor F(L)^sigma of phi, L = <A, s> + c, contributes the quotient
    F(L + d)/F(L) in direction j, d = A_j.  For a Gamma factor that is the
    numerator forms L + l, l < d, over the denominator forms L + d + l,
    l < -d.  For a form of the rational part F is the identity, sigma is +1
    in U's numerator and -1 in its denominator, and the quotient is L + d
    over L when d != 0.  sigma = -1 swaps numerator and denominator.
    Numerator forms go to P_j, denominator forms to Q_j written in the
    shifted variable (c - d), so that the quotient reads P_j(s)/Q_j(s+e_j).
    The exponential part is not a factor: it scales P_j by a constant.

    Fewer than n factors and forms give no holonomic system: DomainError.
    """
    forms = [(f, f.sign) for f in phi.factors]
    forms += [(f, 1) for f in phi.rational_num] + [(f, -1) for f in phi.rational_den]
    if len(forms) < phi.n:
        raise DomainError("need at least n factors for a holonomic Horn system")
    out = []
    for j in range(phi.n):
        P: list[AffineFactor] = []
        Q: list[AffineFactor] = []
        for f, sign in forms:
            d = f.A[j]
            if isinstance(f, GammaFactor):
                num = [f.c + ell for ell in range(d)]
                den = [f.c + d + ell for ell in range(-d)]
            else:
                num, den = ([f.c + d], [f.c]) if d else ([], [])
            if sign == -1:
                num, den = den, num
            P += [(f.A, c) for c in num]
            Q += [(f.A, c - d) for c in den]
        out.append((tuple(P), tuple(Q)))
    return tuple(out)


def horn_system(phi: OreSatoCoefficient) -> HornSystem:
    """Operator pairs (P_j, Q_j) from telescoping phi(s + e_j)/phi(s).

    Each P_j and Q_j is the expanded product of the affine factors listed by
    :func:`_telescoped_factors`, P_j times the exponential part t_j if
    there is one.  This reproduces the annihilator operators for generic
    supports.
    """
    n = phi.n
    pairs = []
    for j, (p_factors, q_factors) in enumerate(_telescoped_factors(phi)):
        P = LaurentPolynomial.constant(n, 1)
        Q = LaurentPolynomial.constant(n, 1)
        for A, c in p_factors:
            P = P * _affine(n, A, c)
        for A, c in q_factors:
            Q = Q * _affine(n, A, c)
        if phi.exponential is not None:
            P = P * Fraction(phi.exponential[j])
        pairs.append((P, Q))
    return HornSystem(n, tuple(pairs))


def apply_horn_operator(p: LaurentPolynomial, j: int, H: HornSystem) -> LaurentPolynomial:
    """Exact action of x_j P_j(theta) - Q_j(theta) on a polynomial."""
    p = require_exact(p)
    P, Q = H.pairs[j]
    terms: dict[IntVec, Fraction] = {}
    for s, a in p.terms.items():
        up = tuple(e + (1 if k == j else 0) for k, e in enumerate(s))
        pv = a * P.evaluate_exact(s)
        qv = a * Q.evaluate_exact(s)
        if pv:
            terms[up] = terms.get(up, Fraction(0)) + pv
        if qv:
            terms[s] = terms.get(s, Fraction(0)) - qv
    return LaurentPolynomial(p.n, terms)


def is_horn_solution(
    p: LaurentPolynomial, phi: OreSatoCoefficient, up_to_monomial: bool = True
) -> bool:
    """True iff every operator x_j P_j(theta) - Q_j(theta) of phi maps p to zero.

    With ``up_to_monomial`` (the default) a polynomial is also accepted when
    some monomial multiple x^gamma p solves the system: solutions normalized
    into the positive quadrant are identified with their Laurent translates,
    consistent with identifying Newton polytopes up to translation.  The
    operators are never expanded; :func:`_solving_shifts` decides the
    recurrence they impose on the coefficients over their affine factors.
    """
    p = require_exact(p)
    if p.n != phi.n:
        raise ValueError(f"polynomial in {p.n} variables, coefficient in {phi.n}")
    factors = _telescoped_factors(phi)
    if p.is_zero():
        return True
    shifts = _solving_shifts(p, phi, factors)
    return bool(shifts) if up_to_monomial else (0,) * p.n in shifts


def _solving_shifts(p: LaurentPolynomial, phi: OreSatoCoefficient, factors) -> list[IntVec]:
    """Integer shifts gamma for which x^gamma p solves the system, in lex order.

    The operator in direction j maps x^gamma p to the polynomial whose
    coefficient at x^(t+gamma) is a_{t-e_j} P_j(t-e_j+gamma) -
    a_t Q_j(t+gamma), with a = 0 off the support.  That is zero for every t
    exactly when

    * Q_j(t+gamma) = 0 at every lower end t of the support in direction j
      (t - e_j is not in the support);
    * P_j(s+gamma) = 0 at every upper end s (s + e_j is not in the support);
    * a_s P_j(s+gamma) = a_{s+e_j} Q_j(s+e_j+gamma) for every pair of
      adjacent support points s, s + e_j.

    Since P_j and Q_j are products of affine factors, each end condition is
    a union of hyperplanes in gamma.  The lex-minimal support point is a
    lower end and the lex-maximal one an upper end in every direction, so
    their 2n conditions come first.  All end conditions together cut
    gamma-space into affine subspaces, and their integer points that meet
    the adjacent-pair condition are the solving shifts.  A subspace of
    dimension 0 is a point and is taken wherever it lies; on a line or
    plane, only points whose free coordinates lie in [-r, r] are taken,
    r = span + max|c| + max||A||_1 + 2, so a solving shift whose free
    coordinates fall outside that box is missed.
    """
    n = p.n
    support = sorted(p.terms)
    span = max(max(e[k] for e in support) - min(e[k] for e in support) for k in range(n))
    forms = list(phi.factors) + list(phi.rational_num) + list(phi.rational_den)
    c_bound = max(abs(f.c) for f in forms)
    a_bound = max(sum(abs(a) for a in f.A) for f in forms)
    radius = int(span + c_bound + a_bound + 2)

    conditions = [_hyperplanes(q, support[0]) for _, q in factors]
    conditions += [_hyperplanes(pf, support[-1]) for pf, _ in factors]
    for j, (pf, q) in enumerate(factors):
        for s in support:
            if _step(s, j, -1) not in p.terms:
                conditions.append(_hyperplanes(q, s))
            if _step(s, j, 1) not in p.terms:
                conditions.append(_hyperplanes(pf, s))
    pairs = _adjacent_pairs(p, phi, factors)
    return sorted({
        gamma
        for rows in _cut(n, list(dict.fromkeys(conditions)))
        for gamma in _integer_points(n, rows, radius)
        if _pairs_hold(pairs, gamma)
    })


Hyperplane = tuple[int, ...]  # (a_1, ..., a_n, r): <a, gamma> = r, primitive, first a_k > 0
Subspace = tuple[Hyperplane, ...]  # reduced row echelon form; () is the whole space


def _hyperplanes(factors: Sequence[AffineFactor], t: IntVec) -> frozenset[Hyperplane]:
    """The hyperplanes of gamma with integer points on which a factor vanishes at t + gamma."""
    out = set()
    for A, c in factors:
        a = [x * c.denominator for x in A]
        r = -c.numerator - sum(x * y for x, y in zip(a, t))
        if r % gcd(*a) == 0:
            out.add(_primitive(a + [r]))
    return frozenset(out)


def _cut(n: int, conditions: Sequence[frozenset[Hyperplane]]) -> set[Subspace]:
    """Affine subspaces whose union is the set of gammas meeting every condition.

    A subspace that lies in one hyperplane of a condition is kept whole;
    otherwise it is split into its intersections with the hyperplanes.  Each
    subspace is the exact integer echelon of its hyperplanes.
    """
    spaces: set[Subspace] = {()}
    for planes in conditions:
        cut: set[Subspace] = set()
        for rows in spaces:
            pieces = []
            for h in planes:
                v = _reduce(rows, h)
                if any(v[:n]):
                    pieces.append(_add_row(rows, v))
                elif v[n] == 0:  # rows lie in h
                    pieces = [rows]
                    break
            cut.update(pieces)
        spaces = cut
    return spaces


def _integer_points(n: int, rows: Subspace, radius: int) -> Iterator[IntVec]:
    """Integer points of the subspace with every free coordinate in [-radius, radius].

    The pivot coordinates are whatever the rows make of the free ones.
    """
    pivots = [_pivot(row) for row in rows]
    free = [k for k in range(n) if k not in pivots]
    for values in itertools.product(range(-radius, radius + 1), repeat=len(free)):
        gamma = [0] * n
        for k, x in zip(free, values):
            gamma[k] = x
        for k, row in zip(pivots, rows):
            x, rem = divmod(row[n] - sum(row[f] * gamma[f] for f in free), row[k])
            if rem:
                break
            gamma[k] = x
        else:
            yield tuple(gamma)


def _adjacent_pairs(p: LaurentPolynomial, phi: OreSatoCoefficient, factors):
    """The recurrence between support points s, s + e_j, in integers.

    Each entry (P, Q, s, s + e_j, a, b) asks a * prod P(s+gamma) =
    b * prod Q(s+e_j+gamma).  Coefficients are scaled to integers and every
    factor <A, x> + c to the integer form <d A, x> + d c, d the denominator
    of c; the constants dropped that way, and the exponential part, go
    into a and b.
    """
    coeffs = {s: int(c) for s, c in p.scaled_to_integers().terms.items()}
    out = []
    for j, (p_factors, q_factors) in enumerate(factors):
        P = [(tuple(a * c.denominator for a in A), c.numerator) for A, c in p_factors]
        Q = [(tuple(a * c.denominator for a in A), c.numerator) for A, c in q_factors]
        t = Fraction(1) if phi.exponential is None else phi.exponential[j]
        p_weight = t.numerator * prod(c.denominator for _, c in q_factors)
        q_weight = t.denominator * prod(c.denominator for _, c in p_factors)
        for s, a in coeffs.items():
            up = _step(s, j, 1)
            if up in coeffs:
                out.append((P, Q, s, up, a * p_weight, coeffs[up] * q_weight))
    return out


def _pairs_hold(pairs, gamma: IntVec) -> bool:
    return all(
        a * _product(P, s, gamma) == b * _product(Q, up, gamma)
        for P, Q, s, up, a, b in pairs
    )


def _step(s: IntVec, j: int, d: int) -> IntVec:
    return s[:j] + (s[j] + d,) + s[j + 1:]


def _product(forms, s: IntVec, gamma: IntVec) -> int:
    return prod(sum(a * (x + g) for a, x, g in zip(A, s, gamma)) + c for A, c in forms)


def annihilator_for_support(S: LatticeSupport) -> OreSatoCoefficient:
    """prod over alpha in S of Gamma(|s| - |alpha|) / prod_j Gamma(s_j - alpha_j + 1),
    a coefficient whose Horn system kills anything supported in S."""
    pts = S.sorted_points()
    factors = [GammaFactor((1,) * S.n, -sum(alpha), 1) for alpha in pts]
    for j in range(S.n):
        unit = tuple(1 if k == j else 0 for k in range(S.n))
        factors += [GammaFactor(unit, 1 - alpha[j], -1) for alpha in pts]
    return OreSatoCoefficient(S.n, tuple(factors))

"""Integer polytopes, facet normals, lattice points and support combinatorics.

Facets are stored as primitive integer outer normals B with integer offsets c
such that the polytope satisfies <B, s> + c <= 0.  Hull computation is a
monotone chain in the plane and a brute-force normal search in every other
dimension; all polytopes arising here are small.

The package's one exact integer linear-algebra kernel is here too: the
fraction-free reduced echelon ``_echelon`` (after Bareiss, Math. Comp. 22,
1968).  Ranks, facet normals, the singularity test of a monomial change of
variables and the affine subspaces of Horn verification are read off it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DegeneratePolytopeError

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class Facet:
    """Supporting hyperplane {s : <B, s> + c = 0} with primitive outer normal B."""

    B: IntVec
    c: int

    def value(self, s: Sequence[int]) -> int:
        return sum(b * x for b, x in zip(self.B, s)) + self.c


@dataclass(frozen=True)
class IntegerPolytope:
    n: int
    vertices: tuple[IntVec, ...]
    facets: tuple[Facet, ...]

    def contains(self, s: Sequence[int]) -> bool:
        return all(f.value(s) <= 0 for f in self.facets)

    def bounding_box(self) -> tuple[IntVec, IntVec]:
        lo = tuple(min(v[k] for v in self.vertices) for k in range(self.n))
        hi = tuple(max(v[k] for v in self.vertices) for k in range(self.n))
        return lo, hi

    def translate(self, a: Sequence[int]) -> "IntegerPolytope":
        a = tuple(int(x) for x in a)
        return IntegerPolytope(
            self.n,
            tuple(tuple(v[k] + a[k] for k in range(self.n)) for v in self.vertices),
            tuple(Facet(f.B, f.c - sum(b * x for b, x in zip(f.B, a))) for f in self.facets),
        )

    def canonical_translate(self) -> "IntegerPolytope":
        """Translate so the bounding box touches the origin from above.

        Matches the convention used for the worked hypergeometric examples:
        the componentwise minimum of the vertex set is moved to the origin.
        """
        lo, _ = self.bounding_box()
        return self.translate(tuple(-x for x in lo))


@dataclass(frozen=True)
class LatticeSupport:
    n: int
    points: frozenset[IntVec]

    @classmethod
    def of(cls, n: int, points: Iterable[Sequence[int]]) -> "LatticeSupport":
        pts = frozenset(tuple(int(x) for x in p) for p in points)
        if not pts:
            raise ValueError("support must be nonempty")
        return cls(n, pts)

    def sorted_points(self) -> list[IntVec]:
        return sorted(self.points)


def _hull_2d(points: list[IntVec]) -> list[IntVec]:
    """Convex hull vertices in counterclockwise order (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[IntVec] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[IntVec] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def facet_description(vertices: Iterable[Sequence[int]]) -> IntegerPolytope:
    """Hull + facet inequalities with primitive integer outer normals."""
    pts = [tuple(int(x) for x in v) for v in vertices]
    if not pts:
        raise DegeneratePolytopeError("empty vertex list")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("inconsistent point dimensions")
    pts = sorted(set(pts))

    if n == 2:
        hull = _hull_2d(pts)
        if len(hull) < 3:
            raise DegeneratePolytopeError("hull is not two-dimensional")
        facets = []
        for i in range(len(hull)):
            p, q = hull[i], hull[(i + 1) % len(hull)]
            # outer normal of the ccw edge p -> q
            g = gcd(q[0] - p[0], q[1] - p[1])
            normal = ((q[1] - p[1]) // g, (p[0] - q[0]) // g)
            c = -(normal[0] * p[0] + normal[1] * p[1])
            facets.append(Facet(normal, c))
        start = min(range(len(hull)), key=lambda i: hull[i])
        hull = hull[start:] + hull[:start]
        return IntegerPolytope(2, tuple(hull), tuple(facets))

    # in any other dimension, a brute-force facet search from n-point subsets
    candidates: set[Facet] = set()
    for subset in itertools.combinations(pts, n):
        base = subset[0]
        mat = [tuple(p[k] - base[k] for k in range(n)) for p in subset[1:]]
        normal = _normal_from_rows(n, mat)
        if normal is None:
            continue
        for sign in (1, -1):
            b = tuple(sign * v for v in normal)
            hmax = max(sum(bb * x for bb, x in zip(b, p)) for p in pts)
            if sum(bb * x for bb, x in zip(b, base)) == hmax:
                candidates.add(Facet(b, -hmax))
    facets = tuple(sorted(candidates, key=lambda f: (f.B, f.c)))

    # a vertex is a point whose tight facet normals span R^n
    verts = []
    for p in pts:
        tight = [f.B for f in facets if f.value(p) == 0]
        if len(tight) >= n and _rank(tight) == n:
            verts.append(p)
    if _rank([tuple(v[k] - verts[0][k] for k in range(n)) for v in verts[1:]]) < n:
        raise DegeneratePolytopeError("hull is not full-dimensional")
    return IntegerPolytope(n, tuple(sorted(verts)), facets)


def _normal_from_rows(n: int, rows: list[IntVec]) -> IntVec | None:
    """Primitive integer vector orthogonal to the rows, None unless their rank is n - 1.

    It has the lcm L of the echelon's pivots at the one free column and
    -row[free] * L / row[pivot] at each pivot column."""
    ech = {_pivot(row): row for row in _echelon(rows)}
    if len(ech) != n - 1:
        return None
    free = next(k for k in range(n) if k not in ech)
    scale = lcm(*(row[k] for k, row in ech.items()))
    return _primitive(
        [scale if k == free else -ech[k][free] * (scale // ech[k][k]) for k in range(n)]
    )


# -- the exact integer echelon ---------------------------------------------

def _echelon(rows: Iterable[Sequence[int]]) -> tuple[IntVec, ...]:
    """Fraction-free reduced echelon form of integer rows.

    One row per unit of rank, sorted by pivot (first nonzero) column; every
    row is primitive with a positive pivot, and each pivot column is zero in
    the other rows.  Entries stay integers throughout.
    """
    out: tuple[IntVec, ...] = ()
    for row in rows:
        v = _reduce(out, row)
        if any(v):
            out = _add_row(out, v)
    return out


def _rank(rows: Iterable[Sequence[int]]) -> int:
    return len(_echelon(rows))


def _reduce(rows: tuple[IntVec, ...], h: Sequence[int]) -> list[int]:
    """h with every pivot column of rows eliminated (up to a nonzero factor)."""
    v = list(h)
    for row in rows:
        k = _pivot(row)
        if v[k]:
            f, g = row[k], v[k]
            v = [x * f - g * y for x, y in zip(v, row)]
    return v


def _add_row(rows: tuple[IntVec, ...], v: list[int]) -> tuple[IntVec, ...]:
    """Echelon form of rows plus v, where v is reduced by rows and nonzero."""
    v = _primitive(v)
    k = _pivot(v)
    out = [
        _primitive([x * v[k] - row[k] * y for x, y in zip(row, v)]) if row[k] else row
        for row in rows
    ]
    out.append(v)
    return tuple(sorted(out, key=_pivot))


def _primitive(v: Sequence[int]) -> IntVec:
    """A nonzero integer vector over its content, its first nonzero entry positive."""
    g = gcd(*v)
    if v[_pivot(v)] < 0:
        g = -g
    return tuple(x // g for x in v)


def _pivot(row: Sequence[int]) -> int:
    return next(k for k, x in enumerate(row) if x)


def lattice_points(P: IntegerPolytope) -> LatticeSupport:
    """All integer points of P by a bounding-box scan."""
    lo, hi = P.bounding_box()
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    pts = [s for s in itertools.product(*ranges) if P.contains(s)]
    return LatticeSupport.of(P.n, pts)


def is_zn_convex(S: LatticeSupport) -> bool:
    """True iff every integer point on a segment between members of S is in S."""
    pts = S.sorted_points()
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            delta = tuple(b - a for a, b in zip(p, q))
            g = gcd(*(abs(d) for d in delta))
            if g <= 1:
                continue
            step = tuple(d // g for d in delta)
            for t in range(1, g):
                mid = tuple(a + t * s for a, s in zip(p, step))
                if mid not in S.points:
                    return False
    return True


def zn_connected_components(S: LatticeSupport) -> list[LatticeSupport]:
    """Partition of S into unit-step path components, ordered by lexicographic minimum."""
    remaining = set(S.points)
    components: list[LatticeSupport] = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        remaining.discard(seed)
        while frontier:
            p = frontier.pop()
            for k in range(S.n):
                for d in (-1, 1):
                    q = tuple(x + (d if i == k else 0) for i, x in enumerate(p))
                    if q in remaining:
                        remaining.discard(q)
                        comp.add(q)
                        frontier.append(q)
        components.append(LatticeSupport.of(S.n, comp))
    components.sort(key=lambda c: min(c.points))
    return components


def newton_polytope(p) -> IntegerPolytope:
    """Convex hull of the support of a nonzero (exact or complex) polynomial."""
    if not p.terms:
        raise DegeneratePolytopeError("zero polynomial has empty support")
    return facet_description(list(p.support))

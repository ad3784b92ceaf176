"""Integer polytopes, facet normals, lattice points and support combinatorics.

Facets are stored as primitive integer outer normals B with integer offsets c
such that the polytope satisfies <B, s> + c <= 0.  Hull computation is a
monotone chain in the plane and a brute-force normal search in higher
dimension; all polytopes arising here are small.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import DegeneratePolytopeError
from .laurent import LaurentPolynomial, _int_det

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


def _primitive(vec: Sequence[int]) -> IntVec:
    g = gcd(*(abs(v) for v in vec))
    if g == 0:
        raise ValueError("zero normal vector")
    return tuple(v // g for v in vec)


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

    if n == 1:
        lo, hi = min(p[0] for p in pts), max(p[0] for p in pts)
        if lo == hi:
            raise DegeneratePolytopeError("zero-length segment")
        return IntegerPolytope(1, ((lo,), (hi,)), (Facet((-1,), lo), Facet((1,), -hi)))

    if n == 2:
        hull = _hull_2d(pts)
        if len(hull) < 3:
            raise DegeneratePolytopeError("hull is not two-dimensional")
        facets = []
        for i in range(len(hull)):
            p, q = hull[i], hull[(i + 1) % len(hull)]
            # outer normal of the ccw edge p -> q
            normal = _primitive((q[1] - p[1], p[0] - q[0]))
            c = -(normal[0] * p[0] + normal[1] * p[1])
            facets.append(Facet(normal, c))
        start = min(range(len(hull)), key=lambda i: hull[i])
        hull = hull[start:] + hull[:start]
        return IntegerPolytope(2, tuple(hull), tuple(facets))

    return _facet_description_nd(n, pts)


def _facet_description_nd(n: int, pts: list[IntVec]) -> IntegerPolytope:
    """Brute-force facet search from (n-1)-point subsets; fine for small inputs."""
    candidates: set[Facet] = set()
    for subset in itertools.combinations(pts, n):
        base = subset[0]
        mat = [tuple(p[k] - base[k] for k in range(n)) for p in subset[1:]]
        normal = _normal_from_rows(n, mat)
        if normal is None:
            continue
        normal = _primitive(normal)
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


def _normal_from_rows(n: int, rows: list[IntVec]):
    """Integer vector orthogonal to n-1 row vectors, via signed minors."""
    if len(rows) != n - 1:
        return None
    normal = []
    for k in range(n):
        minor = [tuple(r[j] for j in range(n) if j != k) for r in rows]
        normal.append((-1) ** k * _int_det(minor))
    if all(v == 0 for v in normal):
        return None
    return tuple(normal)


def _rank(rows: list[IntVec]) -> int:
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                factor = mat[i][col] / mat[rank][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


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


def newton_polytope(p: LaurentPolynomial) -> IntegerPolytope:
    """Convex hull of the support of a nonzero (exact or complex) polynomial."""
    if not p.terms:
        raise DegeneratePolytopeError("zero polynomial has empty support")
    return facet_description(list(p.support))

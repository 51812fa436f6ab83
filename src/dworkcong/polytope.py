"""Newton polytopes and exact lattice geometry via integer facet inequalities.

Each `LatticePolytope` builds, once and on first use, an integer
H-representation of the hull of its generating points:

* the affine-hull equations `e.x = c`, one per vector of an integer kernel
  basis of the difference vectors `p - p0`;
* the primitive facet normals `a.x <= b`.  The hull has some dimension
  r <= d, and projecting onto r pivot coordinates of the difference
  vectors is injective on its affine hull.  Every facet there is spanned by
  r generating points, so each r-subset gives the cofactor normal of its
  difference vectors; divided by its gcd, it is kept (oriented outwards)
  when every generating point lies on one side.  Lifted back with zeros
  in the other coordinates it is valid on the affine hull.

Membership then needs only dot products, exact for integer and `Fraction`
queries: closed membership is every equation and every facet inequality;
strict interior membership is `r == d` together with `a.q < b` for every
facet, because a hull of lower dimension has no interior and a
full-dimensional one is the intersection of its facet half-spaces.  A
generating point is a vertex when the facets tight at it have normals of
rank r.  The build costs about C(m, r) * m dot products for m generating
points, which is immediate for the supports of tens of points this tool
targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul

from .laurent import LaurentPoly


def _dot(a, q):
    return sum(map(mul, a, q))


def _primitive(v):
    g = gcd(*v)
    return tuple(x // g for x in v)


def _rref(rows, ncols):
    """Reduced row echelon form over Q: (its nonzero rows, their pivot columns)."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        piv = rows[r][col]
        prow = rows[r] = [v / piv for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, prow)]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def _kernel(rows, pivots, ncols):
    """Primitive integer basis of the null space of a matrix in RREF."""
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, col in zip(rows, pivots):
            v[col] = -row[free]
        den = lcm(*(x.denominator for x in v))
        basis.append(_primitive([int(x * den) for x in v]))
    return basis


def _det(m):
    """Determinant of a small square integer matrix (Laplace expansion)."""
    if not m:
        return 1
    return _dot(m[0], _cofactor_normal(m[1:], len(m)))


def _cofactor_normal(rows, r):
    """Normal in Z^r to r - 1 vectors: their signed maximal minors."""
    return [(-1) ** j * _det([row[:j] + row[j + 1 :] for row in rows])
            for j in range(r)]


def _h_representation(points):
    """(rank, equations, facets) of conv(points); see the module docstring.

    Equations are pairs (e, c) meaning e.x == c, facets pairs (a, b) meaning
    a.x <= b, all integer and primitive.
    """
    d = len(points[0])
    base = points[0]
    rows, pivots = _rref([[x - y for x, y in zip(pt, base)] for pt in points[1:]], d)
    equations = tuple((e, _dot(e, base)) for e in _kernel(rows, pivots, d))
    r = len(pivots)
    proj = [tuple(pt[c] for c in pivots) for pt in points]
    facets = set()
    if r:
        for subset in combinations(proj, r):
            q0 = subset[0]
            normal = _cofactor_normal(
                [tuple(x - y for x, y in zip(q, q0)) for q in subset[1:]], r)
            if not any(normal):
                continue
            normal = _primitive(normal)
            b = _dot(normal, q0)
            values = [_dot(normal, q) for q in proj]
            if max(values) == b:
                facets.add((normal, b))
            elif min(values) == b:
                facets.add((tuple(-x for x in normal), -b))
    lifted = []
    for normal, b in sorted(facets):
        a = [0] * d
        for col, x in zip(pivots, normal):
            a[col] = x
        lifted.append((tuple(a), b))
    return r, equations, tuple(lifted)


class LatticePolytope:
    """Convex hull of a finite set of integer points (the generating points)."""

    __slots__ = ("arity", "points", "_vertices", "_hrep")

    def __init__(self, arity, points):
        if not isinstance(arity, int) or arity < 1:
            raise ValueError(f"arity must be a positive integer, got {arity}")
        clean = set()
        for pt in points:
            pt = tuple(pt)
            if len(pt) != arity:
                raise ValueError(f"point {pt} does not have arity {arity}")
            if not all(isinstance(x, int) for x in pt):
                raise ValueError(f"generating points must be integral, got {pt}")
            clean.add(pt)
        if not clean:
            raise ValueError("polytope needs at least one generating point")
        self.points = tuple(sorted(clean))
        self.arity = arity
        self._vertices = None
        self._hrep = None

    def _inequalities(self):
        """(rank, equations, facets), built on first use and then kept."""
        if self._hrep is None:
            self._hrep = _h_representation(self.points)
        return self._hrep

    def _check_point(self, q):
        q = tuple(x if isinstance(x, int) else Fraction(x) for x in q)
        if len(q) != self.arity:
            raise ValueError(f"query point {q} does not have arity {self.arity}")
        return q

    def contains(self, q, strict=False) -> bool:
        """Exact membership of a rational point, closed or strict-interior."""
        q = self._check_point(q)
        rank, equations, facets = self._inequalities()
        if strict:
            return rank == self.arity and all(_dot(a, q) < b for a, b in facets)
        return (all(_dot(e, q) == c for e, c in equations)
                and all(_dot(a, q) <= b for a, b in facets))

    def vertices(self):
        """Generating points not in the hull of the others, lex-sorted.

        A generating point is a vertex when the normals of the facets tight
        at it span the hull's direction space.
        """
        if self._vertices is None:
            rank, _, facets = self._inequalities()
            self._vertices = [
                v for v in self.points
                if len(_rref([a for a, b in facets if _dot(a, v) == b],
                             self.arity)[1]) == rank
            ]
        return list(self._vertices)

    def interior_lattice_points(self):
        """Integer points strictly inside the hull, lex-sorted.

        Scans the bounding box of the generating points; interior points
        cannot lie outside it, so the scan is exhaustive.
        """
        lows = [min(pt[t] for pt in self.points) for t in range(self.arity)]
        highs = [max(pt[t] for pt in self.points) for t in range(self.arity)]
        found = []
        for cand in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
            if self.contains(cand, strict=True):
                found.append(cand)
        return found

    def __repr__(self):
        return f"LatticePolytope(arity={self.arity}, points={list(self.points)})"


def newton_polytope(lam: LaurentPoly) -> LatticePolytope:
    """Convex hull of the exponent vectors of lam's monomials."""
    if not lam:
        raise ValueError("the zero polynomial has no Newton polytope")
    return LatticePolytope(lam.arity, lam.support())


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the origin-only-interior-point test."""

    admissible: bool
    interior_points: tuple
    offending_points: tuple

    def as_dict(self):
        return {
            "admissible": self.admissible,
            "interior_points": [list(pt) for pt in self.interior_points],
            "offending_points": [list(pt) for pt in self.offending_points],
        }


def is_admissible(lam: LaurentPoly) -> AdmissibilityReport:
    """Whether the origin is the unique interior integral point of Newt(lam).

    Polynomials failing this test still make sense as inputs to the
    congruence checkers (behind an explicit override) but the congruences
    are no longer guaranteed; the report lists the offending points.
    """
    return _admissibility(newton_polytope(lam))


def _admissibility(poly: LatticePolytope) -> AdmissibilityReport:
    """`is_admissible` for a Newton polytope already built."""
    interior = tuple(poly.interior_lattice_points())
    origin = (0,) * poly.arity
    admissible = interior == (origin,)
    offending = tuple(pt for pt in interior if pt != origin)
    return AdmissibilityReport(admissible, interior, offending)

"""Newton polytopes and exact lattice geometry via rational linear programming.

Membership questions are decided exactly: the simplex method is run over
`fractions.Fraction` with Bland's pivoting rule, which terminates without any
numerical tolerance questions.  Supports here are tiny (tens of points), so
correctness wins over speed.

Closed membership of q in conv(S) is a phase-1 feasibility problem for a
convex combination.  Strict interior membership is the single LP

    maximize eps  s.t.  q + eps*w in conv(S)  for all 2d axis directions w,

because a convex body contains a ball around q iff it contains such a
cross-polytope.  Dimension-deficient hulls need no special casing: the
optimum is then 0, correctly reporting an empty interior.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .laurent import LaurentPoly

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(rows, basis, r, col):
    prow = rows[r]
    piv = prow[col]
    if piv != 1:
        rows[r] = prow = [v / piv for v in prow]
    for i, row in enumerate(rows):
        if i != r and row[col]:
            f = row[col]
            rows[i] = [a - f * b for a, b in zip(row, prow)]
    basis[r] = col


def _bland(rows, basis, cost, ncols):
    """Run simplex pivots (Bland's rule) until optimal or unbounded."""
    m = len(rows)
    while True:
        cb = [cost[b] for b in basis]
        entering = None
        for j in range(ncols):
            r = cost[j]
            for i in range(m):
                if cb[i] and rows[i][j]:
                    r -= cb[i] * rows[i][j]
            if r > 0:
                entering = j
                break
        if entering is None:
            return "optimal"
        leaving = None
        best = None
        for i in range(m):
            a = rows[i][entering]
            if a > 0:
                key = (rows[i][-1] / a, basis[i])
                if best is None or key < best:
                    best = key
                    leaving = i
        if leaving is None:
            return "unbounded"
        _pivot(rows, basis, leaving, entering)


def _phase1(A, b):
    """Feasible basis for {Ax = b, x >= 0}, or None if infeasible."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [_ZERO] * m
        art[i] = _ONE
        rows.append(row + art + [rhs])
    basis = list(range(n, n + m))
    cost = [_ZERO] * n + [-_ONE] * m
    _bland(rows, basis, cost, n + m)
    if any(basis[i] >= n and rows[i][-1] != 0 for i in range(len(rows))):
        return None
    i = 0
    while i < len(rows):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j] != 0), None)
            if col is None:
                del rows[i]
                del basis[i]
                continue
            _pivot(rows, basis, i, col)
        i += 1
    return rows, basis, n


def lp_feasible(A, b) -> bool:
    """Whether {x >= 0 : Ax = b} is nonempty (exact rational arithmetic)."""
    return _phase1(A, b) is not None


def lp_maximize(A, b, c):
    """Maximize c.x over {x >= 0 : Ax = b}.

    Returns (status, value) with status one of "infeasible", "unbounded",
    "optimal"; value is a Fraction when optimal, else None.
    """
    prepared = _phase1(A, b)
    if prepared is None:
        return "infeasible", None
    rows, basis, n = prepared
    cost = [Fraction(v) for v in c] + [_ZERO] * (len(rows[0]) - 1 - len(c))
    status = _bland(rows, basis, cost, n)
    if status == "unbounded":
        return "unbounded", None
    value = sum(cost[basis[i]] * rows[i][-1] for i in range(len(rows)))
    return "optimal", value


class LatticePolytope:
    """Convex hull of a finite set of integer points (the generating points)."""

    __slots__ = ("arity", "points", "_vertices")

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

    def _check_point(self, q):
        q = tuple(Fraction(x) for x in q)
        if len(q) != self.arity:
            raise ValueError(f"query point {q} does not have arity {self.arity}")
        return q

    def contains(self, q, strict=False) -> bool:
        """Exact membership of a rational point, closed or strict-interior."""
        q = self._check_point(q)
        d = self.arity
        pts = self.points
        m = len(pts)
        if not strict:
            A = [[pt[t] for pt in pts] for t in range(d)]
            A.append([1] * m)
            b = list(q) + [1]
            return lp_feasible(A, b)
        ndirs = 2 * d
        ncols = ndirs * m + 1
        A = []
        b = []
        for j in range(ndirs):
            axis, sign = divmod(j, 2)
            w = 1 if sign == 0 else -1
            base = j * m
            for t in range(d):
                row = [0] * ncols
                for i, pt in enumerate(pts):
                    row[base + i] = pt[t]
                if t == axis:
                    row[-1] = -w
                A.append(row)
                b.append(q[t])
            row = [0] * ncols
            for i in range(m):
                row[base + i] = 1
            A.append(row)
            b.append(1)
        c = [0] * (ncols - 1) + [1]
        status, value = lp_maximize(A, b, c)
        return status == "optimal" and value > 0

    def vertices(self):
        """Generating points not in the hull of the others, lex-sorted.

        One closed-membership LP per generating point.
        """
        if self._vertices is None:
            verts = []
            d = self.arity
            for v in self.points:
                others = [pt for pt in self.points if pt != v]
                if not others:
                    verts.append(v)
                    continue
                A = [[pt[t] for pt in others] for t in range(d)]
                A.append([1] * len(others))
                b = list(v) + [1]
                if not lp_feasible(A, b):
                    verts.append(v)
            self._vertices = verts
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
    interior = tuple(newton_polytope(lam).interior_lattice_points())
    origin = (0,) * lam.arity
    admissible = interior == (origin,)
    offending = tuple(pt for pt in interior if pt != origin)
    return AdmissibilityReport(admissible, interior, offending)

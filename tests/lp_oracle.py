"""Exact rational linear programming: the differential oracle for polytopes.

The simplex method runs over `fractions.Fraction` with Bland's pivoting
rule, which terminates without numerical tolerances.  `lp_contains` and
`lp_vertices` answer the questions `dworkcong.polytope.LatticePolytope`
answers from its facet inequalities, by an independent route:

* closed membership of q in conv(S) is a phase-1 feasibility problem for a
  convex combination;
* strict interior membership is the single LP

      maximize eps  s.t.  q + eps*w in conv(S)  for all 2d axis directions w,

  because a convex body contains a ball around q iff it contains such a
  cross-polytope; dimension-deficient hulls give optimum 0 (no interior);
* a generating point is a vertex when it is not in the hull of the others.

`rref` and `rref_kernel` are the `Fraction` row reduction and null space
that `dworkcong.polytope._eliminate` and `_kernel` replaced with integer
elimination; they are kept here as its oracle.
"""

from fractions import Fraction
from math import gcd, lcm

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


def lp_contains(points, q, strict=False) -> bool:
    """Exact membership of a rational point in conv(points), by LP."""
    d = len(q)
    pts = list(points)
    m = len(pts)
    if not strict:
        A = [[pt[t] for pt in pts] for t in range(d)]
        A.append([1] * m)
        return lp_feasible(A, list(q) + [1])
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


def lp_vertices(points):
    """Points of the list not in the hull of the others, lex-sorted."""
    pts = sorted(set(map(tuple, points)))
    return [v for v in pts
            if len(pts) == 1 or not lp_contains([p for p in pts if p != v], v)]


def rref(rows, ncols):
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


def rref_kernel(rows, pivots, ncols):
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
        v = [int(x * den) for x in v]
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis

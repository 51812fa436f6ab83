import json
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, gcd, prod
from pathlib import Path

import pytest

from dworkcong import polytope
from dworkcong.ghost import GhostCalculator
from dworkcong.laurent import LaurentPoly
from dworkcong.polyparse import parse_poly
from dworkcong.polytope import (LatticePolytope, _eliminate, _h_representation,
                                _kernel, is_admissible, newton_polytope)
from lp_oracle import (lp_contains, lp_feasible, lp_maximize, lp_vertices, rref,
                       rref_kernel)

APERY_SRC = "(1+x1)*(1+x2)*(1+x1+x2)/(x1*x2)"
PENTAGON = [(-1, -1), (-1, 1), (0, 1), (1, -1), (1, 0)]


def apery():
    return parse_poly(APERY_SRC, 2)


# -- independent oracle: Caratheodory search in dimension <= 2 -----------------


def _on_segment(a, b, q):
    ab = (b[0] - a[0], b[1] - a[1])
    aq = (q[0] - a[0], q[1] - a[1])
    if ab[0] * aq[1] - ab[1] * aq[0] != 0:
        return False
    dot = aq[0] * ab[0] + aq[1] * ab[1]
    den = ab[0] * ab[0] + ab[1] * ab[1]
    if den == 0:
        return aq == (0, 0)
    return 0 <= dot <= den


def brute_hull_contains(points, q):
    """Closed membership by exhaustive Caratheodory search (d <= 2)."""
    d = len(q)
    if d == 1:
        xs = [pt[0] for pt in points]
        return min(xs) <= q[0] <= max(xs)
    pts = list(points)
    for a in pts:
        if tuple(a) == tuple(q):
            return True
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            if _on_segment(a, b, q):
                return True
    for i, a in enumerate(pts):
        for j, b in enumerate(pts[i + 1 :], i + 1):
            for c in pts[j + 1 :]:
                det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
                if det == 0:
                    continue
                l2 = Fraction((q[0] - a[0]) * (c[1] - a[1])
                              - (c[0] - a[0]) * (q[1] - a[1]), det)
                l3 = Fraction((b[0] - a[0]) * (q[1] - a[1])
                              - (q[0] - a[0]) * (b[1] - a[1]), det)
                l1 = 1 - l2 - l3
                if l1 >= 0 and l2 >= 0 and l3 >= 0:
                    return True
    return False


# -- LP core --------------------------------------------------------------------


def test_lp_feasible_basic():
    # x + y = 2, x - y = 0 -> x = y = 1
    assert lp_feasible([[1, 1], [1, -1]], [2, 0])
    # x + y = -1 with x, y >= 0: impossible
    assert not lp_feasible([[1, 1]], [-1])


def test_lp_maximize_basic():
    # max x subject to x + s = 3
    status, value = lp_maximize([[1, 1]], [3], [1, 0])
    assert status == "optimal" and value == 3
    # max x subject to x - s = 1 (x unbounded above)
    status, value = lp_maximize([[1, -1]], [1], [1, 0])
    assert status == "unbounded"
    status, value = lp_maximize([[1, 1]], [-2], [1, 0])
    assert status == "infeasible"


# -- membership -----------------------------------------------------------------


def test_apery_strict_interior_examples():
    P = newton_polytope(apery())
    assert P.contains((0, 0), strict=True)
    assert not P.contains((1, 0), strict=True)
    assert P.contains((1, 0))  # vertex: closed yes, strict no
    assert not P.contains((2, 0))
    assert P.contains((Fraction(1, 2), Fraction(-1, 2), ), strict=True)


def test_segment_interior():
    P = LatticePolytope(1, [(-1,), (1,)])
    assert P.contains((0,), strict=True)
    assert not P.contains((1,), strict=True)
    assert P.contains((1,))
    assert P.contains((Fraction(-999, 1000),), strict=True)


def test_arity_mismatch():
    P = LatticePolytope(2, [(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        P.contains((1,))


# -- vertices ---------------------------------------------------------------------


def test_apery_vertices_pentagon():
    P = newton_polytope(apery())
    assert P.vertices() == sorted(PENTAGON)


def test_single_point_and_collinear_vertices():
    assert LatticePolytope(1, [(3,)]).vertices() == [(3,)]
    assert LatticePolytope(1, [(-1,), (0,), (1,)]).vertices() == [(-1,), (1,)]


def test_vertices_idempotent():
    P = newton_polytope(apery())
    V = P.vertices()
    assert LatticePolytope(2, V).vertices() == V


# -- interior lattice points -------------------------------------------------------


def test_apery_interior_points():
    P = newton_polytope(apery())
    assert P.interior_lattice_points() == [(0, 0)]


def test_cube_power_interval():
    lam = parse_poly("(x1+x1^-1)^3", 1)
    P = newton_polytope(lam)
    assert P.interior_lattice_points() == [(-2,), (-1,), (0,), (1,), (2,)]


def test_lower_dimensional_empty_interior():
    P = LatticePolytope(2, [(0, 0), (1, 0)])
    assert P.interior_lattice_points() == []


# -- admissibility ------------------------------------------------------------------


def test_admissibility_trio():
    assert is_admissible(apery()).admissible
    assert is_admissible(parse_poly("x1+x1^-1", 1)).admissible
    report = is_admissible(parse_poly("(x1+x1^-1)^3", 1))
    assert not report.admissible
    assert len(report.interior_points) == 5
    assert ((0,) in report.interior_points) and report.offending_points
    report = is_admissible(LaurentPoly.constant(2, 5))
    assert not report.admissible
    assert report.interior_points == ()


def test_newton_polytope_of_zero_rejected():
    with pytest.raises(ValueError):
        newton_polytope(LaurentPoly.zero(2))


# -- agreement with the brute-force oracle -------------------------------------------


def test_closed_membership_matches_bruteforce():
    rng = random.Random(5150)
    for _ in range(25):
        d = rng.choice([1, 2])
        pts = [tuple(rng.randint(-4, 4) for _ in range(d))
               for _ in range(rng.randint(1, 7))]
        P = LatticePolytope(d, pts)
        for _ in range(8):
            q = tuple(
                Fraction(rng.randint(-10, 10), rng.randint(1, 3)) for _ in range(d)
            )
            assert P.contains(q) == brute_hull_contains(P.points, q), (pts, q)
        for q in P.points:
            assert P.contains(q)


def test_strict_implies_closed():
    rng = random.Random(51)
    for _ in range(10):
        pts = [tuple(rng.randint(-3, 3) for _ in range(2))
               for _ in range(rng.randint(1, 6))]
        P = LatticePolytope(2, pts)
        for _ in range(6):
            q = (Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(-6, 6), 2))
            if P.contains(q, strict=True):
                assert P.contains(q)


# -- Newton containment of ghost terms (small instance; the big one is acceptance) ---


def test_ghost_newton_containment_small():
    lam = apery().reduce_mod(2, 4)
    calc = GhostCalculator(lam)
    hull = LatticePolytope(2, newton_polytope(apery()).vertices())
    for s in (1, 2):
        R = calc.ghost_term(s)
        ps = 2**s
        for e in R.support():
            assert hull.contains(tuple(Fraction(x, ps) for x in e))


# -- differential tests against the simplex LP (tests/lp_oracle.py) ------------


def _queries(points):
    """The bounding box's lattice points, each generating point moved one step
    along each axis (one step outside at the extremes), midpoints of pairs
    (edges and diagonals), centroids of triples in 3-d (facets), the
    centroid, and each generating point pushed a seventh of the way beyond
    itself from the centroid."""
    d = len(points[0])
    qs = set(_box(points))
    for pt in points:
        for t in range(d):
            for step in (-1, 1):
                qs.add(pt[:t] + (pt[t] + step,) + pt[t + 1 :])
    for a, b in combinations(points, 2):
        qs.add(tuple(Fraction(x + y, 2) for x, y in zip(a, b)))
    if d >= 3:
        for a, b, c in combinations(points, 3):
            qs.add(tuple(Fraction(x + y + z, 3) for x, y, z in zip(a, b, c)))
    centre = tuple(Fraction(sum(pt[t] for pt in points), len(points)) for t in range(d))
    qs.add(centre)
    for pt in points:
        qs.add(tuple(x + (x - c) / 7 for x, c in zip(pt, centre)))
    return sorted(qs)


def _box(points):
    d = len(points[0])
    return product(*(range(min(pt[t] for pt in points), max(pt[t] for pt in points) + 1)
                     for t in range(d)))


def assert_matches_oracle(arity, points):
    """contains (closed and strict), vertices and interior_lattice_points
    agree with the simplex LP on conv(points)."""
    P = LatticePolytope(arity, points)
    pts = P.points
    assert P.vertices() == lp_vertices(pts), pts
    strict = {}
    for q in _queries(pts):
        closed = lp_contains(pts, q)
        assert P.contains(q) == closed, (pts, q)
        # The strict interior lies in the closed hull: outside it the strict
        # LP is infeasible, so it runs only on closed members.
        strict[q] = closed and lp_contains(pts, q, strict=True)
        assert P.contains(q, strict=True) == strict[q], (pts, q)
    assert P.interior_lattice_points() == [q for q in _box(pts) if strict[q]], pts


SUITE_SUPPORTS = [
    (APERY_SRC, 2),
    ("x1+x1^-1", 1),
    ("x1+x2+x1^-1*x2^-1", 2),
    ("x1+x2+x3+x1^-1*x2^-1*x3^-1", 3),
    ("(x1+x1^-1)^3", 1),
    ("x1^2+x1^-2+x1", 1),
]


@pytest.mark.parametrize("src,d", SUITE_SUPPORTS)
def test_suite_supports_match_lp_oracle(src, d):
    assert_matches_oracle(d, parse_poly(src, d).support())


def test_pentagon_matches_lp_oracle():
    assert_matches_oracle(2, PENTAGON)


@pytest.mark.oracle
def test_small_planar_supports_match_lp_oracle():
    grid = list(product((-1, 0, 1), repeat=2))
    for k in range(1, 5):
        for pts in combinations(grid, k):
            assert_matches_oracle(2, pts)


@pytest.mark.oracle
def test_random_spatial_supports_match_lp_oracle():
    rng = random.Random(20261018)
    for _ in range(10):
        pts = {tuple(rng.randint(-2, 2) for _ in range(3))
               for _ in range(rng.randint(1, 6))}
        assert_matches_oracle(3, sorted(pts))


@pytest.mark.parametrize("pts", [
    [(2, -1)],
    [(-1, -1), (0, 0), (2, 2)],
    [(1, 0, -1)],
    [(0, 0, 0), (1, 2, 3), (-1, -2, -3)],
    [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2), (-1, 1, 0)],
    [(1, 1, 0), (-1, 0, 2), (0, -1, 1), (2, 1, -1)],
])
def test_dimension_deficient_hulls_match_lp_oracle(pts):
    assert_matches_oracle(len(pts[0]), pts)


# -- the facet cache and hulls rebuilt from their vertices -------------------------


@pytest.mark.parametrize("src,d", SUITE_SUPPORTS)
def test_hull_of_vertices_answers_alike(src, d):
    P = newton_polytope(parse_poly(src, d))
    V = LatticePolytope(d, P.vertices())
    assert V.vertices() == P.vertices()
    assert V.interior_lattice_points() == P.interior_lattice_points()
    for q in _queries(P.points):
        assert V.contains(q) == P.contains(q), q
        assert V.contains(q, strict=True) == P.contains(q, strict=True), q


def test_facets_built_once_per_polytope(monkeypatch):
    builds = []
    real = polytope._h_representation

    def counting(points):
        builds.append(points)
        return real(points)

    monkeypatch.setattr(polytope, "_h_representation", counting)
    P = newton_polytope(apery())
    assert builds == []
    P.vertices()
    for q in _queries(P.points):
        P.contains(q)
        P.contains(q, strict=True)
    P.interior_lattice_points()
    P.vertices()
    assert builds == [P.points]
    assert is_admissible(apery()).admissible
    assert len(builds) == 2


# -- integer elimination against the Fraction oracle ------------------------------


def random_matrix(rng, nrows, ncols):
    """A small integer matrix of random rank: a product of random factors,
    sometimes with a row or a column set to zero."""
    k = rng.randint(0, min(nrows, ncols))
    A = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nrows)]
    B = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(k)]
    M = [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] if k else [0] * ncols
         for row in A]
    if nrows and rng.random() < 0.3:
        M[rng.randrange(nrows)] = [0] * ncols
    if ncols and rng.random() < 0.3:
        j = rng.randrange(ncols)
        for row in M:
            row[j] = 0
    return M


def leibniz(M):
    """Determinant of a square matrix as a sum over permutations."""
    total = 0
    for perm in permutations(range(len(M))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * prod(M[i][j] for i, j in enumerate(perm))
    return total


def test_elimination_matches_fraction_rref():
    rng = random.Random(1968)
    for nrows, ncols in product(range(6), repeat=2):
        for _ in range(25):
            M = random_matrix(rng, nrows, ncols)
            R, pivots, det = _eliminate(M)
            Q, qpivots = rref(M, ncols)
            assert pivots == qpivots, M
            assert det != 0 and R == [[det * x for x in row] for row in Q], M
            if nrows == ncols == len(pivots):
                assert abs(det) == abs(leibniz(M)), M
            K = _kernel(M, ncols)
            assert K == rref_kernel(Q, qpivots, ncols), M
            assert len(K) == ncols - len(pivots)
            for v in K:
                assert gcd(*v) == 1
                assert all(polytope._dot(row, v) == 0 for row in M), (M, v)


def test_elimination_of_empty_and_zero_matrices():
    assert _eliminate([]) == ([], [], 1)
    assert _eliminate([[], []]) == ([], [], 1)
    assert _eliminate([[0, 0], [0, 0]]) == ([], [], 1)
    assert _kernel([], 2) == [(1, 0), (0, 1)]
    assert _kernel([[], []], 0) == []
    assert _kernel([[0, 0, 0]], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert _eliminate([[0, 2], [3, 1]]) == ([[6, 0], [0, 6]], [0, 1], 6)  # det -6, rows swapped
    assert _kernel([[2, 4, -6]], 3) == [(-2, 1, 0), (3, 0, 1)]


def test_collinear_points_on_an_edge_add_no_facet():
    # (0,0,0), (1,0,0), (2,0,0) have differences of rank 1: the first vector
    # of their kernel, x2 = 0, supports the hull along that edge only
    P = LatticePolytope(3, [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 1), (0, 1, -1)])
    assert _h_representation(P.points) == (3, (), (
        ((-1, 0, 0), 0), ((0, -1, -1), 0), ((0, -1, 1), 0), ((1, 2, 0), 2)))
    assert P.vertices() == [(0, 0, 0), (0, 1, -1), (0, 1, 1), (2, 0, 0)]


def test_hulls_match_the_golden_record():
    """_h_representation, vertices() and interior_lattice_points() on 200
    seeded supports in d = 1..4, lower-dimensional ones included, as
    recorded from the Fraction row reduction and Laplace minors that the
    integer elimination replaced."""
    path = Path(__file__).with_name("hull_golden.json")
    for case in json.loads(path.read_text()):
        points = [tuple(pt) for pt in case["points"]]
        P = LatticePolytope(len(points[0]), points)
        rank, equations, facets = _h_representation(P.points)
        assert rank == case["rank"], points
        assert [[list(e), c] for e, c in equations] == case["equations"], points
        assert [[list(a), b] for a, b in facets] == case["facets"], points
        assert [list(v) for v in P.vertices()] == case["vertices"], points
        interior = [list(q) for q in P.interior_lattice_points()]
        assert interior == case["interior"], points


# -- the geometry budget ---------------------------------------------------------


class _Estimated(Exception):
    pass


def estimates(monkeypatch):
    """Record each geometry estimate that passes the budget, then stop."""
    seen = []
    check = polytope.check

    def record(work, what, unit):
        check(work, what, unit)
        seen.append((what, work, unit))
        raise _Estimated

    monkeypatch.setattr(polytope, "check", record)
    return seen


def test_budget_admits_the_84_point_hull(monkeypatch):
    seen = estimates(monkeypatch)
    P = newton_polytope(parse_poly("(1+x1+x2+x3)^6/(x1*x2*x3)", 3))
    assert len(P.points) == 84
    with pytest.raises(_Estimated):
        P.vertices()
    assert seen == [("the hull", comb(84, 3) * 84, "dot products")]


def test_interior_scan_is_priced_by_box_and_facets(monkeypatch):
    P = newton_polytope(apery())
    P.vertices()  # builds the hull
    seen = estimates(monkeypatch)
    with pytest.raises(_Estimated):
        P.interior_lattice_points()
    assert seen == [("the interior scan", 3 * 3 * 5, "dot products")]  # a 3x3 box, 5 facets


def test_lower_dimensional_hulls_are_not_scanned():
    # a segment's box holds 4e18 points: scanning it would be refused
    P = LatticePolytope(2, [(-10**9, -10**9), (10**9, 10**9)])
    assert P.interior_lattice_points() == []

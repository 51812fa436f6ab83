"""Newton polytopes and the admissibility test.

Everything downstream (the mod-p^s congruences) requires the Newton
polytope of L to contain the origin as its only interior lattice point.
The test is exact: membership is decided by integer facet inequalities,
never by floating point.
"""

from fractions import Fraction

from dworkcong import apery_polynomial, is_admissible, newton_polytope, parse_poly

for src, d in [
    ("(1+x1)*(1+x2)*(1+x1+x2)/(x1*x2)", 2),
    ("x1 + x1^-1", 1),
    ("(x1+x1^-1)^3", 1),
    ("5", 1),
]:
    lam = parse_poly(src, d)
    P = newton_polytope(lam)
    report = is_admissible(lam)
    print(f"L = {src}")
    print(f"  support:  {P.points}")
    print(f"  vertices: {P.vertices()}")
    print(f"  interior lattice points: {report.interior_points}")
    print(f"  admissible: {report.admissible}")
    print()

# Membership queries take arbitrary rational points, closed or strict.
P = newton_polytope(apery_polynomial())
for q in [(0, 0), (1, 0), (Fraction(1, 2), Fraction(1, 2))]:
    print(f"q = {q}:  closed {P.contains(q)},  strict {P.contains(q, strict=True)}")

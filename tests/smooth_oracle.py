"""Singular-point search over F_{p**k}: the differential oracle for smoothness.

`dworkcong.unitroot.is_smooth_cubic` decides smoothness by one rank over
F_p.  This module decides it by an independent route, a search for common
projective zeros of the partial derivatives over F_{p**k}, k = 1..4: the
singular locus of a plane cubic is cut out by two conics, so by Bezout any
singular point has residue degree at most 4.

* For p >= 5 the search runs chart by chart, solving for the second
  coordinate as a quadratic (an exhaustive scan over the first coordinate);
  the Euler relation 3F = X F_X + Y F_Y + Z F_Z (3 invertible) puts F's
  zero wherever the partials vanish.
* For p in {2, 3} every point of P**2(F_{p**k}) is tried directly,
  including the vanishing of F itself (the Euler relation says nothing in
  characteristic 3).
"""

from dworkcong.unitroot import CUBIC_MONOMIALS, QUAD_MONOMIALS, finite_field


def _eval_form(field, monomials, coeffs, x, y, z):
    """A form with F_p coefficients at a point of F_{p**k}**3."""
    total = field.zero
    for (a, b, c), coef in zip(monomials, coeffs):
        if coef:
            term = field.scalar(coef)
            for base, e in ((x, a), (y, b), (z, c)):
                for _ in range(e):
                    term = field.mul(term, base)
            total = field.add(total, term)
    return total


def _projective_points(field):
    one = field.one
    zero = field.zero
    for x in field.elements():
        for y in field.elements():
            yield x, y, one
    for x in field.elements():
        yield x, one, zero
    yield one, zero, zero


def _has_singular_point_naive(cubic, k: int) -> bool:
    """Scan all of P**2(F_{p**k}) for a common zero of F and its partials."""
    field = finite_field(cubic.p, k)
    quads = cubic.partials()
    zero = field.zero
    for x, y, z in _projective_points(field):
        if _eval_form(field, CUBIC_MONOMIALS, cubic.coeffs, x, y, z) != zero:
            continue
        if all(_eval_form(field, QUAD_MONOMIALS, q, x, y, z) == zero for q in quads):
            return True
    return False


def _quad_roots(field, A, B, C):
    """Roots of A y**2 + B y + C over F_q, odd characteristic.

    Returns a list of roots, or None meaning "identically zero" (every y).
    """
    zero = field.zero
    if A == zero:
        if B == zero:
            return None if C == zero else []
        return [field.neg(field.mul(C, field.inv(B)))]
    disc = field.sub(field.mul(B, B),
                     field.mul(field.scalar(4), field.mul(A, C)))
    root = field.sqrt(disc)
    if root is None:
        return []
    inv2a = field.inv(field.mul(field.scalar(2), A))
    if root == zero:
        return [field.mul(field.neg(B), inv2a)]
    return [
        field.mul(field.sub(root, B), inv2a),
        field.mul(field.sub(field.neg(root), B), inv2a),
    ]


def _common_quad_roots(field, triples):
    """Common roots of several y-quadratics; None means every y works."""
    live = [t for t in triples if any(v != field.zero for v in t)]
    if not live:
        return None
    roots = _quad_roots(field, *live[0])
    if roots is None:
        # the first triple was nonzero yet vanished identically: impossible
        raise AssertionError("nonzero quadratic cannot vanish identically")
    out = []
    for y in roots:
        ok = True
        for A, B, C in live[1:]:
            val = field.add(field.mul(A, field.mul(y, y)),
                            field.add(field.mul(B, y), C))
            if val != field.zero:
                ok = False
                break
        if ok:
            out.append(y)
    return out


def _has_singular_point_charts(cubic, k: int) -> bool:
    """Common zero of the partials over F_{p**k}, p >= 5, chart by chart.

    On the chart Z = 1 each partial is a quadratic in y with coefficients
    quadratic in x, so an exhaustive scan over x plus exact quadratic solving
    covers every point.  The Euler relation (3 invertible) guarantees F
    itself vanishes wherever all partials do.
    """
    field = finite_field(cubic.p, k)
    quads = cubic.partials()
    zero = field.zero

    # chart Z = 1: partial g -> A y^2 + B(x) y + C(x)
    # with A = g020, B = g110 x + g011, C = g200 x^2 + g101 x + g002
    parts = []
    for g200, g110, g101, g020, g011, g002 in quads:
        parts.append((
            field.scalar(g020),
            (field.scalar(g110), field.scalar(g011)),
            (field.scalar(g200), field.scalar(g101), field.scalar(g002)),
        ))
    for x in field.elements():
        x2 = field.mul(x, x)
        triples = []
        for A, (b1, b0), (c2, c1, c0) in parts:
            B = field.add(field.mul(b1, x), b0)
            C = field.add(field.add(field.mul(c2, x2), field.mul(c1, x)), c0)
            triples.append((A, B, C))
        roots = _common_quad_roots(field, triples)
        if roots is None or roots:
            return True

    # line Z = 0, points (x : 1 : 0): each partial restricts to a quadratic
    # in x with coefficients g200, g110, g020
    triples = [(field.scalar(g[0]), field.scalar(g[1]), field.scalar(g[3]))
               for g in quads]
    roots = _common_quad_roots(field, triples)
    if roots is None or roots:
        return True

    # the point (1 : 0 : 0)
    if all(field.scalar(g[0]) == zero for g in quads):
        return True
    return False


def search_is_smooth(cubic) -> bool:
    """No singular point over F_{p**k} for any k <= 4."""
    search = _has_singular_point_naive if cubic.p <= 3 else _has_singular_point_charts
    return not any(search(cubic, k) for k in range(1, 5))

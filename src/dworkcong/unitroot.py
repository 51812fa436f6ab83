"""p-adic unit roots of the Apery family, cross-checked by point counting.

Two independent routes to the same number:

  * analytic: the approximants omega_s(z) = f_s(z)/f_{s-1}(z**p) evaluated at
    the Teichmuller point z_t, which converge on the domain
    D = {z : f_1(z) a unit} with error at most p**(-s);

  * algebraic: counting points of the plane cubic

        t (X+Z)(Y+Z)(X+Y+Z) = X Y Z

    over F_p by brute force gives a_p = p + 1 - #points, and Hensel lifting
    the unit root of T**2 - a_p T + p (ordinary case: a_p a unit).

The two must agree mod p**s for smooth ordinary fibers; f_1(t) mod p is the
Hasse invariant of the family, so ordinariness can also be read off the
domain test.  Supersingular and singular t are reported, never silently
skipped, so sweep tables are complete.

Smoothness is decided by exhaustive search for common projective zeros of
the partial derivatives over F_{p**k}, k = 1..4: the singular locus of a
plane cubic is cut out by two conics, so by Bezout any singular point has
residue degree at most 4.  For p >= 5 the search runs chart by chart,
solving for the second coordinate as a quadratic (an exhaustive scan over
the first coordinate); for p in {2, 3} every point of P**2(F_{p**k}) is
tried directly, including the vanishing of F itself (the Euler relation
3F = X F_X + Y F_Y + Z F_Z says nothing in characteristic 3).

Finite fields F_{p**k} are realized as quotient rings by a deterministic
irreducible modulus (first monic irreducible in lexicographic order of the
coefficient tuple, constant term first), so reports are bit-reproducible.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from itertools import product

from .apery import apery_numbers_mod
from .padic import PadicInt, _context_modulus, hensel_quadratic_unit_root, teichmuller

# -- Dwork domain and approximants -------------------------------------------


def dwork_domain_test(b, p: int, z: int) -> bool:
    """Whether the residue z mod p lies in D = {z : f_1(z) a unit}.

    For z in Z_p the norm of f_1(z) depends only on z mod p, so a residue
    decides membership.  Needs b through p - 1.
    """
    if len(b) < p:
        raise ValueError(f"need b through index {p - 1}, got {len(b)} values")
    acc = 0
    for c in reversed(b[:p]):
        acc = (acc * z + c) % p
    return acc != 0


def omega_approx(b, p: int, z: PadicInt, s: int) -> PadicInt:
    """The approximant f_s(z) / f_{s-1}(z**p) mod p**s.

    z must carry precision at least s.  z**p is computed honestly even at
    Teichmuller points (where it equals z), preserving generality.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if z.p != p:
        raise ValueError(f"z lives over p={z.p}, requested p={p}")
    if z.K < s:
        raise ValueError(f"z has precision {z.K} < s={s}")
    need = p**s
    if len(b) < need:
        raise ValueError(f"need b through index {need - 1}, got {len(b)} values")
    m = p**s
    zr = z.residue % m
    num = 0
    for c in reversed(b[:need]):
        num = (num * zr + c) % m
    zp = pow(zr, p, m)
    den = 0
    for c in reversed(b[: p ** (s - 1)]):
        den = (den * zp + c) % m
    if den % p == 0:
        raise ValueError(
            f"f_{s - 1}(z**p) = {den} is not a unit mod {p}: z is outside the "
            "domain D, contradicting the precondition"
        )
    return PadicInt(p, s, num * pow(den, -1, m))


# -- finite fields ------------------------------------------------------------


def _fp_poly_divmod(num, den, p):
    """Quotient/remainder of dense coefficient lists over F_p (den monic-ish)."""
    num = list(num)
    dn = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] % p
        if c:
            q = c * inv_lead % p
            quot[i - dn] = q
            for j, dj in enumerate(den):
                num[i - dn + j] = (num[i - dn + j] - q * dj) % p
    while len(num) > 1 and num[-1] % p == 0:
        num.pop()
    return quot, [v % p for v in num]


def _monic_polys(p, deg):
    """Monic degree-`deg` polynomials over F_p as dense lists, lex order."""
    for lower in product(range(p), repeat=deg):
        yield list(lower) + [1]


def _is_irreducible(poly, p):
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for cand in _monic_polys(p, d):
            _, rem = _fp_poly_divmod(poly, cand, p)
            if len(rem) == 1 and rem[0] == 0:
                return False
    return True


def smallest_irreducible(p: int, k: int) -> tuple:
    """Lower coefficients (constant first) of the first monic irreducible of
    degree k over F_p, in lexicographic order of the coefficient tuple."""
    for lower in product(range(p), repeat=k):
        if _is_irreducible(list(lower) + [1], p):
            return tuple(lower)
    raise ArithmeticError(f"no irreducible of degree {k} over F_{p}")  # unreachable


class FqField:
    """Arithmetic in F_{p**k}; elements are length-k coefficient tuples.

    The representation is the polynomial basis modulo the deterministic
    irreducible from `smallest_irreducible`, constant coefficient first.
    """

    def __init__(self, p: int, k: int):
        _context_modulus(p, 1)
        if k < 1:
            raise ValueError("extension degree k must be >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = smallest_irreducible(p, k)
        self.zero = (0,) * k
        self.one = tuple([1] + [0] * (k - 1))
        self._sqrt = None

    def element(self, coeffs) -> tuple:
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.k:
            raise ValueError(f"element needs {self.k} coordinates")
        return coeffs

    def scalar(self, c: int) -> tuple:
        return tuple([c % self.p] + [0] * (self.k - 1))

    def elements(self):
        """All q field elements, lexicographic in (constant, ..., top)."""
        return (tuple(t) for t in product(range(self.p), repeat=self.k))

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return (a[0] * b[0] % p,)
        conv = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        mod = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = conv[i] % p
            if c:
                base = i - k
                for j, mj in enumerate(mod):
                    if mj:
                        conv[base + j] -= c * mj
        return tuple(v % p for v in conv[:k])

    def pow(self, a, n: int):
        result = self.one
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return result

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self.pow(a, self.q - 2)

    def sqrt(self, a):
        """A square root of a, or None if a is a non-square (table-backed)."""
        if self._sqrt is None:
            table = {}
            for e in self.elements():
                table.setdefault(self.mul(e, e), e)
            self._sqrt = table
        return self._sqrt.get(a)


@functools.lru_cache(maxsize=None)
def finite_field(p: int, k: int) -> FqField:
    return FqField(p, k)


# -- plane cubics --------------------------------------------------------------

CUBIC_MONOMIALS = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
)

QUAD_MONOMIALS = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


@dataclass(frozen=True)
class PlaneCubic:
    """Homogeneous cubic over F_p: ten coefficients in CUBIC_MONOMIALS order."""

    p: int
    coeffs: tuple

    def __post_init__(self):
        _context_modulus(self.p, 1)
        if len(self.coeffs) != 10:
            raise ValueError("a plane cubic has exactly 10 coefficients")
        object.__setattr__(self, "coeffs", tuple(c % self.p for c in self.coeffs))
        if not any(self.coeffs):
            raise ValueError("the zero form does not define a cubic")

    def evaluate(self, x: int, y: int, z: int) -> int:
        p = self.p
        total = 0
        for (a, b, c), coef in zip(CUBIC_MONOMIALS, self.coeffs):
            if coef:
                total += coef * pow(x, a, p) * pow(y, b, p) * pow(z, c, p)
        return total % p

    def partials(self):
        """Coefficient tuples (QUAD_MONOMIALS order) of dF/dX, dF/dY, dF/dZ."""
        out = []
        for var in range(3):
            quad = dict.fromkeys(QUAD_MONOMIALS, 0)
            for mono, coef in zip(CUBIC_MONOMIALS, self.coeffs):
                e = mono[var]
                if e and coef:
                    lowered = list(mono)
                    lowered[var] -= 1
                    key = tuple(lowered)
                    quad[key] = (quad[key] + e * coef) % self.p
            out.append(tuple(quad[m] for m in QUAD_MONOMIALS))
        return tuple(out)


def apery_fiber(p: int, t: int) -> PlaneCubic:
    """Projective model t(X+Z)(Y+Z)(X+Y+Z) - XYZ of the fiber at t != 0."""
    _context_modulus(p, 1)
    if t % p == 0:
        raise ValueError("t must be nonzero mod p (the fiber at 0 degenerates)")
    t = t % p
    # (X+Z)(Y+Z)(X+Y+Z) = X^2 Y + X Y^2 + X^2 Z + Y^2 Z + 2 X Z^2 + 2 Y Z^2
    #                     + 3 X Y Z + Z^3
    base = {
        (2, 1, 0): 1, (1, 2, 0): 1, (2, 0, 1): 1, (0, 2, 1): 1,
        (1, 0, 2): 2, (0, 1, 2): 2, (1, 1, 1): 3, (0, 0, 3): 1,
    }
    coeffs = []
    for mono in CUBIC_MONOMIALS:
        c = t * base.get(mono, 0)
        if mono == (1, 1, 1):
            c -= 1
        coeffs.append(c % p)
    return PlaneCubic(p, tuple(coeffs))


def count_projective_points(cubic: PlaneCubic) -> int:
    """Zeros of F among the p**2 + p + 1 points of P**2(F_p), by enumeration."""
    p = cubic.p
    count = 0
    for x in range(p):
        for y in range(p):
            if cubic.evaluate(x, y, 1) == 0:
                count += 1
    for x in range(p):
        if cubic.evaluate(x, 1, 0) == 0:
            count += 1
    if cubic.evaluate(1, 0, 0) == 0:
        count += 1
    return count


# -- smoothness ---------------------------------------------------------------


def _eval_quad_field(field, quad, x, y, z):
    total = field.zero
    for (a, b, c), coef in zip(QUAD_MONOMIALS, quad):
        if coef:
            term = field.scalar(coef)
            for _ in range(a):
                term = field.mul(term, x)
            for _ in range(b):
                term = field.mul(term, y)
            for _ in range(c):
                term = field.mul(term, z)
            total = field.add(total, term)
    return total


def _eval_cubic_field(field, cubic, x, y, z):
    total = field.zero
    for (a, b, c), coef in zip(CUBIC_MONOMIALS, cubic.coeffs):
        if coef:
            term = field.scalar(coef)
            for _ in range(a):
                term = field.mul(term, x)
            for _ in range(b):
                term = field.mul(term, y)
            for _ in range(c):
                term = field.mul(term, z)
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


def _has_singular_point_naive(cubic: PlaneCubic, k: int) -> bool:
    """Scan all of P**2(F_{p**k}) for a common zero of F and its partials."""
    field = finite_field(cubic.p, k)
    quads = cubic.partials()
    zero = field.zero
    for x, y, z in _projective_points(field):
        if _eval_cubic_field(field, cubic, x, y, z) != zero:
            continue
        if all(_eval_quad_field(field, q, x, y, z) == zero for q in quads):
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


def _has_singular_point_charts(cubic: PlaneCubic, k: int) -> bool:
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


@functools.lru_cache(maxsize=None)
def is_smooth_cubic(cubic: PlaneCubic, kmax: int = 4) -> bool:
    """Whether F has no singular point over the algebraic closure.

    Exhaustive search over F_{p**k} for k = 1..kmax; kmax = 4 suffices for
    plane cubics (the two partial-derivative conics meet in at most 4
    points, so singular points have residue degree at most 4).  Cached:
    cubics are immutable and the scan is the expensive step.
    """
    for k in range(1, kmax + 1):
        if cubic.p <= 3:
            if _has_singular_point_naive(cubic, k):
                return False
        else:
            if _has_singular_point_charts(cubic, k):
                return False
    return True


def a_p(cubic: PlaneCubic) -> int:
    """The trace p + 1 - #points; only meaningful for smooth cubics."""
    if not is_smooth_cubic(cubic):
        raise ValueError("a_p is defined here only for smooth cubics")
    return cubic.p + 1 - count_projective_points(cubic)


# -- zeta cross-check ----------------------------------------------------------


@dataclass(frozen=True)
class ZetaReport:
    """Per-fiber record of the unit-root cross-check.

    The unit-root fields are populated only when the fiber is smooth and
    ordinary; the Hasse fields only when it is smooth.
    """

    p: int
    t: int
    smooth: bool
    count: int
    a_p: int | None = None
    ordinary: bool | None = None
    hasse_lhs: int | None = None
    hasse_rhs: int | None = None
    hasse_agree: bool | None = None
    s: int | None = None
    unit_root: int | None = None
    omega: int | None = None
    agree: bool | None = None

    def as_dict(self) -> dict:
        out = {"p": self.p, "t": self.t, "smooth": self.smooth,
               "count": self.count}
        if self.smooth:
            out.update({
                "a_p": self.a_p,
                "ordinary": self.ordinary,
                "hasse_lhs": self.hasse_lhs,
                "hasse_rhs": self.hasse_rhs,
                "hasse_agree": self.hasse_agree,
            })
        if self.smooth and self.ordinary:
            out.update({
                "s": self.s,
                "unit_root": self.unit_root,
                "omega": self.omega,
                "agree": self.agree,
            })
        return out


def unit_root_compare(p: int, t: int, s: int, b=None) -> ZetaReport:
    """Compare the Hensel unit root with omega_s at the Teichmuller point.

    b may be supplied (through p**s - 1, any lift of the Apery numbers);
    otherwise it is generated from the recurrence.  Singular and
    supersingular fibers yield a report without unit-root fields.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if t % p == 0:
        raise ValueError("t must be nonzero mod p")
    t = t % p
    if b is None:
        b = apery_numbers_mod(p**s - 1, p**s)
    cubic = apery_fiber(p, t)
    smooth = is_smooth_cubic(cubic)
    count = count_projective_points(cubic)
    if not smooth:
        return ZetaReport(p=p, t=t, smooth=False, count=count)
    ap = p + 1 - count
    hasse_rhs = 0
    for c in reversed(b[:p]):
        hasse_rhs = (hasse_rhs * t + c) % p
    ordinary = ap % p != 0
    report = dict(
        p=p, t=t, smooth=True, count=count, a_p=ap, ordinary=ordinary,
        hasse_lhs=ap % p, hasse_rhs=hasse_rhs,
        hasse_agree=(ap - hasse_rhs) % p == 0,
    )
    if not ordinary:
        return ZetaReport(**report)
    u = hensel_quadratic_unit_root(PadicInt(p, s, ap))
    z = teichmuller(p, t, s)
    om = omega_approx(b, p, z, s)
    report.update(s=s, unit_root=u.residue, omega=om.residue, agree=u == om)
    return ZetaReport(**report)


def unit_root_sweep(p: int, s: int, jobs: int = 1) -> list:
    """unit_root_compare for every t in F_p^*, merged in order of t.

    jobs > 1 distributes fibers over processes, never more than there are
    fibers or CPUs; the output order stays by t.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    b = apery_numbers_mod(p**s - 1, p**s)
    ts = list(range(1, p))
    jobs = min(jobs, len(ts), os.cpu_count() or 1)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_sweep_worker, [(p, t, s, b) for t in ts]))
    return [unit_root_compare(p, t, s, b=b) for t in ts]


def _sweep_worker(args):
    p, t, s, b = args
    return unit_root_compare(p, t, s, b=b)

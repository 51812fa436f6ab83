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

Smoothness is one rank computation over F_p (`is_smooth_cubic`): F has no
singular point over the algebraic closure exactly when the degree-5
multiples of F, F_X, F_Y and F_Z span all quintics.  The tests check it
against a search for singular points over F_{p**k}, k <= 4
(tests/smooth_oracle.py).

Every request is estimated before any work and refused above WORK_BUDGET.

Finite fields F_{p**k} are realized as quotient rings by a deterministic
irreducible modulus (first monic irreducible in lexicographic order of the
coefficient tuple, constant term first), so reports are bit-reproducible.
"""

from __future__ import annotations

import functools
import os
from dataclasses import asdict, dataclass
from itertools import product

from .apery import apery_numbers_mod
from .padic import PadicInt, _context_modulus, hensel_quadratic_unit_root, teichmuller

# Work budget of one unit-root request, in point evaluations of a cubic
# (about 4 microseconds each with CPython 3.11 on a 2-vCPU x86 host, so
# the budget is about 40 s).  A request counts fibers * p**2 evaluations
# for its point counts, plus N + N**2 // 2048 for the Apery numbers
# b_0..b_{N-1}, N = p**s: the exact terms grow by about 3.5 bits per index,
# so the recurrence costs time quadratic in N.
WORK_BUDGET = 10**7


def _check_work(p: int, s: int, fibers: int) -> None:
    """Refuse (ValueError) a request whose estimated work is over budget."""
    if s < 1:
        raise ValueError("s must be >= 1")
    n = p**s if s < WORK_BUDGET.bit_length() else WORK_BUDGET + 1
    if fibers * p * p + n + n * n // 2048 > WORK_BUDGET:
        raise ValueError(
            f"p={p}, s={s} with {fibers} fiber(s) needs more than the work "
            f"budget of {WORK_BUDGET} point evaluations (b through p**s - 1 "
            "and a point count over F_p per fiber)")


# -- Dwork domain and approximants -------------------------------------------


def _eval_mod(coeffs, z: int, m: int) -> int:
    """sum(coeffs[n] * z**n) mod m, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * z + c) % m
    return acc


def dwork_domain_test(b, p: int, z: int) -> bool:
    """Whether the residue z mod p lies in D = {z : f_1(z) a unit}.

    For z in Z_p the norm of f_1(z) depends only on z mod p, so a residue
    decides membership.  Needs b through p - 1.
    """
    if len(b) < p:
        raise ValueError(f"need b through index {p - 1}, got {len(b)} values")
    return _eval_mod(b[:p], z, p) != 0


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
    m = p**s
    if len(b) < m:
        raise ValueError(f"need b through index {m - 1}, got {len(b)} values")
    zr = z.residue % m
    num = _eval_mod(b[:m], zr, m)
    den = _eval_mod(b[: p ** (s - 1)], pow(zr, p, m), m)
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

_QUINTIC_INDEX = {mono: i for i, mono in enumerate(
    (a, b, 5 - a - b) for a in range(5, -1, -1) for b in range(5 - a, -1, -1))}


def _rank_mod_p(rows, p) -> int:
    """Rank over F_p of integer rows, by Gaussian elimination (rows consumed)."""
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        top = rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], top)]
        rank += 1
    return rank


@functools.lru_cache(maxsize=None)
def is_smooth_cubic(cubic: PlaneCubic) -> bool:
    """Whether F has no singular point over the algebraic closure of F_p.

    The singular points are the common projective zeros of F, F_X, F_Y and
    F_Z, and they have none exactly when the ideal I these forms generate
    holds every quintic.  If they have no common zero, Lazard's form of
    Macaulay's bound (forms of degrees 3, 2, 2, ... in three variables) puts
    every form of degree 3 + 2 + 2 - 2 = 5 in I.  If I holds X**5, Y**5 and
    Z**5, a common zero would be a zero of all three, and there is none.
    The quintics of I are spanned by the 36 products of F with the six
    quadratic monomials and of each partial with the ten cubic monomials,
    so the test is that these span all 21 quintic monomials: one rank over
    F_p, which equals the rank over the closure.  F must be among the
    forms: in characteristic 3 the Euler relation 3F = X F_X + Y F_Y + Z F_Z
    does not put F in the partials' ideal.  Cached: cubics are immutable
    and sweeps revisit them.
    """
    forms = [(CUBIC_MONOMIALS, cubic.coeffs, QUAD_MONOMIALS)]
    forms += [(QUAD_MONOMIALS, q, CUBIC_MONOMIALS) for q in cubic.partials()]
    rows = []
    for monos, coeffs, multipliers in forms:
        for sx, sy, sz in multipliers:
            row = [0] * len(_QUINTIC_INDEX)
            for (a, b, c), coef in zip(monos, coeffs):
                row[_QUINTIC_INDEX[a + sx, b + sy, c + sz]] = coef
            rows.append(row)
    return _rank_mod_p(rows, cubic.p) == len(_QUINTIC_INDEX)


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
    ordinary; the Hasse fields only when it is smooth.  Unpopulated fields
    are None and are left out of `as_dict`.
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
        return {k: v for k, v in asdict(self).items() if v is not None}


def unit_root_compare(p: int, t: int, s: int, b=None) -> ZetaReport:
    """Compare the Hensel unit root with omega_s at the Teichmuller point.

    b may be supplied (through p**s - 1, any lift of the Apery numbers);
    otherwise it is generated from the recurrence.  Singular and
    supersingular fibers yield a report without unit-root fields.
    """
    _context_modulus(p, 1)
    if t % p == 0:
        raise ValueError("t must be nonzero mod p")
    t = t % p
    _check_work(p, s, 1)
    if b is None:
        b = apery_numbers_mod(p**s - 1, p**s)
    cubic = apery_fiber(p, t)
    smooth = is_smooth_cubic(cubic)
    count = count_projective_points(cubic)
    if not smooth:
        return ZetaReport(p=p, t=t, smooth=False, count=count)
    ap = p + 1 - count
    hasse_rhs = _eval_mod(b[:p], t, p)
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
    _context_modulus(p, 1)
    _check_work(p, s, p - 1)
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

"""p-adic unit roots of the Apery family, cross-checked by point counting.

Two independent routes to the same number:

  * analytic: the approximants omega_s(z) = f_s(z)/f_{s-1}(z**p) evaluated at
    the Teichmuller point z_t, which converge on the domain
    D = {z : f_1(z) a unit} with error at most p**(-s);

  * algebraic: counting points of the plane cubic

        t (X+Z)(Y+Z)(X+Y+Z) = X Y Z

    over F_p row by row (each row a polynomial in y, a quadratic read off one
    table of squares) gives a_p = p + 1 - #points, and Hensel lifting the
    unit root of T**2 - a_p T + p (ordinary case: a_p a unit).

The two must agree mod p**s for smooth ordinary fibers; f_1(t) mod p is the
Hasse invariant of the family, so ordinariness can also be read off the
domain test.  Supersingular and singular t are reported, never silently
skipped, so sweep tables are complete.

Smoothness is one rank computation over F_p (`is_smooth_cubic`): F has no
singular point over the algebraic closure exactly when the degree-4
multiples of F, F_X, F_Y and F_Z span all quartics.  The tests check it
against the degree-5 rank and a search for singular points over F_{p**k},
k <= 4 (tests/smooth_oracle.py), and the count against the whole-plane
enumeration.

Every request is estimated before any work and refused above
`budget.WORK_BUDGET`.

Finite fields F_{p**k} are realized as quotient rings by a deterministic
irreducible modulus (first monic irreducible in lexicographic order of the
coefficient tuple, constant term first), so reports are bit-reproducible.
"""

from __future__ import annotations

import functools
import os
from dataclasses import asdict, dataclass
from itertools import product
from math import log2

from .apery import apery_numbers_mod
from .budget import SMOOTH_RANK, WORK_BUDGET, check
from .padic import PadicInt, _context_modulus, hensel_quadratic_unit_root, teichmuller


def _check_work(p: int, s: int, fibers: int) -> None:
    """Refuse (ValueError) a request over budget: per fiber, the 2p + 1 rows
    and points of its count plus `budget.SMOOTH_RANK` for its rank; plus
    N + N**2 // 2048 for the Apery numbers b_0..b_{N-1}, N = p**s (the exact
    terms grow by about 3.5 bits per index, so the recurrence costs time
    quadratic in N), in log2 when p**s is too large to form."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if s < WORK_BUDGET.bit_length():
        n = p**s
        log = log2(fibers * (2 * p + 1 + SMOOTH_RANK) + n + n * n // 2048)
    else:  # p**s is over the budget: its square term, N**2 // 2048, outweighs the rest
        log = 2 * min(s, 2**64) * log2(p) - 11
    check(log, f"p={p}, s={s} with {fibers} fiber(s)", "point evaluations", log=True)


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


def _fp_rem(num, den, p):
    """Remainder of num by the monic den over F_p, dense lists constant
    first: the len(den) - 1 coefficients below den's degree."""
    num, dn = list(num), len(den) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] % p
        if c:
            for j, dj in enumerate(den, i - dn):
                num[j] -= c * dj
    return [v % p for v in num[:dn]]


def _monic_polys(p, deg):
    """Monic degree-`deg` polynomials over F_p as dense lists, lex order."""
    for lower in product(range(p), repeat=deg):
        yield list(lower) + [1]


def _is_irreducible(poly, p):
    """Whether no monic polynomial of degree 1 .. deg/2 divides poly."""
    return all(any(_fp_rem(poly, cand, p))
               for d in range(1, (len(poly) - 1) // 2 + 1) for cand in _monic_polys(p, d))


def smallest_irreducible(p: int, k: int) -> tuple:
    """Lower coefficients (constant first) of the first monic irreducible of
    degree k over F_p, in lexicographic order of the coefficient tuple."""
    poly = next(f for f in _monic_polys(p, k) if _is_irreducible(f, p))
    return tuple(poly[:-1])


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
        return tuple(_fp_rem(conv, self.modulus + (1,), p))

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


@functools.lru_cache(maxsize=None)
def _square_roots(p: int) -> list:
    """How many y in F_p have y**2 = v, for each v in F_p."""
    roots = [0] * p
    for y in range(p):
        roots[y * y % p] += 1
    return roots


def count_projective_points(cubic: PlaneCubic) -> int:
    """Zeros of F among the p**2 + p + 1 points of P**2(F_p), row by row.

    On Z = 1 the row F(x, y, 1) is a polynomial in y.  For p odd with no
    Y**3 term, a row A y**2 + B y + C with A != 0 has as many zeros as
    B**2 - 4AC has square roots, read from one table per p; a linear row has
    one zero, a nonzero constant none, and a row that vanishes identically
    p.  Rows with a y**3 term, and every row for p = 2, try every y.  The
    line Z = 0 takes its p + 1 points one by one.
    """
    p = cubic.p
    c300, c210, c201, c120, c111, c102, c030, c021, c012, c003 = cubic.coeffs
    count = (c300 == 0) + sum(
        (((c300 * x + c210) * x + c120) * x + c030) % p == 0 for x in range(p))
    roots = _square_roots(p) if p > 2 and not c030 else None
    for x in range(p):
        a = (c120 * x + c021) % p
        b = ((c210 * x + c111) * x + c012) % p
        c = (((c300 * x + c201) * x + c102) * x + c003) % p
        if roots is None:
            count += sum((((c030 * y + a) * y + b) * y + c) % p == 0 for y in range(p))
        elif a:
            count += roots[(b * b - 4 * a * c) % p]
        elif b:
            count += 1
        elif not c:
            count += p
    return count


# -- smoothness ---------------------------------------------------------------

LINEAR_MONOMIALS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

_QUARTIC_INDEX = {mono: i for i, mono in enumerate(
    (a, b, 4 - a - b) for a in range(4, -1, -1) for b in range(4 - a, -1, -1))}


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
    holds every quartic.  If I holds X**4, Y**4 and Z**4, they have no
    common zero.  Conversely, when 3 is invertible the Euler relation
    3F = X F_X + Y F_Y + Z F_Z puts F in the ideal of the partials, and
    three conics with no common zero hold every form of degree
    2 + 2 + 2 - 2 = 4 (Macaulay's bound).  In characteristic 3 F's own rows
    are needed and the bound for degrees 3, 2, 2 is 5, but the degree-4 and
    degree-5 tests agree on every nonzero cubic over F_3
    (tests/smooth_oracle.py), and the rank reads only those coefficients.
    The quartics of I are spanned by the 21 products of F with X, Y, Z and
    of each partial with the six quadratic monomials, so the test is that
    they span all 15 quartic monomials: one rank over F_p, which equals the
    rank over the closure.  Cached: cubics are immutable and sweeps revisit
    them.
    """
    forms = [(CUBIC_MONOMIALS, cubic.coeffs, LINEAR_MONOMIALS)]
    forms += [(QUAD_MONOMIALS, q, QUAD_MONOMIALS) for q in cubic.partials()]
    rows = []
    for monos, coeffs, multipliers in forms:
        for sx, sy, sz in multipliers:
            row = [0] * len(_QUARTIC_INDEX)
            for (a, b, c), coef in zip(monos, coeffs):
                row[_QUARTIC_INDEX[a + sx, b + sy, c + sz]] = coef
            rows.append(row)
    return _rank_mod_p(rows, cubic.p) == len(_QUARTIC_INDEX)


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
            return list(pool.map(functools.partial(unit_root_compare, p, s=s, b=b), ts))
    return [unit_root_compare(p, t, s, b=b) for t in ts]

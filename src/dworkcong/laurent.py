"""Sparse multivariate Laurent polynomials over Z or Z/p**K.

A polynomial is a finite association from exponent vectors (tuples of signed
integers, one entry per variable) to nonzero coefficients.  The coefficient
ring is either the exact integers (p is None) or Z/p**K; operands of ring
operations must agree on both the arity and the ring.

The sparse map holds the n-th power of a d-variable polynomial, whose O(n^d)
terms spread over a scaled Newton polytope.  Mod m = p**K, though, products
go through one Kronecker kernel (D. Harvey, arXiv:0712.4046): a box of
exponent coordinates maps to one index, and each factor becomes one integer
holding its residues in slots of the narrowest width (8 to 64 bits) that
holds (m-1) times the sum of the second (shorter) factor's residues.  The
coordinates are those of the lattice L spanned by that factor's support
differences (H. Cohen, A Course in Computational Algebraic Number Theory,
2.4), in a basis of r of them when some r span L -- the n-th power of
x1+x2+x3+1/(x1*x2*x3), index 4, then fills an (n+1)**3 box -- else in L's
echelon basis; over Z^d, or when the first factor is not on one coset of L,
exponents are their own coordinates.

Constant-term sweeps and `PowerCache` walk the running power packed: a step
is one shift-and-add per term of the base (one product with the packed base
beyond SHIFT_ADD_TERMS terms), b_n is read from the origin's slot, slots are
reduced only before they could overflow (8-bit ones by one `bytes.translate`)
and a power is decoded only where a caller keeps it.  A walk estimated over
WALK_BUDGET is refused with ValueError before it allocates anything.  The
dict multiply handles the rest -- exact coefficients, slots beyond 64 bits,
one-shot products with fewer term pairs than box slots -- and is the
kernel's test oracle.

Also provided: truncated power series with coefficients mod p**K, supporting
multiplication (the same kernel in one variable), substitution X -> X**p and
inversion of unit-constant-term series -- enough to form quotients like
f(X)/f(X**p) to a cutoff.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, combinations, compress, count, islice
from math import prod
from operator import add, sub

from .padic import _context_modulus


def _check_ring(p, K):
    if (p is None) != (K is None):
        raise ValueError("p and K must be given together (or both omitted)")
    if p is None:
        return None
    return _context_modulus(p, K)


class LaurentPoly:
    """Immutable sparse Laurent polynomial.

    Do not mutate the coefficient map after construction; all operations
    return fresh objects.  Iteration helpers (`terms`, `support`) are sorted
    lexicographically on the exponent vector so printed output and reports
    are reproducible.
    """

    __slots__ = ("arity", "p", "K", "modulus", "_coeffs", "_lattice")

    def __init__(self, arity, coeffs=None, p=None, K=None):
        if not isinstance(arity, int) or arity < 1:
            raise ValueError(f"arity must be a positive integer, got {arity}")
        modulus = _check_ring(p, K)
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                e = tuple(e)
                if len(e) != arity:
                    raise ValueError(f"exponent {e} does not have arity {arity}")
                if not all(isinstance(x, int) for x in e):
                    raise ValueError(f"exponents must be integers, got {e}")
                if not isinstance(c, int):
                    raise ValueError(f"coefficients must be integers, got {c!r}")
                if modulus is not None:
                    c = c % modulus
                if c:
                    clean[e] = c
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_coeffs", clean)
        object.__setattr__(self, "_lattice", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity, p=None, K=None):
        return cls(arity, {}, p=p, K=K)

    @classmethod
    def constant(cls, arity, c, p=None, K=None):
        return cls(arity, {(0,) * arity: c}, p=p, K=K)

    @classmethod
    def one(cls, arity, p=None, K=None):
        return cls.constant(arity, 1, p=p, K=K)

    @classmethod
    def monomial(cls, arity, exponents, coeff=1, p=None, K=None):
        return cls(arity, {tuple(exponents): coeff}, p=p, K=K)

    @classmethod
    def variable(cls, arity, index, p=None, K=None):
        """The variable x_index, 1-based."""
        if not 1 <= index <= arity:
            raise ValueError(f"variable index {index} out of range 1..{arity}")
        e = tuple(1 if i == index - 1 else 0 for i in range(arity))
        return cls(arity, {e: 1}, p=p, K=K)

    # -- ring plumbing -----------------------------------------------------

    def _same_ring(self, other):
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
        if self.p != other.p or self.K != other.K:
            raise ValueError(
                f"coefficient ring mismatch: {self._ring_name()} vs {other._ring_name()}"
            )

    def _ring_name(self):
        return "Z" if self.p is None else f"Z/{self.p}^{self.K}"

    def _make(self, coeffs):
        # internal fast path: coeffs already canonical (no zeros, right arity)
        out = object.__new__(LaurentPoly)
        object.__setattr__(out, "arity", self.arity)
        object.__setattr__(out, "p", self.p)
        object.__setattr__(out, "K", self.K)
        object.__setattr__(out, "modulus", self.modulus)
        object.__setattr__(out, "_coeffs", coeffs)
        object.__setattr__(out, "_lattice", None)
        return out

    def reduce_mod(self, p, K):
        """Image in Z/p**K.  From the exact ring, or from the same p with K' >= K."""
        if self.p is not None:
            if self.p != p:
                raise ValueError(f"cannot move coefficients from p={self.p} to p={p}")
            if self.K < K:
                raise ValueError(f"cannot raise precision {self.K} to {K}")
        return LaurentPoly(self.arity, self._coeffs, p=p, K=K)

    # -- inspection --------------------------------------------------------

    def coefficient(self, exponents):
        e = tuple(exponents)
        if len(e) != self.arity:
            raise ValueError(f"exponent {e} does not have arity {self.arity}")
        return self._coeffs.get(e, 0)

    def constant_term(self):
        return self._coeffs.get((0,) * self.arity, 0)

    def support(self):
        """Exponent vectors with nonzero coefficient, lexicographically sorted."""
        return sorted(self._coeffs)

    def terms(self):
        """(exponent, coefficient) pairs, lexicographically sorted."""
        return sorted(self._coeffs.items())

    def __len__(self):
        return len(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.arity, other, p=self.p, K=self.K)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.p == other.p
            and self.K == other.K
            and self._coeffs == other._coeffs
        )

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentPoly.constant(self.arity, other, p=self.p, K=self.K)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        self._same_ring(other)
        out = dict(self._coeffs)
        m = self.modulus
        for e, c in other._coeffs.items():
            v = out.get(e, 0) + c
            if m is not None:
                v %= m
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return self._make(out)

    __radd__ = __add__

    def __neg__(self):
        m = self.modulus
        if m is None:
            return self._make({e: -c for e, c in self._coeffs.items()})
        return self._make({e: m - c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scalar_mul(other)
        self._same_ring(other)
        # the shorter factor plays the base, whose length bounds the slots
        a, b = (self, other) if len(self) >= len(other) else (other, self)
        walk = _packed_walk(a, b, 1)
        if walk is None:
            return self._mul_dict(other)
        walk.step()
        return walk.poly()

    def _mul_dict(self, other):
        """Term-by-term product: the exact-ring path and the packed kernel's oracle."""
        self._same_ring(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = {}
        get = out.get
        if self.arity == 2:
            for (e0, e1), c2 in b.items():
                for (f0, f1), c1 in a.items():
                    e = (e0 + f0, e1 + f1)
                    out[e] = get(e, 0) + c1 * c2
        elif self.arity == 1:
            for (e0,), c2 in b.items():
                for (f0,), c1 in a.items():
                    e = (e0 + f0,)
                    out[e] = get(e, 0) + c1 * c2
        else:
            for e2, c2 in b.items():
                for e1, c1 in a.items():
                    e = tuple(map(add, e1, e2))
                    out[e] = get(e, 0) + c1 * c2
        m = self.modulus
        if m is None:
            out = {e: c for e, c in out.items() if c}
        else:
            out = {e: cm for e, c in out.items() if (cm := c % m)}
        return self._make(out)

    def _scalar_mul(self, c):
        m = self.modulus
        if m is not None:
            c %= m
        if c == 0:
            return self._make({})
        if m is None:
            return self._make({e: c * v for e, v in self._coeffs.items()})
        return self._make(
            {e: cm for e, v in self._coeffs.items() if (cm := c * v % m)}
        )

    def __rmul__(self, other):
        if isinstance(other, int):
            return self._scalar_mul(other)
        return NotImplemented

    def __pow__(self, n):
        """n-th power by binary powering; A**0 == 1."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = LaurentPoly.one(self.arity, p=self.p, K=self.K)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def substitute_power(self, m):
        """A(x_1**m, ..., x_d**m): every exponent vector scaled by m."""
        if not isinstance(m, int) or m < 1:
            raise ValueError("substitution power must be an integer >= 1")
        if m == 1:
            return self
        return self._make(
            {tuple(m * x for x in e): c for e, c in self._coeffs.items()}
        )

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in self.terms():
            mono = "*".join(
                f"x{i + 1}" if ei == 1 else f"x{i + 1}^{ei}"
                for i, ei in enumerate(e)
                if ei != 0
            )
            neg = c < 0
            a = -c if neg else c
            if mono:
                body = mono if a == 1 else f"{a}*{mono}"
            else:
                body = str(a)
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self}; ring={self._ring_name()}, arity={self.arity})"


# -- Kronecker kernel -----------------------------------------------------------

_ORDER = sys.byteorder  # int <-> bytes in the order `array` reads its items
# (bits, array typecode) for every byte-aligned slot width, narrowest first
_SLOTS = tuple(sorted({8 * array(tc).itemsize: tc for tc in "QLIHB"}.items()))


def _slot(bound):
    """(bits, typecode) of the narrowest slot holding 0..bound, or None."""
    for bits, tc in _SLOTS:
        if bound >> bits == 0:
            return bits, tc
    return None


def _slots(x, tc):
    """The slots of the packed integer x as an array of typecode tc."""
    slots = array(tc)
    size = slots.itemsize
    slots.frombytes(x.to_bytes(-(-x.bit_length() // (8 * size)) * size, _ORDER))
    return slots


def _pack(index, values, tc):
    """Residues in the given slots of one integer."""
    slots = array(tc, [0]) * (max(index) + 1)
    for i, c in zip(index, values):
        slots[i] = c
    return int.from_bytes(slots, _ORDER)


def _mul_mod_lists(a, b, m, length=None):
    """The first `length` (default: all) coefficients of the product of two
    lists of residues mod m, reduced mod m: one Kronecker product in one
    variable, or the schoolbook sum when the slot bound exceeds 64 bits."""
    if length is None:
        length = len(a) + len(b) - 1
    slot = _slot(min(len(a), len(b)) * (m - 1) ** 2)
    if slot is None:
        out = [0] * length
        for i, ai in enumerate(a[:length]):
            if ai:
                for j, bj in enumerate(b[: length - i]):
                    out[i + j] += ai * bj
        return [v % m for v in out]
    tc = slot[1]
    x = int.from_bytes(array(tc, a), _ORDER) * int.from_bytes(array(tc, b), _ORDER)
    out = [v % m for v in _slots(x, tc)[:length]]
    return out + [0] * (length - len(out))


# -- lattice coordinates and walks ---------------------------------------------

BASIS_TRIES = 64  # r-subsets of support differences tried as a basis of L


def _echelon(vectors, d):
    """Echelon basis of the lattice the integer vectors span, rows by leading
    column with positive pivots."""
    rows = {}  # leading column -> row
    for v in vectors:
        for c in range(d):
            row = rows.get(c, [0] * d)
            while v[c]:  # Euclid on rows leaves the gcd in row, 0 in v
                q = row[c] // v[c]
                row, v = v, [a - q * b for a, b in zip(row, v)]
            if row[c]:
                rows[c] = row if row[c] > 0 else [-x for x in row]
        if len(rows) == d and all(row[c] == 1 for c, row in rows.items()):
            break  # Z^d
    return [rows[c] for c in sorted(rows)]


def _inverse(M):
    """(X, det) with M X == det I for a square integer matrix M, by
    fraction-free Gauss-Jordan elimination; det is 0 when M is singular."""
    r, det = len(M), 1
    A = [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(M)]
    for k in range(r):
        p = next((i for i in range(k, r) if A[i][k]), None)
        if p is None:
            return None, 0
        A[k], A[p] = A[p], A[k]
        A = [row if i == k else [(A[k][k] * a - row[k] * b) // det
                                 for a, b in zip(row, A[k])] for i, row in enumerate(A)]
        det = A[k][k]
    return [row[r:] for row in A], det


def _lattice(poly):
    """(basis, X, det), basis X == det I, of the lattice L that poly's support
    differences span plus unit vectors off its pivots, () for Z^d; cached.
    The basis holds r differences when some r span L, else L's echelon basis."""
    if poly._lattice is None:
        d, ref = poly.arity, min(poly._coeffs)
        diffs = [list(map(sub, e, ref)) for e in poly._coeffs if e != ref]
        echelon, lat = _echelon(diffs, d), ()
        pivots = [next(c for c, x in enumerate(row) if x) for row in echelon]
        volume = prod(row[c] for row, c in zip(echelon, pivots))
        if volume > 1:
            units = [[int(c == j) for j in range(d)] for c in range(d)
                     if c not in pivots]
            for basis in chain(islice(combinations(diffs, len(pivots)), BASIS_TRIES),
                               [echelon]):
                basis = list(basis) + units
                X, det = _inverse(basis)
                if abs(det) == volume:
                    break
            lat = (basis, X, det)
        object.__setattr__(poly, "_lattice", lat)
    return poly._lattice


def _times(columns, M):
    """The columns of V M, for the matrix V given by its columns."""
    out = []
    for j in range(len(M[0])):
        col = [0] * len(columns[0])
        for column, row in zip(columns, M):
            col = [t + row[j] * x for t, x in zip(col, column)]
        out.append(col)
    return out


def _coords(lat, diffs):
    """Coordinates in lat's basis of the vectors whose columns are `diffs`,
    as columns; None when one of them is off the lattice."""
    _, X, det = lat
    t = _times(diffs, X)
    if any(x % det for col in t for x in col):
        return None
    return [[x // det for x in col] for col in t]


def _points(lat, shift, columns):
    """The columns of the exponents shift + u.B, B lat's basis, of the
    coordinate vectors u given as columns (u itself over Z^d)."""
    if lat:
        columns = _times(columns, lat[0])
    return [[x + s for x in u] for u, s in zip(columns, shift)]


def _frame(poly, lat):
    """(shift, columns, lo, spans): poly's exponents as shift + (u - lo).B, B
    lat's basis, with the u given as columns and lo <= u <= lo + spans; None
    when poly is off one coset of lat."""
    u, ref = list(zip(*poly._coeffs)), [0] * poly.arity
    if lat:
        ref = next(iter(poly._coeffs))
        u = _coords(lat, [[x - r for x in col] for col, r in zip(u, ref)])
        if u is None:
            return None
    lo = list(map(min, u))
    shift = [c[0] for c in _points(lat, ref, [[l] for l in lo])] if lat else lo
    return shift, u, lo, [max(col) - l for col, l in zip(u, lo)]


SHIFT_ADD_TERMS = 128  # measured crossover: 121 to 169 terms (16-bit slots)
# Slot-steps, times len(base) for a dict walk.  On a 2-core x86-64 host: 24 ns
# each for a 16-bit Apery walk (24 s at the bound), 2 ns for an 8-bit
# sublattice walk, and 120 to 200 ns a term pair for exact Apery walks to
# N = 60 and 150, growing with the coefficients.
WALK_BUDGET = 10**9


def _check_work(work):
    """Refuse a walk's work (final box slots times steps) over WALK_BUDGET."""
    if work > WALK_BUDGET:
        raise ValueError(f"walk needs about {work} slot-steps; budget {WALK_BUDGET}")


class _PackedWalk:
    """The powers cur * base**k, k = 0..steps, kept as one packed integer.

    The slot at box coordinates u holds the exponent shift + u.B, B the
    lattice basis, in a box fixed for the walk.  Slots are reduced mod m only
    when the largest slot value `top`, times base's weight, could overflow.
    """

    def __init__(self, cur, base, lat, frame, base_frame, widths, slot, weight):
        self.m = base.modulus
        self.ring = base  # makes the decoded polynomials
        self.lat = lat
        self.shift, self.base_shift = frame[0], base_frame[0]
        self.widths = widths
        self.strides = [prod(widths[i + 1:]) for i in range(len(widths))]
        self.bits, self.tc = slot
        self.weight = weight
        self.top = self.m - 1
        self.x = _pack(self._index(*frame[1:3]), cur._coeffs.values(), self.tc)
        index, values = self._index(*base_frame[1:3]), base._coeffs.values()
        self.terms = [(i * self.bits, c) for i, c in zip(index, values)]
        self.base = (_pack(index, values, self.tc) if len(base) > SHIFT_ADD_TERMS
                     else None)

    def _index(self, columns, lo):
        """The slots of the coordinates u given as columns, lo in slot 0."""
        index = [0] * len(columns[0])
        for column, l, s in zip(columns, lo, self.strides):
            index = [i + (x - l) * s for i, x in zip(index, column)]
        return index

    def step(self):
        if self.top * self.weight >> self.bits:
            x, m = self.x, self.m
            if self.bits == 8:  # one pass through the byte table of v % m
                table = (bytes(range(m)) * -(-256 // m))[:256]
                x = x.to_bytes(-(-x.bit_length() // 8), _ORDER).translate(table)
            else:
                x = array(self.tc, [v % m for v in _slots(x, self.tc)])
            self.x = int.from_bytes(x, _ORDER)
            self.top = m - 1
        x = self.x
        if self.base is not None:
            self.x = x * self.base
        else:  # one shift-and-add per term of base
            self.x = sum((x * c if c > 1 else x) << shift for shift, c in self.terms)
        self.top *= self.weight
        self.shift = list(map(add, self.shift, self.base_shift))

    def constant_term(self):
        u = [[-s] for s in self.shift]
        u = _coords(self.lat, u) if self.lat else u
        if u is None:
            return 0
        index = 0
        for (x,), w, s in zip(u, self.widths, self.strides):
            if not 0 <= x < w:
                return 0
            index += x * s
        return (self.x >> (index * self.bits) & ((1 << self.bits) - 1)) % self.m

    def poly(self):
        m = self.m
        slots = _slots(self.x, self.tc)
        index = list(compress(count(), slots))
        residues = [slots[i] % m for i in index]
        index = list(compress(index, residues))
        columns = [[i // s % w for i in index]
                   for w, s in zip(self.widths, self.strides)]
        exps = _points(self.lat, self.shift, columns)
        return self.ring._make(dict(zip(zip(*exps), filter(None, residues))))


def _packed_walk(cur, base, steps):
    """A packed walk from cur by `steps` multiplications by base, or None
    for the dict multiply: exact coefficients, an empty factor, a slot bound
    beyond 64 bits, or a one-shot product (steps == 1) with fewer term pairs
    than slots in its box."""
    m = base.modulus
    if m is None or not cur or not base:
        return None
    weight = sum(base._coeffs.values())
    slot = _slot((m - 1) * weight)
    if slot is None:
        return None
    lat = _lattice(base)
    frame = lat and _frame(cur, lat)
    if not frame:
        lat, frame = (), _frame(cur, ())
    base_frame = _frame(base, lat)
    spans = list(zip(frame[3], base_frame[3]))
    if steps == 1 and len(cur) * len(base) < prod(s + b + 1 for s, b in spans):
        return None
    widths = [s + steps * b + 1 for s, b in spans]
    _check_work(steps * prod(widths))
    return _PackedWalk(cur, base, lat, frame, base_frame, widths, slot, weight)


class _DictWalk:
    """The same walk through `LaurentPoly.__mul__`, one product per step."""

    def __init__(self, cur, base):
        self.cur = cur
        self.base = base

    def step(self):
        self.cur = self.cur * self.base

    def constant_term(self):
        return self.cur.constant_term()

    def poly(self):
        return self.cur


def _walk(cur, base, steps):
    """The walk from cur by `steps` multiplications by base, packed when
    the kernel applies; refused (`_check_work`) before it allocates."""
    walk = _packed_walk(cur, base, steps)
    if walk is None and cur and base:
        spans = ([max(c) - min(c) for c in zip(*f._coeffs)] for f in (cur, base))
        _check_work(steps * len(base) * prod(s + steps * b + 1 for s, b in zip(*spans)))
    return walk or _DictWalk(cur, base)


def constant_term_sequence(lam: LaurentPoly, N: int, p=None, K=None) -> list:
    """Constant terms b_0..b_N of the powers lam**0, lam**1, ..., lam**N.

    Computed in lam's coefficient ring, or mod p**K when (p, K) is given.
    Uses iterated multiplication (not binary powering): every intermediate
    power is needed anyway, and multiplying the running power by the fixed
    small factor is cheaper than repeated squaring of large supports.  Mod
    p**K the running power stays packed and only its origin slot is read.
    """
    if not isinstance(N, int) or N < 0:
        raise ValueError("N must be a non-negative integer")
    if p is not None:
        lam = lam.reduce_mod(p, K)
    if N == 0:
        return [1]
    out = [1, lam.constant_term()]
    walk = _walk(lam, lam, N - 1)
    for _ in range(N - 1):
        walk.step()
        out.append(walk.constant_term())
    return out


def constant_term_of_product(factors) -> int:
    """Constant term of the product of several polynomials.

    Expands all factors but the largest, then takes the dot product
    sum_e A(e) * B(-e) against the largest factor.  This avoids
    materializing the full product when only its constant term is wanted.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    first = factors[0]
    for f in factors[1:]:
        first._same_ring(f)
    factors.sort(key=len)
    big = factors[-1]
    small = factors[:-1]
    if not small:
        return big.constant_term()
    acc = small[0]
    for f in small[1:]:
        acc = acc * f
    bigc = big._coeffs
    total = 0
    for e, c in acc._coeffs.items():
        ne = tuple(-x for x in e)
        v = bigc.get(ne)
        if v:
            total += c * v
    if big.modulus is not None:
        total %= big.modulus
    return total


class PowerCache:
    """Powers of a fixed polynomial, computed by ascending multiplication.

    A request for the n-th power walks up from the largest power already
    saved below n, multiplying by the base; only marked indices (plus the
    requested one) are retained, so memory stays proportional to the powers
    actually used.  Mod p**K a walk stays packed and decodes only the powers
    it retains.  Constant terms of every consecutive power are recorded
    separately by `constant_terms`, whose pass also saves any marked powers
    it walks through -- mark first, then ask for constant terms, and the
    whole cache fills in a single sweep.
    """

    def __init__(self, base: LaurentPoly):
        self.base = base
        one = LaurentPoly.one(base.arity, p=base.p, K=base.K)
        self._saved = {0: one, 1: base}
        self._marks = set()
        self._cts = [1, base.constant_term()]
        self._ct_walk = _DictWalk(base, base)  # at power len(_cts) - 1
        self._ct_walk_end = 1  # the highest power that walk was planned for

    def mark(self, indices):
        """Register power indices worth retaining when a walk passes them."""
        self._marks.update(indices)

    def power(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("power index must be non-negative")
        got = self._saved.get(n)
        if got is not None:
            return got
        start = max(k for k in self._saved if k < n)
        walk = _walk(self._saved[start], self.base, n - start)
        for i in range(start + 1, n + 1):
            walk.step()
            if i == n or i in self._marks:
                self._saved[i] = walk.poly()
        return self._saved[n]

    def constant_terms(self, N: int) -> list:
        """Constant terms of powers 0..N (iterated multiplication)."""
        k = len(self._cts) - 1
        if N > self._ct_walk_end:
            self._ct_walk = _walk(self._ct_walk.poly(), self.base, N - k)
            self._ct_walk_end = N
        walk = self._ct_walk
        while k < N:
            k += 1
            walk.step()
            self._cts.append(walk.constant_term())
            if k in self._marks and k not in self._saved:
                self._saved[k] = walk.poly()
        return self._cts[: N + 1]


class TruncSeries:
    """Power series over Z/p**K truncated after X**N (N+1 coefficients)."""

    __slots__ = ("p", "K", "N", "modulus", "coeffs")

    def __init__(self, p, K, N, coeffs):
        modulus = _context_modulus(p, K)
        if not isinstance(N, int) or N < 0:
            raise ValueError("cutoff N must be a non-negative integer")
        coeffs = list(coeffs)
        if len(coeffs) > N + 1:
            raise ValueError(f"got {len(coeffs)} coefficients for cutoff N={N}")
        coeffs += [0] * (N + 1 - len(coeffs))
        self.p = p
        self.K = K
        self.N = N
        self.modulus = modulus
        self.coeffs = [c % modulus for c in coeffs]

    def _same_ring(self, other):
        if (self.p, self.K, self.N) != (other.p, other.K, other.N):
            raise ValueError(
                f"series context mismatch: (p,K,N)=({self.p},{self.K},{self.N}) vs "
                f"({other.p},{other.K},{other.N})"
            )

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            (self.p, self.K, self.N) == (other.p, other.K, other.N)
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __add__(self, other):
        self._same_ring(other)  # the constructor reduces mod p**K
        return TruncSeries(self.p, self.K, self.N, map(add, self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._same_ring(other)
        return TruncSeries(self.p, self.K, self.N, map(sub, self.coeffs, other.coeffs))

    def __mul__(self, other):
        self._same_ring(other)
        N = self.N
        return TruncSeries(self.p, self.K, N, _mul_mod_lists(
            self.coeffs, other.coeffs, self.modulus, N + 1))

    def compose_xp(self) -> "TruncSeries":
        """Substitute X -> X**p, dropping terms beyond the cutoff."""
        out = [0] * (self.N + 1)
        for n, c in enumerate(self.coeffs):
            if c and n * self.p <= self.N:
                out[n * self.p] = c
        return TruncSeries(self.p, self.K, self.N, out)

    def invert(self) -> "TruncSeries":
        """Series G with self*G == 1 up to the cutoff; needs a unit c_0."""
        c0 = self.coeffs[0]
        if c0 % self.p == 0:
            raise ValueError(
                f"constant term {c0} is not a unit mod {self.p}; series not invertible"
            )
        m = self.modulus
        inv0 = pow(c0, -1, m)
        g = [inv0] + [0] * self.N
        f = self.coeffs
        for n in range(1, self.N + 1):
            acc = 0
            for i in range(1, n + 1):
                fi = f[i]
                if fi:
                    acc += fi * g[n - i]
            g[n] = (-inv0 * acc) % m
        return TruncSeries(self.p, self.K, self.N, g)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.N > 5 else ""
        return f"TruncSeries(p={self.p}, K={self.K}, N={self.N}; [{head}{tail}])"

"""Sparse multivariate Laurent polynomials over Z or Z/p**K.

A polynomial is a finite association from exponent vectors (tuples of signed
integers, one entry per variable) to nonzero coefficients.  The coefficient
ring is either the exact integers (p is None) or Z/p**K; operands of ring
operations must agree on both the arity and the ring.

The sparse map holds the n-th power of a d-variable polynomial, whose O(n^d)
terms spread over a scaled Newton polytope.  Mod m = p**K, though, products
go through one Kronecker kernel (D. Harvey, arXiv:0712.4046): a box of
exponent coordinates maps to one index, and each factor becomes one integer
holding its residues in slots of the narrowest width that holds (m-1) times
the sum of the second (shorter) factor's residues: 8, 16, 32 or 64 bits, and
whole 64-bit words beyond that, so every modulus packs.  A
one-shot product packs in Z^d, exponents being their own coordinates.  A walk
-- repeated products by one factor, the base -- packs in the coordinates of
the lattice L spanned by the base's support differences (H. Cohen, A Course
in Computational Algebraic Number Theory, 2.4), in a basis of r of them when
some r span L -- the n-th power of x1+x2+x3+1/(x1*x2*x3), index 4, then
fills an (n+1)**3 box -- else in L's echelon basis, inverted by the integer
elimination of `polytope`.  Every walk starts from a power of its base, so
its running power lies on one coset of L.

Every power sequence -- `PowerCache.power`, `PowerCache.constant_terms`,
`constant_term_sequence` and `**` of two or more terms (repeated
multiplication by the base, the better chain when coefficients grow: W. M.
Gentleman, Math. Comp. 26, 1972) -- is one walk of the running power; a
monomial's power scales its exponent.  Mod m the walk is packed: a step
is one shift-and-add per term of the base (one product with the packed base
beyond SHIFT_ADD_TERMS terms), b_n is read from the origin's slot, slots are
reduced only before they could overflow and a power is decoded only where a
caller keeps it.  A reduction is one `bytes.translate` for 8-bit slots and a
Barrett reduction on the packed integer, two slots to a lane, for wider ones.
Once no power is left to keep, a walk is trimmed at each reduction: with K
steps to come, CT(cur * base**j), j <= K, reads cur only on the hull of the
origin and -K.(base support), so the rows of the first box coordinate
outside that hull are masked off or shifted out.  A walk or monomial power
estimated over WALK_BUDGET is refused with ValueError before it starts.  The
dict multiply handles the rest -- exact coefficients and one-shot products
with fewer term pairs than box slots -- and is the kernel's test oracle.

`cartier_of_product` forms U_p of a product, its terms on pZ^d with their
exponents divided by p (the Cartier operator), as one Kronecker product in
Z^d of which only the slots on pZ^d are decoded.  Each factor is packed
once per slot width and cached with it, as is the result.

Also provided: truncated power series with coefficients mod p**K, supporting
multiplication (the same kernel in one variable), substitution X -> X**p and
inversion of unit-constant-term series by Newton's iteration on that kernel
(Brent and Kung, J. ACM 25, 1978) -- enough to form quotients like
f(X)/f(X**p) to a cutoff.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, combinations, compress, count, islice, product
from math import ceil, log2, prod
from operator import add, mul, neg, sub

from .padic import _context_modulus
from .polytope import _about, _eliminate


def _check_ring(p, K):
    if (p is None) != (K is None):
        raise ValueError("p and K must be given together (or both omitted)")
    if p is None:
        return None
    return _context_modulus(p, K)


def _canonical(items, m):
    """The coefficient map of (exponent, coefficient) pairs: each coefficient
    reduced mod m (kept as is when m is None), the zero ones dropped."""
    if m is None:
        return {e: c for e, c in items if c}
    return {e: cm for e, c in items if (cm := c % m)}


class LaurentPoly:
    """Immutable sparse Laurent polynomial.

    Do not mutate the coefficient map after construction; all operations
    return fresh objects.  Iteration helpers (`terms`, `support`) are sorted
    lexicographically on the exponent vector so printed output and reports
    are reproducible.
    """

    __slots__ = ("arity", "p", "K", "modulus", "_coeffs", "_lattice", "_cache")

    def __init__(self, arity, coeffs=None, p=None, K=None):
        if not isinstance(arity, int) or arity < 1:
            raise ValueError(f"arity must be a positive integer, got {arity}")
        modulus = _check_ring(p, K)
        items = [(tuple(e), c) for e, c in (coeffs or {}).items()]
        for e, c in items:
            if len(e) != arity:
                raise ValueError(f"exponent {e} does not have arity {arity}")
            if not all(isinstance(x, int) for x in e):
                raise ValueError(f"exponents must be integers, got {e}")
            if not isinstance(c, int):
                raise ValueError(f"coefficients must be integers, got {c!r}")
        self._set(arity, p, K, modulus, _canonical(items, modulus))

    def _set(self, *values):
        """Set arity, p, K, modulus and the coefficient map; nothing cached yet
        (the lattice, and the box and packings of `cartier_of_product`)."""
        for name, value in zip(self.__slots__, values + (None, {})):
            object.__setattr__(self, name, value)

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
        out._set(self.arity, self.p, self.K, self.modulus, coeffs)
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
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return self._make(_canonical(out.items(), self.modulus))

    __radd__ = __add__

    def __neg__(self):
        return self._make(_canonical(((e, -c) for e, c in self._coeffs.items()),
                                     self.modulus))

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
        if walk is None:  # priced as one step of a dict walk
            _check_work(len(a) * len(b) * (_words((a, 1), (b, 1)) + DICT_PAIR),
                        "product")
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
        return self._make(_canonical(out.items(), self.modulus))

    def _scalar_mul(self, c):
        return self._make(_canonical(((e, c * v) for e, v in self._coeffs.items()),
                                     self.modulus))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self._scalar_mul(other)
        return NotImplemented

    def __pow__(self, n):
        """n-th power; A**0 == 1.  A polynomial of two or more terms is walked
        (`PowerCache`), under the walk's estimate.  A monomial, or 0, scales
        its exponent; its exact coefficient c**n is priced at words**log2(3)
        slot-words, the Karatsuba cost of the squarings that form it."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if n == 0 or len(self) > 1:  # 1, or the walk
            return PowerCache(self).power(n)
        m = self.modulus
        if m is None:
            _check_power(next(iter(self._coeffs.values()), 0), n)
        return self._make(_canonical(
            [(tuple(n * x for x in e), pow(c, n, m)) for e, c in self._coeffs.items()], m))

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
_TYPECODES = {8 * array(tc).itemsize: tc for tc in "QLIHB"}  # bits -> typecode


def _slot(bound):
    """Bits of the narrowest slot holding 0..bound: 8, 16, 32 or 64, and
    whole 64-bit words beyond that."""
    n = bound.bit_length()
    if n > 64:
        return -(-n // 64) * 64
    return next(bits for bits in (8, 16, 32, 64) if n <= bits)


def _slots(x, bits, length=None):
    """The slots of `bits` bits of the packed integer x, lowest first, up to
    its highest nonzero one or `length` of them: an array up to 64 bits, a
    list of ints beyond."""
    size = bits // 8
    if length is None:
        length = -(-x.bit_length() // bits)
    data = x.to_bytes(length * size, _ORDER)
    if bits in _TYPECODES:
        return array(_TYPECODES[bits], data)
    return [int.from_bytes(data[i:i + size], _ORDER) for i in range(0, len(data), size)]


def _pack(values, bits, index=None):
    """Residues in slots of `bits` bits of one integer: the i-th value in
    slot index[i], or in slot i without an index."""
    if index is not None:
        slots = [0] * (max(index) + 1)
        for i, c in zip(index, values):
            slots[i] = c
        values = slots
    if bits in _TYPECODES:
        return int.from_bytes(array(_TYPECODES[bits], values), _ORDER)
    return int.from_bytes(b"".join(c.to_bytes(bits // 8, _ORDER) for c in values), _ORDER)


def _reducer(m, bits, slots):
    """The map taking a packed integer of at most `slots` slots of `bits`
    bits each to the same slots reduced mod m, for m <= 2**bits.  8-bit slots
    pass through a byte table of v % m.  Wider slots reduce lane-parallel:
    even and odd slots in turn are read as 2*bits-wide lanes, Barrett's
    quotient q = v*r >> bits, r = 2**bits // m, leaves v - m*q in [0, 2m),
    and bit `bits` of t + 2**bits - m flags the lanes that take one more m."""
    if bits == 8:
        table = (bytes(range(m)) * -(-256 // m))[:256]
        return lambda x: int.from_bytes(
            x.to_bytes(-(-x.bit_length() // 8), _ORDER).translate(table), _ORDER)
    ones = int.from_bytes((1).to_bytes(bits // 4, _ORDER) * ((slots + 1) // 2), _ORDER)
    lane, over, r = ones * ((1 << bits) - 1), ones * ((1 << bits) - m), (1 << bits) // m

    def reduce(x):
        out = 0
        for v in (x >> bits & lane, x & lane):  # odd slots, then even ones
            t = v - m * (v * r >> bits & lane)
            out = out << bits | t - m * (t + over >> bits & lane)
        return out

    return reduce


def _mul_mod_lists(a, b, m, length=None):
    """The first `length` (default: all) coefficients of the product of two
    lists of residues mod m, reduced mod m: one Kronecker product in one
    variable, in slots that hold (m-1) times the smaller sum of residues."""
    if length is None:
        length = len(a) + len(b) - 1
    bits = _slot((m - 1) * max(1, min(sum(a), sum(b))))
    out = [v % m for v in _slots(_pack(a, bits) * _pack(b, bits), bits)[:length]]
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


def _lattice(poly):
    """(basis, X, det), basis X == det I, of the lattice L that poly's support
    differences span plus unit vectors off its pivots, () for Z^d; cached.
    The basis holds r differences when some r span L, else L's echelon basis;
    X and det come from one elimination of [basis | I]."""
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
                R, cols, det = _eliminate([row + [int(i == j) for j in range(d)]
                                           for i, row in enumerate(basis)])
                if cols[-1] == d - 1 and abs(det) == volume:  # basis invertible
                    break
            lat = (basis, [row[d:] for row in R], det)
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
    lat's basis, with the u given as columns and lo <= u <= lo + spans; poly
    lies on one coset of lat."""
    u, ref = list(zip(*poly._coeffs)), [0] * poly.arity
    if lat:
        ref = next(iter(poly._coeffs))
        u = _coords(lat, [[x - r for x in col] for col, r in zip(u, ref)])
    lo = list(map(min, u))
    shift = [c[0] for c in _points(lat, ref, [[l] for l in lo])] if lat else lo
    return shift, u, lo, [max(col) - l for col, l in zip(u, lo)]


SHIFT_ADD_TERMS = 128  # measured crossover: 121 to 169 terms (16-bit slots)
# Slot-words: a step of a packed walk counts its box slots times ceil(bits/64),
# one of a dict walk len(base) term pairs per box slot times DICT_PAIR plus the
# 64-bit words of its largest coefficient, and each step 128 more for its fixed
# cost (about 3 us).  On a 2-core x86-64 host: 24 ns each for a 16-bit Apery
# walk (24 s at the bound), 20 to 23 ns for slots of 128 to 448 bits, 2 ns for
# an 8-bit sublattice walk.
WALK_BUDGET = 10**9
# A dict term pair's fixed cost: its exponent tuple and dict update took 490
# to 680 ns per box pair (exact Apery walks to N = 90 and 150, (1+x1)^3000),
# however few words its coefficients have, so exact Apery is refused from
# --N 151, about 20 s, as a packed walk is near 24 s.
DICT_PAIR = 20


def _check_work(work, what="walk"):
    """Refuse `work`, in slot-words, over WALK_BUDGET."""
    if work > WALK_BUDGET:
        _check_log2(log2(work), what)


def _check_log2(log, what):
    """Refuse about 2**log slot-words over WALK_BUDGET, compared in log2, so
    that an estimate too large to form is never formed."""
    if log > log2(WALK_BUDGET):
        raise ValueError(f"{what} needs about {_about(log)} slot-words; "
                         f"budget {WALK_BUDGET}")


def _check_power(c, n, what="power"):
    """Refuse forming c**n, priced as its squarings: words**log2(3)
    slot-words for its 64-bit words (Karatsuba), compared in log2."""
    if abs(c) > 1 and n > 0:
        _check_log2(log2(3) * max(0.0, log2(n) + log2(log2(abs(c))) - 6), what)


def _spans(f):
    """The extent max - min of f's support in each coordinate."""
    return [max(c) - min(c) for c in zip(*f._coeffs)]


def _words(*powers):
    """64-bit words of prod sum|f|**n, bounding the product's coefficients;
    each n capped at 2**64, past any budget, so that it converts to float."""
    bits = sum(min(n, 2**64) * log2(max(1, sum(map(abs, f._coeffs.values()))))
               for f, n in powers)
    return max(1, ceil(bits / 64))


class _PackedWalk:
    """The powers cur * base**k, k = 0..steps, kept as one packed integer.

    The slot at box coordinates u holds the exponent shift + u.B, B the
    lattice basis, in a box fixed for the walk.  Slots are reduced mod m only
    when the largest slot value `top`, times base's weight, could overflow.
    Its owner sets `left`, the steps still to come, once it decodes no more
    powers: from then on each reduction also drops the rows of the first box
    coordinate that no later constant term reads.
    """

    def __init__(self, cur, base, lat, frame, base_frame, widths, bits, weight):
        self.m = base.modulus
        self.ring = base  # makes the decoded polynomials
        self.lat = lat
        self.shift, self.base_shift = frame[0], base_frame[0]
        # the origin's box coordinates times det, -shift.X: a step moves it by
        # -base_shift.X, a trim of lo rows by -lo.det in the first coordinate
        self.det, origin, move = 1, [-s for s in self.shift], self.base_shift
        if lat:
            self.det = lat[2]
            origin, move = ([c for c, in _times([[x] for x in v], lat[1])]
                            for v in (origin, move))
        self.origin, self.move = list(origin), list(move)
        self.widths = widths
        self.strides = [prod(widths[i + 1:]) for i in range(len(widths))]
        self.bits = bits
        self.weight = weight
        self.top = self.m - 1
        self.x = _pack(cur._coeffs.values(), bits, self._index(*frame[1:3]))
        index, values = self._index(*base_frame[1:3]), base._coeffs.values()
        self.terms = [(i * bits, c) for i, c in zip(index, values)]
        self.base = (_pack(values, bits, index) if len(base) > SHIFT_ADD_TERMS
                     else None)
        self.left = self.reduce = self.rows = None  # set by the owner, or at need

    def _index(self, columns, lo):
        """The slots of the coordinates u given as columns, lo in slot 0."""
        index = [0] * len(columns[0])
        for column, l, s in zip(columns, lo, self.strides):
            index = [i + (x - l) * s for i, x in zip(index, column)]
        return index

    def step(self):
        if self.top * self.weight >> self.bits:
            if self.reduce is None:
                self.reduce = _reducer(self.m, self.bits, prod(self.widths))
            self.x = self.reduce(self.x)
            self.top = self.m - 1
            if self.left is not None:
                self._trim()
        x = self.x
        if self.base is not None:
            self.x = x * self.base
        else:  # one shift-and-add per term of base
            self.x = sum((x * c if c > 1 else x) << shift for shift, c in self.terms)
        self.top *= self.weight
        self.shift = list(map(add, self.shift, self.base_shift))
        self.origin = list(map(sub, self.origin, self.move))
        if self.left is not None:
            self.left -= 1

    def _trim(self):
        """Keep only the rows lo..hi of the first box coordinate that meet the
        hull of the origin and -K.(base support), K = left: every exponent of
        the running power that a later constant term reads lies in it."""
        if self.rows is None:  # the row of e is (e - shift).col / det
            if self.lat:
                basis, X, det = self.lat
                col, first = [row[0] for row in X], basis[0]
                if det < 0:
                    col, det = [-c for c in col], -det
            else:
                col = first = [int(i == 0) for i in range(len(self.shift))]
                det = 1
            dots = [sum(map(mul, e, col)) for e in self.ring._coeffs]
            self.rows = col, det, min(dots), max(dots), first
        col, det, low, high, first = self.rows
        at, K = sum(map(mul, self.shift, col)), self.left
        lo = -((at - min(0, -K * high)) // det)  # ceiling
        hi = (max(0, -K * low) - at) // det
        row = self.strides[0] * self.bits
        self.x &= (1 << max(hi + 1, 0) * row) - 1
        if lo > 0:
            self.x >>= lo * row
            self.shift = [s + lo * f for s, f in zip(self.shift, first)]
            self.origin[0] -= lo * self.det

    def constant_term(self):
        index = 0
        for x, w, s in zip(self.origin, self.widths, self.strides):
            x, off = divmod(x, self.det)
            if off or not 0 <= x < w:
                return 0
            index += x * s
        return (self.x >> (index * self.bits) & ((1 << self.bits) - 1)) % self.m

    def poly(self):
        m = self.m
        slots = _slots(self.x, self.bits)
        index = list(compress(count(), slots))
        residues = [slots[i] % m for i in index]
        index = list(compress(index, residues))
        columns = [[i // s % w for i in index]
                   for w, s in zip(self.widths, self.strides)]
        exps = _points(self.lat, self.shift, columns)
        return self.ring._make(dict(zip(zip(*exps), filter(None, residues))))


def _packed_walk(cur, base, steps):
    """A packed walk from cur by `steps` multiplications by base, in slots
    of `_slot((m-1) * weight)` bits, or None for the dict multiply: exact
    coefficients, an empty factor, or a one-shot product (steps == 1) with
    fewer term pairs than slots in its box.  Only a longer walk, whose cur
    is a power of base, packs in base's lattice."""
    m = base.modulus
    if m is None or not cur or not base:
        return None
    weight = sum(base._coeffs.values())
    bits = _slot((m - 1) * weight)
    lat = _lattice(base) if steps > 1 else ()
    frame = _frame(cur, lat)
    base_frame = _frame(base, lat)
    spans = list(zip(frame[3], base_frame[3]))
    if steps == 1 and len(cur) * len(base) < prod(s + b + 1 for s, b in spans):
        return None
    widths = [s + steps * b + 1 for s, b in spans]
    _check_work(steps * (prod(widths) * -(-bits // 64) + 128))
    return _PackedWalk(cur, base, lat, frame, base_frame, widths, bits, weight)


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
    """The walk from cur by `steps` multiplications by base, packed when the
    kernel applies; refused (`_check_work`) before it allocates."""
    walk = _packed_walk(cur, base, steps)
    if walk is None:
        _check_work(_dict_walk_work(cur, base, steps))
    return walk or _DictWalk(cur, base)


WORK_CHUNKS = 1024  # at most this many terms in a dict walk's estimate


def _dict_walk_work(cur, base, steps):
    """Slot-words of a dict walk: step t pays len(base) term pairs per slot
    of the box of cur * base**t, times DICT_PAIR plus the 64-bit words of
    sum|cur| * sum|base|**t, plus its fixed cost; an empty factor pays only
    that.  The steps are summed in WORK_CHUNKS runs, each priced at its last
    step (box and words only grow), until the sum is over WALK_BUDGET."""
    spans = list(zip(_spans(cur), _spans(base)))
    chunk, work, t = -(-steps // WORK_CHUNKS), 0, 0
    while t < steps and work <= WALK_BUDGET:
        last = min(t + chunk, steps)
        box = prod(s + last * b + 1 for s, b in spans)
        pair = DICT_PAIR + _words((cur, 1), (base, last))
        work += (last - t) * (len(base) * box * pair + 128)
        t = last
    return work


def constant_term_sequence(lam: LaurentPoly, N: int) -> list:
    """Constant terms b_0..b_N of the powers lam**0, lam**1, ..., lam**N, in
    lam's coefficient ring (`reduce_mod` first for residues mod p**K).

    Uses iterated multiplication (not binary powering): every intermediate
    power is needed anyway, and multiplying the running power by the fixed
    small factor is cheaper than repeated squaring of large supports.  It is
    the walk of a fresh `PowerCache` that keeps no power, so it is trimmed
    from its first step.
    """
    if not isinstance(N, int) or N < 0:
        raise ValueError("N must be a non-negative integer")
    cache = PowerCache(lam)
    if N > 1:
        cache._sweep(1, N)
    return cache._cts[: N + 1]


def constant_term_of_product(factors) -> int:
    """Constant term of the product of several polynomials.

    Expands all factors but the largest, then takes the dot product
    sum_e A(e) * B(-e) against the largest factor, iterating the shorter
    side.  This avoids materializing the full product when only its constant
    term is wanted; a vanishing partial product returns 0 at once.
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
        if not acc:  # ghost factors often vanish mod p**K
            return 0
        acc = acc * f
    a, b = sorted((acc._coeffs, big._coeffs), key=len)  # iterate the shorter
    total = 0
    for e, c in a.items():
        v = b.get(tuple(map(neg, e)))
        if v:
            total += c * v
    if big.modulus is not None:
        total %= big.modulus
    return total


def _box(f):
    """(lo, widths, weight) of f != 0: a box lo <= e < lo + widths holding
    its support, and the sum of its residues; cached with f."""
    if "box" not in f._cache:
        columns = list(zip(*f._coeffs))
        lo = [min(c) for c in columns]
        f._cache["box"] = lo, [max(c) - l + 1 for c, l in zip(columns, lo)], sum(
            f._coeffs.values())
    return f._cache["box"]


def _slot_data(f, bits):
    """f's residues in slots of `bits` bits over its box, row-major, as
    bytes; packed from the coefficient map once per width, cached with f."""
    data = f._cache
    if bits not in data:
        lo, widths, _ = _box(f)
        strides = [prod(widths[i + 1:]) for i in range(len(widths))]
        index = [sum(map(mul, map(sub, e, lo), strides)) for e in f._coeffs]
        data[bits] = _pack(f._coeffs.values(), bits, index).to_bytes(
            prod(widths) * bits // 8, _ORDER)
    return data[bits]


def _classes(f, p):
    """f's terms grouped by their exponents mod p; cached with f."""
    key = ("classes", p)
    if key not in f._cache:
        classes = {}
        for e, c in f._coeffs.items():
            classes.setdefault(tuple(x % p for x in e), []).append((e, c))
        f._cache[key] = classes
    return f._cache[key]


def _restride(data, widths, wide, size):
    """Slots of `size` bytes over the box `widths`, laid out in the box
    `wide` >= widths from the same first slot: one copy per row."""
    if widths[1:] == wide[1:]:
        return data
    row = widths[-1] * size
    strides = [prod(wide[i + 1:]) * size for i in range(len(wide) - 1)]
    out = bytearray(sum((w - 1) * s for w, s in zip(widths, strides)) + row)
    for at, u in zip(count(0, row), product(*map(range, widths[:-1]))):
        start = sum(map(mul, u, strides))
        out[start:start + row] = data[at:at + row]
    return out


# Box slots of a packed Cartier product that cost about as much as one term
# pair of its dict route (U_p of the Apery products at p = 2, 3, 5 ran
# fastest packed from 32 to 128, those of x1+x2+x3+1/(x1*x2*x3) at p = 5,
# whose powers fill 2 % of their boxes, from 1 to 128)
PAIR_SLOTS = 64


def cartier_of_product(factors, p):
    """U_p of the product of the factors: its terms with every exponent in
    pZ^d, each exponent divided by p.  This is the Cartier operator of Dwork
    theory, and CT(A(x) * B(x**p)) == CT(U_p(A) * B).

    Mod m the factors are one Kronecker product in Z^d, the heaviest first,
    in slots that hold m-1 times the weight of any other, reduced before a
    factor could overflow them.  Only the slots on pZ^d are decoded, one
    array slice per kept row.  Each factor is packed once per slot width
    (`_slot_data`) and the result comes packed.  Exact coefficients, and a product whose
    term pairs on pZ^d are fewer than its box's slots / PAIR_SLOTS, take the
    dict multiply: all factors but the longest, then only the pairs with the
    longest that land on pZ^d, found by its terms' classes mod p."""
    factors = sorted(factors, key=len)
    ring, d, m = factors[0], factors[0].arity, factors[0].modulus
    for f in factors[1:]:
        ring._same_ring(f)
    if not ring or m is None:
        return _cartier_dict(factors, p)
    boxes = [_box(f) for f in factors]
    lo = [sum(c) for c in zip(*(box[0] for box in boxes))]
    wide = [sum(c) - len(factors) + 1 for c in zip(*(box[1] for box in boxes))]
    if prod(map(len, factors)) * PAIR_SLOTS < prod(wide) * p**d:
        return _cartier_dict(factors, p)
    boxes, factors = zip(*sorted(zip(boxes, factors), key=lambda bf: -bf[0][2]))
    bits = _slot((m - 1) * max([box[2] for box in boxes[1:]], default=1))
    size, reduce, x = bits // 8, None, None
    for (_, widths, weight), f in zip(boxes, factors):
        y = int.from_bytes(_restride(_slot_data(f, bits), widths, wide, size), _ORDER)
        if x is None:
            x, top = y, m - 1
            continue
        if top * weight >> bits:
            reduce = reduce or _reducer(m, bits, prod(wide))
            x, top = reduce(x), m - 1
        x, top = x * y, top * weight
    slots = _slots(x, bits, prod(wide))
    first = [-l % p for l in lo]
    kept_widths = [len(range(f, w, p)) for f, w in zip(first, wide)]
    strides = [prod(wide[i + 1:]) for i in range(d)]
    kept = slots[:0]
    for u in product(*(range(f, w, p) for f, w in zip(first[:-1], wide[:-1]))):
        at = sum(map(mul, u, strides)) + first[-1]
        kept += slots[at:at - first[-1] + wide[-1]:p]
    if top >= m:  # reduce the kept slots only
        kept = _slots(_reducer(m, bits, len(kept))(_pack(kept, bits)), bits, len(kept))
    kept_lo = [(l + f) // p for l, f in zip(lo, first)]
    index = list(compress(count(), kept))
    columns = [[i // s % w + l for i in index] for w, s, l in
               zip(kept_widths, [prod(kept_widths[i + 1:]) for i in range(d)], kept_lo)]
    out = ring._make(dict(zip(zip(*columns), compress(kept, kept))))
    if out and bits in _TYPECODES:
        out._cache["box"] = kept_lo, kept_widths, sum(kept)
        out._cache[bits] = kept.tobytes()
    return out


def _cartier_dict(factors, p):
    """`cartier_of_product` by the dict multiply, the factors sorted by length."""
    *rest, longest = factors
    acc = LaurentPoly.one(longest.arity, p=longest.p, K=longest.K)
    for f in rest:
        if not acc:
            break
        acc = acc._mul_dict(f)
    out = {}
    get = out.get
    classes = _classes(longest, p)
    for e, c in acc._coeffs.items():
        for f, v in classes.get(tuple(-x % p for x in e), ()):
            key = tuple((x + y) // p for x, y in zip(e, f))
            out[key] = get(key, 0) + c * v
    return longest._make(_canonical(out.items(), longest.modulus))


class PowerCache:
    """Powers of a fixed polynomial, computed by ascending multiplication.

    A request for the n-th power walks up from the largest power already
    saved below n, multiplying by the base; only marked indices (plus the
    requested one) are retained, so memory stays proportional to the powers
    actually used.  Every walk records the constant terms past those known;
    `constant_terms` walks on from the largest power saved at or below the
    last known one -- mark first, then ask for constant terms, and the whole
    cache fills in a single sweep.  A walk is trimmed after its last save.
    """

    def __init__(self, base: LaurentPoly):
        self.base = base
        one = LaurentPoly.one(base.arity, p=base.p, K=base.K)
        self._saved = {0: one, 1: base}
        self._marks = set()
        self._cts = [1, base.constant_term()]

    def mark(self, indices):
        """Register power indices worth retaining when a walk passes them."""
        self._marks.update(indices)

    def power(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("power index must be non-negative")
        if n not in self._saved:
            self._sweep(n - 1, n, (n,))
        return self._saved[n]

    def constant_terms(self, N: int) -> list:
        """Constant terms of powers 0..N (iterated multiplication)."""
        if N >= len(self._cts):
            self._sweep(len(self._cts) - 1, N)
        return self._cts[: N + 1]

    def _sweep(self, top, n, keep=()):
        """Walk from the largest saved power at or below `top` up to n,
        recording constant terms and saving the marked powers and `keep`;
        once none is left to save, the walk trims itself (`left`)."""
        start = max(k for k in self._saved if k <= top)
        keep = {k for k in chain(self._marks, keep)
                if start < k <= n and k not in self._saved}
        last = max(keep, default=start)
        walk = _walk(self._saved[start], self.base, n - start)
        for i in range(start + 1, n + 1):
            if i == last + 1:
                walk.left = n - last
            walk.step()
            if i == len(self._cts):
                self._cts.append(walk.constant_term())
            if i in keep:
                self._saved[i] = walk.poly()


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
        """Series G with self*G == 1 up to the cutoff; needs a unit c_0.  Newton:
        if self*G == 1 + X**k H, then G - X**k G H is good to X**(2k)."""
        c0 = self.coeffs[0]
        if c0 % self.p == 0:
            raise ValueError(
                f"constant term {c0} is not a unit mod {self.p}; series not invertible"
            )
        m, f, n = self.modulus, self.coeffs, self.N + 1
        g = [pow(c0, -1, m)]
        while len(g) < n:
            k = len(g)
            h = _mul_mod_lists(f[: 2 * k], g, m, 2 * k)[k:]
            g += [-v % m for v in _mul_mod_lists(g, h, m, min(k, n - k))]
        return TruncSeries(self.p, self.K, self.N, g)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.N > 5 else ""
        return f"TruncSeries(p={self.p}, K={self.K}, N={self.N}; [{head}{tail}])"

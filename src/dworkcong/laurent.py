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
the sum of the lighter factor's residues (the base's in a walk): 8, 16, 32
or 64 bits, and whole 64-bit words beyond that, so every modulus packs.  A
one-shot product is U_1 of itself (`cartier_of_product`), packed in Z^d.
A walk -- repeated products by one factor, the base -- packs in the
coordinates of the lattice L spanned by the base's support differences (H.
Cohen, A Course in Computational Algebraic Number Theory, 2.4), in a basis
of r of them when some r span L -- the n-th power of x1+x2+x3+1/(x1*x2*x3),
index 4, then fills an (n+1)**3 box -- else in L's echelon basis, inverted
by the integer elimination of `polytope`.  Every walk starts from a power of its base, so
its running power lies on one coset of L.

Every power sequence -- `PowerCache.power`, `PowerCache.constant_terms`,
`constant_term_sequence` and `**` of two or more terms (repeated
multiplication by the base, the better chain when coefficients grow: W. M.
Gentleman, Math. Comp. 26, 1972) -- is one walk of the running power; a
monomial's power scales its exponent.  Mod m the walk is packed: a step
is one shift-and-add per term of the base (one product with the packed base
beyond SHIFT_ADD_TERMS terms), or per term of each factor in turn when a
walk over Z^d has a base written as a product (`polyparse`) whose factors'
residues multiply over Z to its own in fewer passes (`_factored`): the
Apery polynomial's 2 + 2 + 3 in place of 8, three of them multiplies.
b_n is read from the origin's slot, slots are reduced only before they
could overflow and a power is formed only where a caller keeps it.  A
reduction is one `bytes.translate` for 8-bit slots and a Barrett reduction
on the packed integer, two slots to a lane, for wider ones.
Once no power is left to keep, a walk is cut at each reduction: with K
steps to come, CT(cur * base**j), j <= K, reads cur only on the hull of the
origin and -K.(base support), so the rows of the first box coordinate
outside that hull are masked off or shifted out.  A walk whose lasting
box's slots times its reduction period exceed COPY_SLOTS copies its rows at
each reduction instead, cut in every coordinate, into a box fitted to the
next one.  Over Z a walk is the dict multiply step by step, and once no
power is left to keep it drops, before each step, the running power's terms
outside that hull's box.  A walk is priced at the boxes it will carry, copies
and cuts included, and a walk or monomial power estimated over WALK_BUDGET
is refused with ValueError before it starts.

`cartier_of_product` forms U_p of a product, its terms on pZ^d with their
exponents divided by p (the Cartier operator), as one Kronecker product in
Z^d of which only the slots on pZ^d are kept, every slot at p = 1.  Each
factor is packed once per slot width and cached with it.  The dict multiply
forms the rest -- exact coefficients, a factor's coefficient map with over
SPARSE box slots per term, and a product of factors with over PAIR_SLOTS
box slots per term pair -- and is the kernel's test oracle.

Mod m a value can be born from slots (`_born`): the power a walk keeps, a
packed one-shot product, the difference or sum with such a value on the
left, its x -> x**m spread and the result of `cartier_of_product`.  It
holds its Z^d box, cut to its support, its slot width and its slot bytes;
its length, weight and constant term come from the slots, and it decodes
its coefficient map only when a caller reads one (`coefficient` reads one
slot).  Products, sums and constant terms of products of such values
(`constant_term_of_product`) run on their slots, so the ghost fold of
`ghost.GhostCalculator.c_direct` decodes no map.  A
value with over SPARSE box slots per term, a box too sparse to carry, is
decoded at birth; exact coefficients are never born from slots.

Also provided: truncated power series with coefficients mod p**K, supporting
multiplication (the same kernel in one variable), substitution X -> X**p and
inversion of unit-constant-term series by Newton's iteration on that kernel
(Brent and Kung, J. ACM 25, 1978) -- enough to form quotients like
f(X)/f(X**p) to a cutoff.
"""

from __future__ import annotations

import sys
from array import array
from copy import copy
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
    return fresh objects (`self + 0` returns self).  Iteration helpers
    (`terms`, `support`) are sorted lexicographically on the exponent vector
    so printed output and reports are reproducible.  A value born from slots
    (`_born`) has no coefficient map until one is read (`__getattr__`).
    """

    __slots__ = ("arity", "p", "K", "modulus", "_lattice", "_cache", "_coeffs")

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

    def _set(self, arity, p, K, modulus, coeffs, cache=None):
        """Set the ring and the coefficient map, or for coeffs None the slots
        it is decoded from (`cache`, as `_born` fills it); nothing else is
        cached yet (the lattice, and the box and packings of the kernel)."""
        for name, value in zip(self.__slots__, (arity, p, K, modulus, None, cache or {})):
            object.__setattr__(self, name, value)
        if coeffs is not None:
            object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __getattr__(self, name):
        """Reached only for an unset slot: the coefficient map of a value born
        from slots, decoded on its first read."""
        if name != "_coeffs":
            raise AttributeError(name)
        cache = self._cache
        coeffs = _decode(*cache["box"][:2], cache["bits"], cache[cache["bits"]])
        object.__setattr__(self, "_coeffs", coeffs)
        return coeffs

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

    def _make(self, coeffs, cache=None):
        # internal fast path: coeffs already canonical (no zeros, right arity),
        # or None for a value born from the slots in `cache`
        out = object.__new__(LaurentPoly)
        out._set(self.arity, self.p, self.K, self.modulus, coeffs, cache)
        return out

    def reduce_mod(self, p, K):
        """Image in Z/p**K.  From the exact ring, or from the same p with K' >= K.
        The factors a product was written as (`polyparse`) are reduced too."""
        if self.p is not None:
            if self.p != p:
                raise ValueError(f"cannot move coefficients from p={self.p} to p={p}")
            if self.K < K:
                raise ValueError(f"cannot raise precision {self.K} to {K}")
        out = LaurentPoly(self.arity, self._coeffs, p=p, K=K)
        if "factors" in self._cache:
            out._cache["factors"] = tuple(f.reduce_mod(p, K) for f in self._cache["factors"])
        return out

    # -- inspection --------------------------------------------------------

    def coefficient(self, exponents):
        e = tuple(exponents)
        if len(e) != self.arity:
            raise ValueError(f"exponent {e} does not have arity {self.arity}")
        if "len" in self._cache:  # born from slots: read the one slot
            return _slot_at(self, e)
        return self._coeffs.get(e, 0)

    def constant_term(self):
        return self.coefficient((0,) * self.arity)

    def support(self):
        """Exponent vectors with nonzero coefficient, lexicographically sorted."""
        return sorted(self._coeffs)

    def terms(self):
        """(exponent, coefficient) pairs, lexicographically sorted."""
        return sorted(self._coeffs.items())

    def __len__(self):
        return self._cache.get("len") or len(self._coeffs)

    def __bool__(self):  # a value born from slots is never 0
        return "len" in self._cache or bool(self._coeffs)

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

    def _coerce(self, other):  # NotImplemented, so a TypeError, for a foreign operand
        if isinstance(other, int):
            return LaurentPoly.constant(self.arity, other, p=self.p, K=self.K)
        return other if isinstance(other, LaurentPoly) else NotImplemented

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._make(_canonical(((e, -c) for e, c in self._coeffs.items()),
                                     self.modulus))

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign):
        """self + sign * other: on slots mod m when self was born from them
        (`_packed_sum`), else on the coefficient maps."""
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        self._same_ring(other)
        if not other:
            return self
        if "len" in self._cache:
            return _packed_sum(self, other, sign)
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + sign * c
        return self._make(_canonical(out.items(), self.modulus))

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other - self

    def __mul__(self, other):
        """self * other: a product is U_1 of itself (`cartier_of_product`)."""
        if isinstance(other, int):
            return self._scalar_mul(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return cartier_of_product((self, other), 1)

    def _mul_dict(self, other):
        """Term-by-term product: the dict route of `cartier_of_product` and
        the packed kernel's oracle.  Priced as one step of a dict walk."""
        self._same_ring(other)
        _check_work(len(self) * len(other) * (_words((self, 1), (other, 1)) + DICT_PAIR),
                    "product")
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

    __rmul__ = __mul__  # int * self; a polynomial on the left takes its own __mul__

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
        if "len" in self._cache:  # born from slots: every row spread by m
            lo, widths, weight = self._cache["box"]
            bits, new = self._cache["bits"], [m * (w - 1) + 1 for w in widths]
            if len(self) * SPARSE >= prod(new):  # else decoded, the box too sparse
                rows = _rows(widths, _strides(widths), [m * s for s in _strides(new)])
                return _born(self, [m * x for x in lo], new, bits,
                             _scatter(self._cache[bits], bits, prod(new), rows, m),
                             (len(self), weight))
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


def _values(data, bits):
    """The slots of `bits` bits in data, lowest first: an array up to 64
    bits, a list of ints beyond."""
    if bits in _TYPECODES:
        out = array(_TYPECODES[bits])
        out.frombytes(data)
        return out
    size = bits // 8
    return [int.from_bytes(data[i:i + size], _ORDER) for i in range(0, len(data), size)]


def _data(values, bits, index=None, length=None):
    """Slots of `bits` bits holding the values, as bytes: the i-th value in
    slot index[i] of `length` (default: past the last index), the others 0,
    or in slot i without an index."""
    size = bits // 8
    if index is None:
        if bits in _TYPECODES:
            return array(_TYPECODES[bits], values).tobytes()
        return b"".join(c.to_bytes(size, _ORDER) for c in values)
    index = list(index)
    if length is None:
        length = max(index) + 1
    if bits in _TYPECODES:
        out = array(_TYPECODES[bits], bytes(length * size))
        for i, c in zip(index, values):
            out[i] = c
        return out.tobytes()
    out = bytearray(length * size)
    for i, c in zip(index, values):
        out[i * size:(i + 1) * size] = c.to_bytes(size, _ORDER)
    return bytes(out)


def _slots(x, bits, length=None):
    """The slots of `bits` bits of the packed integer x, lowest first, up to
    its highest nonzero one or `length` of them (`_values`)."""
    if length is None:
        length = -(-x.bit_length() // bits)
    return _values(x.to_bytes(length * bits // 8, _ORDER), bits)


def _pack(values, bits, index=None):
    """Residues in slots of `bits` bits of one integer: the i-th value in
    slot index[i], or in slot i without an index (`_data`)."""
    if index is None and bits in _TYPECODES:
        return int.from_bytes(array(_TYPECODES[bits], values), _ORDER)
    return int.from_bytes(_data(values, bits, index), _ORDER)


def _strides(widths):
    """Row-major strides of the box `widths`."""
    return [prod(widths[i + 1:]) for i in range(len(widths))]


def _rewidth(data, bits, new):
    """Slots of `bits` bits laid out in slots of `new` bits, every value
    fitting both: one strided byte slice per byte of the narrower."""
    a, b = bits // 8, new // 8
    if a == b:
        return data
    out = bytearray(len(data) // a * b)
    for k in range(min(a, b)):  # the low bytes of each slot
        i, j = (k, k) if _ORDER == "little" else (b - 1 - k, a - 1 - k)
        out[i::b] = data[j::a]
    return bytes(out)


def _rows(widths, src, dst, to=0):
    """(u.src, to + u.dst, widths[-1]) for each row u of the box `widths`,
    its coordinates but the last: the rows of a box for `_scatter`."""
    return [(sum(map(mul, u, src)), to + sum(map(mul, u, dst)), widths[-1])
            for u in product(*map(range, widths[:-1]))]


def _scatter(data, bits, length, rows, step=1):
    """`length` slots of `bits` bits, 0 but for the rows moved from data:
    each (at, to, n) moves its n slots from slot `at` on to the slots to,
    to + step, ...  One extended-slice assignment per row and 64-bit word
    of a slot."""
    lanes = max(1, bits // 64)
    code = _TYPECODES[bits // lanes]
    src, out, jump = array(code), array(code, bytes(length * bits // 8)), step * lanes
    src.frombytes(data)
    for at, to, n in rows:
        for k in range(lanes):
            start = to * lanes + k
            stop = start + n * jump
            out[start:stop if stop >= 0 else None:jump] = \
                src[at * lanes + k:(at + n) * lanes:lanes]
    return out.tobytes()


# -- values born from slots ------------------------------------------------------


def _born(ring, lo, widths, bits, data, counts=None):
    """A value of ring's ring born from `data`: residues mod m over the box
    lo <= e < lo + widths in slots of `bits` bits, row-major.  It keeps its
    box, cut to its support's (`_hull`), its width and bytes (`_slot_data`),
    and its length and weight from the slots (or `counts`), and decodes its
    coefficient map only when a caller reads it (`LaurentPoly.__getattr__`).
    0 when every slot is; a value with over SPARSE box slots per term is
    decoded at once, its box and bytes kept only as a cached packing."""
    if data.count(0) == len(data):
        return ring._make({})
    lo, widths, data = _hull(lo, widths, bits, data)
    if counts is None:
        values = _values(data, bits)
        counts = len(values) - values.count(0), sum(values)
    n, weight = counts
    cache = {"box": (list(lo), list(widths), weight), bits: data}
    if n * SPARSE < prod(widths):
        return ring._make(_decode(lo, widths, bits, data), cache)
    cache.update(bits=bits, len=n)
    return ring._make(None, cache)


def _hull(lo, widths, bits, data):
    """(lo, widths, data) cut to the least box holding every nonzero slot of
    data, not all 0: at each end of each coordinate, the slabs of zero
    slots are dropped, each tested by byte slices (`_restride`)."""
    size, d = bits // 8, len(widths)
    strides = _strides(widths)
    first, last = [0] * d, [w - 1 for w in widths]

    def zero(j, t):  # the slots whose coordinate j is t
        block = strides[j] * size
        if not j:
            return data.count(0, t * block, (t + 1) * block) == block
        every = block * widths[j]
        return all(not data[b::every].strip(b"\0") for b in range(t * block, (t + 1) * block))

    for j in range(d):
        while zero(j, first[j]):
            first[j] += 1
        while zero(j, last[j]):
            last[j] -= 1
    keep = [b - a + 1 for a, b in zip(first, last)]
    if keep == widths:
        return lo, widths, data
    return list(map(add, lo, first)), keep, bytes(_restride(data, widths, keep, size, first, keep))


def _as_born(f):
    """f mod m as a value born from its slots, in the narrowest width; f
    itself when it was, or when it is exact or 0."""
    if "len" in f._cache or f.modulus is None or not f:
        return f
    lo, widths, weight = _box(f)
    bits = _slot(f.modulus - 1)
    return _born(f, lo, widths, bits, _slot_data(f, bits), (len(f), weight))


def _decode(lo, widths, bits, data):
    """The coefficient map of the residues `data` over the box lo + widths
    in slots of `bits` bits."""
    slots = _values(data, bits)
    index = list(compress(count(), slots))
    columns = [[i // s % w + l for i in index]
               for w, s, l in zip(widths, _strides(widths), lo)]
    return dict(zip(zip(*columns), compress(slots, slots)))


def _slot_at(f, e):
    """The residue of a value born from slots at the exponent e."""
    lo, widths, _ = f._cache["box"]
    index = 0
    for x, l, w in zip(e, lo, widths):
        if not l <= x < l + w:
            return 0
        index = index * w + x - l
    size = f._cache["bits"] // 8
    return int.from_bytes(f._cache[f._cache["bits"]][index * size:(index + 1) * size], _ORDER)


def _packed_sum(a, b, sign):
    """a + sign * b mod m on slots, over the box holding both: a - b as
    a + (m - b) slot by slot on the packed integers, then one reduction."""
    m = a.modulus
    (la, wa, _), (lb, wb, _) = _box(a), _box(b)
    lo = list(map(min, la, lb))
    widths = [max(x + w, y + v) - l for x, w, y, v, l in zip(la, wa, lb, wb, lo)]
    bits, n = _slot(2 * m - 1), prod(widths)
    strides = _strides(widths)

    def placed(f, flo, fw):
        data = _slot_data(f, bits)
        if flo != lo or fw != widths:
            to = sum((x - l) * s for x, l, s in zip(flo, lo, strides))
            data = _scatter(data, bits, n, _rows(fw, _strides(fw), strides, to))
        return int.from_bytes(data, _ORDER)

    x, y = placed(a, la, wa), placed(b, lb, wb)
    if sign < 0:
        y = m * int.from_bytes((1).to_bytes(bits // 8, _ORDER) * n, _ORDER) - y
    x = _reducer(m, bits, n)(x + y)
    return _born(a, lo, widths, bits, x.to_bytes(n * bits // 8, _ORDER))


def _packed_dot(a, b):
    """CT(a * b) = sum_e a(e) * b(-e) mod m on slots: the sub-box of e in
    a's box with -e in b's, cut from a's slots and from b's (`_restride`),
    b's read backwards, since -e runs through its sub-box in reverse order."""
    (la, wa, _), (lb, wb, _) = _box(a), _box(b)
    lo = [max(x, 1 - y - v) for x, y, v in zip(la, lb, wb)]
    keep = [min(x + w, 1 - y) - l for x, w, y, l in zip(la, wa, lb, lo)]
    if min(keep) <= 0:
        return 0
    bits = max(a._cache.get("bits", 0), b._cache.get("bits", 0))
    A = _restride(_slot_data(a, bits), wa, keep, bits // 8, list(map(sub, lo, la)), keep)
    B = _restride(_slot_data(b, bits), wb, keep, bits // 8,
                  [1 - l - k - y for l, k, y in zip(lo, keep, lb)], keep)
    return sum(map(mul, _values(A, bits), reversed(_values(B, bits)))) % a.modulus


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
    if (len(a) + len(b)) * bits > 64 * 31622:  # 31622**2 is about WALK_BUDGET
        _check_series(max(len(a), len(b)), m)
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
# Slot-words: a step of a packed walk counts the slots of the box it fills
# times ceil(bits/64), one of a dict walk len(base) term pairs per box slot
# times DICT_PAIR plus the 64-bit words of its largest coefficient, and each
# step 128 more for its fixed cost (about 3 us).  On a 2-core x86-64 host, for
# fitted boxes: 19 to 25 ns each for a 16-bit Apery walk (about 25 s at the
# bound), 51 to 58 ns for 128-bit slots, 4 to 16 ns for 8-bit sublattice walks.
WALK_BUDGET = 10**9
# A dict term pair's fixed cost: its exponent tuple and dict update took 490
# to 680 ns per box pair (exact Apery walks to N = 90 and 150, (1+x1)^3000),
# however few words its coefficients have.  Priced at the boxes of the cut
# walk, exact Apery is refused from --N 237; --N 236 takes 13 to 23 s, as a
# packed walk at the bound is near 24 s.
DICT_PAIR = 20
# A packed walk with a reduction inside it, growing in a box coordinate beyond
# the first, copies its rows at each reduction when its lasting box's slots
# times its period exceed COPY_SLOTS: on a 2-core x86-64 host Apery `check dig2
# --p 7 --s 1` (9409 slots, period 1) took 1.8 ms without copies and 2.7 with,
# `check c1 --p 2 --s 5` (16129 slots, period 3) 3.7 ms without and 3.0 with.
# A copy is priced at RELAYOUT slot-words and one per COPY_BYTES bytes of the
# two boxes (about 12 us and 3 ns a byte).
COPY_SLOTS = 16384
RELAYOUT = 1024
COPY_BYTES = 8


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


def _check_series(length, m, products=1):
    """Refuse `products` kernel products of lists of at most `length`
    residues mod m over WALK_BUDGET, compared in log2.  Each is priced like
    a one-shot product of wide slots: words**log2(3) slot-words for the
    64-bit words of a packed factor, slots of (m-1)**2 * length (Karatsuba)."""
    words = -(-length * (2 * m.bit_length() + length.bit_length()) // 64)
    if products * words * words > WALK_BUDGET:  # words**2 bounds words**log2(3)
        _check_log2(log2(products) + log2(3) * log2(words), "series work")


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
    """A sweep's powers cur * base**k, k = 0..steps, cur a power of base, as
    one packed integer; a step multiplies by base or by its `factors` in turn.

    The slot at box coordinates u holds the exponent shift + u.B, B the
    lattice basis.  After `done` steps the origin's box coordinates times
    det are origin - done * move, and the running power fills the first
    kept + done * spans slots of each box coordinate.  Slots are reduced mod
    m every `period` steps, just before they could overflow, and the box is
    re-fitted there (`_fit`).  After step `keep` no power is kept, and
    each reduction cuts the running power to the hull of the origin and
    -K.(base support), K the steps to come: every exponent that a later
    constant term reads lies in it.  A walk with a reduction inside it,
    growing in a box coordinate beyond the first, whose lasting box's slots
    times its period exceed COPY_SLOTS (`copies`) copies its rows at each
    reduction, cut in every coordinate, into a box fitted to the next
    reduction but in its first coordinate, whose rows last.  Any other walk
    keeps its lasting box, cut in the first coordinate alone by a mask and
    a shift.
    """

    def __init__(self, cur, base, lat, frame, base_frame, bits, weight, steps, keep,
                 factors):
        self.m, self.ring, self.lat = base.modulus, base, lat
        self.bits, self.words = bits, -(-bits // 64)
        # per factor stepped by: its coordinates as columns, their least and its residues
        self.factors = [(f_frame[1], f_frame[2], list(f._coeffs.values()))
                        for f, f_frame in factors]
        # u = (e - shift).X / det, taken with det > 0: the origin's u times
        # det is -shift.X, which a step moves by -base_shift.X
        self.det, self.cols = 1, None
        self.origin, self.move = [-s for s in frame[0]], base_frame[0]
        if lat:
            X, self.det = lat[1:]
            if self.det < 0:
                X, self.det = [[-x for x in row] for row in X], -self.det
            self.cols = list(zip(*X))
            self.origin = [-sum(map(mul, frame[0], c)) for c in self.cols]
            self.move = [sum(map(mul, base_frame[0], c)) for c in self.cols]
        self.spans, self.kept = base_frame[3], [s + 1 for s in frame[3]]
        self.steps, self.keep, self.done = steps, keep, 0
        # the slots hold (m-1) * weight**period: reduce before step due + 1
        self.period, top = 0, self.m - 1
        while self.period < steps and not top * weight >> bits:
            top, self.period = top * weight, self.period + 1
        self.due, self.lanes = self.period, 0
        self.dots = self.reduce = None
        self.widths = [n + steps * b for n, b in zip(self.kept, self.spans)]  # lasting
        self.copies = self.period < steps and any(self.spans[1:]) \
            and prod(self.widths) * self.period > COPY_SLOTS
        if self.copies:
            self.widths = None
            self._fit(False)
        else:
            self.strides = _strides(self.widths)
        if frame[1] is None:  # cur born from slots in Z^d: its box's rows
            self.x = int.from_bytes(_restride(_slot_data(cur, bits), [s + 1 for s in frame[3]],
                                              self.widths, bits // 8), _ORDER)
        else:
            self.x = _pack(cur._coeffs.values(), bits, self._index(*frame[1:3]))
        self.start = cur  # whose Z^d box plus done times base's holds the power
        self._place_base()

    @property
    def shift(self):
        """The exponent in slot 0, -origin.B / det."""
        u = [self.done * v - o for o, v in zip(self.origin, self.move)]
        if not self.lat:
            return u
        return [sum(map(mul, u, col)) // self.det for col in zip(*self.lat[0])]

    def _index(self, columns, lo):
        """The slots of the coordinates u given as columns, lo in slot 0."""
        index = [0] * len(columns[0])
        for column, l, s in zip(columns, lo, self.strides):
            index = [i + (x - l) * s for i, x in zip(index, column)]
        return index

    def _place_base(self):
        """Each factor's terms as (bit offset, residue) in the box, and the
        base, its one factor then, packed beyond SHIFT_ADD_TERMS terms."""
        self.passes = []
        for columns, lo, values in self.factors:
            index = self._index(columns, lo)
            # the least offset first, the sum's start: x itself at offset 0
            terms = sorted((i * self.bits, c) for i, c in zip(index, values))
            self.passes.append((terms[0], terms[1:]))
        self.base = _pack(values, self.bits, index) if len(values) > SHIFT_ADD_TERMS else None

    def _support_dots(self):
        """The least and largest dot product of the base support with each
        column of X (of each coordinate over Z^d) that `_fit` cuts: all on a
        walk that copies (COPY_SLOTS), else the first; computed once."""
        if self.dots is None:
            dots = zip(*self.ring._coeffs)
            if self.cols:
                dots = ([sum(map(mul, e, c)) for e in self.ring._coeffs] for c in self.cols)
            self.dots = [(min(t), max(t)) for t in islice(dots, None if self.copies else 1)]
        return self.dots

    def _fit(self, trim):
        """Re-fit the box, cut when `trim` to the hull of the origin and
        -K.(base support), K the steps to come, in every box coordinate of a
        walk that copies (COPY_SLOTS), copied into the box fitted to the next
        reduction, else in the first alone: (the re-layout, as `_relayout`
        takes it, and its slot-words), or (None, 0)."""
        old, done, spans, d = self.widths, self.done, self.spans, len(self.spans)
        lo, kept = [0] * d, list(self.kept)
        if trim:
            left, det, dots = self.steps - done, self.det, self.dots or self._support_dots()
            for j in range(d if self.copies else 1):
                (low, high), at = dots[j], self.origin[j] - done * self.move[j]
                lo[j] = max(0, -((-min(0, -left * high) - at) // det))  # ceiling
                last = min((max(0, -left * low) + at) // det, kept[j] + done * spans[j] - 1)
                kept[j] = last - lo[j] + 1 - done * spans[j]
                if last < lo[j]:  # no later constant term reads the running power
                    self.kept = None
                    return (lo, old, old, [0] * d), 0
        widths, size = old, self.bits // 8
        if self.copies:  # the first coordinate's rows last, the others fit the next reduction
            ahead = min(self.due, self.steps)
            widths = [n + (ahead if j else self.steps) * b
                      for j, (n, b) in enumerate(zip(kept, spans))]
        elif kept == self.kept and not any(lo):
            return None, 0
        out = (self.kept[0] + done * spans[0]) * prod(old[1:]) * size if old else 0  # bytes read
        if any(lo):
            self.origin = [o - l * self.det for o, l in zip(self.origin, lo)]
        self.kept, kept = kept, [n + done * b for n, b in zip(kept, spans)]
        plan = lo, old, widths, kept
        if widths is old:
            return plan, 0
        self.widths, self.strides = widths, _strides(widths)
        if not old:
            return plan, 0
        return plan, RELAYOUT + (out + kept[0] * prod(widths[1:]) * size) // COPY_BYTES

    def work(self):
        """Slot-words of the whole walk: its steps taken on a copy whose
        packed integer is 0, each counting the box it fills, its fixed cost
        and its copy.  Once over WALK_BUDGET the count stops, at its
        mean step times the steps."""
        box, work = copy(self), 0
        box.x = 0
        for done in range(1, self.steps + 1):
            work += box.step() + 128
            if box.kept:
                rows = box.kept[0] + done * box.spans[0]
                work += rows * box.strides[0] * box.words
            if work > WALK_BUDGET:
                return work * self.steps // done
        return work

    def _relayout(self, lo, old, new, kept):
        """The packed integer in the box `new`: the `kept` slots from `lo`
        on in each coordinate of the box `old`."""
        x, bits = self.x, self.bits
        if not x or self.kept is None:
            return 0
        row = prod(old[1:]) * bits
        if new is old:  # the first coordinate only
            return x >> lo[0] * row & (1 << kept[0] * row) - 1
        data = x.to_bytes(max(-(-x.bit_length() // 8), (lo[0] + kept[0]) * row // 8), _ORDER)
        return int.from_bytes(_restride(data, old, new, bits // 8, lo, kept), _ORDER)

    def step(self):
        """Multiply by the base, reduced and re-fitted first where a
        reduction is due; return the re-layout's slot-words, 0 without one."""
        done, plan, cost = self.done, None, 0
        reduced = done == self.due
        if reduced:
            self.due += self.period
            if self.kept:
                plan, cost = self._fit(done >= self.keep)
        if plan:
            self.x = self._relayout(*plan)
            if plan[2] is not plan[1]:
                self._place_base()
        self.done = done + 1
        x = self.x
        if reduced and x:  # a reducer for at most twice the slots, at least half
            if self.reduce is None or self.bits > 8 and not (
                    self.lanes // 4 < -(-x.bit_length() // self.bits) <= self.lanes):
                self.lanes = -(-x.bit_length() // self.bits) * 2
                self.reduce = _reducer(self.m, self.bits, self.lanes)
            x = self.reduce(x)
        if self.base is not None:
            self.x = x * self.base
        else:  # one shift-and-add per term of each factor
            for (at, c), terms in self.passes:
                first = x * c if c > 1 else x
                x = sum(((x * c if c > 1 else x) << shift for shift, c in terms),
                        first << at if at else first)
            self.x = x
        return cost

    def constant_term(self):
        index, done = 0, self.done
        for o, v, w, s in zip(self.origin, self.move, self.widths, self.strides):
            x, off = divmod(o - done * v, self.det)
            if off or not 0 <= x < w:
                return 0
            index += x * s
        return (self.x >> (index * self.bits) & ((1 << self.bits) - 1)) % self.m

    def poly(self):
        """The running power, born from its slots (`_born`) in the Z^d box
        bbox(cur) + done * bbox(base).  Over Z^d the walk's rows are that
        box's; in a lattice basis B a slot's Z^d index is affine in its box
        coordinates, so each row of the walk, clipped to the box, moves by
        one strided slice assignment (`_scatter`).  A power with over SPARSE
        slots of that box per term (SIMPLEX3's fill 1/48 of theirs) is
        decoded from the walk's own box instead."""
        if not self.x:
            return self.ring._make({})
        done, bits, lat = self.done, self.bits, self.lat
        ext = [n + done * b for n, b in zip(self.kept, self.spans)]
        size = prod(self.widths)
        data = _reducer(self.m, bits, size)(self.x).to_bytes(size * bits // 8, _ORDER)
        if not lat:
            if self.widths[1:] != ext[1:]:
                data = _restride(data, self.widths, ext, bits // 8, [0] * len(ext), ext)
            return _born(self.ring, self.shift, ext, bits, data[:prod(ext) * bits // 8])
        (clo, cw, _), (blo, bw, _) = _box(self.start), _box(self.ring)
        lo = [c + done * b for c, b in zip(clo, blo)]
        wide = [w + done * (v - 1) for w, v in zip(cw, bw)]
        slots = _values(data, bits)
        counts = len(slots) - slots.count(0), sum(slots)
        if counts[0] * SPARSE < prod(wide):  # too sparse for Z^d: decoded in the lattice
            index = list(compress(count(), slots))
            columns = [[i // s % w for i in index] for w, s in zip(self.widths, self.strides)]
            exps = _points(lat, self.shift, columns)
            return self.ring._make(dict(zip(zip(*exps), compress(slots, slots))))
        zs, basis, last = _strides(wide), lat[0], lat[0][-1]
        steps = [sum(map(mul, row, zs)) for row in basis]  # Z^d index per coordinate
        # each row's first exponent, less lo, and its slot in the walk
        starts = [(list(map(sub, self.shift, lo)), 0)]
        for row, s, n in zip(basis, self.strides, ext[:-1]):
            starts = [([a + x * b for a, b in zip(e, row)], at + x * s)
                      for e, at in starts for x in range(n)]
        clip, rows = list(zip(last, wide)), []
        for e, at in starts:  # its last coordinates whose exponents lie in the box
            t0, t1 = 0, ext[-1]
            for a, (b, w) in zip(e, clip):
                if b > 0:
                    t0, t1 = max(t0, -(a // b)), min(t1, (w - 1 - a) // b + 1)
                elif b < 0:
                    t0, t1 = max(t0, -((a - w + 1) // b)), min(t1, a // -b + 1)
                elif not 0 <= a < w:
                    t1 = t0
            if t0 < t1:
                rows.append((at + t0, sum(map(mul, e, zs)) + t0 * steps[-1], t1 - t0))
        return _born(self.ring, lo, wide, bits, _scatter(data, bits, prod(wide), rows, steps[-1]),
                     counts)


def _packed_walk(cur, base, steps, keep=None):
    """A packed walk from cur, a power of base, by `steps` multiplications
    by base, in base's lattice and slots of `_slot((m-1) * weight)` bits,
    that decodes no power after step `keep` (default: steps), or None for
    the dict walk: exact coefficients or an empty factor.  It is priced at
    its full box at every step, and when that is over WALK_BUDGET at the
    boxes it fits (`work`)."""
    m = base.modulus
    if m is None or not cur or not base:
        return None
    weight = sum(base._coeffs.values())
    bits = _slot((m - 1) * weight)
    lat = _lattice(base)
    if "len" in cur._cache and not lat:  # born from slots: its box, no map
        lo, widths, _ = cur._cache["box"]
        frame = lo, None, lo, [w - 1 for w in widths]
    else:
        frame = _frame(cur, lat)
    base_frame = _frame(base, lat)
    factors = [(base, base_frame)]
    if not lat and _factored(base, weight):
        factors = [(f, _frame(f, ())) for f in base._cache["factors"]]
    spans = list(zip(frame[3], base_frame[3]))
    words = -(-bits // 64)
    work = steps * (prod(s + steps * b + 1 for s, b in spans) * words + 128)
    if steps * (words + 128) > WALK_BUDGET:  # a slot a step, at the least
        _check_work(work)
    walk = _PackedWalk(cur, base, lat, frame, base_frame, bits, weight, steps,
                       steps if keep is None else keep, factors)
    if work > WALK_BUDGET:
        _check_work(walk.work())
    return walk


def _passes(f):
    """Passes over the box of a step by f: a shift-and-add per term and one
    more per residue over 1 (its multiply), or SHIFT_ADD_TERMS for the one
    product by f packed beyond that many terms."""
    if len(f) > SHIFT_ADD_TERMS:
        return SHIFT_ADD_TERMS
    return len(f) + sum(c > 1 for c in f._coeffs.values())


def _factored(base, weight):
    """Whether a walk over Z^d steps by the factors base was written as
    (`polyparse`) rather than by base: when their residue weights multiply
    to its `weight` -- base being x**e times their product mod m and every
    residue >= 0, their residues then multiply over Z to base's, so box,
    slots and period stay -- in fewer passes."""
    factors = base._cache.get("factors")
    return (factors is not None
            and prod(sum(f._coeffs.values()) for f in factors) == weight
            and sum(map(_passes, factors)) < _passes(base))


class _DictWalk:
    """The same walk through `LaurentPoly.__mul__`, one product per step.

    After step `keep` no power is kept, and before each later step the
    running power is cut to the exponents a later constant term can read:
    with `left` steps to come, CT(cur * base**j), j <= left, reads cur only
    where each coordinate e_j lies in [min(0, -left*max_j), max(0, -left*min_j)],
    min_j and max_j bounding base's support -- the box of the hull of the
    origin and -left.(base support) that `_PackedWalk._fit` cuts by.  The
    running power's box is followed step by step, so a coordinate is filtered
    only once that box leaves the cut.
    """

    def __init__(self, cur, base, steps, keep):
        self.cur, self.base, self.left, self.keep = cur, base, steps, keep
        self.spans = [(min(c), max(c)) for c in zip(*base._coeffs)]
        self.box = [[min(c), max(c)] for c in zip(*cur._coeffs)] if self.spans else []

    def step(self):
        if self.keep > 0:
            self.keep -= 1
        elif self.box:
            self._cut()
        self.left -= 1
        self.cur = self.cur * self.base
        for b, (lo, hi) in zip(self.box, self.spans):
            b[0] += lo
            b[1] += hi

    def _cut(self):
        coeffs, left = self.cur._coeffs, self.left
        for j, (b, (lo, hi)) in enumerate(zip(self.box, self.spans)):
            low, high = min(0, -left * hi), max(0, -left * lo)
            if b[0] < low or b[1] > high:
                b[0], b[1] = max(b[0], low), min(b[1], high)
                coeffs = {e: c for e, c in coeffs.items() if low <= e[j] <= high}
        if coeffs is not self.cur._coeffs:
            self.cur = self.cur._make(coeffs)
            if not coeffs:  # no later constant term reads the running power
                self.box = []

    def constant_term(self):
        return self.cur.constant_term()

    def poly(self):
        return self.cur


def _walk(cur, base, steps, keep=None):
    """The walk from cur by `steps` multiplications by base, packed when the
    kernel applies, keeping no power after step `keep` (default: steps), so
    cut from there to the exponents a later constant term reads; refused
    (`_check_work`) before it allocates."""
    keep = steps if keep is None else keep
    walk = _packed_walk(cur, base, steps, keep)
    if walk is None:
        _check_work(_dict_walk_work(cur, base, steps, keep))
    return walk or _DictWalk(cur, base, steps, keep)


WORK_CHUNKS = 1024  # at most this many terms in a dict walk's estimate


def _dict_walk_work(cur, base, steps, keep):
    """Slot-words of a dict walk: step t pays len(base) term pairs per slot
    of its product's box, times DICT_PAIR plus the 64-bit words of
    sum|cur| * sum|base|**t, plus its fixed cost.  After step `keep` that box
    is the running power's, cut as `_DictWalk` cuts it, plus base's.  An
    empty factor pays only the fixed cost.  The steps are summed in
    WORK_CHUNKS runs, each priced at the widest box of its steps and the
    words of its last, until the sum is over WALK_BUDGET."""
    if not cur or not base:
        return steps * 128
    bounds = [(min(c), max(c), min(b), max(b))
              for c, b in zip(zip(*cur._coeffs), zip(*base._coeffs))]
    chunk, work, t = -(-steps // WORK_CHUNKS), 0, 0
    while t < steps and work <= WALK_BUDGET:
        last, box = min(t + chunk, steps), 1
        for clo, chi, blo, bhi in bounds:  # the running power's range in the run
            lo, hi = clo + min(t * blo, (last - 1) * blo), chi + max(t * bhi, (last - 1) * bhi)
            if t >= keep:  # the cut only narrows as the steps to come fall
                lo, hi = max(lo, min(0, (t - steps) * bhi)), min(hi, max(0, (t - steps) * blo))
            box *= hi - lo + 1 + bhi - blo if hi >= lo else 0
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
    the walk of a fresh `PowerCache` that keeps no power, so it is cut from
    its first step to the exponents a later constant term reads, exact
    walks (`_DictWalk`) as packed ones.
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
    sum_e A(e) * B(-e) against the largest factor: on their slots mod m when
    both were born from them (`_packed_dot`), else iterating the shorter
    coefficient map.  This avoids materializing the full product when only
    its constant term is wanted; a vanishing partial product returns 0 at
    once.
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
    if not acc:
        return 0
    if "len" in acc._cache and "len" in big._cache:
        return _packed_dot(acc, big)
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
    its support, and the sum of its residues; cached with f (a value born
    from slots is born with it)."""
    if "box" not in f._cache:
        columns = list(zip(*f._coeffs))
        lo = [min(c) for c in columns]
        f._cache["box"] = lo, [max(c) - l + 1 for c, l in zip(columns, lo)], sum(
            f._coeffs.values())
    return f._cache["box"]


def _slot_data(f, bits):
    """f's residues in slots of `bits` bits over its box, row-major, as
    bytes; cached with f per width: packed from the coefficient map, or
    re-laid from the slots f was born from (`_rewidth`)."""
    data = f._cache
    if bits not in data:
        if "bits" in data:
            data[bits] = _rewidth(data[data["bits"]], data["bits"], bits)
            return data[bits]
        lo, widths, _ = _box(f)
        strides = _strides(widths)
        index = [sum(map(mul, map(sub, e, lo), strides)) for e in f._coeffs]
        data[bits] = _data(f._coeffs.values(), bits, index, prod(widths))
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


def _restride(data, widths, new, size, lo=None, keep=None):
    """Slots of `size` bytes over the box `widths`, laid out in the box
    `new`: in each coordinate the `keep` slots (default: all) from `lo`
    (default: 0) on move to slot 0 on.  One slice per row, the rows joined
    by the zeros between them; data itself when only the first coordinate
    differs."""
    if lo is None and widths[1:] == new[1:] or lo == [0] * len(widths) and keep == widths:
        return data
    lo, keep, view, last = lo or [0] * len(widths), keep or widths, memoryview(data), len(new) - 1
    src = [prod(widths[i + 1:]) * size for i in range(last + 1)]
    dst = [prod(new[i + 1:]) * size for i in range(last + 1)]
    row = keep[-1] * size

    def block(at, i):  # the kept slots of coordinates i on, from byte `at`
        starts = range(at, at + keep[i] * src[i], src[i])
        if i == last - 1:
            rows = [view[a:a + row] for a in starts]
        else:
            rows = [block(a, i + 1) for a in starts]
        return bytes(dst[i] - len(rows[0])).join(rows)

    at = sum(map(mul, lo, src))
    return block(at, 0) if last else view[at:at + row]


# Box slots per term over which a value born from slots is decoded at birth,
# and over which a factor's coefficient map sends its product to the dict
# multiply: its box then costs more to carry than its terms (SIMPLEX3's
# powers fill 1/48 of their Z^3 boxes; Apery's ghost terms at p = 3 fill 1/76
# to all).
SPARSE = 32
# Box slots of a packed product that cost about as much as one term pair of
# its dict route: a product of two or more factors with more box slots per
# term pair takes the dict multiply, U_p counting only its pairs on pZ^d.
# Measured on Cartier products: U_p of the Apery products at p = 2, 3, 5 ran
# fastest packed from 32 to 128, those of x1+x2+x3+1/(x1*x2*x3) at p = 5,
# whose powers fill 2 % of their boxes, from 1 to 128.
PAIR_SLOTS = 64


def _kronecker(factors, wide):
    """The product of the nonzero factors mod m as one Kronecker product
    over their box `wide`, the sum of theirs, the heaviest first, in slots
    that hold m-1 times the weight of any other, reduced before a factor
    could overflow them: (x, bits, top), top bounding x's slots.  Priced
    like a walk's step, its box in those slots, before it allocates."""
    m = factors[0].modulus
    boxes, factors = zip(*sorted(((_box(f), f) for f in factors), key=lambda bf: -bf[0][2]))
    bits = _slot((m - 1) * max([box[2] for box in boxes[1:]], default=1))
    _check_work(prod(wide) * -(-bits // 64) + 128, "product")
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
    return x, bits, top


def cartier_of_product(factors, p):
    """U_p of the product of the factors: its terms with every exponent in
    pZ^d, each exponent divided by p.  This is the Cartier operator of Dwork
    theory, and CT(A(x) * B(x**p)) == CT(U_p(A) * B).  U_1 is the product
    itself, and `LaurentPoly.__mul__` forms a product as that.

    One rule picks the route.  A zero factor gives 0 at once.  Exact
    coefficients take the dict multiply (`_cartier_dict`), as does a factor
    holding a coefficient map with over SPARSE box slots per term, and a
    product of two or more factors with over PAIR_SLOTS box slots per term
    pair on pZ^d.  Anything else is one Kronecker product in Z^d
    (`_kronecker`), read from the factors' slots (`_slot_data`: a value born
    from slots gives its own), whose result is born from its slots on pZ^d,
    one array slice per kept row, or from all of them at p = 1."""
    ring, d, m = factors[0], factors[0].arity, factors[0].modulus
    for f in factors[1:]:
        ring._same_ring(f)
    factors = sorted(factors, key=len)
    if not factors[0]:
        return ring._make({})
    if m is None:
        return _cartier_dict(factors, p)
    boxes = [_box(f) for f in factors]
    lo = [sum(c) for c in zip(*(box[0] for box in boxes))]
    wide = [sum(c) - len(factors) + 1 for c in zip(*(box[1] for box in boxes))]
    n = prod(wide)
    # a value born from slots is never that sparse for its box (`_born`)
    if any(len(f) * SPARSE < prod(box[1]) for f, box in zip(factors, boxes)) or (
            len(factors) > 1 and prod(map(len, factors)) * PAIR_SLOTS < n * p**d):
        return _cartier_dict(factors, p)
    x, bits, top = _kronecker(factors, wide)
    if p > 1:  # the slots on pZ^d, one array slice per kept row
        slots, first, strides = _slots(x, bits, n), [-l % p for l in lo], _strides(wide)
        kept = slots[:0]
        for u in product(*(range(f, w, p) for f, w in zip(first[:-1], wide[:-1]))):
            at = sum(map(mul, u, strides)) + first[-1]
            kept += slots[at:at - first[-1] + wide[-1]:p]
        lo = [(l + f) // p for l, f in zip(lo, first)]
        wide = [len(range(f, w, p)) for f, w in zip(first, wide)]
        x, n = int.from_bytes(_data(kept, bits), _ORDER), len(kept)
    if top >= m:  # reduce the kept slots only
        x = _reducer(m, bits, n)(x)
    return _born(ring, lo, wide, bits, x.to_bytes(n * bits // 8, _ORDER))


def _cartier_dict(factors, p):
    """`cartier_of_product` by the dict multiply, the factors sorted by
    length: at p = 1 their product, else the product of all but the longest
    and then only its pairs with the longest that land on pZ^d, found by the
    longest's terms' classes mod p."""
    *rest, longest = factors
    acc = rest.pop(0) if rest else LaurentPoly.one(longest.arity, p=longest.p, K=longest.K)
    for f in rest:
        if not acc:
            break
        acc = acc._mul_dict(f)
    if p == 1:
        return acc._mul_dict(longest)
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
    cache fills in a single sweep.  A walk is cut after its last save, exact
    (`_DictWalk`) or packed, to the exponents a later constant term reads, so
    every power it saves is whole.
    Mod p**K every saved power, and the base once `power(1)` hands it out,
    is born from slots (`_born`); a walk over Z^d starts from their slots.
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
        if n == 1:  # the base, born from slots like the powers a walk saves
            self._saved[1] = _as_born(self._saved[1])
        return self._saved[n]

    def constant_terms(self, N: int) -> list:
        """Constant terms of powers 0..N (iterated multiplication)."""
        if N >= len(self._cts):
            self._sweep(len(self._cts) - 1, N)
        return self._cts[: N + 1]

    def _sweep(self, top, n, keep=()):
        """Walk from the largest saved power at or below `top` up to n,
        recording constant terms and saving the marked powers and `keep`;
        the walk is told the step after which none is left to save."""
        start = max(k for k in self._saved if k <= top)
        keep = {k for k in chain(self._marks, keep)
                if start < k <= n and k not in self._saved}
        last = max(keep, default=start)
        walk = _walk(self._saved[start], self.base, n - start, last - start)
        for i in range(start + 1, n + 1):
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
        return self._termwise(add, other)

    def __sub__(self, other):
        return self._termwise(sub, other)

    def _termwise(self, op, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._same_ring(other)  # the constructor reduces mod p**K
        return TruncSeries(self.p, self.K, self.N, map(op, self.coeffs, other.coeffs))

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
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

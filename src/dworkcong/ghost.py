"""Ghost terms, indecomposable tuples and the two constructions of c_n.

For a fixed prime p, the ghost term of a Laurent polynomial F is

    R_s(F) = F(x)**(p**s) - F(x**p)**(p**(s-1))   for s >= 1,   R_0(F) = F,

and R_s(F) == 0 mod p**s.  Writing n in base p with digits n_0..n_{k-1}
(k = ell(n), with ell(0) = 1), the power Lam**n splits into products

    R[n, m] = prod_i R_{m_i}(Lam**n_i)(x**(p**(i - m_i)))

over tuples m with 0 <= m_i <= i.  Summing R[n, m] over the tuples that do
not split into a concatenation of two valid tuples gives the polynomial
I_n with I_n == 0 mod p**(ell(n)-1); its constant term is c_n.

`c_direct` never forms R[n, m].  The Cartier operator U_p keeps the terms
of A with every exponent in pZ^d and divides their exponents by p, and

    CT(A(x) * B(x**p)) = CT(U_p(A)(x) * B(x))

(Dwork theory; Beukers and Vlasenko, "Dwork crystals I").  Group the
factors of R[n, m] by their level j = i - m_i, G_j being the product of the
unshifted R_{m_i}(Lam**n_i) at level j, so R[n, m] = prod_j G_j(x**(p**j)).
Then CT(R[n, m]) is a fold: the state S_0 = U_p(G_0), S_j = U_p(S_{j-1} G_j)
for each level below the top J, and one constant term CT(S_{J-1} G_J) at
the top; a level without factors still applies U_p.  Each U_p shrinks the
state by about p in every coordinate.  A state depends only on the factors
at or below its level, so a calculator memoizes it on its level and those
(level, m_i, n_i): tuples and n that agree up to a level share its state.

The fold runs on scaled values, each at the precision it can still reach.
Every coefficient of R_s(F) is divisible by p**s, so G_s = R_s / p**s is an
integer polynomial, and a product of factors whose s sum to v is p**v times
the product of their G's.  U_p is Z-linear, so it commutes with that p**v:
the state of factors whose s sum to v is p**v times the fold of their G's,
and the top of tuple m adds p**|m| * CT(...) to c_n.  So mod p**K the fold
needs each G_s only mod p**(K - s) (each residue of R_s mod p**K divided
by p**s, exactly), each state only mod p**(K - v), and each top constant
term only mod p**(K - |m|); the tuples the fold reads have |m| < K, since
R[n, m] == 0 mod p**|m| (the weight filter of `_indecomposable`).  A
state's operands are reduced to p**(K - v) before their product: fewer
digits mean narrower slots, and the Kronecker products are most of the
fold's time.  A top constant term, one dot product or a short one-shot
product, reads its operands as held, mod p**K.  An exact calculator folds
the same G's, exactly.

Mod p**K the fold runs on values born from slots (`laurent._born`): the
powers Lam**(a*p**s) its walk keeps, the ghost terms formed from them by
`substitute_power` and `-`, their scaled forms (`_rescaled`: one division
and one reduction of the packed integer), the states `cartier_of_product`
returns and the one-shot products of `constant_term_of_product` hold their
Z^d box and slot bytes, and each product, difference and top constant term
reads those slots.  No coefficient map is decoded unless a caller reads
one -- `terms`, `coefficient` of more than one slot, `==`, printing, the
per-tuple oracle `tuple_product` -- or a value is too sparse for its box
(`laurent.SPARSE`; the Z^3 powers of x1+x2+x3+1/(x1*x2*x3) fill about 1/48
of theirs), which is decoded when it is formed and rescaled on its map.
Exact coefficients stay on the dict route.

The same c_n can be recovered without any polynomial arithmetic from the
block-partition identity

    b_n = sum over digit partitions n = n1 * n2 * ... * nr of c_{n1}...c_{nr}

where '*' concatenates base-p digit strings.  One sum, over the partitions
of two or more blocks, serves both directions: `reconstruct_b` adds it to
c_n, and `c_from_b_sequence` subtracts it from b_n in order of n, every such
block being below n.  `c_from_b` is purely an oracle: production values come
from `c_direct`, and agreement of the two routes is the flagship
consistency check.

Conventions: c_0 = 1 (from I_0 = 1); a zero digit always forms its own
length-1 block, the only reading compatible with ell(0) = 1.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .laurent import (_ORDER, WALK_BUDGET, LaurentPoly, PowerCache, _born,
                      _check_work, _reducer, _rewidth, _slot, _spans,
                      cartier_of_product, constant_term_of_product)
from .padic import PadicInt, _context_modulus


def length_p(n: int, p: int) -> int:
    """Number of base-p digits of n, with length_p(0) = 1."""
    return len(digits_p(n, p))


def digits_p(n: int, p: int) -> tuple:
    """Base-p digits of n, least significant first; (0,) for n = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return (0,)
    out = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return tuple(out)


def concat_p(blocks, p: int) -> int:
    """Integer whose base-p digit string is the concatenation of the blocks'."""
    n = 0
    shift = 0
    for block in blocks:
        n += block * p**shift
        shift += length_p(block, p)
    return n


def digit_partitions(n: int, p: int):
    """All splittings of n's base-p digit string into valid blocks.

    A block is valid when its most significant digit is nonzero, unless it
    has length 1 (so a zero digit is a block on its own).  Each partition is
    returned as the tuple of block values, least significant block first;
    the final block automatically carries n's leading digit.
    """
    if n < 1:
        raise ValueError("digit partitions are defined for n >= 1")
    return list(_partitions(n, p))


@lru_cache(maxsize=1024)
def _partitions(n, p):
    """`digit_partitions` as a tuple, the single block (n,) first; cached per
    (n, p), as `c_from_b_sequence` and `reconstruct_b` each read every n."""
    ds = digits_p(n, p)
    L = len(ds)
    out = []
    for mask in range(1 << (L - 1)):
        cuts = [0] + [i for i in range(1, L) if mask >> (i - 1) & 1] + [L]
        blocks = []
        ok = True
        for a, b in zip(cuts, cuts[1:]):
            if b - a > 1 and ds[b - 1] == 0:
                ok = False
                break
            blocks.append(sum(ds[a + j] * p**j for j in range(b - a)))
        if ok:
            out.append(tuple(blocks))
    return tuple(out)


# -- tuple combinatorics ----------------------------------------------------


def is_valid_tuple(m) -> bool:
    """Membership of m in S_k: 0 <= m_i <= i for every position i."""
    return all(isinstance(v, int) and 0 <= v <= i for i, v in enumerate(m))


def enumerate_tuples(k: int, below=None):
    """All of S_k (there are k! of them), or those of weight |m| < below, in
    lexicographic order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = [()]
    for i in range(k):
        out = [m + (v,) for m in out for v in range(i + 1)
               if below is None or sum(m) + v < below]
    return out


def is_indecomposable(m) -> bool:
    """Whether m in S_k admits no splitting into two valid tuples.

    Decided by the criterion: for every cut position i in 1..k-1 there is
    some j >= i with m_j > j - i (the tail re-indexed from 0 would need
    m_j <= j - i throughout to be a valid tuple on its own).
    """
    if not is_valid_tuple(m):
        raise ValueError(f"{m} is not a valid tuple (needs 0 <= m_i <= i)")
    k = len(m)
    return all(any(m[j] > j - i for j in range(i, k)) for i in range(1, k))


def enumerate_indecomposable(k: int):
    return [m for m in enumerate_tuples(k) if is_indecomposable(m)]


# -- ghost calculator ---------------------------------------------------------

# Walk slot-words per slot-word of a fold product: the scaled fold took 6 to
# 66 ns per slot-word of `_check_fold_work`'s estimate (check lemma at
# p = 2, 3, 5, n up to 728, on a 2-core x86-64 host; 66 at p = 5 to 624), a
# walk step 20 to 24.
FOLD_COST = 3


class GhostCalculator:
    """Ghost-term machinery for one polynomial in one coefficient ring.

    All powers of the base polynomial are computed in a single ascending
    sweep that stashes only the checkpoints a*p**s actually used by ghost
    terms (and records every constant term along the way, so b-sequences are
    a byproduct).  Ghost terms R_s(Lam**digit), their x -> x**(p**j) shifts
    (for the per-tuple products) and the fold's states are memoized: digits
    repeat heavily across different n.  Mod p**K they are values born from
    slots, whose coefficient maps are decoded only when read (module
    docstring).
    """

    def __init__(self, lam: LaurentPoly, p=None, K=None):
        if lam.p is not None:
            if p is not None and p != lam.p:
                raise ValueError(f"polynomial is over p={lam.p}, requested p={p}")
            p = lam.p
        elif p is None:
            raise ValueError("exact-ring polynomial needs an explicit prime p")
        if K is not None:
            lam = lam.reduce_mod(p, K)
        _context_modulus(p, 1)
        self.lam = lam
        self.p = p
        self.K = lam.K  # None in exact mode
        self._powers = PowerCache(lam)
        self._level = 0
        self._ghost = {}
        self._scaled = {}  # (digit, s, top) -> R_s(Lam**digit) / p**s (`_scaled_ghost`)
        self._rings = {}  # precision -> the zero of its ring, which values rescale to
        self._held = self._ring(0)  # the ring of the top constant terms
        self._shifted = {}
        self._tuples = {}  # length k -> the indecomposable tuples of S_k
        self._states = {}  # (level, factors at or below it) -> folded state

    def _mark_level(self, level: int):
        """Mark the powers Lam**(a * p**s), digit a, s < level, as worth keeping.

        Marking costs nothing; the powers are materialized on demand, and a
        constant-term pass fills every marked index it walks through.
        """
        if level <= self._level:
            return
        p = self.p
        self._powers.mark(a * p**s for a in range(1, p) for s in range(level))
        self._level = level

    def power(self, n: int) -> LaurentPoly:
        return self._powers.power(n)

    def constant_terms(self, N: int) -> list:
        """b_0..b_N for the base polynomial, sharing the calculator's cache."""
        self._mark_level(length_p(N, self.p))
        return self._powers.constant_terms(N)

    def ghost_term(self, s: int, a: int = 1) -> LaurentPoly:
        """R_s(Lam**a).  Needs K >= s in modular mode (else R_s vanishes)."""
        if s < 0:
            raise ValueError("s must be non-negative")
        if self.K is not None and self.K < s:
            raise ValueError(
                f"precision K={self.K} < s={s}: R_s would be indistinguishable from 0"
            )
        key = (a, s)
        got = self._ghost.get(key)
        if got is None:
            self._mark_level(s + 1)
            if s == 0:
                got = self.power(a)
            else:
                p = self.p
                got = self.power(a * p**s) - self.power(
                    a * p ** (s - 1)
                ).substitute_power(p)
            self._ghost[key] = got
        return got

    def _shifted_ghost(self, a: int, s: int, j: int) -> LaurentPoly:
        key = (a, s, j)
        got = self._shifted.get(key)
        if got is None:
            got = self.ghost_term(s, a).substitute_power(self.p**j)
            self._shifted[key] = got
        return got

    def decomposition_residual(self, s: int) -> LaurentPoly:
        """Lam**(p**s) minus the telescoping sum of shifted ghost terms.

        Identically zero; exposed so the identity can be checked as data.
        """
        p = self.p
        self._mark_level(s + 1)
        total = LaurentPoly.zero(self.lam.arity, p=self.lam.p, K=self.lam.K)
        for i in range(s + 1):
            total = total + self._shifted_ghost(1, i, s - i)
        return self.power(p**s) - total

    def _factors(self, n: int, m) -> list:
        ds = digits_p(n, self.p)
        k = len(ds)
        if len(m) != k:
            raise ValueError(f"tuple length {len(m)} != number of digits {k} of {n}")
        if not is_valid_tuple(m):
            raise ValueError(f"{m} is not a valid tuple")
        return [self._shifted_ghost(ds[i], m[i], i - m[i]) for i in range(k)]

    def tuple_product(self, n: int, m) -> LaurentPoly:
        """The product R[n, m] of shifted ghost terms, as a full polynomial."""
        factors = self._factors(n, m)
        out = factors[0]
        for f in factors[1:]:
            out = out * f
        return out

    def tuple_product_constant_term(self, n: int, m) -> int:
        return constant_term_of_product(self._factors(n, m))

    def _indecomposable(self, n: int) -> list:
        """The indecomposable tuples for n's digit count, enumerated once.
        In modular mode only those of weight |m| < K: R_s(F) == 0 mod p**s,
        so a heavier product R[n, m] vanishes mod p**K."""
        k = length_p(n, self.p)
        if k not in self._tuples:
            self._tuples[k] = [m for m in enumerate_tuples(k, self.K) if is_indecomposable(m)]
        return self._tuples[k]

    def _check_fold_work(self, n_max: int) -> int:
        """Refuse c_n for every n <= n_max, mod p**K, when the fold's
        estimated slot-words are over laurent's WALK_BUDGET, before any ghost
        work; else return the estimate.  For the n of k digits, each tuple
        c_direct reads is priced at digits p - 1: every level product is its
        box, the state's plus its factors', in words of its scaled slot
        width, that of (p**(K - v) - 1)**2 times its slots, v the sum of s
        over the factors at or below its level.  A product below the top is
        counted once per set of operands (the states are memoized: at most
        p**f of them for f factors at or below its level, and at most one
        per n); the top, once per n.  The sum stops once over the budget."""
        if self.K is None:
            raise ValueError("the ghost layer is priced mod p**K only")
        p, K = self.p, self.K
        spans, work, k = _spans(self.lam), 0, 1
        while work <= WALK_BUDGET and p ** (k - 1) <= n_max:
            count = min(p**k - 1, n_max) - (p ** (k - 1) if k > 1 else 0) + 1
            for t in self._indecomposable(p ** (k - 1)):
                levels = [i - s for i, s in enumerate(t)]
                state, seen, v, top = [0] * len(spans), 0, 0, max(levels)
                for j in range(top + 1):
                    box = list(state)
                    for level, s in zip(levels, t):
                        if level == j:
                            box = [b + (p - 1) * p**s * x for b, x in zip(box, spans)]
                            seen, v = seen + 1, v + s
                    slots = prod(b + 1 for b in box)
                    times = count if j == top else min(count, p**seen)
                    words = -(-_slot((p ** (K - v) - 1) ** 2 * slots) // 64)
                    work += FOLD_COST * times * slots * words
                    state = [b // p for b in box]
            k += 1
        _check_work(work, "ghost layer")
        return work

    def indecomposable_sum(self, n: int) -> LaurentPoly:
        """I_n: the sum of R[n, m] over indecomposable m; I_0 = 1."""
        if n < 0:
            raise ValueError("n must be non-negative")
        total = LaurentPoly.zero(self.lam.arity, p=self.lam.p, K=self.lam.K)
        for m in self._indecomposable(n):
            total = total + self.tuple_product(n, m)
        return total

    def c_direct(self, n: int) -> int:
        """Constant term of I_n, without materializing any tuple product:
        each tuple of `indecomposable_sum` is folded level by level on the
        scaled ghost terms (module docstring).  Factor i of R[n, m] sits at
        level i - m_i; a zero digit gives R_0(Lam**0) = 1, which drops out,
        or R_s(Lam**0) = 0, s >= 1, which drops the tuple."""
        if n < 0:
            raise ValueError("n must be non-negative")
        ds = digits_p(n, self.p)
        total = 0
        for m in self._indecomposable(n):
            factors = tuple(sorted((i - s, s, a) for i, (s, a) in enumerate(zip(m, ds))
                                   if a or s))  # (level, s, digit)
            if not factors:  # n = 0: I_0 = 1
                total += 1
            elif all(a for _, _, a in factors):
                top = self._operands(factors[-1][0], factors, True)
                total += self.p ** sum(m) * constant_term_of_product(top)
        if self.K is not None:
            total %= self.lam.modulus
        return total

    def _ring(self, v):
        """The zero of the ring a value of valuation v is held in: Z/p**(K - v),
        or Z for an exact calculator."""
        K = None if self.K is None else self.K - v
        if K not in self._rings:
            self._rings[K] = LaurentPoly.zero(self.lam.arity, p=self.lam.p, K=K)
        return self._rings[K]

    def _scaled_ghost(self, s: int, a: int, top=False) -> LaurentPoly:
        """R_s(Lam**a) / p**s, mod p**(K - s) for a modular calculator; for a
        top constant term, the same residues held mod p**K."""
        key = (a, s, top)
        got = self._scaled.get(key)
        if got is None:
            if top:
                got = _rescaled(self._scaled_ghost(s, a), self._held)
            else:
                got = _rescaled(self.ghost_term(s, a), self._ring(s), self.p**s)
            self._scaled[key] = got
        return got

    def _operands(self, level, factors, top=False):
        """The scaled ghost terms of the (level, s, digit) factors at `level`,
        and the scaled state of those below it, if any, reduced mod
        p**(K - v), v the sum of s over the factors: the precision of their
        product.  For a top constant term, whose cost the modulus hardly
        moves, each as held, mod p**K."""
        below = tuple(f for f in factors if f[0] < level)
        out = [self._scaled_ghost(s, a, top) for j, s, a in factors if j == level]
        if top:
            return out + [_rescaled(self._state(level - 1, below), self._held)] if below else out
        if below:
            out.append(self._state(level - 1, below))
        ring = self._ring(sum(s for _, s, _ in factors))
        return [_rescaled(f, ring) for f in out]

    def _state(self, level, factors) -> LaurentPoly:
        """U_p of (the product of the scaled factors at `level` times the
        state below), the factors all at or below `level`, mod p**(K - v),
        v the sum of their s; memoized on both."""
        key = (level, factors)
        got = self._states.get(key)
        if got is None:
            got = cartier_of_product(self._operands(level, factors), self.p)
            self._states[key] = got
        return got


def _rescaled(f, ring, q=1):
    """f / q in `ring`, every coefficient of f divisible by q: mod ring's
    modulus, at most f's over q, or exactly; or, in a wider ring, f's own
    residues, its slots and packings shared.  A value born from slots
    divides its packed integer by q, one division for every slot at once,
    is reduced by `_reducer` unless its weight shows no slot can reach the
    modulus, and is re-laid in the narrower width (`_rewidth`); a
    coefficient map is rescaled in one pass.  Cached with f per ring and q."""
    if q == 1 and f.K == ring.K:
        return f
    key, cache = (ring.K, q), f._cache
    got = cache.get(key)
    if got is None:
        m = ring.modulus
        if q == 1 and ring.K > f.K:  # a wider ring holds the residues as they are
            got = ring._make(None if "len" in cache else f._coeffs, cache)
        elif "len" in cache:
            lo, widths, weight = cache["box"]
            bits = cache["bits"]
            data = cache[bits]
            x, counts = int.from_bytes(data, _ORDER) // q, (len(f), weight // q)
            if counts[1] >= m:
                x, counts = _reducer(m, bits, len(data) * 8 // bits)(x), None
            new = _slot(m - 1)
            data = _rewidth(x.to_bytes(len(data), _ORDER), bits, new)
            got = _born(ring, lo, widths, new, data, counts)
        else:
            got = ring._make({e: r for e, c in f._coeffs.items() if (r := c // q % m)}
                             if m else {e: c // q for e, c in f._coeffs.items()})
        cache[key] = got
    return got


# -- spec-level convenience wrappers ------------------------------------------


def ghost_term(lam: LaurentPoly, s: int, p=None) -> LaurentPoly:
    """R_s(lam); R_0(lam) = lam.  One-shot wrapper around GhostCalculator."""
    return GhostCalculator(lam, p=p).ghost_term(s)


def ghost_decomposition_residual(lam: LaurentPoly, s: int, p=None) -> LaurentPoly:
    return GhostCalculator(lam, p=p).decomposition_residual(s)


def tuple_ghost_product(lam: LaurentPoly, n: int, m, p=None) -> LaurentPoly:
    """R[n, m] for m in S_{ell(n)}.

    In modular mode requires K >= |m| so the product's divisibility by
    p**|m| stays observable.
    """
    calc = GhostCalculator(lam, p=p)
    if calc.K is not None and calc.K < sum(m):
        raise ValueError(
            f"precision K={calc.K} < |m|={sum(m)}: product would be "
            "indistinguishable from 0"
        )
    return calc.tuple_product(n, m)


def indecomposable_sum(lam: LaurentPoly, n: int, p=None) -> LaurentPoly:
    return GhostCalculator(lam, p=p).indecomposable_sum(n)


def c_direct(lam: LaurentPoly, n: int, p: int, K: int) -> PadicInt:
    """c_n as the constant term of I_n, mod p**K."""
    calc = GhostCalculator(lam, p=p, K=K)
    return PadicInt(p, K, calc.c_direct(n))


def _split_sum(c, n: int, p: int) -> int:
    """b_n - c_n by the block-partition identity: the sum over the digit
    partitions of n >= 1 into two or more blocks of prod c[block].  Every
    such block is below n."""
    return sum(prod(c[blk] for blk in blocks) for blocks in _partitions(n, p)[1:])


def c_from_b_sequence(b, n_max: int, p: int, K: int) -> list:
    """Solve the block-partition identity for c_0..c_{n_max} given b.

    c_0 = 1 by convention; for n >= 1, in order of n,

        c_n = b_n - sum over partitions with r >= 2 blocks of prod c_block.

    Returned as plain residues mod p**K.
    """
    modulus = _context_modulus(p, K)
    if len(b) <= n_max:
        raise ValueError(f"need b through index {n_max}, got {len(b)} values")
    c = [1]
    for n in range(1, n_max + 1):
        c.append((b[n] - _split_sum(c, n, p)) % modulus)
    return c


def c_from_b(b, n: int, p: int, K: int) -> PadicInt:
    """Single value of the inversion oracle; see c_from_b_sequence."""
    return PadicInt(p, K, c_from_b_sequence(b, n, p, K)[n])


def reconstruct_b(c, n: int, p: int, modulus=None) -> int:
    """Evaluate b_n = sum over partitions of prod c_block from given c values.

    `c` is indexed by block value; must cover every block of n.  Exact if
    modulus is None, else reduced mod modulus.
    """
    total = c[n] + (_split_sum(c, n, p) if n else 0)
    return total % modulus if modulus else total

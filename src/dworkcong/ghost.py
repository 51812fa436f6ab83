"""Ghost terms, indecomposable tuples and the two constructions of c_n.

For a fixed prime p, the ghost term of a Laurent polynomial F is

    R_s(F) = F(x)**(p**s) - F(x**p)**(p**(s-1))   for s >= 1,   R_0(F) = F,

and R_s(F) == 0 mod p**s.  Writing n in base p with digits n_0..n_{k-1}
(k = ell(n), with ell(0) = 1), the power Lam**n splits into products

    R[n, m] = prod_i R_{m_i}(Lam**n_i)(x**(p**(i - m_i)))

over tuples m with 0 <= m_i <= i.  Summing R[n, m] over the tuples that do
not split into a concatenation of two valid tuples gives the polynomial
I_n with I_n == 0 mod p**(ell(n)-1); its constant term is c_n.

The same c_n can be recovered without any polynomial arithmetic by
inverting the block-partition identity

    b_n = sum over digit partitions n = n1 * n2 * ... * nr of c_{n1}...c_{nr}

where '*' concatenates base-p digit strings.  `c_from_b` implements this
inversion purely as an oracle: production values come from `c_direct`, and
agreement of the two routes is the flagship consistency check.

Conventions: c_0 = 1 (from I_0 = 1); a zero digit always forms its own
length-1 block, the only reading compatible with ell(0) = 1.
"""

from __future__ import annotations

from itertools import product

from .laurent import LaurentPoly, PowerCache, constant_term_of_product
from .padic import PadicInt, _context_modulus


def length_p(n: int, p: int) -> int:
    """Number of base-p digits of n, with length_p(0) = 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1
    k = 0
    while n:
        n //= p
        k += 1
    return k


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
    return out


# -- tuple combinatorics ----------------------------------------------------


def is_valid_tuple(m) -> bool:
    """Membership of m in S_k: 0 <= m_i <= i for every position i."""
    return all(isinstance(v, int) and 0 <= v <= i for i, v in enumerate(m))


def enumerate_tuples(k: int):
    """All of S_k (there are k! of them), in lexicographic order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [m for m in product(*(range(i + 1) for i in range(k)))]


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


class GhostCalculator:
    """Ghost-term machinery for one polynomial in one coefficient ring.

    All powers of the base polynomial are computed in a single ascending
    sweep that stashes only the checkpoints a*p**s actually used by ghost
    terms (and records every constant term along the way, so b-sequences are
    a byproduct).  Ghost factors R_s(Lam**digit) and their x -> x**(p**j)
    shifts are memoized: digits repeat heavily across different n.
    """

    def __init__(self, lam: LaurentPoly, p=None, K=None):
        if lam.p is not None:
            if p is not None and p != lam.p:
                raise ValueError(f"polynomial is over p={lam.p}, requested p={p}")
            p = lam.p
            if K is not None:
                lam = lam.reduce_mod(p, K)
        else:
            if p is None:
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
        self._shifted = {}

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

    def indecomposable_sum(self, n: int) -> LaurentPoly:
        """I_n: the sum of R[n, m] over indecomposable m; I_0 = 1."""
        if n < 0:
            raise ValueError("n must be non-negative")
        total = LaurentPoly.zero(self.lam.arity, p=self.lam.p, K=self.lam.K)
        for m in enumerate_indecomposable(length_p(n, self.p)):
            total = total + self.tuple_product(n, m)
        return total

    def c_direct(self, n: int) -> int:
        """Constant term of I_n, without materializing the full polynomial.

        In modular mode, tuples with |m| >= K are skipped: their products are
        divisible by p**|m|, hence vanish mod p**K.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        total = 0
        for m in enumerate_indecomposable(length_p(n, self.p)):
            if self.K is not None and sum(m) >= self.K:
                continue
            total += self.tuple_product_constant_term(n, m)
        if self.K is not None:
            total %= self.lam.modulus
        return total


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


def c_from_b_sequence(b, n_max: int, p: int, K: int) -> list:
    """Solve the block-partition identity for c_0..c_{n_max} given b.

    c_0 = 1 by convention; for n >= 1,

        c_n = b_n - sum over partitions with r >= 2 blocks of prod c_block.

    Every proper block has strictly fewer digits than n, so the recursion
    bottoms out.  Returned as plain residues mod p**K.
    """
    modulus = _context_modulus(p, K)
    if len(b) <= n_max:
        raise ValueError(f"need b through index {n_max}, got {len(b)} values")
    c = {0: 1}

    def get(n):
        got = c.get(n)
        if got is None:
            acc = b[n] % modulus
            for blocks in digit_partitions(n, p):
                if len(blocks) == 1:
                    continue
                term = 1
                for blk in blocks:
                    term = term * get(blk) % modulus
                acc -= term
            got = c[n] = acc % modulus
        return got

    return [get(n) for n in range(n_max + 1)]


def c_from_b(b, n: int, p: int, K: int) -> PadicInt:
    """Single value of the inversion oracle; see c_from_b_sequence."""
    return PadicInt(p, K, c_from_b_sequence(b, n, p, K)[n])


def reconstruct_b(c, n: int, p: int, modulus=None) -> int:
    """Evaluate b_n = sum over partitions of prod c_block from given c values.

    `c` is indexed by block value; must cover every block of n.  Exact if
    modulus is None, else reduced mod modulus.
    """
    if n == 0:
        return c[0] % modulus if modulus else c[0]
    total = 0
    for blocks in digit_partitions(n, p):
        term = 1
        for blk in blocks:
            term *= c[blk]
            if modulus:
                term %= modulus
        total += term
    return total % modulus if modulus else total

"""Bounded-precision p-adic integer arithmetic.

An element of Z_p is represented to a fixed precision K >= 1 as its residue
modulo p**K.  The pair (p, K) travels with every value; mixing values from
different contexts raises instead of coercing silently, so a congruence
failure can never be masked by an accidental precision drop.

Residues are kept in the canonical range [0, p**K).  Plain Python integers
are used underneath, so p**K may exceed machine word size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (the smallest strong pseudoprime to all of them, psi_13).
# With bases up to 37 only, psi_12 = 318665857834031151167461 passed as prime.
PRIME_TEST_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin test with the first 13 primes as bases.

    Exact for every n < PRIME_TEST_BOUND (about 3.3e24); above it a True
    means only "strong probable prime to those bases".
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _context_modulus(p: int, K: int) -> int:
    """Validate a (p, K) context once and return p**K, priced first as
    laurent prices a power (`_check_power`)."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if p >= PRIME_TEST_BOUND:
        raise ValueError(f"p = {p} is too large: primality is decided exactly "
                         f"only below {PRIME_TEST_BOUND}")
    if not isinstance(K, int) or K < 1:
        raise ValueError(f"precision K = {K} must be an integer >= 1")
    from .laurent import _check_power  # laurent imports this module
    _check_power(p, K, "the modulus p**K")
    return p**K


@dataclass(frozen=True)
class PadicInt:
    """Residue modulo p**K, carrying its context (p, K) explicitly.

    Arithmetic requires both operands to share (p, K); anything else is an
    error.  Values are immutable and safe to share between threads.
    """

    p: int
    K: int
    residue: int

    def __post_init__(self):
        m = _context_modulus(self.p, self.K)
        object.__setattr__(self, "residue", self.residue % m)

    @property
    def modulus(self) -> int:
        return _context_modulus(self.p, self.K)

    def _check_same_context(self, other: "PadicInt"):
        if not isinstance(other, PadicInt):
            raise TypeError(f"expected PadicInt, got {type(other).__name__}")
        if self.p != other.p or self.K != other.K:
            raise ValueError(
                f"mixed p-adic contexts: (p={self.p}, K={self.K}) vs "
                f"(p={other.p}, K={other.K})"
            )

    def __add__(self, other):
        self._check_same_context(other)
        return PadicInt(self.p, self.K, self.residue + other.residue)

    def __sub__(self, other):
        self._check_same_context(other)
        return PadicInt(self.p, self.K, self.residue - other.residue)

    def __mul__(self, other):
        self._check_same_context(other)
        return PadicInt(self.p, self.K, self.residue * other.residue)

    def __neg__(self):
        return PadicInt(self.p, self.K, -self.residue)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        return PadicInt(self.p, self.K, pow(self.residue, n, self.modulus))

    def __int__(self):
        return self.residue

    def valuation(self) -> int:
        """Largest v <= K with p**v dividing the residue.

        The zero residue returns K, meaning "valuation at least K": at this
        precision the norm is only known to be <= p**(-K).  Callers that need
        to distinguish must raise K.
        """
        if self.residue == 0:
            return self.K
        v = 0
        r = self.residue
        while r % self.p == 0:
            r //= self.p
            v += 1
        return v

    def is_unit(self) -> bool:
        return self.residue % self.p != 0

    def inverse(self) -> "PadicInt":
        """Multiplicative inverse; requires valuation 0."""
        if not self.is_unit():
            raise ValueError(
                f"{self.residue} is not a unit mod {self.p}^{self.K} "
                f"(valuation {self.valuation()} > 0)"
            )
        return PadicInt(self.p, self.K, pow(self.residue, -1, self.modulus))

    def reduce_precision(self, K: int) -> "PadicInt":
        """Image under the canonical map Z/p^K' -> Z/p^K for K <= K'."""
        if K > self.K:
            raise ValueError(f"cannot raise precision {self.K} to {K}")
        return PadicInt(self.p, K, self.residue)

    def __repr__(self):
        return f"PadicInt({self.residue} mod {self.p}^{self.K})"


def teichmuller(p: int, t: int, K: int) -> PadicInt:
    """Teichmuller lift of t: the z with z**(p-1) == 1 mod p**K, z == t mod p.

    Computed by iterating z <- z**p, which converges in at most K steps.
    """
    m = _context_modulus(p, K)
    if t % p == 0:
        raise ValueError(f"t = {t} is divisible by p = {p}; no Teichmuller lift")
    z = t % p
    for _ in range(K):
        z = pow(z, p, m)
    if pow(z, p, m) != z:
        raise ArithmeticError("Teichmuller iteration failed to stabilize")
    return PadicInt(p, K, z)


def hensel_quadratic_unit_root(a: PadicInt) -> PadicInt:
    """Unit root of T**2 - a*T + p to precision K, via Newton iteration.

    Starting from u = a mod p, iterate u <- u - (u^2 - a u + p)/(2u - a).
    The derivative 2u - a stays congruent to a mod p, hence is a unit, which
    holds at p = 2 as well.  Requires a to be a unit (the ordinary case).
    """
    p, K = a.p, a.K
    if not a.is_unit():
        raise ValueError(
            f"a = {a.residue} is not a unit mod {p}; quadratic has no unit root"
        )
    m = a.modulus
    ar = a.residue
    u = ar % p
    for _ in range(K.bit_length() + 2):
        fu = (u * u - ar * u + p) % m
        if fu == 0:
            break
        du = (2 * u - ar) % m
        u = (u - fu * pow(du, -1, m)) % m
    if (u * u - ar * u + p) % m != 0:
        raise ArithmeticError("Newton iteration did not converge")
    return PadicInt(p, K, u)

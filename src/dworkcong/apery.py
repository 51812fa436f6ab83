"""The Apery family: its Laurent polynomial and fast b-sequences.

The polynomial (1+x1)(1+x2)(1+x1+x2)/(x1*x2) has the Apery numbers

    b_n = sum_k  C(n,k)**2 * C(n+k,k)

as the constant terms of its powers.  Those numbers satisfy Apery's
three-term recurrence

    (n+1)^2 b_{n+1} = (11n^2 + 11n + 3) b_n + n^2 b_{n-1},

which is what makes b available far beyond the reach of polynomial
powering (the unit-root suites need b through p**4 - 1).  The recurrence
route is cross-checked against both the binomial sum and actual constant
terms in the test suite.
"""

from __future__ import annotations

APERY_POLY_SRC = "(1+x1)*(1+x2)*(1+x1+x2)/(x1*x2)"
APERY_ARITY = 2


def apery_polynomial(p=None, K=None):
    """The 8-term Apery `LaurentPoly` (constant term 3).  The parser is
    imported here, so that importing this module compiles no other."""
    from .polyparse import parse_poly

    return parse_poly(APERY_POLY_SRC, APERY_ARITY, p=p, K=K)


def _apery_iter():
    b_prev, b_cur = 1, 3
    yield b_prev
    yield b_cur
    n = 1
    while True:
        num = (11 * n * n + 11 * n + 3) * b_cur + n * n * b_prev
        den = (n + 1) * (n + 1)
        b_next, rem = divmod(num, den)
        if rem:
            raise ArithmeticError(f"recurrence lost integrality at n={n + 1}")
        yield b_next
        b_prev, b_cur = b_cur, b_next
        n += 1


def apery_numbers(N: int) -> list:
    """b_0..b_N as exact integers (they grow like 11.09**n; keep N moderate)."""
    if N < 0:
        raise ValueError("N must be non-negative")
    it = _apery_iter()
    return [next(it) for _ in range(N + 1)]


def apery_numbers_mod(N: int, modulus: int) -> list:
    """b_0..b_N reduced mod `modulus`, keeping only two exact values live."""
    if N < 0:
        raise ValueError("N must be non-negative")
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    it = _apery_iter()
    return [next(it) % modulus for _ in range(N + 1)]

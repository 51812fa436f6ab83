"""Constant terms of powers of a Laurent polynomial.

The central object: for a Laurent polynomial L in d variables, the sequence
b_n = constant term of L**n.  For the polynomial

    (1+x1)(1+x2)(1+x1+x2) / (x1*x2)

this sequence is the Apery numbers 1, 3, 19, 147, 1251, ...
"""

import math

from dworkcong import (
    apery_numbers,
    apery_polynomial,
    constant_term_sequence,
    parse_poly,
)

lam = apery_polynomial()
print("L =", lam)
print()

# The production route: expand L, L^2, L^3, ... and read off the constant
# coefficient each time.
b = constant_term_sequence(lam, 10)
print("b_0..b_10 from powering:  ", b)

# Independent route: the classical binomial sum.
binom = [
    sum(math.comb(n, k) ** 2 * math.comb(n + k, k) for k in range(n + 1))
    for n in range(11)
]
print("b_0..b_10 from binomials: ", binom)
assert b == binom

# For very large indices the three-term recurrence is the fast route.
big = apery_numbers(500)
print()
print("b_500 has", len(str(big[500])), "decimal digits")
assert big[: len(b)] == b

# Any polynomial in the expression language works, over Z or mod p^K.
cheb = parse_poly("x1 + x1^-1", 1)
print()
print("central binomial pattern:", constant_term_sequence(cheb, 8))
print("same, reduced mod 3^2:   ", constant_term_sequence(cheb.reduce_mod(3, 2), 8))

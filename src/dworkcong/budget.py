"""The price list: the three budgets, the unit costs and the one refusal.

`check` refuses an estimate over its unit's budget -- slot-words of
products and walks, dot products of geometry, point evaluations of unit
roots -- with ValueError, printed to three digits or, from 2**64 on, as a
power of two.  An estimate too large to form is given in log2.
"""

from math import log2

# Slot-words: a step of a packed walk counts the slots of the box it fills
# times ceil(bits/64), one of a dict walk len(base) term pairs per box slot
# times DICT_PAIR plus the 64-bit words of its largest coefficient, and each
# step or product FIXED_COST more (about 3 us).  On a 2-core x86-64 host, for
# fitted boxes: 19 to 25 ns each for a 16-bit Apery walk (about 25 s at the
# bound), 51 to 58 ns for 128-bit slots, 4 to 16 ns for 8-bit sublattice walks.
WALK_BUDGET = 10**9
FIXED_COST = 128
# A dict term pair's fixed cost: its exponent tuple and dict update took 490
# to 680 ns per box pair (exact Apery walks to N = 90 and 150, (1+x1)^3000),
# however few words its coefficients have.  Priced at the boxes of the cut
# walk, exact Apery is refused from --N 237; --N 236 takes 13 to 23 s, as a
# packed walk at the bound is near 24 s.
DICT_PAIR = 20
# Walk slot-words per slot-word of a fold product: the scaled fold took 6 to
# 66 ns per slot-word of `ghost`'s `_check_fold_work` estimate (check lemma at
# p = 2, 3, 5, n up to 728, on a 2-core x86-64 host; 66 at p = 5 to 624), a
# walk step 20 to 24.
FOLD_COST = 3
# A walk's copy of its rows into a new box is priced at RELAYOUT slot-words
# and one per COPY_BYTES bytes of the two boxes (about 12 us and 3 ns a byte).
RELAYOUT = 1024
COPY_BYTES = 8

# Dot products of integer vectors of length <= d; on a 2-core x86-64 host a
# hull build spends about 0.8 us on each and an interior scan 1 to 1.5 us,
# so the bound is reached in 8 to 15 s.  The 84-point support of
# (1+x1+x2+x3)^6/(x1*x2*x3) needs 8.0e6 for its hull (6 s).
GEOMETRY_BUDGET = 10**7

# Point evaluations: a fiber's count evaluates 2p + 1 rows and points, 0.3 to
# 0.4 us each with CPython 3.11 on a 2-vCPU x86 host, and its smoothness rank
# (0.25 to 0.4 ms) is priced at SMOOTH_RANK of them; the Apery terms b_0..b_{N-1}
# are priced at N + N**2 // 2048, which took 2 to 3 us each.  So point counts
# reach the bound in about 4 s (a p = 1993 sweep), the recurrence in 20 to 30 s.
WORK_BUDGET = 10**7
SMOOTH_RANK = 1024

BUDGETS = {"slot-words": WALK_BUDGET, "dot products": GEOMETRY_BUDGET,
           "point evaluations": WORK_BUDGET}


def check(estimate, what, unit="slot-words", log=False):
    """Refuse `what` (ValueError) when `estimate` units, or 2**estimate when
    `log`, are over the unit's budget."""
    budget = BUDGETS[unit]
    if estimate > (log2(budget) if log else budget):
        power = estimate if log else log2(estimate)
        about = f"{2**power:.3g}" if power < 64 else f"2^{power:.0f}"
        raise ValueError(f"{what} needs about {about} {unit}; budget {budget}")


def check_power(c, n, what="power"):
    """Refuse forming c**n, priced as its squarings: words**log2(3)
    slot-words for its 64-bit words (Karatsuba), compared in log2."""
    if abs(c) > 1 and n > 0:
        check(log2(3) * max(0.0, log2(n) + log2(log2(abs(c))) - 6), what, log=True)


def check_series(length, m, products=1):
    """Refuse `products` kernel products of lists of at most `length`
    residues mod m over WALK_BUDGET, compared in log2.  Each is priced like
    a one-shot product of wide slots: words**log2(3) slot-words for the
    64-bit words of a packed factor, slots of (m-1)**2 * length (Karatsuba)."""
    words = -(-length * (2 * m.bit_length() + length.bit_length()) // 64)
    if products * words * words > WALK_BUDGET:  # words**2 bounds words**log2(3)
        check(log2(products) + log2(3) * log2(words), "series work", log=True)

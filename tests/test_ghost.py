import math
import random

import pytest

from dworkcong import ghost
from dworkcong.congruence import GUARD, run_lemma_suite
from dworkcong.ghost import (
    GhostCalculator,
    c_direct,
    c_from_b,
    c_from_b_sequence,
    concat_p,
    digit_partitions,
    digits_p,
    enumerate_indecomposable,
    enumerate_tuples,
    ghost_decomposition_residual,
    ghost_term,
    indecomposable_sum,
    is_indecomposable,
    is_valid_tuple,
    length_p,
    reconstruct_b,
    tuple_ghost_product,
)
from dworkcong.laurent import LaurentPoly, constant_term_sequence
from dworkcong.polyparse import parse_poly

APERY_SRC = "(1+x1)*(1+x2)*(1+x1+x2)/(x1*x2)"


def chebyshevish():
    return parse_poly("x1 + x1^-1", 1)


def apery():
    return parse_poly(APERY_SRC, 2)


# -- base-p digit machinery -----------------------------------------------------


def test_length_examples():
    assert length_p(0, 2) == 1
    assert length_p(5, 2) == 3
    for p in (2, 3, 5):
        for k in range(5):
            assert length_p(p**k, p) == k + 1


def test_digits_and_concat_round_trip():
    rng = random.Random(31)
    for p in (2, 3, 5):
        for _ in range(30):
            n = rng.randrange(0, 10_000)
            ds = digits_p(n, p)
            assert len(ds) == length_p(n, p)
            assert sum(d * p**i for i, d in enumerate(ds)) == n
    assert concat_p([1, 2], 2) == 5  # digits 1 | 0,1
    assert concat_p([1, 0, 1], 2) == 1 + 0 * 2 + 1 * 4


def test_digit_partitions_examples():
    assert set(digit_partitions(5, 2)) == {(5,), (1, 2), (1, 0, 1)}
    assert set(digit_partitions(2, 2)) == {(2,), (0, 1)}
    for p in (3, 5):
        for n in range(1, p):
            assert digit_partitions(n, p) == [(n,)]
    with pytest.raises(ValueError):
        digit_partitions(0, 2)


def test_digit_partitions_reassemble_and_lengths():
    rng = random.Random(313)
    for p in (2, 3):
        for _ in range(20):
            n = rng.randrange(1, 3000)
            parts = digit_partitions(n, p)
            assert (n,) in parts
            for blocks in parts:
                assert concat_p(blocks, p) == n
                assert sum(length_p(b, p) for b in blocks) == length_p(n, p)


# -- tuples -----------------------------------------------------------------------


def brute_indecomposable(m):
    """Split search: decomposable iff both halves are valid tuples."""
    k = len(m)
    for i in range(1, k):
        if is_valid_tuple(m[:i]) and is_valid_tuple(m[i:]):
            return False
    return True


def test_tuple_counts():
    for k in range(1, 8):
        assert len(enumerate_tuples(k)) == math.factorial(k)


def test_s2_and_s3():
    assert enumerate_tuples(2) == [(0, 0), (0, 1)]
    assert enumerate_indecomposable(2) == [(0, 1)]
    assert enumerate_indecomposable(3) == [(0, 0, 2), (0, 1, 1), (0, 1, 2)]


def test_indecomposable_matches_bruteforce():
    for k in range(1, 8):
        for m in enumerate_tuples(k):
            assert is_indecomposable(m) == brute_indecomposable(m), m


def test_indecomposable_weight_bound():
    for k in range(1, 8):
        for m in enumerate_indecomposable(k):
            assert sum(m) >= k - 1


def test_invalid_tuple_rejected():
    with pytest.raises(ValueError):
        is_indecomposable((1, 0))


def test_indecomposable_tuples_enumerated_once_per_length(monkeypatch):
    # c_n for n <= 63 at p = 2, mod 2**7, reads the tuples of S_1..S_6 of
    # weight below 7: each is tested once, by the work estimate and c_direct
    # together, not once for every n with its number of digits
    tested, test = [], ghost.is_indecomposable
    monkeypatch.setattr(ghost, "is_indecomposable",
                        lambda m: tested.append(m) or test(m))
    assert run_lemma_suite(apery(), 2, 63).passed
    assert sorted(tested) == sorted(m for k in range(1, 7) for m in enumerate_tuples(k)
                                    if sum(m) < 7)
    assert enumerate_indecomposable(2) is not enumerate_indecomposable(2)  # fresh lists


def test_tuples_below_a_weight():
    for k in range(1, 7):
        every = enumerate_tuples(k)
        for below in (0, 1, k, k + 1, 100):
            assert enumerate_tuples(k, below) == [m for m in every if sum(m) < below]


# -- ghost terms --------------------------------------------------------------------


def test_ghost_term_examples():
    lam = chebyshevish()
    assert ghost_term(lam, 1, p=2) == LaurentPoly.constant(1, 2)
    assert ghost_term(lam, 1, p=3) == LaurentPoly(1, {(1,): 3, (-1,): 3})
    assert ghost_term(lam, 0, p=2) == lam
    assert ghost_term(LaurentPoly.one(1), 2, p=3) == LaurentPoly.zero(1)


def test_ghost_term_precision_guard():
    lam = chebyshevish().reduce_mod(2, 1)
    with pytest.raises(ValueError):
        ghost_term(lam, 2)


def test_ghost_term_divisibility():
    for src, d in ((APERY_SRC, 2), ("x1+x1^-1", 1)):
        for p in (2, 3):
            calc = GhostCalculator(parse_poly(src, d), p=p, K=5)
            for s in (1, 2, 3):
                R = calc.ghost_term(s)
                assert all(c % p**s == 0 for _, c in R.terms()), (src, p, s)


def test_decomposition_residual_zero():
    lam = chebyshevish()
    assert not ghost_decomposition_residual(lam, 2, p=2)
    assert not ghost_decomposition_residual(apery(), 1, p=2)
    assert not ghost_decomposition_residual(LaurentPoly.one(1), 3, p=2)


# -- tuple products -------------------------------------------------------------------


def test_tuple_ghost_product_examples():
    lam = chebyshevish()
    assert tuple_ghost_product(lam, 2, (0, 1), p=2) == LaurentPoly.constant(1, 2)
    assert tuple_ghost_product(lam, 1, (0,), p=2) == lam
    total = LaurentPoly.zero(1)
    for m in enumerate_tuples(2):
        total = total + tuple_ghost_product(lam, 3, m, p=2)
    assert total == lam**3


def test_tuple_ghost_product_precision_guard():
    lam = chebyshevish().reduce_mod(2, 2)
    # |m| = 3 exceeds K = 2: the product is divisible by p^3, hence invisible
    with pytest.raises(ValueError):
        tuple_ghost_product(lam, 4, (0, 1, 2))
    # K = |m| is allowed
    assert tuple_ghost_product(chebyshevish().reduce_mod(2, 1), 2, (0, 1)) is not None


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("src,d", [(APERY_SRC, 2), ("x1+x1^-1", 1)])
def test_ghost_sum_over_all_tuples_is_power(p, src, d):
    calc = GhostCalculator(parse_poly(src, d), p=p, K=6)
    for n in range(1, 16):
        total = LaurentPoly.zero(d, p=p, K=6)
        for m in enumerate_tuples(length_p(n, p)):
            total = total + calc.tuple_product(n, m)
        assert total == calc.power(n), (p, src, n)


# -- indecomposable sums ---------------------------------------------------------------


def test_indecomposable_sum_examples():
    lam = chebyshevish()
    assert indecomposable_sum(lam, 2, p=2) == LaurentPoly.constant(1, 2)
    assert indecomposable_sum(lam, 0, p=2) == LaurentPoly.one(1)
    for n in range(1, 3):
        assert indecomposable_sum(lam, n, p=3) == lam**n  # single digit


def test_indecomposable_sum_divisibility():
    calc = GhostCalculator(apery(), p=2, K=6)
    for n in range(1, 16):
        I = calc.indecomposable_sum(n)
        pk = 2 ** (length_p(n, 2) - 1)
        assert all(c % pk == 0 for _, c in I.terms()), n


@pytest.mark.parametrize("p", [2, 3])
def test_indecomposable_sum_drops_only_vanishing_tuples(p):
    # mod p**3 the calculator leaves out the tuples of weight >= 3; the sum
    # over every indecomposable tuple, taken exactly, reduces to the same
    K = 3
    exact, calc = GhostCalculator(apery(), p=p), GhostCalculator(apery(), p=p, K=K)
    for n in range(p**3):
        full = LaurentPoly.zero(2)
        for m in enumerate_indecomposable(length_p(n, p)):
            full = full + exact.tuple_product(n, m)
        assert calc.indecomposable_sum(n) == full.reduce_mod(p, K), (p, n)
    assert any(sum(m) >= K for m in enumerate_indecomposable(3))  # one is left out


@pytest.mark.parametrize("p,n_top", [(2, 13), (3, 10)])
def test_splitting_identity(p, n_top):
    """Lam**n equals the sum over digit partitions of shifted I-products."""
    calc = GhostCalculator(apery(), p=p, K=5)
    for n in range(1, n_top):
        rhs = LaurentPoly.zero(2, p=p, K=5)
        for blocks in digit_partitions(n, p):
            prod = LaurentPoly.one(2, p=p, K=5)
            shift = 0
            for blk in blocks:
                prod = prod * calc.indecomposable_sum(blk).substitute_power(p**shift)
                shift += length_p(blk, p)
            rhs = rhs + prod
        assert rhs == calc.power(n), (p, n)


def test_constant_term_factorization():
    """For admissible Lam the shifted I-product's constant term splits."""
    calc = GhostCalculator(apery(), p=2, K=6)
    cases = [(1, 2), (2, 1), (3, 3), (1, 0, 1), (2, 3, 1)]
    for blocks in cases:
        prod = LaurentPoly.one(2, p=2, K=6)
        shift = 0
        expect = 1
        for blk in blocks:
            I = calc.indecomposable_sum(blk)
            prod = prod * I.substitute_power(2**shift)
            shift += length_p(blk, 2)
            expect = expect * I.constant_term() % 2**6
        assert prod.constant_term() == expect, blocks


# -- c_n: two constructions --------------------------------------------------------------


def test_c_direct_examples():
    lam = chebyshevish()
    assert c_direct(lam, 2, 2, 3).residue == 2
    assert c_direct(lam, 0, 2, 3).residue == 1
    b = constant_term_sequence(lam, 10)
    for p in (3, 5):
        for n in range(1, p):
            assert c_direct(lam, n, p, 4).residue == b[n] % p**4


def test_c_direct_matches_full_constant_term():
    calc = GhostCalculator(apery(), p=2, K=6)
    for n in range(0, 16):
        assert calc.c_direct(n) == calc.indecomposable_sum(n).constant_term()


def test_c_from_b_examples():
    lam = chebyshevish()
    b = constant_term_sequence(lam, 12)
    assert c_from_b(b, 2, 2, 3).residue == (b[2] - b[0] * b[1]) % 8 == 2
    assert c_from_b(b, 1, 2, 3).residue == b[1] % 8
    for p in (2, 3):
        bb = constant_term_sequence(lam, p + 1)
        assert c_from_b(bb, p, p, 2).residue == (bb[p] - bb[1]) % p**2


def test_c_two_routes_agree_small():
    for src, d, p in ((APERY_SRC, 2, 2), (APERY_SRC, 2, 3), ("x1+x1^-1", 1, 2)):
        lam = parse_poly(src, d)
        K = 5
        calc = GhostCalculator(lam, p=p, K=K)
        n_max = p**3 - 1
        b = calc.constant_terms(n_max)
        inv = c_from_b_sequence(b, n_max, p, K)
        for n in range(n_max + 1):
            assert calc.c_direct(n) == inv[n], (src, p, n)


def test_c_valuation_bound():
    calc = GhostCalculator(apery(), p=3, K=5)
    for n in range(27):
        assert calc.c_direct(n) % 3 ** (length_p(n, 3) - 1) == 0


def test_reconstruct_b_examples():
    lam = chebyshevish()
    b = constant_term_sequence(lam, 8)
    c = c_from_b_sequence(b, 8, 2, 4)
    # partitions of 5 = [5], [1,2], [1,0,1]
    expect = (c[5] + c[1] * c[2] + c[1] * c[0] * c[1]) % 2**4
    assert reconstruct_b(c, 5, 2, modulus=2**4) == expect == b[5] % 2**4
    assert reconstruct_b(c, 1, 2, modulus=2**4) == b[1] % 2**4
    assert reconstruct_b(c, 0, 2, modulus=2**4) == 1


def test_reconstruct_b_apery_end_to_end():
    K = 4
    calc = GhostCalculator(apery(), p=3, K=K)
    b = calc.constant_terms(10)
    c = [calc.c_direct(n) for n in range(11)]
    assert reconstruct_b(c, 10, 3, modulus=3**K) == b[10] % 3**K


def lemma_calculator(lam, p, n_max):
    return GhostCalculator(lam, p=p, K=length_p(n_max, p) - 1 + GUARD)  # the lemma's K


def test_ghost_work_budget():
    # admitted: the bench's and criterion 05's lemma runs, p = 2 to 200 and
    # the scale probe p = 3 to 242 (about 2 s each on a 2-core x86-64 host);
    # refused: p = 2 to 500 (about 1.3e9 slot-words) and p = 2 to 10**4000
    lam = apery()
    for p, n_max in [(2, 15), (2, 63), (3, 50), (3, 80), (5, 124), (2, 100),
                     (2, 200), (3, 242)]:
        lemma_calculator(lam, p, n_max)._check_fold_work(n_max)
    for p, n_max in [(2, 500), (2, 10**4000)]:
        with pytest.raises(ValueError, match="ghost layer .* slot-words; budget"):
            lemma_calculator(lam, p, n_max)._check_fold_work(n_max)
    with pytest.raises(ValueError, match="mod p"):  # an exact calculator
        GhostCalculator(lam, p=2)._check_fold_work(10)


def per_tuple_c(calc, n):
    """The oracle: c_n as one constant term of a product per tuple, each
    factor shifted by `substitute_power`."""
    total = sum(calc.tuple_product_constant_term(n, m) for m in calc._indecomposable(n))
    return total % calc.lam.modulus


FOLD_POLYS = [(APERY_SRC, 2), ("x1+x1^-1", 1), ("x1+x2+x1^-1*x2^-1", 2),
              ("x1+x2+x3+x1^-1*x2^-1*x3^-1", 3)]  # the last on an index-4 lattice


@pytest.mark.oracle
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("src,d", FOLD_POLYS)
def test_fold_matches_per_tuple_oracle(src, d, p):
    lam = parse_poly(src, d)
    ns = range(p**3)
    calc = GhostCalculator(lam, p=p, K=5)
    oracle = [per_tuple_c(calc, n) for n in ns]
    ascending = GhostCalculator(lam, p=p, K=5)
    assert [ascending.c_direct(n) for n in ns] == oracle, (src, p)
    # the memo serves n in any order: asked backwards, a fresh calculator
    # folds the long tuples first and reuses their states for shorter ones
    descending = GhostCalculator(lam, p=p, K=5)
    assert [descending.c_direct(n) for n in reversed(ns)] == oracle[::-1], (src, p)
    assert ascending._states.keys() == descending._states.keys()


def test_fold_states_are_keyed_by_level():
    # n = 40 = (1, 1, 1, 1) in base 3 with m = (0, 1, 0, 3) has factors at
    # levels 0, 0, 2, 0: level 1 holds none, so the states U_3(G_0) and
    # U_3(U_3(G_0)) below the top have the same factors and differ only in
    # their level
    calc = GhostCalculator(apery(), p=3, K=5)
    assert (0, 1, 0, 3) in calc._indecomposable(40)
    for n in (40, 13, 40, 80):
        assert calc.c_direct(n) == per_tuple_c(calc, n), n
    below = [(0, 0, 1), (0, 1, 1), (0, 3, 1)]  # (level, s, digit), sorted
    low, high = calc._states[0, tuple(below)], calc._states[1, tuple(below)]
    assert low != high
    for (level, factors), state in calc._states.items():
        assert factors and all(f[0] <= level for f in factors)
        assert isinstance(state, LaurentPoly)

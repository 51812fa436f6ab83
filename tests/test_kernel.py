"""Differential tests of the Kronecker kernel against the dict multiply.

`LaurentPoly._mul_dict` is the term-by-term product the kernel replaced for
modular coefficients; it stays as the exact-ring path and as the oracle
here.  Each test also pins which path a product takes, since a wrong
choice is a silent slowdown rather than a wrong answer.
"""

import random

import pytest

from dworkcong.apery import APERY_POLY_SRC, apery_numbers_mod
from dworkcong.laurent import (
    LaurentPoly,
    PowerCache,
    TruncSeries,
    _mul_mod_lists,
    _packed_walk,
    _slot,
    constant_term_sequence,
)
from dworkcong.polyparse import parse_poly

SIMPLEX3 = "x1+x2+x3+x1^-1*x2^-1*x3^-1"


def dense_poly(rng, arity, radius, p, K):
    """Every exponent in [-radius, radius]^arity, with random nonzero residues."""
    coeffs = {}

    def fill(prefix):
        if len(prefix) == arity:
            coeffs[tuple(prefix)] = rng.randrange(1, p**K)
            return
        for e in range(-radius, radius + 1):
            fill(prefix + [e])

    fill([])
    return LaurentPoly(arity, coeffs, p=p, K=K)


def packed(a, b):
    """Whether a * b takes the Kronecker kernel."""
    a, b = (a, b) if len(a) >= len(b) else (b, a)
    return _packed_walk(a, b, 1) is not None


def line(coeff, exponents, p, K):
    return LaurentPoly(1, {(e,): coeff for e in exponents}, p=p, K=K)


@pytest.mark.parametrize("arity,radius", [(1, 6), (2, 3), (3, 1)])
@pytest.mark.parametrize("p,K", [(2, 1), (2, 5), (3, 4), (7, 2)])
def test_dense_products_match_dict(arity, radius, p, K):
    rng = random.Random(arity * 1000 + p * 10 + K)
    for _ in range(4):
        a = dense_poly(rng, arity, radius, p, K)
        b = dense_poly(rng, arity, rng.randint(1, radius), p, K)
        assert packed(a, b)
        assert a * b == a._mul_dict(b)
        assert b * a == a._mul_dict(b)


def test_shifted_boxes_match_dict():
    # boxes far from the origin, on either side of it
    rng = random.Random(5)
    a = dense_poly(rng, 2, 2, 3, 3)
    b = dense_poly(rng, 2, 2, 3, 3)
    shift_a = LaurentPoly.monomial(2, (-7, 4), p=3, K=3)
    shift_b = LaurentPoly.monomial(2, (3, -11), p=3, K=3)
    a, b = a._mul_dict(shift_a), b._mul_dict(shift_b)
    assert packed(a, b)
    assert a * b == a._mul_dict(b)


def test_products_that_cancel_mod_m():
    a = line(2, range(3), 2, 2)
    b = line(2, range(-2, 1), 2, 2)
    assert packed(a, b)
    zero = a * b  # every coefficient is a multiple of 4
    assert not zero and zero == LaurentPoly.zero(1, p=2, K=2)
    c = line(1, (0, 1), 2, 1)
    assert c * c == line(1, (0, 2), 2, 1)  # the middle term 2x vanishes mod 2


def test_recorded_boxes_contain_the_support():
    # a dict product records the sum of its factors' boxes, which can be
    # wider than its support when the extreme terms cancel mod m
    a = LaurentPoly(1, {(-1,): 1, (0,): 1, (1,): 2}, p=2, K=2)
    a._box()
    square = a._mul_dict(a)  # (1/x + 1 + 2x)**2 = 1/x**2 + 2/x + 1 mod 4
    assert square == LaurentPoly(1, {(-2,): 1, (-1,): 2, (0,): 1}, p=2, K=2)
    assert square._box() == ((-2,), (2,))
    dense = line(3, range(-6, 7), 2, 2)
    assert packed(dense, square)
    assert dense * square == dense._mul_dict(square)
    lam = parse_poly("x1+x2+x1^-1*x2^-1", 2, p=7, K=1)
    lam._box()
    cur = lam
    for _ in range(12):
        cur = cur._mul_dict(lam)
        lo, hi = cur._box()
        assert all(l <= x <= h for e in cur.support() for x, l, h in zip(e, lo, hi))


def test_empty_factors():
    zero = LaurentPoly.zero(2, p=5, K=3)
    lam = parse_poly(APERY_POLY_SRC, 2, p=5, K=3)
    assert not packed(zero, lam)
    assert lam * zero == zero and zero * lam == zero and zero * zero == zero
    assert constant_term_sequence(zero, 4) == [1, 0, 0, 0, 0]
    cache = PowerCache(zero)
    assert cache.constant_terms(3) == [1, 0, 0, 0]
    assert cache.power(3) == zero


def test_sparse_factors_take_the_dict_path():
    lam = parse_poly(APERY_POLY_SRC, 2, p=3, K=3)
    f = lam * lam * lam
    ghost = f.substitute_power(9)  # the support spread over a 9x wider box
    assert not packed(ghost, f)
    assert ghost * f == ghost._mul_dict(f)
    simplex = parse_poly(SIMPLEX3, 3, p=2, K=4)  # powers on a sublattice
    assert _packed_walk(simplex, simplex, 63) is None
    assert _packed_walk(lam, lam, 63) is not None


def test_exact_ring_takes_the_dict_path():
    lam = parse_poly(APERY_POLY_SRC, 2)
    assert _packed_walk(lam, lam, 1) is None
    assert constant_term_sequence(lam, 4) == [1, 3, 19, 147, 1251]


@pytest.mark.parametrize("bits", [8, 16, 32, 64])
def test_slot_width_boundaries(bits):
    assert _slot(2**bits - 1)[0] == bits
    following = _slot(2**bits)
    assert following is None if bits == 64 else following[0] == 2 * bits


@pytest.mark.parametrize("p,K,terms,bits", [
    # (m-1)**2 times the shorter factor's length reaches exactly 2**bits - 1,
    # or first passes it
    (2, 1, 255, 8), (2, 1, 256, 16),
    (2, 8, 1, 16), (2, 8, 2, 32),
    (2, 16, 1, 32), (2, 16, 2, 64),
    (2, 32, 1, 64), (2, 32, 2, None),
])
def test_largest_fitting_products(p, K, terms, bits):
    m = p**K
    a = line(m - 1, range(terms + 3), p, K)
    b = line(m - 1, range(-terms + 1, 1), p, K)  # constant term: terms*(m-1)**2
    slot = _slot(terms * (m - 1) ** 2)
    assert (slot and slot[0]) == bits
    assert packed(a, b) == (bits is not None)
    assert a * b == a._mul_dict(b)


def test_power_cache_saves_dict_built_powers():
    lam = parse_poly(APERY_POLY_SRC, 2, p=3, K=4)
    assert _packed_walk(lam, lam, 1) is not None
    dict_powers = [LaurentPoly.one(2, p=3, K=4)]
    for _ in range(30):
        dict_powers.append(dict_powers[-1]._mul_dict(lam))
    cache = PowerCache(lam)
    cache.mark([2, 9, 18, 27])
    b = cache.constant_terms(20)
    assert b == [q.constant_term() for q in dict_powers[:21]]
    for n in (2, 9, 18):  # saved by the constant-term sweep
        assert cache._saved[n] == dict_powers[n]
    for n in (27, 5, 30, 29):  # walked to on request
        assert cache.power(n) == dict_powers[n]
    assert cache.constant_terms(30) == [q.constant_term() for q in dict_powers]


@pytest.mark.parametrize("p,K,N,bits", [(5, 4, 124, 32), (2, 1, 63, 8),
                                        (3, 13, 40, 64)])
def test_packed_sweep_matches_apery_recurrence(p, K, N, bits):
    lam = parse_poly(APERY_POLY_SRC, 2, p=p, K=K)
    walk = _packed_walk(lam, lam, N - 1)
    assert walk.bits == bits
    assert constant_term_sequence(lam, N) == apery_numbers_mod(N, p**K)


def schoolbook(a, b, m, count):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [v % m for v in out[:count]] + [0] * (count - len(out))


@pytest.mark.parametrize("m", [2, 5**3, 2**31 - 1, 2**40])  # 2**40 overflows 64 bits
def test_coefficient_lists(m):
    rng = random.Random(m)
    for la, lb, count in [(1, 1, 1), (9, 4, 12), (30, 17, 20), (5, 5, 15)]:
        a = [rng.randrange(m) for _ in range(la)]
        b = [rng.randrange(m) for _ in range(lb)]
        b[-1] = 0  # a zero top coefficient still counts as a slot
        assert _mul_mod_lists(a, b, m, count) == schoolbook(a, b, m, count)
    assert _mul_mod_lists(a, b, m) == schoolbook(a, b, m, la + lb - 1)


def test_series_product_at_wide_modulus():
    rng = random.Random(3)
    for p, K in [(3, 5), (2, 40)]:
        m = p**K
        f = TruncSeries(p, K, 12, [rng.randrange(m) for _ in range(13)])
        g = TruncSeries(p, K, 12, [rng.randrange(m) for _ in range(13)])
        assert (f * g).coeffs == schoolbook(f.coeffs, g.coeffs, m, 13)

"""Differential tests of the Kronecker kernel against the dict multiply.

`LaurentPoly._mul_dict` is the term-by-term product the kernel replaced for
modular coefficients; it stays as the exact-ring path and as the oracle
here, and the dict walk -- one `_mul_dict` per step -- is the oracle of the
packed walks.  Each test also pins which path a product takes, and in which
lattice coordinates and slot width, since a wrong choice is a silent
slowdown rather than a wrong answer.
"""

import random
import sys
from math import comb, factorial, prod

import pytest

from dworkcong.apery import APERY_POLY_SRC, apery_numbers_mod
from dworkcong.laurent import (
    LaurentPoly,
    PowerCache,
    TruncSeries,
    _lattice,
    _mul_mod_lists,
    _packed_walk,
    _slot,
    constant_term_sequence,
)
from dworkcong.polyparse import parse_poly

SIMPLEX3 = "x1+x2+x3+x1^-1*x2^-1*x3^-1"
TRIANGLE = "x1+x2+x1^-1*x2^-1"
CHEB = "x1+x1^-1"


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


def test_products_after_cancellation_match_dict():
    # the extreme terms cancel mod m, so the product's support is narrower
    # than the sum of its factors' boxes
    a = LaurentPoly(1, {(-1,): 1, (0,): 1, (1,): 2}, p=2, K=2)
    square = a._mul_dict(a)  # (1/x + 1 + 2x)**2 = 1/x**2 + 2/x + 1 mod 4
    assert square == LaurentPoly(1, {(-2,): 1, (-1,): 2, (0,): 1}, p=2, K=2)
    assert a * a == square
    dense = line(3, range(-6, 7), 2, 2)
    assert packed(dense, square)
    assert dense * square == dense._mul_dict(square)


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


@pytest.mark.parametrize("p,K,N,bits", [(5, 4, 124, 16), (2, 1, 63, 8),
                                        (3, 13, 40, 32), (2, 31, 40, 64)])
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


# -- lattice coordinates and shift-add walks ----------------------------------

EDGES3 = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
BASES = {APERY_POLY_SRC: None, CHEB: [[2]], TRIANGLE: [[2, 1], [1, 2]],
         SIMPLEX3: EDGES3}

# Every walk of the benchmark's verdicts and powers ops: (polynomial, p, K,
# steps) with the slot width and the box it packs into.
BENCH_WALKS = [
    (APERY_POLY_SRC, 2, 1, 2, 8, (7, 7)),
    (APERY_POLY_SRC, 2, 2, 6, 8, (15, 15)),
    (APERY_POLY_SRC, 2, 2, 26, 8, (55, 55)),
    (APERY_POLY_SRC, 2, 5, 14, 16, (31, 31)),
    (APERY_POLY_SRC, 2, 5, 62, 16, (127, 127)),
    (APERY_POLY_SRC, 3, 1, 29, 8, (61, 61)),
    (APERY_POLY_SRC, 3, 2, 25, 8, (53, 53)),
    (APERY_POLY_SRC, 3, 3, 79, 16, (161, 161)),
    (APERY_POLY_SRC, 3, 5, 49, 16, (101, 101)),
    (APERY_POLY_SRC, 5, 1, 23, 8, (49, 49)),
    (APERY_POLY_SRC, 5, 2, 123, 16, (249, 249)),
    (APERY_POLY_SRC, 7, 1, 47, 8, (97, 97)),
    (CHEB, 2, 1, 2, 8, (4,)),
    (CHEB, 2, 2, 6, 8, (8,)),
    (CHEB, 2, 2, 35, 8, (37,)),
    (CHEB, 3, 1, 7, 8, (9,)),
    (CHEB, 3, 2, 25, 8, (27,)),
    (CHEB, 3, 2, 55, 8, (57,)),
    (CHEB, 5, 1, 23, 8, (25,)),
    (CHEB, 5, 1, 39, 8, (41,)),
    (CHEB, 7, 1, 47, 8, (49,)),
    (TRIANGLE, 2, 2, 6, 8, (8, 8)),
    (TRIANGLE, 2, 2, 35, 8, (37, 37)),
    (TRIANGLE, 3, 1, 7, 8, (9, 9)),
    (TRIANGLE, 3, 2, 25, 8, (27, 27)),
    (TRIANGLE, 5, 1, 23, 8, (25, 25)),
    (TRIANGLE, 5, 1, 39, 8, (41, 41)),
    (TRIANGLE, 7, 1, 47, 8, (49, 49)),
    (SIMPLEX3, 2, 2, 6, 8, (8, 8, 8)),
    (SIMPLEX3, 2, 4, 62, 8, (64, 64, 64)),
    (SIMPLEX3, 3, 2, 55, 8, (57, 57, 57)),
    (SIMPLEX3, 5, 1, 23, 8, (25, 25, 25)),
    (SIMPLEX3, 7, 1, 47, 8, (49, 49, 49)),
]


@pytest.mark.parametrize("src,p,K,steps,bits,widths", BENCH_WALKS)
def test_bench_walks_pack(src, p, K, steps, bits, widths):
    lam = parse_poly(src, {CHEB: 1, SIMPLEX3: 3}.get(src, 2), p=p, K=K)
    walk = _packed_walk(lam, lam, steps)
    assert (walk.bits, walk.widths) == (bits, list(widths))
    assert walk.lat == _lattice(lam)  # the support's own edge vectors for index > 1
    assert (list(walk.lat[0]) if walk.lat else None) == BASES[src]


def dict_powers(lam, N):
    """lam**0 .. lam**N by the dict multiply."""
    out = [LaurentPoly.one(lam.arity, p=lam.p, K=lam.K)]
    for _ in range(N):
        out.append(out[-1]._mul_dict(lam))
    return out


LATTICES = [
    (CHEB, 1, [[2]]),  # index 2
    (TRIANGLE, 2, [[2, 1], [1, 2]]),  # index 3
    (SIMPLEX3, 3, EDGES3),  # index 4
    # rank 1 in Z^2, completed by a unit vector
    ("x1*x2+x1^-1*x2^-1", 2, [[2, 2], [0, 1]]),
    ("x1^3+x1^-3", 2, [[6, 0], [0, 1]]),
    ("x1^6+x1^4+1", 1, [[2]]),  # neither 4 nor 6 spans 2Z: Hermite basis
    ("x1^4+x1^6+x2+1", 2, [[2, 0], [0, 1]]),  # no two differences span L
    ("x1^3+x1^2+1", 1, None),  # 2 and 3 generate Z: no coordinate map
    ("3*x1^2*x2^-1", 2, None),  # one term: rank 0, completed to Z^2
]


@pytest.mark.parametrize("src,d,basis", LATTICES)
@pytest.mark.parametrize("p,K", [(2, 4), (3, 3), (7, 2)])
def test_lattice_walks_match_dict_walk(src, d, basis, p, K):
    lam = parse_poly(src, d, p=p, K=K)
    lat = _lattice(lam)
    assert (list(lat[0]) if lat else None) == basis
    N = 24
    powers = dict_powers(lam, N)
    walk = _packed_walk(lam, lam, N - 1)
    assert walk.lat == lat
    assert constant_term_sequence(lam, N) == [q.constant_term() for q in powers]
    cache = PowerCache(lam)
    cache.mark([3, 8, 13])
    assert cache.constant_terms(15) == [q.constant_term() for q in powers[:16]]
    for n in (3, 8, 13):  # decoded by the constant-term sweep
        assert cache._saved[n] == powers[n]
    for n in (20, 5, 24, 23):  # walked to on request
        assert cache.power(n) == powers[n]
    assert cache.constant_terms(N) == [q.constant_term() for q in powers]


@pytest.mark.parametrize("src,d,parts", [(CHEB, 1, 2), (TRIANGLE, 2, 3), (SIMPLEX3, 3, 4)])
@pytest.mark.parametrize("p,K,N,bits", [
    (2, 4, 120, 8),  # m = 2**K, about 60 byte-table reductions
    (3, 5, 36, 16), (5, 8, 30, 32), (2, 32, 40, 64),
])
def test_closed_forms(src, d, parts, p, K, N, bits):
    # b_n = n! / ((n/parts)!)**parts when parts divides n, else 0
    m = p**K
    lam = parse_poly(src, d, p=p, K=K)
    walk = _packed_walk(lam, lam, N - 1)
    assert walk.bits == bits
    want = [factorial(n) // factorial(n // parts) ** parts % m if n % parts == 0 else 0
            for n in range(N + 1)]
    assert constant_term_sequence(lam, N) == want
    if parts == 2:
        assert want[::2] == [comb(2 * k, k) % m for k in range(N // 2 + 1)]


def test_one_shot_products_across_cosets():
    tri = parse_poly(TRIANGLE, 2, p=3, K=2)
    six = dict_powers(tri, 6)[6]
    shifted = six._mul_dict(LaurentPoly.monomial(2, (1, 0), p=3, K=2))  # another coset
    walk = _packed_walk(shifted, tri, 1)
    assert walk.lat == _lattice(tri)
    assert shifted * tri == shifted._mul_dict(tri)
    mixed = six + LaurentPoly.monomial(2, (1, 0), p=3, K=2)  # on two cosets: Z^2
    assert _packed_walk(mixed, tri, 2).lat == ()
    assert mixed * tri == mixed._mul_dict(tri)
    cheb = parse_poly(CHEB, 1, p=2, K=3)
    odd = dict_powers(cheb, 5)[5]
    even = parse_poly("x1^2+1+x1^-2", 1, p=2, K=3)
    assert _packed_walk(odd, even, 1).lat == _lattice(even)
    assert odd * even == odd._mul_dict(even)
    monomial = LaurentPoly.monomial(2, (3, -2), 5, p=3, K=2)  # a rank-0 base
    dense = dense_poly(random.Random(2), 2, 3, 3, 2)
    assert _packed_walk(dense, monomial, 1).lat == ()
    assert dense * monomial == dense._mul_dict(monomial)


def test_long_bases_step_by_one_product():
    rng = random.Random(11)
    base = dense_poly(rng, 2, 6, 3, 2)  # 169 terms, over SHIFT_ADD_TERMS
    cur = dense_poly(rng, 2, 2, 3, 2)
    walk = _packed_walk(cur, base, 3)
    assert walk.base is not None
    powers = [cur]
    for _ in range(3):
        powers.append(powers[-1]._mul_dict(base))
        walk.step()
        assert walk.poly() == powers[-1]
    assert walk.constant_term() == powers[-1].constant_term()


def test_byte_table_reduction():
    lam = parse_poly(SIMPLEX3, 3, p=2, K=4)
    full, reduced = _packed_walk(lam, lam, 5), _packed_walk(lam, lam, 5)
    assert full.bits == 8 and prod(full.widths) >= 256
    full.x = int.from_bytes(bytes(range(256)), sys.byteorder)  # every byte value
    full.top = 255  # the next step reduces first
    reduced.x = int.from_bytes(bytes(v % 16 for v in range(256)), sys.byteorder)
    full.step()
    reduced.step()
    assert full.x == reduced.x


def test_origin_outside_the_box():
    # every power has x2 exponent n > 0, so the origin's second coordinate
    # falls below the box while its first lies inside it
    lam = parse_poly("x1*x2+x2+x1^-1*x2", 2, p=3, K=2)
    assert _packed_walk(lam, lam, 9) is not None
    assert constant_term_sequence(lam, 10) == [1] + [0] * 10

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
from itertools import product
from math import comb, factorial, prod
from operator import gt, le, mul
from unittest import mock

import pytest

from dworkcong import laurent
from dworkcong.apery import APERY_POLY_SRC, apery_numbers_mod
from dworkcong.congruence import check_c2
from dworkcong.laurent import (
    SHIFT_ADD_TERMS,
    LaurentPoly,
    PowerCache,
    TruncSeries,
    _coords,
    _frame,
    _lattice,
    _mul_mod_lists,
    _pack,
    _PackedWalk,
    _packed_walk,
    _passes,
    _reducer,
    _slot,
    _slots,
    cartier_of_product,
    constant_term_of_product,
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
    """Whether a * b takes the Kronecker kernel: `_kronecker` runs for it."""
    with mock.patch.object(laurent, "_kronecker", wraps=laurent._kronecker) as kronecker:
        a * b
    return kronecker.called


def line(coeff, exponents, p, K):
    return LaurentPoly(1, {(e,): coeff for e in exponents}, p=p, K=K)


@pytest.mark.parametrize("arity,radius", [(1, 6), (2, 3), (3, 1)])
@pytest.mark.parametrize("p,K", [(2, 1), (2, 5), (3, 4), (7, 2), (3, 45)])
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
    # spread by 9, f's 39 terms fill 1/78 of their 55 x 55 box, over SPARSE
    # slots per term, so the spread value is a coefficient map too sparse to
    # pack, though the 39 * 39 term pairs against 61**2 box slots are under
    # PAIR_SLOTS slots a pair; spread by 81 they are over it too
    for q in (9, 81):
        spread = f.substitute_power(q)
        assert "len" not in spread._cache and len(spread) * laurent.SPARSE < prod(
            laurent._box(spread)[1])
        assert not packed(spread, f) and not packed(f, spread)
        assert spread * f == spread._mul_dict(f)
    assert packed(f.substitute_power(3), f)


def test_exact_ring_takes_the_dict_path():
    lam = parse_poly(APERY_POLY_SRC, 2)
    assert _packed_walk(lam, lam, 1) is None
    assert constant_term_sequence(lam, 4) == [1, 3, 19, 147, 1251]


@pytest.mark.parametrize("bits", [8, 16, 32, 64, 128, 192])
def test_slot_width_boundaries(bits):
    # byte-aligned widths double up to 64 bits, then grow by whole words
    assert _slot(2**bits - 1) == bits
    assert _slot(2**bits) == (2 * bits if bits < 64 else bits + 64)


@pytest.mark.parametrize("p,K,terms,bits", [
    # (m-1)**2 times the shorter factor's length reaches exactly 2**bits - 1,
    # or first passes it
    (2, 1, 255, 8), (2, 1, 256, 16),
    (2, 8, 1, 16), (2, 8, 2, 32),
    (2, 16, 1, 32), (2, 16, 2, 64),
    (2, 32, 1, 64), (2, 32, 2, 128),
    # odd moduli whose (m-1)**2 fills the top byte of a wide slot
    (3, 40, 1, 128), (3, 60, 1, 192),
])
def test_largest_fitting_products(p, K, terms, bits):
    m = p**K
    a = line(m - 1, range(terms + 3), p, K)
    b = line(m - 1, range(-terms + 1, 1), p, K)  # constant term: terms*(m-1)**2
    assert _slot(terms * (m - 1) ** 2) == bits
    assert packed(a, b)
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
                                        (3, 13, 40, 32), (2, 31, 40, 64),
                                        (3, 40, 60, 128), (2, 70, 60, 128),
                                        (3, 100, 40, 192)])
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


# from 2**40 on the slots are wider than 64 bits
@pytest.mark.parametrize("m", [2, 5**3, 2**31 - 1, 2**40, 2**64, 3**41, 2**200])
def test_coefficient_lists(m):
    rng = random.Random(m)
    for la, lb, count in [(1, 1, 1), (9, 4, 12), (30, 17, 20), (5, 5, 15)]:
        a = [rng.randrange(m) for _ in range(la)]
        b = [rng.randrange(m) for _ in range(lb)]
        b[-1] = 0  # a zero top coefficient still counts as a slot
        assert _mul_mod_lists(a, b, m, count) == schoolbook(a, b, m, count)
    assert _mul_mod_lists(a, b, m) == schoolbook(a, b, m, la + lb - 1)
    assert _mul_mod_lists(a, [0] * 3, m) == [0] * (la + 2)  # a zero factor


def test_c2_series_pack_in_16_bit_slots(monkeypatch):
    # the slot bound is (m-1) times the smaller sum of residues: at p = 3,
    # s = 3 that fits 16 bits, where (m-1)**2 times the padded length,
    # 105 * 26**2 = 70,980, took 32
    widths, slot = [], laurent._slot

    def counted(bound):
        widths.append(slot(bound))
        return slot(bound)

    monkeypatch.setattr(laurent, "_slot", counted)
    lam = parse_poly(APERY_POLY_SRC, 2)
    b = apery_numbers_mod(3**4 - 1, 3**3)  # supplied: no walk packs anything
    assert check_c2(lam, 3, 3, b=b).passed
    assert widths and set(widths) == {16}


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


def arity(src):
    return {CHEB: 1, SIMPLEX3: 3}.get(src, 2)


@pytest.mark.parametrize("src,p,K,steps,bits,widths", BENCH_WALKS)
def test_bench_walks_pack(src, p, K, steps, bits, widths):
    lam = parse_poly(src, arity(src), p=p, K=K)
    for keep in (0, steps):  # a constant-term sweep, and a walk to a kept power
        walk = _packed_walk(lam, lam, steps, keep)
        assert walk.bits == bits
        assert walk.lat == _lattice(lam)  # the support's own edge vectors for index > 1
        assert (list(walk.lat[0]) if walk.lat else None) == BASES[src]
        largest = list(walk.widths)
        for _ in range(steps):
            walk.step()
            if walk.kept:
                largest = list(map(max, largest, walk.widths))
        assert all(map(le, largest, widths))  # the full box bounds every box


# The scale probes' walks: check c2 --p 3 --s 4 (b through 3**5) and --p 5
# --s 3 (through 5**4), and the SIMPLEX3 ct --N 200 --p 3 --K 3.
PROBE_WALKS = [(APERY_POLY_SRC, 3, 4, 242), (APERY_POLY_SRC, 5, 3, 624), (SIMPLEX3, 3, 3, 199)]


def carried(monkeypatch):
    """Count the slot-words every packed walk carries from here on: after
    each step, the 64-bit words of its packed integer's slots, the step's
    fixed 128 and its re-layout; and the same with its box for the slots."""
    count = {"slots": 0, "box": 0}
    step = _PackedWalk.step

    def counted(walk):
        relayout = step(walk) + 128
        count["slots"] += -(-walk.x.bit_length() // walk.bits) * walk.words + relayout
        rows = walk.kept[0] + walk.done * walk.spans[0] if walk.kept else 0
        count["box"] += rows * walk.strides[0] * walk.words + relayout
        return relayout - 128

    monkeypatch.setattr(_PackedWalk, "step", counted)
    return count


@pytest.mark.parametrize("src,p,K,steps", [w[:4] for w in BENCH_WALKS] + PROBE_WALKS)
def test_walk_estimates_bound_the_work_counted(monkeypatch, src, p, K, steps):
    lam = parse_poly(src, arity(src), p=p, K=K)
    for keep in (0, steps) if steps < 600 else (0,):
        walk = _packed_walk(lam, lam, steps, keep)
        estimate = walk.work()
        full = _frame(lam, walk.lat)[3]
        assert estimate <= steps * (prod(s * (steps + 1) + 1 for s in full) * walk.words + 128)
        with monkeypatch.context() as m:
            count = carried(m)
            for _ in range(steps):
                walk.step()
        assert count["box"] == estimate  # the estimate takes the walk's own steps
        assert count["slots"] <= estimate <= 1.5 * count["slots"]


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
@pytest.mark.parametrize("p,K", [(2, 4), (3, 3), (7, 2), (3, 45)])
def test_lattice_walks_match_dict_walk(src, d, basis, p, K):
    lam = parse_poly(src, d, p=p, K=K)
    lat = _lattice(lam)
    assert (list(lat[0]) if lat else None) == basis
    if lat:
        B, X, det = lat
        assert [[sum(map(mul, row, col)) for col in zip(*X)] for row in B] == [
            [det * (i == j) for j in range(d)] for i in range(d)]
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
    (3, 5, 36, 16), (5, 8, 30, 32), (2, 32, 40, 64), (3, 45, 40, 128),
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
    # one-shot products are one Kronecker product in Z^d, whatever cosets
    # their factors lie on
    tri = parse_poly(TRIANGLE, 2, p=3, K=2)
    six = dict_powers(tri, 6)[6]
    shifted = six._mul_dict(LaurentPoly.monomial(2, (1, 0), p=3, K=2))  # another coset
    assert shifted * tri == shifted._mul_dict(tri)
    mixed = six + LaurentPoly.monomial(2, (1, 0), p=3, K=2)  # on two cosets
    assert mixed * tri == mixed._mul_dict(tri)
    cheb = parse_poly(CHEB, 1, p=2, K=3)
    odd = dict_powers(cheb, 5)[5]
    even = parse_poly("x1^2+1+x1^-2", 1, p=2, K=3)
    assert odd * even == odd._mul_dict(even)
    monomial = LaurentPoly.monomial(2, (3, -2), 5, p=3, K=2)  # a rank-0 base
    dense = dense_poly(random.Random(2), 2, 3, 3, 2)
    assert packed(dense, monomial)
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
    full.due = full.done  # the next step reduces first
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


# -- lane-parallel reduction and trimmed sweeps --------------------------------


@pytest.mark.parametrize("bits", [16, 32, 64, 128, 192])
@pytest.mark.parametrize("count", [1, 2, 7, 8, 101])
def test_lane_reduction_gives_exact_residues(bits, count):
    top = 2**bits - 1
    rng = random.Random(bits * 1000 + count)
    moduli = [2, 2**(bits // 2), 3**5, 5**3, 7**(bits // 6),  # p**K, m = 2, m = 2**K
              3**(bits * 5 // 8), 2**bits]  # near and at the widest m (weight 1)
    for m in moduli:
        assert m <= 2**bits
        reduce = _reducer(m, bits, count)
        for values in ([top] * count,  # every slot at 2**bits - 1
                       [rng.randrange(2**bits) for _ in range(count)],
                       [min(v, top) for v in (m - 1, m, 2 * m - 1, 0)][:count]
                       + [top] * (count - 4)):
            got = list(_slots(reduce(_pack(values, bits)), bits))
            assert got + [0] * (count - len(got)) == [v % m for v in values], m


def sweep_trims(monkeypatch):
    """Record every box re-fit of every packed walk from here on, as (steps
    to come, cut, the running power's extent, re-layout): `cut` when it
    trims, the re-layout (lo, old box, new box, kept) or None when the box
    and the running power stay."""
    fits = []
    fit = _PackedWalk._fit

    def counted(walk, trim):
        ext = [n + walk.done * b for n, b in zip(walk.kept, walk.spans)]
        plan, cost = fit(walk, trim)
        fits.append((walk.steps - walk.done, trim, ext, plan))
        return plan, cost

    monkeypatch.setattr(_PackedWalk, "_fit", counted)
    return fits


def cuts(fits):
    """The re-fits that trim, one at each reduction once no power is kept."""
    return [f for f in fits if f[1]]


def moved(fits, d):
    """Per box coordinate, the re-layouts that dropped or added its slots:
    moved it (lo > 0), cut it, widened it (beyond the first coordinate) or
    emptied the box."""
    return [sum(min(kept) <= 0 or bool(lo[j]) or kept[j] < ext[j] or j and old[j] != new[j]
                for _, _, ext, (lo, old, new, kept) in relaid(fits)) for j in range(d)]


def relaid(fits):
    """The re-fits that re-laid a walk's box out after its start."""
    return [f for f in fits if f[3] and f[3][1] is not None]


def copies(fits):
    """The re-layouts that copied rows into a new box."""
    return [f for f in relaid(fits) if min(f[3][3]) > 0 and f[3][2] is not f[3][1]]


def set_costs(monkeypatch, costs):
    """Copies by the rule, or free, so that every walk with a reduction that
    grows in more than one box coordinate copies its rows at each one."""
    if costs == "free":
        monkeypatch.setattr(laurent, "COPY_SLOTS", 0)


COSTS = pytest.mark.parametrize("costs", ["priced", "free"])


WIDE = {(-50, -50): 1, (50, 50): 1}  # a start whose box is 101 x 101


@pytest.mark.parametrize("src,d,p,K,start,steps,rule", [
    (APERY_POLY_SRC, 2, 7, 1, None, 47, (9409, 1, False)),  # 9409 slots: under COPY_SLOTS
    (APERY_POLY_SRC, 2, 2, 5, None, 62, (16129, 3, True)),  # 48387 slot-periods: over it
    (APERY_POLY_SRC, 2, 3, 45, WIDE, 15, (17161, 15, False)),  # no reduction inside the walk
    (CHEB, 1, 2, 5, None, 6000, (6002, 3, False)),  # one box coordinate
])
def test_one_rule_decides_copies(src, d, p, K, start, steps, rule):
    lam = parse_poly(src, d, p=p, K=K)
    cur = lam if start is None else LaurentPoly(d, start, p=p, K=K)
    walk = _packed_walk(cur, lam, steps, 0)
    lasting = prod(n + steps * b for n, b in zip(walk.kept, walk.spans))
    assert (lasting, walk.period, walk.copies) == rule


TRIMMED = [(src, d) for src, d, _ in LATTICES] + [
    ("x1*x2+x2+x1^-1*x2", 2),  # the origin outside the box
    ("1+x1+x2", 2),  # the origin at a vertex of the Newton polytope
    ("x1^-1+x1^-1*x2^2+x1", 2),
    ("x2+x1+x1^-1*x2^-1", 2),  # a lattice basis of negative determinant
    ("5", 1),  # a one-term base at the origin: one slot, nothing to cut
]


@pytest.mark.parametrize("src,d", TRIMMED)
@pytest.mark.parametrize("p,K", [(2, 4), (3, 3), (7, 2), (3, 45)])  # 8, 16, 128 bits
def test_trimmed_sweeps_match_dict_walk(monkeypatch, src, d, p, K, costs="priced"):
    set_costs(monkeypatch, costs)
    fits = sweep_trims(monkeypatch)
    lam = parse_poly(src, d, p=p, K=K)
    N = 30
    want = [q.constant_term() for q in dict_powers(lam, N)]
    assert constant_term_sequence(lam, N) == want
    spans = _frame(lam, _lattice(lam))[3]  # the base's extent in box coordinates
    if lam.support() == [(0,) * d]:  # a constant base: no re-fit changes the box
        assert all(f[3] is None for f in fits)
    elif _packed_walk(lam, lam, N - 1, 0).period < N - 1:  # cuts come with reductions
        assert cuts(fits)
        if costs == "free":
            # every box coordinate that the base spans is cut, beyond the first by a copy
            assert all(n for n, s in zip(moved(fits, d), spans) if s)
            assert bool(copies(fits)) == any(spans[1:])


@pytest.mark.parametrize("src,d", TRIMMED)
@pytest.mark.parametrize("p,K", [(2, 4), (3, 3), (7, 2), (3, 45)])
def test_relaid_out_sweeps_match_dict_walk(monkeypatch, src, d, p, K):
    test_trimmed_sweeps_match_dict_walk(monkeypatch, src, d, p, K, "free")


@pytest.mark.parametrize("src,d", TRIMMED + [(APERY_POLY_SRC, 2)])
@pytest.mark.parametrize("p,K", [(2, 2), (3, 3), (3, 45)])  # 8, 16, 128 bits
@pytest.mark.parametrize("N,keep", [(7, 0), (26, 0), (26, 9)])
def test_first_cut_skips_only_refits_that_cut_nothing(monkeypatch, src, d, p, K, N, keep):
    # a walk re-fits at every reduction and trims from step keep on; a
    # re-fit that cuts nothing leaves the box and the running power as they
    # are, so the walk reads the same constant terms as one that never trims
    lam = parse_poly(src, d, p=p, K=K)
    want = [q.constant_term() for q in dict_powers(lam, N + 1)][2:]
    fits, runs = sweep_trims(monkeypatch), []
    for trims in (True, False):
        if not trims:
            fit = _PackedWalk._fit
            monkeypatch.setattr(_PackedWalk, "_fit", lambda walk, trim: fit(walk, False))
        walk, cts = _packed_walk(lam, lam, N, keep), []
        start = len(fits)  # the re-fits of its steps
        for _ in range(N):
            walk.step()
            cts.append(walk.constant_term())
        assert cts == want
        runs.append((walk, fits[start:]))
    (walk, trimmed), (_, untrimmed) = runs
    reductions = list(range(walk.period, N, walk.period)) if walk.period else []
    assert [N - f[0] for f in trimmed] == reductions[:len(trimmed)]
    if len(trimmed) < len(reductions):  # the walk stopped re-fitting once it emptied
        assert walk.kept is None and min(trimmed[-1][3][3]) <= 0
    assert all(f[1] == (f[0] <= N - keep) for f in trimmed)  # trims from step keep on
    if walk.copies:  # each re-fit copies into the box fitted to the next reduction
        return
    assert all(f[3] is None for f in trimmed if not f[1])
    assert all(f[3] is None for f in untrimmed)
    for _, _, ext, (lo, _, _, kept) in (f for f in trimmed if f[3] is not None):
        assert lo[0] > 0 or kept[0] < ext[0] or min(kept) <= 0  # each re-layout cuts


@pytest.mark.parametrize("src,costs", [
    ("x1*x2+x1+x1*x2^-1", "priced"),  # every x1 exponent of lam**n is n > 0
    ("x1*x2+x1+x1*x2^-1", "free"),
    ("x2+x1*x2+x2^2+x1^-1*x2^2", "free"),  # every x2 exponent is n or more
])
def test_trim_window_that_empties(monkeypatch, src, costs):
    # a later constant term reads only exponents in [-K, 0] of that
    # coordinate, so the first cut in it leaves nothing to carry: in the
    # first box coordinate at any price, in the second by a copy
    set_costs(monkeypatch, costs)
    fits = sweep_trims(monkeypatch)
    lam = parse_poly(src, 2, p=3, K=2)
    walk = _packed_walk(lam, lam, 29, 0)
    for _ in range(29):
        walk.step()
        assert walk.constant_term() == 0
    assert [min(f[3][3]) <= 0 for f in cuts(fits) if f[3]] == [True]
    assert walk.kept is None and walk.x == 0


def test_trims_move_the_box_with_a_negative_determinant(monkeypatch, costs="priced"):
    set_costs(monkeypatch, costs)
    fits = sweep_trims(monkeypatch)
    lam = parse_poly("x2+x1+x1^-1*x2^-1", 2, p=3, K=3)
    assert _lattice(lam)[2] < 0
    assert constant_term_sequence(lam, 60) == [
        factorial(n) // factorial(n // 3) ** 3 % 27 if n % 3 == 0 else 0
        for n in range(61)]
    assert len(cuts(fits)) >= 10
    counts = moved(fits, 2)
    assert counts[0] >= 5
    assert (counts[1] >= 5) == (costs == "free")  # at its price, a mask and a shift


def test_relaid_out_box_with_a_negative_determinant(monkeypatch):
    test_trims_move_the_box_with_a_negative_determinant(monkeypatch, "free")


def test_trimmed_simplex_sweep_matches_multinomials(monkeypatch, p=2, K=4, bits=8,
                                                    costs="priced"):
    set_costs(monkeypatch, costs)
    fits = sweep_trims(monkeypatch)
    lam = parse_poly(SIMPLEX3, 3, p=p, K=K)
    assert _packed_walk(lam, lam, 62, 0).bits == bits
    got = constant_term_sequence(lam, 63)
    assert got == [factorial(n) // factorial(n // 4) ** 4 % p**K if n % 4 == 0 else 0
                   for n in range(64)]
    assert len(cuts(fits)) >= (20 if bits == 8 else 5)  # one at each reduction
    # SIMPLEX3's walks copy at their price: every coordinate is cut
    assert all(n >= 5 for n in moved(fits, 3)) and copies(fits)


@pytest.mark.parametrize("p,K,bits,costs", [(2, 4, 8, "free"), (3, 5, 16, "priced"),
                                            (3, 5, 16, "free"), (3, 70, 128, "priced"),
                                            (3, 70, 128, "free")])
def test_simplex_sweeps_at_every_width(monkeypatch, p, K, bits, costs):
    test_trimmed_simplex_sweep_matches_multinomials(monkeypatch, p, K, bits, costs)


def coords_route(walk):
    """The origin's slot by the lattice coordinates of -shift, solved at the
    read (`_coords`): the oracle of the coordinates the walk carries."""
    u = [[-s] for s in walk.shift]
    u = _coords(walk.lat, u) if walk.lat else u
    if u is None:
        return 0
    index = 0
    for (x,), w, s in zip(u, walk.widths, walk.strides):
        if not 0 <= x < w:
            return 0
        index += x * s
    return (walk.x >> (index * walk.bits) & ((1 << walk.bits) - 1)) % walk.m


ORIGIN_BASES = [
    (APERY_POLY_SRC, 2, False),  # Z^d
    (CHEB, 1, True),  # index 2: the origin is off the coset at odd steps
    (TRIANGLE, 2, True),  # index 3
    (SIMPLEX3, 3, True),  # index 4
    ("x2+x1+x1^-1*x2^-1", 2, True),  # a basis of negative determinant
    ("x1*x2+x2+x1^-1*x2", 2, False),  # the origin below the box
]


@pytest.mark.parametrize("src,d,cosets", ORIGIN_BASES)
@pytest.mark.parametrize("p,K,bits", [(2, 2, 8), (3, 5, 16), (3, 70, 128)])
def test_origin_slot_step_by_step(monkeypatch, src, d, cosets, p, K, bits, costs="priced"):
    set_costs(monkeypatch, costs)
    fits = sweep_trims(monkeypatch)
    lam = parse_poly(src, d, p=p, K=K)
    N = 40
    want = [q.constant_term() for q in dict_powers(lam, N)]
    walk = _packed_walk(lam, lam, N - 1, 0)  # trimmed from the first reduction on
    assert walk.bits == bits
    off = read = 0
    for n in range(1, N + 1):  # the walk holds lam**n
        assert walk.constant_term() == coords_route(walk) == want[n], n
        off += bool(walk.lat) and _coords(walk.lat, [[-s] for s in walk.shift]) is None
        read += any(any(f[3][0]) or min(f[3][3]) <= 0 for f in relaid(fits))
        if n < N:
            walk.step()
    assert (off > 0) == cosets
    assert read  # steps after a cut that moved the box were read too
    if costs == "free":  # copies where the base spans a coordinate beyond the first
        assert bool(copies(fits)) == any(_frame(lam, walk.lat)[3][1:])


@pytest.mark.parametrize("src,d,cosets", ORIGIN_BASES)
@pytest.mark.parametrize("p,K,bits", [(2, 2, 8), (3, 5, 16), (3, 70, 128)])
def test_origin_slot_after_relayouts(monkeypatch, src, d, cosets, p, K, bits):
    test_origin_slot_step_by_step(monkeypatch, src, d, cosets, p, K, bits, "free")


def test_trim_keeps_rows_between_the_origin_and_the_scaled_support():
    # -j.(base support) for j < K lies outside the hull of -K.(base support):
    # only the origin's row keeps the exponents the middle steps read
    base = LaurentPoly(1, {(1,): 1, (2,): 1}, p=3, K=2)
    cur = LaurentPoly(1, {(-20,): 1, (-12,): 2}, p=3, K=2)
    walk, steps = _packed_walk(cur, base, 20, 0), [cur]  # keeps no power
    for _ in range(20):
        steps.append(steps[-1]._mul_dict(base))
        walk.step()
        assert walk.constant_term() == steps[-1].constant_term()
    assert any(q.constant_term() for q in steps)
    assert walk.done == 20 and walk.dots is not None


@COSTS
def test_long_base_is_repacked_after_a_copy(monkeypatch, costs):
    set_costs(monkeypatch, costs)
    fits = sweep_trims(monkeypatch)
    rng = random.Random(13)
    base = dense_poly(rng, 2, 6, 3, 2)  # 169 terms, over SHIFT_ADD_TERMS
    walk, powers = _packed_walk(base, base, 12, 0), [base]
    assert walk.base is not None
    for _ in range(12):
        powers.append(powers[-1]._mul_dict(base))
        walk.step()
        assert walk.constant_term() == powers[-1].constant_term()
        # the packed base in the current box
        ((columns, lo, values),) = walk.factors
        assert walk.base == _pack(values, walk.bits, walk._index(columns, lo))
    assert copies(fits)  # its steps are dear: copies pay at their price


@pytest.mark.parametrize("src,d", [(SIMPLEX3, 3), (APERY_POLY_SRC, 2), (TRIANGLE, 2)])
@pytest.mark.parametrize("p,K", [(2, 4), (3, 5), (3, 45)])
@COSTS
def test_power_cache_decodes_powers_after_growth(monkeypatch, costs, src, d, p, K):
    set_costs(monkeypatch, costs)
    # a sweep that keeps powers grows its box as the power spreads, copying
    # its rows; the powers it decodes and the later cuts see the new box
    fits = sweep_trims(monkeypatch)
    lam = parse_poly(src, d, p=p, K=K)
    N = 40
    powers = dict_powers(lam, N)
    cache = PowerCache(lam)
    cache.mark([7, 19, 26])
    assert cache.constant_terms(N) == [q.constant_term() for q in powers]
    for n in (7, 19, 26):
        assert cache._saved[n] == powers[n]
    grown = [f for f in relaid(fits) if any(map(gt, f[3][2][1:], f[3][1][1:]))]
    # the box grows at reductions; a small walk starts in a box that lasts
    assert grown or costs == "priced" or _packed_walk(lam, lam, N).period >= 25
    assert all(f[0] > N - 26 for f in grown if not f[1])  # before the last kept power
    assert cuts(fits) and all(f[0] <= N - 26 for f in cuts(fits))  # cut after it
    del fits[:]
    assert cache.power(N) == powers[N]  # from power 26, not the trimmed walk
    assert not cuts(fits)


def test_power_cache_sweeps_trim_after_their_last_kept_power(monkeypatch):
    fits = sweep_trims(monkeypatch)
    lam = parse_poly(SIMPLEX3, 3, p=2, K=4)
    N = 60
    powers = dict_powers(lam, N)
    cache = PowerCache(lam)
    cache.mark([17, 30, 39])
    assert cache.constant_terms(N) == [q.constant_term() for q in powers]
    for n in (17, 30, 39):  # decoded late in a sweep that reduced many times
        assert cache._saved[n] == powers[n]
    assert cuts(fits) and all(f[0] <= N - 39 for f in cuts(fits))
    del fits[:]
    assert cache.power(N) == powers[N]  # from power 39, not the trimmed walk
    assert not cuts(fits)


# Products the parser keeps the factors of: over Z the Apery polynomial's
# coefficients reach 3 and the zeta(3) polynomial's 5 (its powers' constant
# terms are 1, 5, 73, 1445, 33001), so mod p**K above that their factors'
# residues multiply to the base's, and a walk over Z^d steps by them.
ZETA3 = "(x1+x2)*(1+x3)*(x1+x2+x3)*(1+x2+x3)/(x1*x2*x3)"
FACTORED = [(APERY_POLY_SRC, 2, 3, 12), (ZETA3, 3, 5, 6)]


def expanded(lam):
    """lam without the factors it was written as."""
    return LaurentPoly(lam.arity, dict(lam.terms()), p=lam.p, K=lam.K)


def route(lam, steps=8):
    """The factors a packed walk by lam steps by, as their term counts."""
    return [len(values) for _, _, values in _packed_walk(lam, lam, steps, 0).factors]


@pytest.mark.parametrize("src,d,top,N", FACTORED)
@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("K", range(1, 7))
@COSTS
def test_factored_walks_match_expanded_and_dict(monkeypatch, src, d, top, N, p, K, costs):
    set_costs(monkeypatch, costs)
    lam = parse_poly(src, d).reduce_mod(p, K)
    plain = expanded(lam)
    factors = [len(f) for f in lam._cache["factors"]]
    assert route(lam) == (factors if p**K > top else [len(lam)])
    assert route(plain) == [len(lam)]
    powers = dict_powers(lam, N)
    caches = [PowerCache(lam), PowerCache(plain)]
    for cache in caches:
        cache.mark(range(2, N + 1, 3))
        assert cache.constant_terms(N) == [q.constant_term() for q in powers]
    for n in range(2, N + 1, 3):  # the saved powers, born from slots
        assert caches[0].power(n) == caches[1].power(n) == powers[n]
    assert caches[0].power(N + 2) == powers[-1]._mul_dict(lam)._mul_dict(lam)


@pytest.mark.parametrize("src,d,p,K,factored,lattice", [
    (APERY_POLY_SRC, 2, 2, 1, False, False),  # its residue 2 is 0: the weights differ
    (APERY_POLY_SRC, 2, 2, 2, True, False),
    ("(1-x1)*(1-x2)", 2, 3, 2, False, False),  # (m-1)**2 wraps mod m
    ("(1+x1)*(1+x2)", 2, 3, 2, False, False),  # 4 passes either way
    ("(x1+x1^-1)^3", 1, 3, 2, False, True),  # 6 passes either way
    ("(1+x1)*(1-x1)", 1, 3, 2, False, True),  # 1 - x1**2: more factor passes than terms
    ("(x1+x1^-1)*(x1+x1^-1)*(x2+x2^-1)", 2, 3, 2, False, True),  # 6 passes against 8
    # 1 + (m-1)x1 times 1 + x2 is the base over Z: 3 + 2 passes against 6
    ("(1-x1)*(1+x2)", 2, 3, 2, True, False),
])
def test_factored_route_needs_the_product_over_z(src, d, p, K, factored, lattice):
    N = 20
    lam = parse_poly(src, d, p=p, K=K)
    assert len(lam._cache["factors"]) > 1
    walk = _packed_walk(lam, lam, N, 0)
    assert (len(walk.factors) > 1, bool(walk.lat)) == (factored, lattice)
    steps = []
    for _ in range(N):
        walk.step()
        steps.append(walk.constant_term())
    assert steps == [q.constant_term() for q in dict_powers(lam, N + 1)[2:]]


def test_factored_walks_count_their_passes():
    lam = parse_poly(APERY_POLY_SRC, 2, p=5, K=2)  # 16-bit slots
    # a walk steps by the factors in 2 + 2 + 3 passes, not 8 + 3 (three residues over 1)
    assert route(lam, 30) == [2, 2, 3]
    assert sum(map(_passes, lam._cache["factors"])) == 7
    assert _passes(expanded(lam)) == 11
    exact = parse_poly(APERY_POLY_SRC, 2)
    assert _packed_walk(exact, exact, 30) is None  # exact: the dict walk
    # 162 terms, over SHIFT_ADD_TERMS: one product a step, counted as that many passes
    src = "(1+x1+x1^2)*(1+x2+x2^2)*(1+x3+x3^2)*(1+x4+x4^2)*(1+x5)"
    lam = parse_poly(src, 5, p=3, K=2)
    assert route(lam, 2) == [3, 3, 3, 3, 2]
    assert _passes(expanded(lam)) == SHIFT_ADD_TERMS
    assert constant_term_sequence(lam, 3) == constant_term_sequence(expanded(lam), 3)


def full_constant_term(factors):
    product = factors[0]
    for f in factors[1:]:
        product = product._mul_dict(f)
    return product.constant_term()


@pytest.mark.parametrize("ring", [(None, None), (2, 3), (3, 2)])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_constant_term_of_product(ring, arity):
    p, K = ring
    rng = random.Random(arity * 10 + (p or 0))

    def rand(radius, count):
        exps = [tuple(rng.randint(-radius, radius) for _ in range(arity))
                for _ in range(count)]
        return LaurentPoly(arity, {e: rng.randint(-9, 9) or 1 for e in exps}, p=p, K=K)

    for sizes in ([3, 4, 40],  # the small product (12 terms or so) is shorter
                  [9, 9, 12],  # it is longer than the largest factor
                  [5, 30], [2, 3, 4, 6], [7]):
        factors = [rand(3, n) for n in sizes]
        rng.shuffle(factors)
        assert constant_term_of_product(factors) == full_constant_term(factors)
    zero = LaurentPoly.zero(arity, p=p, K=K)
    assert constant_term_of_product([rand(2, 5), zero, rand(2, 30)]) == 0
    assert constant_term_of_product([rand(2, 5), rand(2, 6), zero]) == 0


# -- the Cartier operator ---------------------------------------------------------


def cartier_oracle(factors):
    """U_p of the dict product: its terms on pZ^d, exponents divided by p."""
    product = factors[0]
    for f in factors[1:]:
        product = product._mul_dict(f)
    return product


def dict_cartier(f, p):
    return LaurentPoly(f.arity, {tuple(x // p for x in e): c for e, c in f.terms()
                                 if not any(x % p for x in e)}, p=f.p, K=f.K)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_cartier_of_product_matches_dict_oracle(monkeypatch, p, arity):
    rng = random.Random(100 * p + arity)
    routes = []
    monkeypatch.setattr(laurent, "_cartier_dict",
                        lambda fs, q, dict_route=laurent._cartier_dict:
                        routes.append("dict") or dict_route(fs, q))

    def rand(K, radius, count):
        exps = [tuple(rng.randint(-radius, radius) for _ in range(arity))
                for _ in range(count)]
        return LaurentPoly(arity, {e: rng.randrange(1, p**K) for e in exps}, p=p, K=K)

    for K in range(1, 7):
        radius = 4 if arity < 3 else 2
        sparse = [rand(K, 10**4, 3), rand(K, 10**4, 4)]  # the dict route
        dense = [dense_poly(rng, arity, radius, p, K), dense_poly(rng, arity, 1, p, K)]
        cases = [[dense_poly(rng, arity, radius, p, K)], dense,
                 [dense_poly(rng, arity, 1, p, K), rand(K, radius, 12),
                  dense_poly(rng, arity, radius, p, K)],
                 sparse,
                 [rand(K, radius, 6), LaurentPoly.zero(arity, p=p, K=K)]]
        for factors in cases:
            calls = len(routes)
            got = cartier_of_product(factors, p)
            assert got == dict_cartier(cartier_oracle(factors), p), (K, factors)
            if factors is sparse or factors is dense:
                assert (len(routes) > calls) == (factors is sparse)
            # a packed result carries its slots; a product with it reads them
            other = dense_poly(rng, arity, 1, p, K)
            again = cartier_of_product([got, other], p)
            fresh = LaurentPoly(arity, dict(got.terms()), p=p, K=K)
            assert again == cartier_of_product([fresh, other], p)
            assert again == dict_cartier(cartier_oracle([fresh, other]), p)


@pytest.mark.parametrize("ring", [(None, None), (2, 5), (3, 4), (5, 2)])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_cartier_identity(ring, arity):
    # CT(A(x) * B(x**p)) == CT(U_p(A) * B), exactly and mod p**K
    p, K = ring
    q = p or 3
    rng = random.Random(7 * arity + q)
    for _ in range(10):
        A = LaurentPoly(arity, {tuple(rng.randint(-8, 8) for _ in range(arity)):
                                rng.randint(-50, 50) for _ in range(40)}, p=p, K=K)
        B = LaurentPoly(arity, {tuple(rng.randint(-3, 3) for _ in range(arity)):
                                rng.randint(-50, 50) for _ in range(10)}, p=p, K=K)
        lhs = (A._mul_dict(B.substitute_power(q))).constant_term()
        assert constant_term_of_product([cartier_of_product([A], q), B]) == lhs
        assert cartier_of_product([A], q) == dict_cartier(A, q)


# -- values born from slots -------------------------------------------------------


def as_dict(f):
    """f with its coefficient map built from its terms: never born from slots."""
    return LaurentPoly(f.arity, dict(f.terms()), p=f.p, K=f.K)


def born(f):
    """f as a value born from its slots; asserted to be one."""
    out = laurent._as_born(f)
    assert "len" in out._cache and out is not f
    return out


def _decoded(f):
    """f's coefficient map if it has one yet, else None."""
    try:
        return LaurentPoly._coeffs.__get__(f)
    except AttributeError:
        return None


BORN_POLYS = [(APERY_POLY_SRC, 2), (CHEB, 1), (TRIANGLE, 2), (SIMPLEX3, 3),
              # lattice bases with negative entries: rows clipped from both ends
              ("x1+x2^-1+x1^-1*x2", 2), ("x2^-1+x1*x2+x1^-1*x2^2", 2)]


@pytest.mark.parametrize("src,d", BORN_POLYS)
@pytest.mark.parametrize("p,K", [(2, 4), (3, 3), (5, 2), (3, 45)])  # 8, 16, 128 bits
def test_born_values_match_the_dict_route(src, d, p, K):
    # powers saved by a walk (over Z^d and in a lattice basis), one-shot
    # products, sums, differences and substitutions of values born from
    # slots equal the dict multiply and the dict sum; none decodes its map
    lam = parse_poly(src, d, p=p, K=K)
    cache = PowerCache(lam)
    cache.mark([2, 3, 5])
    cache.constant_terms(6)
    assert all(_decoded(cache._saved[n]) is None for n in (2, 3, 5))
    want = dict_powers(as_dict(lam), 7)
    saved = [cache.power(n) for n in range(1, 8)]  # 4, 6 and 7 walked from 3 and 5
    for n, f in enumerate(saved, 1):
        # over Z^d a walk starts from a born power's slots; in a lattice
        # basis it reads its map, as does lam itself when it was born
        assert _decoded(f) is None or n == 1 or _lattice(lam)
        assert len(f) == len(want[n]) and bool(f)
        assert f.constant_term() == want[n].constant_term()
        assert f.coefficient((n,) + (0,) * (d - 1)) == want[n].coefficient((n,) + (0,) * (d - 1))
    a, b = saved[2], saved[1]
    got = [a * b, a * lam, lam * b, a - b, b - a, a + b, a.substitute_power(p), a - a,
           constant_term_of_product([a, b, saved[0]])]
    # over Z^d none is sparse for its box (SPARSE), so none is decoded
    assert all(_decoded(f) is None for f in got[:7] + [b]) or _lattice(lam)
    assert got[-2] == LaurentPoly.zero(d, p=p, K=K) and not got[-2]
    A, B, L = want[3], want[2], want[1]
    assert got[:8] == [A._mul_dict(B), A._mul_dict(L), L._mul_dict(B),
                       A - B, B - A, A + B, A.substitute_power(p), A - A]
    assert got[-1] == constant_term_of_product([A, B, want[1]])
    assert saved == want[1:]


@pytest.mark.parametrize("p,K", [(2, 2), (3, 2), (2, 70)])
def test_born_values_that_vanish_or_empty(p, K):
    m = p**K
    a = born(line(2, range(3), p, K))
    zero = LaurentPoly.zero(1, p=p, K=K)
    assert a * zero == zero and zero * a == zero and not a * zero
    assert constant_term_of_product([a, zero]) == 0 == constant_term_of_product([zero, a])
    assert a - a == zero and (a - a).terms() == []
    assert cartier_of_product([born(line(1, (1, 2), p, K))], 5) == zero  # none on 5Z
    c = born(line(m - 1, range(4), p, K))
    assert c + born(line(1, range(4), p, K)) == zero  # every slot wraps to 0 mod m
    if p == 2 and K == 2:  # every coefficient of the product is a multiple of 4
        assert a * born(line(2, range(-2, 1), 2, 2)) == zero


@pytest.mark.parametrize("p,K", [(3, 3), (2, 40)])
def test_sparse_born_products_take_the_dict_route(monkeypatch, p, K):
    # a one-shot product of values born from slots whose box has over
    # PAIR_SLOTS slots per term pair is the dict multiply's, as for U_p; a
    # denser one is one Kronecker product; neither factor is sparse (SPARSE)
    ring = LaurentPoly.zero(3, p=p, K=K)
    bits = _slot(p**K - 1)

    def corners(n, c):  # c at two corners of an n x n x n box
        return laurent._born(ring, [-n // 2, 0, 1], [n, n, n], bits,
                             laurent._data([c] + [0] * (n**3 - 2) + [c], bits))

    routes = []
    mul_dict = LaurentPoly._mul_dict
    monkeypatch.setattr(LaurentPoly, "_mul_dict",
                        lambda a, b: routes.append((len(a), len(b))) or mul_dict(a, b))
    for n, route in ((4, True), (2, False)):  # 4 * 64 pairs against 7**3 or 3**3 slots
        a, b = corners(n, 1), corners(n, p**K - 2)
        assert _decoded(a) is None and _decoded(b) is None and len(a) == 2
        got = a * b
        assert bool(routes) == route
        assert got == mul_dict(as_dict(a), as_dict(b))
        routes.clear()


ONE_SHOT_KINDS = ["map*map", "map*born", "born*born", "monomial", "zero", "exact"]


def one_shot_factors(kinds, spread, d, p, K):
    """(a, b) of the given kinds: a with random residues, b with residues 1
    and 2, the lighter.  Spread, each is two terms at the ends of a thin box,
    63 wide when born from slots (the most that two terms may fill, SPARSE)
    and 999 for a map; a's in x1, b's in the last variable."""
    rng, m = random.Random(f"{kinds} {spread} {d} {p} {K}"), p**K
    if spread:
        wa = 63 if kinds in ("born*born", "zero") else 999
        wb = 63 if kinds in ("map*born", "born*born") else 999
        a = {(0,) * d: rng.randrange(1, m), (wa,) + (0,) * (d - 1): rng.randrange(1, m)}
        b = {(0,) * d: 1, (0,) * (d - 1) + (wb,): 2}
    else:
        a = dense_poly(rng, d, {1: 4, 2: 2, 3: 1}[d], p, K)._coeffs
        b = {e: rng.randint(1, 2) for e in product(range(-1, 2), repeat=d)}
    if kinds == "exact":  # signed integers
        return (LaurentPoly(d, {e: c - m // 2 or 1 for e, c in a.items()}),
                LaurentPoly(d, {e: -c for e, c in b.items()}))
    a, b = LaurentPoly(d, a, p=p, K=K), LaurentPoly(d, b, p=p, K=K)
    if kinds == "monomial":
        return a, LaurentPoly.monomial(d, (2,) + (-1,) * (d - 1), -1, p=p, K=K)
    if kinds == "zero":
        return born(a), LaurentPoly.zero(d, p=p, K=K)
    return (born(a) if kinds == "born*born" else a,
            b if kinds == "map*map" else born(b))


@pytest.mark.parametrize("kinds", ONE_SHOT_KINDS)
@pytest.mark.parametrize("spread", [False, True], ids=["dense", "spread"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p,K", [(2, 4), (3, 3), (3, 45)])  # 8, 16 and 128-bit slots
def test_one_shot_products_take_the_route_pair_slots_names(monkeypatch, kinds, spread,
                                                             d, p, K):
    # mod m every one-shot product, whatever each factor holds, is one
    # Kronecker product in slots for (m-1) times the lighter weight, unless
    # a factor's coefficient map has over SPARSE box slots per term or the
    # box has over PAIR_SLOTS slots per term pair; exact coefficients take
    # the dict multiply; a zero factor takes neither; no product walks
    a, b = one_shot_factors(kinds, spread, d, p, K)
    routes, mul_dict, kronecker = [], LaurentPoly._mul_dict, laurent._kronecker
    monkeypatch.setattr(LaurentPoly, "_mul_dict",
                        lambda f, g: routes.append("dict") or mul_dict(f, g))
    monkeypatch.setattr(laurent, "_kronecker",
                        lambda fs, wide: routes.append("packed") or kronecker(fs, wide))
    monkeypatch.setattr(laurent, "_packed_walk", None)  # a product never walks
    got = [a * b, b * a]
    terms = [dict(f.terms()) for f in (a, b)]
    spans = [[max(c) - min(c) for c in zip(*t)] for t in terms if t]
    sparse = any("len" not in f._cache and len(f) * laurent.SPARSE < prod(s + 1 for s in f_spans)
                 for f, f_spans in zip((a, b), spans))
    packs = (a.modulus is not None and len(spans) == 2 and not sparse and len(a) * len(b)
             * laurent.PAIR_SLOTS >= prod(x + y + 1 for x, y in zip(*spans)))
    # dense pairs pack; spread ones take the dict multiply, but for two
    # born factors in one variable (4 pairs against 127 slots)
    if kinds not in ("zero", "exact"):
        assert packs == (not spread or d == 1 and kinds == "born*born")
        assert sparse == (spread and kinds != "born*born")  # a spread map
    route = [] if kinds == "zero" else ["packed" if packs else "dict"]
    assert routes == route * 2
    if packs:  # born from slots in the narrowest width for the lighter weight
        bits = _slot((p**K - 1) * min(sum(t.values()) for t in terms))
        assert [[k for k in f._cache if isinstance(k, int)] for f in got] == [[bits]] * 2
    assert got[0] == got[1] == mul_dict(as_dict(a), as_dict(b))


@pytest.mark.parametrize("bits,new", [(8, 16), (16, 8), (8, 64), (64, 128), (128, 16),
                                      (192, 128), (32, 32)])
def test_slot_widths_convert(bits, new):
    rng = random.Random(bits + new)
    values = [rng.randrange(256) for _ in range(37)] + [0, 255]
    data = laurent._data(values, bits)
    assert list(laurent._values(laurent._rewidth(data, bits, new), new)) == values


# Exact walks: the dict walk, cut after its last kept power to the exponents
# a later constant term reads.
EXACT_WALKS = [
    (CHEB, 1), ("x1+x1^2", 1),  # a box that leaves out the origin
    ("2*x1-x1^-1+3-x1^-2", 1),
    (APERY_POLY_SRC, 2), ("x1+x2+1/(x1*x2)-3", 2), ("x1-x1^-1+2*x2-x2^-1*x1", 2),
    (SIMPLEX3, 3), ("x1+x2*x3^-1-2*x3+x1^-1*x2^-1+1", 3),
]


@pytest.mark.parametrize("src,d", EXACT_WALKS)
def test_exact_walks_match_dict_walk(src, d):
    lam = parse_poly(src, d)
    assert _packed_walk(lam, lam, 1) is None
    want = [q.constant_term() for q in dict_powers(lam, 24)]
    for N in (0, 1, 2, 24):
        assert constant_term_sequence(lam, N) == want[:N + 1]
    cache = PowerCache(lam)
    cache.mark([3, 8, 13])
    assert cache.constant_terms(20) == want[:21]
    for n in (3, 8, 13):  # saved before the cut: whole powers
        assert cache._saved[n] == dict_powers(lam, n)[n]
    assert cache.power(16) == dict_powers(lam, 16)[16]  # walked on from 13, uncut


def test_exact_walk_from_outside_the_cut_box():
    # every exponent of base is positive, so with k steps to come a constant
    # term reads exponents in [-2k, 0], the origin's end included
    base = parse_poly("x1+x1^2", 1)
    cur = parse_poly("x1^-9+3*x1^-6-x1^-4+2*x1^-1+5+x1^3", 1)
    powers = [cur]
    for _ in range(8):
        powers.append(powers[-1]._mul_dict(base))
    walk = laurent._walk(cur, base, 8, 0)
    got = []
    for _ in range(8):
        walk.step()
        got.append(walk.constant_term())
    assert got == [q.constant_term() for q in powers[1:]]


def test_exact_walks_carry_half_the_terms(monkeypatch):
    # exact Apery to N = 60: the running powers multiplied, cut against
    # whole, and the walk's estimate against the work it does
    lam, N = parse_poly(APERY_POLY_SRC, 2), 60
    whole = sum(map(len, dict_powers(lam, N - 1)[1:]))
    carried, mul_dict = [], LaurentPoly._mul_dict
    monkeypatch.setattr(LaurentPoly, "_mul_dict",
                        lambda f, g: carried.append(max(len(f), len(g))) or mul_dict(f, g))
    assert constant_term_sequence(lam, N) == apery_numbers_mod(N, 10**200)
    assert len(carried) == N - 1 and 2 * sum(carried) <= whole
    estimate = laurent._dict_walk_work(lam, lam, N - 1, 0)
    pairs = len(lam) * sum(carried)
    assert pairs * laurent.DICT_PAIR < estimate < 2 * pairs * laurent.DICT_PAIR
    assert estimate < laurent._dict_walk_work(lam, lam, N - 1, N - 1) / 2  # uncut

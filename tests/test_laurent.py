import math
import random
from operator import add, mul, sub

import pytest

from dworkcong.laurent import (
    LaurentPoly,
    PowerCache,
    TruncSeries,
    constant_term_of_product,
    constant_term_sequence,
)


def xpow(e, c=1, **ring):
    return LaurentPoly(1, {(e,): c}, **ring)


def random_poly(rng, arity, nterms, ring=None):
    coeffs = {}
    for _ in range(nterms):
        e = tuple(rng.randint(-4, 4) for _ in range(arity))
        coeffs[e] = rng.randint(-9, 9)
    p, K = ring if ring else (None, None)
    return LaurentPoly(arity, coeffs, p=p, K=K)


def dense_product_oracle(A, B):
    """Full product computed on a dense grid (independent of the sparse path)."""
    d = A.arity
    lo = [min(e[t] for e in list(A.support()) + list(B.support())) * 2 - 1
          for t in range(d)]
    hi = [max(e[t] for e in list(A.support()) + list(B.support())) * 2 + 1
          for t in range(d)]
    out = {}
    for ea in A.support():
        for eb in B.support():
            e = tuple(x + y for x, y in zip(ea, eb))
            assert all(lo[t] <= e[t] <= hi[t] for t in range(d))
            out[e] = out.get(e, 0) + A.coefficient(ea) * B.coefficient(eb)
    return {e: c for e, c in out.items() if c}


# -- ring operations ----------------------------------------------------------


def test_difference_of_squares():
    a = xpow(1) + xpow(-1)
    b = xpow(1) - xpow(-1)
    assert a * b == xpow(2) - xpow(-2)


def test_add_negation_cancels():
    rng = random.Random(1)
    a = random_poly(rng, 2, 6)
    assert a + (-a) == LaurentPoly.zero(2)
    assert not (a - a)


def test_square_mod_4():
    a = LaurentPoly(1, {(1,): 1, (0,): 1}, p=2, K=2)
    assert a * a == LaurentPoly(1, {(2,): 1, (1,): 2, (0,): 1}, p=2, K=2)


def test_ring_and_arity_mismatch():
    with pytest.raises(ValueError):
        xpow(1) + LaurentPoly(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        xpow(1) * xpow(1, p=5, K=1)
    with pytest.raises(ValueError):
        xpow(1, p=5, K=1) + xpow(1, p=5, K=2)


@pytest.mark.parametrize("other", ["x", 1.5, None, TruncSeries(5, 1, 2, [1, 1])],
                         ids=["str", "float", "None", "series"])
@pytest.mark.parametrize("ring", [(None, None), (5, 1)])
def test_operators_refuse_unsupported_operands(other, ring):
    # each operator returns NotImplemented, so Python raises TypeError, on
    # either side of a polynomial or a series; == stays False
    p, K = ring
    values = [xpow(1, p=p, K=K) + 1, TruncSeries(5, 1, 2, [1, 2])]
    if isinstance(other, TruncSeries):
        values = values[:1]  # a series with a series is the series kernel
    pairs = [(value, other) for value in values] + [(other, value) for value in values]
    if isinstance(other, TruncSeries):  # a series takes no int either
        pairs += [(other, 2), (2, other)]
    for op in (add, sub, mul):
        for a, b in pairs:
            with pytest.raises(TypeError):
                op(a, b)
    assert all(value != other and not value == other for value in values)


def test_canonical_form_drops_zeros():
    a = LaurentPoly(1, {(0,): 6, (1,): 10}, p=5, K=1)
    assert a.support() == [(0,)]
    assert a.coefficient((0,)) == 1
    assert len(a) == 1


def test_scalar_multiplication():
    a = xpow(1) + 3
    assert 2 * a == a + a
    assert 0 * a == LaurentPoly.zero(1)


# -- powering -----------------------------------------------------------------


def pow_oracle(f, n):
    """f**n by binary powering over the term-by-term product, independent of
    the walk that `**` and `PowerCache` share."""
    result, base = LaurentPoly.one(f.arity, p=f.p, K=f.K), f
    while n:
        if n & 1:
            result = result._mul_dict(base)
        n >>= 1
        base = base._mul_dict(base)
    return result


def test_pow_examples():
    lam = xpow(1) + xpow(-1)
    assert lam**0 == LaurentPoly.one(1)
    assert lam**2 == xpow(2) + 2 + xpow(-2)


def test_pow_additivity_random():
    rng = random.Random(42)
    for _ in range(10):
        a = random_poly(rng, rng.choice([1, 2]), 3)
        if not a:
            continue
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        assert a ** (m + n) == a**m * a**n


@pytest.mark.parametrize("ring", [None, (3, 2), (2, 70)])
def test_pow_matches_binary_powering_oracle(ring):
    # walks for two or more terms; a monomial (whose residue may vanish, as
    # (3*x1)**2 mod 9) or 0 scales its exponent
    rng = random.Random(5)
    for nterms in (0, 1, 1, 2, 3, 5):
        a = random_poly(rng, rng.choice([1, 2, 3]), nterms, ring)
        for n in (0, 1, 2, 3, 7, 12):
            assert a**n == pow_oracle(a, n), (a, n)
    three = LaurentPoly(1, {(1,): 3}, p=3, K=2)
    assert three**2 == LaurentPoly.zero(1, p=3, K=2)


def test_product_matches_dense_oracle():
    rng = random.Random(9)
    for _ in range(12):
        arity = rng.choice([1, 2, 3])
        a = random_poly(rng, arity, 5)
        b = random_poly(rng, arity, 4)
        assert dict((a * b).terms()) == dense_product_oracle(a, b)


# -- substitution and extraction ----------------------------------------------


def test_substitute_power_examples():
    lam = xpow(1) + xpow(-1)
    assert lam.substitute_power(2) == xpow(2) + xpow(-2)
    assert lam.substitute_power(1) == lam
    a = LaurentPoly(2, {(0, 0): 3, (1, -1): 1})
    assert a.substitute_power(3) == LaurentPoly(2, {(0, 0): 3, (3, -3): 1})
    with pytest.raises(ValueError):
        lam.substitute_power(0)


def test_coefficient_extraction():
    lam = xpow(1) + xpow(-1)
    assert (lam**2).constant_term() == 2
    assert xpow(2).coefficient((0,)) == 0
    with pytest.raises(ValueError):
        xpow(2).coefficient((0, 0))


def test_constant_term_sequence_central_binomials():
    lam = xpow(1) + xpow(-1)
    got = constant_term_sequence(lam, 8)
    expected = [math.comb(n, n // 2) if n % 2 == 0 else 0 for n in range(9)]
    assert got == expected


def test_constant_term_sequence_constant_poly():
    lam = LaurentPoly.constant(1, 5)
    assert constant_term_sequence(lam, 2) == [1, 5, 25]


def test_constant_term_of_product_matches_full():
    rng = random.Random(77)
    for _ in range(10):
        arity = rng.choice([1, 2])
        fs = [random_poly(rng, arity, rng.randint(1, 5)) for _ in range(3)]
        full = fs[0] * fs[1] * fs[2]
        assert constant_term_of_product(fs) == full.constant_term()


# -- power cache ---------------------------------------------------------------


def test_power_cache_agrees_with_pow():
    lam = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 2})
    cache = PowerCache(lam)
    cache.mark([4, 6])
    assert cache.constant_terms(8) == constant_term_sequence(lam, 8)
    for n in (0, 1, 4, 6, 7):
        assert cache.power(n) == pow_oracle(lam, n)


def test_power_cache_out_of_order_requests():
    lam = xpow(1) + xpow(-1)
    cache = PowerCache(lam)
    assert cache.power(10) == pow_oracle(lam, 10)
    assert cache.power(7) == pow_oracle(lam, 7)  # behind the furthest point, still fine


# -- truncated series -----------------------------------------------------------


def test_series_invert_geometric():
    f = TruncSeries(7, 1, 3, [1, -1])
    assert f.invert().coeffs == [1, 1, 1, 1]


def test_series_compose_xp():
    f = TruncSeries(5, 1, 10, [1, 3])
    assert f.compose_xp().coeffs == [1, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0]


def test_series_invert_requires_unit():
    f = TruncSeries(5, 2, 3, [5, 1])
    with pytest.raises(ValueError, match="^constant term 5 is not a unit mod 5; "
                       "series not invertible$"):
        f.invert()


def invert_oracle(f):
    """The inverse by the quadratic recurrence g_n = -g_0 sum_{i=1..n} f_i g_{n-i}."""
    m, c = f.modulus, f.coeffs
    g = [pow(c[0], -1, m)]
    for n in range(1, f.N + 1):
        g.append(-g[0] * sum(c[i] * g[n - i] for i in range(1, n + 1)) % m)
    return g


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_series_invert_matches_quadratic_oracle(p, K):
    rng = random.Random(100 * p + K)
    m = p**K
    for N in (0, 1, 2, 63, 144, 300):
        coeffs = [rng.randrange(m) for _ in range(N + 1)]
        coeffs[0] = rng.choice([u for u in range(1, m) if u % p])
        f = TruncSeries(p, K, N, coeffs)
        for g in (f, f.compose_xp()):
            assert g.invert().coeffs == invert_oracle(g), (N, g)


def test_series_mul_inverse_is_one():
    rng = random.Random(123)
    for p, K, N in [(2, 3, 12), (5, 2, 9), (7, 1, 15)]:
        coeffs = [rng.randrange(p**K) for _ in range(N + 1)]
        coeffs[0] = 1 + p * rng.randrange(p ** (K - 1))
        f = TruncSeries(p, K, N, coeffs)
        one = [1] + [0] * N
        assert (f * f.invert()).coeffs == one


def test_series_mul_truncates():
    f = TruncSeries(5, 1, 2, [0, 1])
    assert (f * f).coeffs == [0, 0, 1]
    assert ((f * f) * f).coeffs == [0, 0, 0]


def test_series_context_mismatch():
    with pytest.raises(ValueError):
        TruncSeries(5, 1, 2, [1]) * TruncSeries(5, 1, 3, [1])


# -- printing -------------------------------------------------------------------


def test_str_deterministic_and_readable():
    lam = LaurentPoly(2, {(0, 0): 3, (1, 0): 1, (-1, -1): -2})
    assert str(lam) == "-2*x1^-1*x2^-1 + 3 + x1"
    assert str(LaurentPoly.zero(2)) == "0"

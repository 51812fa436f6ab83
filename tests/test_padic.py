import random

import pytest

from dworkcong.padic import (
    PRIME_TEST_BOUND,
    PadicInt,
    hensel_quadratic_unit_root,
    is_prime,
    teichmuller,
)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    assert [n for n in range(2, 25) if is_prime(n)] == primes
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_ring_ops_examples():
    assert (PadicInt(5, 2, 24) + PadicInt(5, 2, 1)).residue == 0
    assert (PadicInt(5, 2, 7) * PadicInt(5, 2, 7)).residue == 49 % 25 == 24
    assert (-PadicInt(2, 3, 3)).residue == 8 - 3 == 5
    assert (PadicInt(3, 2, 5) - PadicInt(3, 2, 7)).residue == -2 % 9


def test_mixed_context_rejected():
    with pytest.raises(ValueError):
        PadicInt(5, 2, 1) + PadicInt(5, 3, 1)
    with pytest.raises(ValueError):
        PadicInt(5, 2, 1) * PadicInt(7, 2, 1)


def test_construction_validates():
    with pytest.raises(ValueError):
        PadicInt(4, 2, 1)
    with pytest.raises(ValueError):
        PadicInt(5, 0, 1)
    assert PadicInt(5, 2, -1).residue == 24
    assert PadicInt(5, 2, 26).residue == 1


def test_valuation_examples():
    assert PadicInt(5, 3, 50).valuation() == 2
    assert PadicInt(5, 3, 3).valuation() == 0
    assert PadicInt(5, 3, 0).valuation() == 3


def test_unit_inverse_examples():
    assert PadicInt(5, 2, 3).inverse().residue == 17
    assert 3 * 17 % 25 == 1
    assert PadicInt(5, 2, 1).inverse().residue == 1
    with pytest.raises(ValueError):
        PadicInt(5, 2, 5).inverse()


def test_unit_inverse_random_units():
    rng = random.Random(20240)
    for p, K in [(2, 8), (3, 5), (5, 4), (13, 3)]:
        m = p**K
        for _ in range(50):
            a = rng.randrange(1, m)
            if a % p == 0:
                continue
            x = PadicInt(p, K, a)
            assert (x * x.inverse()).residue == 1


def test_teichmuller_examples():
    assert teichmuller(5, 1, 4).residue == 1
    z = teichmuller(5, 2, 2)
    assert z.residue == 7 and pow(7, 4, 25) == 1
    assert teichmuller(7, 6, 2).residue == 48  # lift of -1 is -1


def test_teichmuller_defining_properties():
    for p in (2, 3, 5, 7, 13):
        for K in range(1, 9):
            for t in range(1, p):
                z = teichmuller(p, t, K)
                assert pow(z.residue, p - 1, p**K) == 1
                assert z.residue % p == t


def test_teichmuller_precision_coherence():
    for p in (3, 5, 7):
        for t in range(1, p):
            for K in range(2, 7):
                hi = teichmuller(p, t, K)
                lo = teichmuller(p, t, K - 1)
                assert hi.reduce_precision(K - 1) == lo


def test_teichmuller_rejects_zero_residue():
    with pytest.raises(ValueError):
        teichmuller(5, 0, 3)
    with pytest.raises(ValueError):
        teichmuller(5, 10, 3)


def test_hensel_examples():
    assert hensel_quadratic_unit_root(PadicInt(5, 1, 2)).residue == 2
    u = hensel_quadratic_unit_root(PadicInt(5, 2, 2))
    assert u.residue == 12
    assert (12 * 12 - 2 * 12 + 5) % 25 == 0
    with pytest.raises(ValueError):
        hensel_quadratic_unit_root(PadicInt(5, 2, 5))


@pytest.mark.parametrize("p,K", [(2, 6), (3, 5), (5, 4), (7, 4), (11, 3)])
def test_hensel_properties(p, K):
    rng = random.Random(7 * p + K)
    m = p**K
    for _ in range(25):
        a = rng.randrange(1, m)
        if a % p == 0:
            continue
        u = hensel_quadratic_unit_root(PadicInt(p, K, a))
        assert (u.residue**2 - a * u.residue + p) % m == 0
        assert u.residue % p == a % p
        assert u.is_unit()


def test_pow_and_reduce():
    x = PadicInt(7, 3, 12)
    assert (x**5).residue == pow(12, 5, 343)
    assert x.reduce_precision(1).residue == 12 % 7
    with pytest.raises(ValueError):
        x.reduce_precision(4)


PSI_12 = 318665857834031151167461  # strong pseudoprime to every base up to 37


def test_is_prime_beyond_base_37():
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    assert is_prime(399165290221) and is_prime(798330580441)


def test_context_refuses_p_beyond_exact_primality():
    below = next(n for n in range(PRIME_TEST_BOUND - 2, 0, -2) if is_prime(n))
    assert PadicInt(below, 1, 5).residue == 5
    with pytest.raises(ValueError, match="too large"):
        PadicInt(2**89 - 1, 1, 0)
    with pytest.raises(ValueError, match="not prime"):
        PadicInt(PSI_12, 1, 0)

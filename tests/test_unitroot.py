import math
import random
from itertools import product

import pytest

from dworkcong.apery import apery_numbers, apery_numbers_mod
from dworkcong.padic import PadicInt, teichmuller
from dworkcong.unitroot import (
    CUBIC_MONOMIALS,
    QUAD_MONOMIALS,
    FqField,
    PlaneCubic,
    ZetaReport,
    a_p,
    apery_fiber,
    count_projective_points,
    dwork_domain_test,
    finite_field,
    is_smooth_cubic,
    omega_approx,
    smallest_irreducible,
    unit_root_compare,
    unit_root_sweep,
)
from dworkcong.unitroot import _check_work
from smooth_oracle import (
    _has_singular_point_charts,
    _has_singular_point_naive,
    search_is_smooth,
)

# Frozen by exhaustive search: a plane cubic over F_2 with no projective point.
POINTLESS_F2 = (1, 0, 0, 1, 1, 1, 1, 0, 1, 1)


# -- Dwork domain ------------------------------------------------------------------


def test_domain_examples():
    b = apery_numbers(10)
    assert dwork_domain_test(b, 5, 0)  # b_0 = 1 is a unit
    # f_1 mod 5 = 1 + 3X + 4X^2 + 2X^3 + X^4 vanishes exactly at z = 2
    roots = [z for z in range(5) if not dwork_domain_test(b, 5, z)]
    assert roots == [2]
    constant = [1] + [0] * 12
    assert all(dwork_domain_test(constant, 13, z) for z in range(13))


def test_domain_closure_under_frobenius():
    b = apery_numbers(15)
    for p in (2, 3, 5, 7, 11, 13):
        for z in range(p):
            if dwork_domain_test(b, p, z):
                assert dwork_domain_test(b, p, pow(z, p, p))


# -- omega approximants --------------------------------------------------------------


def test_omega_s1_is_f1_over_b0():
    b = apery_numbers(10)
    for p in (5, 7):
        for t in range(1, p):
            if not dwork_domain_test(b, p, t):
                continue
            z = teichmuller(p, t, 1)
            om = omega_approx(b, p, z, 1)
            f1 = sum(b[n] * t**n for n in range(p)) % p
            assert om.residue == f1 % p


def test_omega_congruent_to_f1_mod_p_for_all_s():
    p = 5
    b = apery_numbers_mod(p**3 - 1, p**3)
    for t in range(1, p):
        if not dwork_domain_test(b, p, t):
            continue
        f1 = sum(b[n] * t**n for n in range(p)) % p
        for s in (1, 2, 3):
            om = omega_approx(b, p, teichmuller(p, t, s), s)
            assert om.residue % p == f1


def test_omega_cauchy_property_small():
    for p in (5, 7):
        b = apery_numbers_mod(p**3 - 1, p**3)
        for t in range(1, p):
            if not dwork_domain_test(b, p, t):
                continue
            prev = None
            for s in (1, 2, 3):
                om = omega_approx(b, p, teichmuller(p, t, s), s)
                if prev is not None:
                    assert om.residue % p ** (s - 1) == prev.residue
                prev = om


def test_omega_preconditions():
    b = apery_numbers(30)
    with pytest.raises(ValueError):
        omega_approx(b, 5, teichmuller(5, 1, 1), 2)  # precision of z too low
    with pytest.raises(ValueError):
        omega_approx(b[:3], 5, teichmuller(5, 1, 1), 1)  # b too short
    # z = 2 is outside the domain at p=5: reported, not asserted away
    b25 = apery_numbers_mod(24, 25)
    with pytest.raises(ValueError):
        omega_approx(b25, 5, PadicInt(5, 2, 2), 2)


# -- finite fields ---------------------------------------------------------------------


def test_smallest_irreducible_known_values():
    # first in lexicographic order of (constant, ..., top) coefficients
    assert smallest_irreducible(2, 1) == (0,)        # x
    assert smallest_irreducible(2, 2) == (1, 1)      # x^2 + x + 1
    assert smallest_irreducible(2, 3) == (1, 0, 1)   # x^3 + x^2 + 1
    assert smallest_irreducible(3, 2) == (1, 0)      # x^2 + 1
    assert smallest_irreducible(5, 1) == (0,)


def test_smallest_irreducible_is_irreducible():
    # independent check: the chosen modulus never factors with a proper root
    # and the resulting field has the right multiplicative order
    for p, k in [(2, 4), (3, 3), (5, 2), (7, 2), (11, 2)]:
        F = finite_field(p, k)
        seen = set(F.elements())
        assert len(seen) == p**k
        # x (the generator image) has some order dividing q-1 and the ring is
        # a field iff every nonzero element is invertible
        for a in list(seen)[:50]:
            if a != F.zero:
                assert F.mul(a, F.inv(a)) == F.one


def test_field_axioms_random():
    rng = random.Random(99)
    for p, k in [(2, 4), (3, 3), (5, 2), (7, 2)]:
        F = finite_field(p, k)
        els = list(F.elements())
        assert len(els) == p**k
        for _ in range(40):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert F.mul(a, b) == F.mul(b, a)
            assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, F.neg(a)) == F.zero
            if a != F.zero:
                assert F.mul(a, F.inv(a)) == F.one
            assert F.pow(a, F.q) == a  # Frobenius fixed point count


def test_field_sqrt():
    F = finite_field(7, 2)
    for a in F.elements():
        sq = F.mul(a, a)
        r = F.sqrt(sq)
        assert r is not None and F.mul(r, r) == sq
    # count non-squares: (q-1)/2 of the nonzero elements
    non = sum(1 for a in F.elements() if F.sqrt(a) is None)
    assert non == (F.q - 1) // 2


def test_fqfield_standalone_constructor():
    F = FqField(3, 2)
    assert F.q == 9 and F.modulus == (1, 0)
    with pytest.raises(ValueError):
        FqField(4, 2)


# -- plane cubics -----------------------------------------------------------------------


def test_apery_fiber_coefficients():
    c = apery_fiber(5, 1)
    by_mono = dict(zip(
        ((3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
         (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3)),
        c.coeffs,
    ))
    assert by_mono[(1, 1, 1)] == (3 * 1 - 1) % 5 == 2
    assert by_mono[(3, 0, 0)] == 0
    assert by_mono[(0, 3, 0)] == 0
    assert by_mono[(0, 0, 3)] == 1
    with pytest.raises(ValueError):
        apery_fiber(5, 0)
    with pytest.raises(ValueError):
        apery_fiber(5, 10)


def test_count_projective_points_examples():
    xyz = PlaneCubic(2, (0, 0, 0, 0, 1, 0, 0, 0, 0, 0))
    assert count_projective_points(xyz) == 6
    pointless = PlaneCubic(2, POINTLESS_F2)
    assert count_projective_points(pointless) == 0


def test_count_matches_naive_affine_enumeration():
    # brute-force re-enumeration over all of F_p^3 modulo scaling
    c = apery_fiber(7, 3)
    seen = set()
    for x, y, z in product(range(7), repeat=3):
        if (x, y, z) == (0, 0, 0) or c.evaluate(x, y, z) != 0:
            continue
        for lam in range(1, 7):
            rep = (x * lam % 7, y * lam % 7, z * lam % 7)
            if rep in seen:
                break
        else:
            seen.add((x, y, z))
    assert count_projective_points(c) == len(seen)


def test_smoothness_examples():
    xyz = PlaneCubic(2, (0, 0, 0, 0, 1, 0, 0, 0, 0, 0))
    assert not is_smooth_cubic(xyz)  # singular at (1:0:0) etc.
    fermat5 = PlaneCubic(5, (1, 0, 0, 0, 0, 0, 1, 0, 0, 1))
    assert is_smooth_cubic(fermat5)
    # the nodal fiber of the family at p=5 sits at t=2
    assert not is_smooth_cubic(apery_fiber(5, 2))
    for t in (1, 3, 4):
        assert is_smooth_cubic(apery_fiber(5, t))


def test_smoothness_chart_search_matches_naive():
    rng = random.Random(4096)
    for p in (5, 7):
        for k in (1, 2):
            for _ in range(12):
                coeffs = tuple(rng.randrange(p) for _ in range(10))
                if not any(coeffs):
                    continue
                c = PlaneCubic(p, coeffs)
                assert (_has_singular_point_charts(c, k)
                        == _has_singular_point_naive(c, k)), (p, k, coeffs)
        for t in range(1, p):
            c = apery_fiber(p, t)
            for k in (1, 2):
                assert (_has_singular_point_charts(c, k)
                        == _has_singular_point_naive(c, k)), (p, t, k)


def test_smoothness_matches_oracle_on_all_f2_cubics():
    # 28 of them have their first singular point over F_4 and 8 over F_8
    smooth = 0
    for coeffs in product(range(2), repeat=10):
        if any(coeffs):
            c = PlaneCubic(2, coeffs)
            assert is_smooth_cubic(c) == search_is_smooth(c), coeffs
            smooth += is_smooth_cubic(c)
    assert 0 < smooth < 1023


def _line_times_conic(p, line, conic):
    prod = dict.fromkeys(CUBIC_MONOMIALS, 0)
    for m1, a in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), line):
        for m2, b in zip(QUAD_MONOMIALS, conic):
            mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            prod[mono] = (prod[mono] + a * b) % p
    return PlaneCubic(p, tuple(prod[m] for m in CUBIC_MONOMIALS))


def test_smoothness_matches_oracle_on_line_conic_products():
    # a line times a conic is singular where they meet, which may be only
    # over F_{p**2}: the rank test must see points the F_p scan cannot
    rng = random.Random(2024)
    for p in (3, 5, 7):
        search = _has_singular_point_naive if p <= 3 else _has_singular_point_charts
        nonsquare = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) != 1)
        cubics = [_line_times_conic(p, (0, 0, 1), (1, 0, 0, -nonsquare, 0, 1))]
        while len(cubics) < 40:
            line = [rng.randrange(p) for _ in range(3)]
            conic = [rng.randrange(p) for _ in range(6)]
            if any(line) and any(conic):
                cubics.append(_line_times_conic(p, line, conic))
        assert not search(cubics[0], 1)
        for c in cubics:
            assert not is_smooth_cubic(c) and not search_is_smooth(c), (p, c)
        assert sum(not search(c, 1) for c in cubics) >= 2, p


def test_smoothness_matches_oracle_on_apery_fibers():
    for p in (2, 3, 5, 7):
        for t in range(1, p):
            c = apery_fiber(p, t)
            assert is_smooth_cubic(c) == search_is_smooth(c), (p, t)


def test_apery_fibers_singular_exactly_at_beukers_points():
    # the singular points of the Apery zeta(2) equation: t**2 + 11t - 1 = 0
    for p in range(2, 100):
        if any(p % d == 0 for d in range(2, p)):
            continue
        for t in range(1, p):
            singular = (t * t + 11 * t - 1) % p == 0
            assert is_smooth_cubic(apery_fiber(p, t)) != singular, (p, t)


def test_smoothness_in_characteristic_three_needs_f():
    # X**3 + Y**3 + Z**3 - XYZ over F_3: the partials -YZ, -XZ, -XY vanish
    # together at (1:0:0), off the curve, so only F's own multiples make the
    # quintics span and the cubic count as smooth
    c = PlaneCubic(3, (1, 0, 0, 0, -1, 0, 1, 0, 0, 1))
    assert all(q[0] == 0 for q in c.partials()) and c.evaluate(1, 0, 0) != 0
    assert is_smooth_cubic(c) and search_is_smooth(c)


def test_work_budget():
    # admitted: the largest sweeps the suite and the benchmark run, and a
    # p = 101 sweep; refused: a large p, a deep s and s far beyond any p**s
    for p, s, fibers in [(3, 9, 2), (7, 5, 6), (5, 6, 4), (19, 1, 18), (101, 2, 100)]:
        _check_work(p, s, fibers)
    for p, s, fibers in [(1000003, 1, 1), (2, 40, 1), (2, 10**12, 1), (3, 15, 2)]:
        with pytest.raises(ValueError, match="budget"):
            _check_work(p, s, fibers)
    with pytest.raises(ValueError, match="s must be"):
        _check_work(5, 0, 4)


def test_a_p_requires_smooth():
    with pytest.raises(ValueError):
        a_p(apery_fiber(5, 2))
    assert a_p(apery_fiber(5, 1)) == 1


def test_hasse_bound_smooth_fibers():
    for p in (5, 7, 11, 13):
        for t in range(1, p):
            c = apery_fiber(p, t)
            if is_smooth_cubic(c):
                ap = p + 1 - count_projective_points(c)
                assert ap * ap <= 4 * p, (p, t)


def test_hasse_invariant_congruence():
    for p in (5, 7, 11, 13):
        b = apery_numbers_mod(p - 1, p)
        for t in range(1, p):
            c = apery_fiber(p, t)
            if not is_smooth_cubic(c):
                continue
            ap = p + 1 - count_projective_points(c)
            f1 = sum(b[n] * t**n for n in range(p)) % p
            assert ap % p == f1, (p, t)


def test_ordinary_iff_domain_test():
    for p in (5, 7, 11, 13):
        b = apery_numbers_mod(p - 1, p)
        for t in range(1, p):
            c = apery_fiber(p, t)
            if not is_smooth_cubic(c):
                continue
            ap = p + 1 - count_projective_points(c)
            assert (ap % p != 0) == dwork_domain_test(b, p, t), (p, t)


# -- the cross-check -----------------------------------------------------------------


def test_unit_root_compare_agreement():
    for p in (5, 7):
        for s in (1, 2):
            for t in range(1, p):
                r = unit_root_compare(p, t, s)
                assert r.p == p and r.t == t
                if r.smooth and r.ordinary:
                    assert r.agree, (p, t, s)
                    assert r.unit_root % p == r.a_p % p
                if not r.smooth:
                    assert r.a_p is None and r.agree is None


def test_unit_root_report_shapes():
    singular = unit_root_compare(5, 2, 2).as_dict()
    assert list(singular) == ["p", "t", "smooth", "count"]
    full = unit_root_compare(5, 1, 2).as_dict()
    assert list(full) == [
        "p", "t", "smooth", "count", "a_p", "ordinary",
        "hasse_lhs", "hasse_rhs", "hasse_agree",
        "s", "unit_root", "omega", "agree",
    ]


def test_unit_root_supersingular_reporting():
    # every smooth fiber at p <= 13 turns out ordinary; the first prime with
    # supersingular fibers is 19 (found by scanning the Hasse invariant)
    for p in (5, 7, 11, 13):
        for t in range(1, p):
            r = unit_root_compare(p, t, 1)
            assert not (r.smooth and not r.ordinary), (p, t)
    r = unit_root_compare(19, 1, 1)
    assert r.smooth and not r.ordinary
    assert r.a_p == 0
    assert r.unit_root is None and r.agree is None
    assert list(r.as_dict()) == [
        "p", "t", "smooth", "count", "a_p", "ordinary",
        "hasse_lhs", "hasse_rhs", "hasse_agree",
    ]


def test_unit_root_input_validation():
    with pytest.raises(ValueError):
        unit_root_compare(5, 0, 1)
    with pytest.raises(ValueError):
        unit_root_compare(5, 1, 0)


def test_sweep_order_and_jobs():
    seq = unit_root_sweep(5, 1)
    assert [r.t for r in seq] == [1, 2, 3, 4]
    par = unit_root_sweep(5, 1, jobs=2)
    assert [r.as_dict() for r in par] == [r.as_dict() for r in seq]


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, forks nothing."""

    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_sweep_jobs_clamped(monkeypatch):
    import concurrent.futures
    import os

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    seq = [r.as_dict() for r in unit_root_sweep(5, 1)]
    _SerialPool.workers.clear()
    for cpus, jobs, used in [(64, 10**9, 4), (3, 10**9, 3), (None, 8, None),
                             (64, 2, 2), (64, 1, None)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        got = [r.as_dict() for r in unit_root_sweep(5, 1, jobs=jobs)]
        assert got == seq
        assert _SerialPool.workers == ([used] if used else [])
        _SerialPool.workers.clear()
    with pytest.raises(ValueError):
        unit_root_sweep(5, 1, jobs=0)


def test_zeta_report_is_frozen_dataclass():
    r = ZetaReport(p=5, t=1, smooth=True, count=5)
    with pytest.raises(Exception):
        r.count = 6


def test_hasse_bound_constant():
    assert math.isqrt(4 * 5) == 4  # |a_p| <= 4 at p = 5

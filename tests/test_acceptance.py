"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.
"""

import math
import time
from fractions import Fraction

import pytest

from dworkcong.apery import apery_numbers, apery_numbers_mod, apery_polynomial
from dworkcong.cli import main as cli_main
from dworkcong.congruence import check_c1, check_c2, check_dig2, run_lemma_suite
from dworkcong.ghost import (
    GhostCalculator,
    c_from_b_sequence,
    enumerate_indecomposable,
    enumerate_tuples,
    is_indecomposable,
    is_valid_tuple,
    length_p,
    reconstruct_b,
)
from dworkcong.laurent import constant_term_sequence
from dworkcong.padic import teichmuller
from dworkcong.polyparse import parse_poly
from dworkcong.polytope import LatticePolytope, is_admissible, newton_polytope
from dworkcong.unitroot import dwork_domain_test, omega_approx, unit_root_sweep
from cli_smoke import BATTERY

APERY_SRC = "(1+x1)*(1+x2)*(1+x1+x2)/(x1*x2)"
CHEB_SRC = "x1 + x1^-1"


def report(k, desc, elapsed, budget):
    assert elapsed < budget, f"criterion {k} took {elapsed:.1f}s (budget {budget}s)"
    print(f"[acceptance] criterion {k} ({desc}): PASS ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def apery():
    return apery_polynomial()


@pytest.fixture(scope="module")
def b200():
    return apery_numbers(200)


def test_criterion_01_constant_terms_match_binomial_sum(apery):
    t0 = time.perf_counter()
    got = constant_term_sequence(apery, 60)
    expected = [
        sum(math.comb(n, k) ** 2 * math.comb(n + k, k) for k in range(n + 1))
        for n in range(61)
    ]
    assert got == expected
    report(1, "Apery constant terms, n <= 60 exact", time.perf_counter() - t0, 10)


def test_criterion_02_admissibility():
    t0 = time.perf_counter()
    assert is_admissible(parse_poly(APERY_SRC, 2)).admissible
    assert is_admissible(parse_poly(CHEB_SRC, 1)).admissible
    rep = is_admissible(parse_poly("(x1+x1^-1)^3", 1))
    assert not rep.admissible
    assert len(rep.interior_points) == 5
    report(2, "admissibility verdicts", time.perf_counter() - t0, 10)


def test_criterion_03_ghost_suite():
    t0 = time.perf_counter()
    for src, d in ((APERY_SRC, 2), (CHEB_SRC, 1)):
        lam = parse_poly(src, d)
        hull = LatticePolytope(d, newton_polytope(lam).vertices())
        for p in (2, 3, 5):
            calc = GhostCalculator(lam, p=p, K=5)
            for s in (1, 2, 3):
                R = calc.ghost_term(s)
                ps = p**s
                assert all(c % ps == 0 for _, c in R.terms()), (src, p, s)
                assert not calc.decomposition_residual(s), (src, p, s)
                for e in R.support():
                    q = tuple(Fraction(x, ps) for x in e)
                    assert hull.contains(q), (src, p, s, e)
    report(3, "ghost suite: divisibility, residual, Newton containment",
           time.perf_counter() - t0, 60)


def test_criterion_04_tuple_suite():
    t0 = time.perf_counter()
    for k in range(1, 8):
        tuples = enumerate_tuples(k)
        assert len(tuples) == math.factorial(k)
        ind = enumerate_indecomposable(k)
        for m in ind:
            assert sum(m) >= k - 1, m
        # split-criterion decision vs brute-force split search
        for m in tuples:
            brute = not any(
                is_valid_tuple(m[:i]) and is_valid_tuple(m[i:])
                for i in range(1, k)
            )
            assert is_indecomposable(m) == brute, m
    assert enumerate_indecomposable(3) == [(0, 0, 2), (0, 1, 1), (0, 1, 2)]
    report(4, "tuple suite: counts, S_3^ind, weight bound, split criterion",
           time.perf_counter() - t0, 30)


def test_criterion_05_lemma_suite(apery):
    t0 = time.perf_counter()
    for p, n_max in ((2, 2**4 - 1), (3, 3**4 - 1), (5, 124)):
        guard = 2
        K_max = length_p(n_max, p) - 1 + guard
        modulus = p**K_max
        calc = GhostCalculator(apery, p=p, K=K_max)
        b = calc.constant_terms(n_max)
        c_dir = [calc.c_direct(n) for n in range(n_max + 1)]
        c_inv = c_from_b_sequence(b, n_max, p, K_max)
        for n in range(n_max + 1):
            ln = length_p(n, p)
            assert (c_dir[n] - c_inv[n]) % p ** (ln - 1 + guard) == 0, (p, n)
            assert c_dir[n] % p ** (ln - 1) == 0, (p, n)
            assert reconstruct_b(c_dir, n, p, modulus=modulus) == b[n], (p, n)
        # and as one verdict through the library's own runner
        assert run_lemma_suite(apery, p, n_max, b=b).passed
    report(5, "lemma suite: c_direct = c_from_b, valuations, reconstruction",
           time.perf_counter() - t0, 300)


PAIRS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]


def test_criterion_06_theorem_congruences(apery, b200):
    t0 = time.perf_counter()
    for p, s in PAIRS:
        assert check_c2(apery, p, s, b=b200).passed, (p, s)
        assert check_c1(apery, p, s, N=200, b=b200).passed, (p, s)
    # corrupting any single b_n flips the c2 verdict, with a correct witness
    for p, s in PAIRS:
        need = p ** (s + 1)
        for n in range(need):
            bad = list(b200[:need])
            bad[n] += 1
            rep = check_c2(apery, p, s, b=bad)
            assert not rep.passed, (p, s, n)
            w = rep.witness
            assert w["lhs"] != w["rhs"]
            assert (w["lhs"] - w["rhs"]) % p**s != 0
    # same for c1 on sampled positions (index 0 at p=2 turns b_0 into a
    # non-unit, which is the documented ill-posed case)
    for p, s in PAIRS:
        for n in (0, 1, 7, 100, 200):
            bad = list(b200)
            bad[n] += 1
            if n == 0 and (bad[0] % p) == 0:
                with pytest.raises(ValueError):
                    check_c1(apery, p, s, N=200, b=bad)
                continue
            rep = check_c1(apery, p, s, N=200, b=bad)
            assert not rep.passed, (p, s, n)
            assert rep.witness["lhs"] != rep.witness["rhs"]
    report(6, "theorem congruences c1/c2 with corruption controls",
           time.perf_counter() - t0, 300)


def test_criterion_07_dig2(apery, b200):
    t0 = time.perf_counter()
    for p in (2, 3):
        for s in (1, 2):
            assert check_dig2(apery, p, s, 20, 4, b=b200).passed, (p, s)
    report(7, "dig2 congruence", time.perf_counter() - t0, 60)


def test_criterion_08_analytic_continuation_properties():
    t0 = time.perf_counter()
    for p in (5, 7, 11):
        K = 4
        b = apery_numbers_mod(p**K - 1, p**K)
        domain = [t for t in range(p) if dwork_domain_test(b, p, t)]
        # closure under z -> z^p
        for z in domain:
            assert dwork_domain_test(b, p, pow(z, p, p))
        teich_ts = [t for t in domain if t != 0]
        for t in teich_ts:
            z = teichmuller(p, t, K)
            # f_s(z) stays a unit on the domain, s <= 4
            for s in range(1, 5):
                val = 0
                zr = z.residue
                for c in reversed(b[: p**s]):
                    val = (val * zr + c) % p**K
                assert val % p != 0, (p, t, s)
            # Cauchy property: omega_{s+1} = omega_s mod p^s, s <= 3
            for s in (1, 2, 3):
                om_lo = omega_approx(b, p, teichmuller(p, t, s), s)
                om_hi = omega_approx(b, p, teichmuller(p, t, s + 1), s + 1)
                assert om_hi.residue % p**s == om_lo.residue, (p, t, s)
    report(8, "analytic-continuation properties at p in {5,7,11}",
           time.perf_counter() - t0, 120)


def test_criterion_09_zeta_cross_check():
    t0 = time.perf_counter()
    for p in (5, 7, 11):
        for s in (1, 2, 3):
            rows = unit_root_sweep(p, s)
            assert [r.t for r in rows] == list(range(1, p))
            for r in rows:
                if not r.smooth:
                    continue
                assert r.a_p * r.a_p <= 4 * p, (p, r.t)
                assert r.hasse_agree, (p, r.t)
                if r.ordinary:
                    assert r.agree, (p, r.t, s)
    report(9, "zeta cross-check: Hasse bound, Hasse congruence, unit roots",
           time.perf_counter() - t0, 600)


def test_criterion_10_determinism(capsys):
    t0 = time.perf_counter()
    for argv in BATTERY:
        code1 = cli_main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli_main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0, argv
        assert out1.encode("utf-8") == out2.encode("utf-8"), argv
    elapsed = time.perf_counter() - t0
    report(10, "byte-identical structured reports", elapsed, 300)

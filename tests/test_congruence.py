import pytest

from dworkcong.apery import apery_numbers, apery_polynomial
from dworkcong.congruence import (
    NotAdmissibleError,
    check_c1,
    check_c2,
    check_dig2,
    check_digit_product,
    f_trunc,
    run_lemma_suite,
)
from dworkcong.ghost import digits_p
from dworkcong.polyparse import parse_poly


def dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def expand_xp(a, p):
    out = [0] * ((len(a) - 1) * p + 1)
    for i, ai in enumerate(a):
        out[i * p] = ai
    return out


# -- f_s --------------------------------------------------------------------------


def test_f_trunc_examples():
    b = apery_numbers(30)
    assert f_trunc(b, 5, 1, 1).coeffs == [1, 3, 4, 2, 1]
    assert f_trunc(b, 5, 0, 1).coeffs == [1]
    assert f_trunc(b, 2, 1, 2).coeffs == [1, 3]
    with pytest.raises(ValueError):
        f_trunc(b[:3], 2, 2, 2)


# -- c2 ----------------------------------------------------------------------------


def test_c2_passes_internal_route():
    lam = apery_polynomial()
    for p, s in [(2, 1), (2, 2), (3, 1)]:
        report = check_c2(lam, p, s)
        assert report.passed and report.admissible, (p, s)
        assert report.witness is None
        assert report.params == {"p": p, "s": s, "K": s, "b_through": p ** (s + 1) - 1}


def test_c2_corruption_fails_with_correct_witness():
    lam = apery_polynomial()
    p, s = 2, 2
    b = apery_numbers(p ** (s + 1) - 1)
    b[7] += 1
    report = check_c2(lam, p, s, b=b)
    assert not report.passed
    w = report.witness
    assert w is not None
    # recompute both coefficients at the witness exponent independently
    lhs = dense_mul(b[: p ** (s + 1)], expand_xp(b[: p ** (s - 1)], p))
    rhs = dense_mul(b[: p**s], expand_xp(b[: p**s], p))
    n = w["exponent"]
    assert lhs[n] % p**s == w["lhs"]
    assert rhs[n] % p**s == w["rhs"]
    assert w["lhs"] != w["rhs"]
    # smallest offending exponent
    for i in range(n):
        assert (lhs[i] - rhs[i]) % p**s == 0


def test_c2_refuses_non_admissible_without_force():
    lam = parse_poly("x1^2 + x1^-1", 1)
    with pytest.raises(NotAdmissibleError):
        check_c2(lam, 2, 1)
    report = check_c2(lam, 2, 1, force=True)
    assert not report.admissible
    assert not report.passed
    assert report.witness == {"exponent": 3, "lhs": 1, "rhs": 0}


def test_c2_validates_arguments():
    lam = apery_polynomial()
    with pytest.raises(ValueError):
        check_c2(lam, 2, 0)
    with pytest.raises(ValueError):
        check_c2(lam, 2, 2, K=1)
    with pytest.raises(ValueError):
        check_c2(lam, 2, 2, b=[1, 3])  # too short


# -- c1 ----------------------------------------------------------------------------


def test_c1_passes_small():
    lam = apery_polynomial()
    report = check_c1(lam, 3, 2, N=60)
    assert report.passed and report.witness is None
    report = check_c1(lam, 2, 1, N=0)  # constant term b0/b0 on both sides
    assert report.passed


def test_c1_non_unit_b0_is_an_error():
    lam = apery_polynomial()
    b = [3 * v for v in apery_numbers(30)]
    with pytest.raises(ValueError) as err:
        check_c1(lam, 3, 1, N=20, b=b)
    assert "c2" in str(err.value)  # points out that (c2) remains checkable


def test_c1_corruption_fails():
    lam = apery_polynomial()
    b = apery_numbers(40)
    b[5] += 1
    report = check_c1(lam, 3, 1, N=40, b=b)
    assert not report.passed
    assert report.witness["lhs"] != report.witness["rhs"]


def test_c1_and_c2_agree():
    lam = apery_polynomial()
    good = apery_numbers(26)
    bad = list(good)
    bad[3] += 1
    for b, expected in [(good, True), (bad, False)]:
        r1 = check_c1(lam, 3, 1, N=26, b=b)
        r2 = check_c2(lam, 3, 1, b=b)
        assert r1.passed == r2.passed == expected
        if not expected:
            assert r1.witness and r2.witness


# -- digit product -------------------------------------------------------------------


def test_digit_product_examples():
    lam = apery_polynomial()
    b = apery_numbers(30)
    assert b[2] % 2 == (b[0] * b[1]) % 2 == 1
    assert b[4] % 3 == (b[1] * b[1]) % 3 == 0
    for p in (2, 3, 5):
        report = check_digit_product(lam, p, 30, b=b)
        assert report.passed, p


def test_digit_product_negative_control():
    lam = parse_poly("x1^2 + x1^-1", 1)
    report = check_digit_product(lam, 2, 10, force=True)
    assert not report.passed
    assert report.witness["n"] == 3


# -- dig2 -----------------------------------------------------------------------------


def test_dig2_passes():
    lam = apery_polynomial()
    b = apery_numbers(20 + 4 * 9)
    for p, s in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        report = check_dig2(lam, p, s, 10, 3, b=b)
        assert report.passed, (p, s)


def test_dig2_m_zero_trivial():
    lam = apery_polynomial()
    report = check_dig2(lam, 5, 2, 8, 0)
    assert report.passed


def test_dig2_corruption_lexicographic_witness():
    lam = apery_polynomial()
    p, s = 2, 2
    b = apery_numbers(20 + 4 * 4)
    b[6] += 2
    report = check_dig2(lam, p, s, 10, 4, b=b)
    assert not report.passed
    n, m = report.witness["n"], report.witness["m"]
    ps = p**s
    # verify it really is the lexicographically smallest offender
    for nn in range(11):
        for mm in range(5):
            lhs = b[nn + mm * ps] * b[nn // p]
            rhs = b[nn] * b[nn // p + mm * p ** (s - 1)]
            bad = (lhs - rhs) % ps != 0
            if (nn, mm) < (n, m):
                assert not bad
            if (nn, mm) == (n, m):
                assert bad


# -- ingredient identities used by the analytic-continuation lemma --------------------


def test_f1_frobenius_identity():
    b = apery_numbers(10)
    for p in (2, 3, 5):
        f1 = b[:p]
        lhs = f1
        for _ in range(p - 1):
            lhs = dense_mul(lhs, f1)
        rhs = expand_xp(f1, p)
        top = max(len(lhs), len(rhs))
        lhs = lhs + [0] * (top - len(lhs))
        rhs = rhs + [0] * (top - len(rhs))
        assert all((x - y) % p == 0 for x, y in zip(lhs, rhs)), p


def test_fs_factors_through_f1():
    b = apery_numbers(130)
    for p in (2, 3, 5):
        for s in (1, 2, 3):
            if p**s > len(b):
                continue
            fs = b[: p**s]
            f1 = b[:p]
            fsm1 = b[: p ** (s - 1)]
            prod = dense_mul(f1, expand_xp(fsm1, p))
            top = max(len(fs), len(prod))
            fs = fs + [0] * (top - len(fs))
            prod = prod + [0] * (top - len(prod))
            assert all((x - y) % p == 0 for x, y in zip(fs, prod)), (p, s)


def test_cross_products_divisible():
    b = apery_numbers(260)
    p = 2
    for s in (1, 2):
        for k in range(s, s + 3):
            if p ** (k + 1) > len(b):
                continue
            lhs = dense_mul(b[: p**k], expand_xp(b[: p ** (s - 1)], p))
            rhs = dense_mul(expand_xp(b[: p ** (k - 1)], p), b[: p**s])
            top = max(len(lhs), len(rhs))
            lhs = lhs + [0] * (top - len(lhs))
            rhs = rhs + [0] * (top - len(rhs))
            assert all((x - y) % p**s == 0 for x, y in zip(lhs, rhs)), (s, k)


# -- lemma suite -----------------------------------------------------------------------


def test_lemma_suite_small():
    lam = apery_polynomial()
    report = run_lemma_suite(lam, 2, 15)
    assert report.passed
    assert report.params == {"p": 2, "n_max": 15, "guard": 2, "K": 5}


def test_lemma_suite_detects_corruption():
    lam = apery_polynomial()
    b = apery_numbers(15)
    b[6] += 4
    report = run_lemma_suite(lam, 2, 15, b=b)
    assert not report.passed
    assert report.witness == {"n": 6, "failure": "agreement", "lhs": 12, "rhs": 0}


def test_report_dict_schema():
    lam = apery_polynomial()
    d = check_c2(lam, 2, 1).as_dict()
    assert list(d) == ["check", "params", "admissible", "verdict", "witness"]
    assert d["verdict"] == "pass" and d["witness"] is None


def test_digits_helper_consistency():
    # digit product uses digits_p; spot-check the digit convention
    assert digits_p(11, 2) == (1, 1, 0, 1)


# -- golden failure reports --------------------------------------------------------
# Full as_dict() of one failing report per check, on the corruption inputs above.


def _corrupted(N, i, by):
    b = apery_numbers(N)
    b[i] += by
    return b


def test_golden_failure_reports():
    lam = apery_polynomial()
    cases = [
        (check_c2(lam, 2, 2, b=_corrupted(7, 7, 1)),
         {"check": "c2", "params": {"p": 2, "s": 2, "K": 2, "b_through": 7},
          "admissible": True, "verdict": "fail",
          "witness": {"exponent": 7, "lhs": 3, "rhs": 2}}),
        (check_c1(lam, 3, 1, N=40, b=_corrupted(40, 5, 1)),
         {"check": "c1", "params": {"p": 3, "s": 1, "K": 1, "N": 40},
          "admissible": True, "verdict": "fail",
          "witness": {"exponent": 5, "lhs": 1, "rhs": 0}}),
        (check_digit_product(parse_poly("x1^2 + x1^-1", 1), 2, 10, force=True),
         {"check": "digit", "params": {"p": 2, "N": 10},
          "admissible": False, "verdict": "fail",
          "witness": {"n": 3, "lhs": 1, "rhs": 0}}),
        (check_dig2(lam, 2, 2, 10, 4, b=_corrupted(36, 6, 2)),
         {"check": "dig2", "params": {"p": 2, "s": 2, "n_max": 10, "m_max": 4, "K": 2},
          "admissible": True, "verdict": "fail",
          "witness": {"n": 0, "m": 3, "lhs": 3, "rhs": 1}}),
        (run_lemma_suite(lam, 2, 15, b=_corrupted(15, 6, 4)),
         {"check": "lemma", "params": {"p": 2, "n_max": 15, "guard": 2, "K": 5},
          "admissible": True, "verdict": "fail",
          "witness": {"n": 6, "failure": "agreement", "lhs": 12, "rhs": 0}}),
    ]
    for report, expected in cases:
        d = report.as_dict()
        assert d == expected, report.check
        assert list(d["params"]) == list(expected["params"]), report.check
        assert list(d["witness"]) == list(expected["witness"]), report.check
        assert report.wall_time >= 0

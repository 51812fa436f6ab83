import json
import os
import resource
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

import pytest

from dworkcong import cli, polytope
from dworkcong.cli import build_parser, main

APERY = "(1+x1)*(1+x2)*(1+x1+x2)/(x1*x2)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_subprocess(*argv, timeout=5, memory=None):
    """The CLI in a fresh interpreter, killed (and the test failed) after
    `timeout` s; `memory` bytes, if given, cap its address space."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    proc = subprocess.run([sys.executable, "-m", "dworkcong.cli", *argv], env=child_env(),
                          capture_output=True, timeout=timeout,
                          preexec_fn=cap if memory else None)
    return proc.returncode, proc.stdout, proc.stderr


# -- ct -----------------------------------------------------------------------


def test_ct_apery(capsys):
    code, out, _ = run(capsys, "ct", "--poly", APERY, "--d", "2", "--N", "4")
    assert code == 0
    assert out == "1 3 19 147 1251\n"


def test_ct_univariate(capsys):
    code, out, _ = run(capsys, "ct", "--poly", "x1+x1^-1", "--d", "1", "--N", "4")
    assert code == 0
    assert out == "1 0 2 0 6\n"


def test_ct_n_zero(capsys):
    code, out, _ = run(capsys, "ct", "--poly", APERY, "--d", "2", "--N", "0")
    assert code == 0
    assert out == "1\n"


def test_ct_zero_poly(capsys):
    code, out, _ = run(capsys, "ct", "--poly", "0", "--N", "5")
    assert code == 0
    assert out == "1 0 0 0 0 0\n"


def test_ct_modular(capsys):
    code, out, _ = run(capsys, "ct", "--poly", APERY, "--d", "2", "--N", "4",
                       "--p", "5", "--K", "1")
    assert code == 0
    assert out == "1 3 4 2 1\n"


def test_ct_negative_n_exit2(capsys):
    code, out, err = run(capsys, "ct", "--poly", APERY, "--d", "2", "--N", "-1")
    assert code == 2
    assert out == ""
    assert "non-negative" in err


def test_ct_json_big_integers_as_strings(capsys):
    code, out, _ = run(capsys, "ct", "--poly", APERY, "--d", "2", "--N", "60",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "ct"
    assert set(doc) == {"command", "config", "results"}
    b = doc["results"][0]["b"]
    assert b[0] == 1 and b[4] == 1251
    assert isinstance(b[60], str)  # beyond 2**53: decimal string
    assert int(b[60]) > 2**53


# -- newton ------------------------------------------------------------------


def test_newton_apery(capsys):
    code, out, _ = run(capsys, "newton", "--poly", APERY, "--d", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    result = doc["results"][0]
    assert result["admissible"] is True
    assert result["interior_points"] == [[0, 0]]
    assert sorted(map(tuple, result["vertices"])) == [
        (-1, -1), (-1, 1), (0, 1), (1, -1), (1, 0)]


def test_newton_rejects_cube(capsys):
    code, out, _ = run(capsys, "newton", "--poly", "(x1+x1^-1)^3", "--d", "1",
                       "--format", "json")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["admissible"] is False
    assert len(result["interior_points"]) == 5


def test_newton_constant_poly(capsys):
    code, out, _ = run(capsys, "newton", "--poly", "5", "--d", "1")
    assert code == 0
    assert "admissible: false" in out


@pytest.mark.parametrize("poly,d,expected", [
    (APERY, "2", "vertices: (-1, -1) (-1, 1) (0, 1) (1, -1) (1, 0)\n"
                 "interior lattice points: (0, 0)\n"
                 "admissible: true\n"),
    ("x1+x2+x3+1/(x1*x2*x3)", "3",
     "vertices: (-1, -1, -1) (0, 0, 1) (0, 1, 0) (1, 0, 0)\n"
     "interior lattice points: (0, 0, 0)\n"
     "admissible: true\n"),
    ("(x1+x1^-1)^3", "1", "vertices: (-3,) (3,)\n"
                          "interior lattice points: (-2,) (-1,) (0,) (1,) (2,)\n"
                          "admissible: false\n"),
], ids=["apery", "arity3", "cube"])
def test_newton_builds_one_h_representation(capsys, monkeypatch, poly, d, expected):
    builds = []
    original = polytope._h_representation

    def counting(points):
        builds.append(points)
        return original(points)

    monkeypatch.setattr(polytope, "_h_representation", counting)
    code, out, _ = run(capsys, "newton", "--poly", poly, "--d", d)
    assert code == 0
    assert out == expected
    assert len(builds) == 1


# -- check -------------------------------------------------------------------


def test_check_c2_pass_exit0(capsys):
    code, out, _ = run(capsys, "check", "c2", "--p", "3", "--s", "2")
    assert code == 0
    assert "PASS" in out


def test_check_c1_default_cutoff(capsys):
    code, out, _ = run(capsys, "check", "c1", "--p", "2", "--s", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["N"] == 2**3 - 1  # default N = p^(s+1) - 1, echoed
    assert doc["results"][0]["verdict"] == "pass"


def test_check_lemma(capsys):
    code, out, _ = run(capsys, "check", "lemma", "--p", "2", "--nmax", "15")
    assert code == 0
    assert "PASS" in out


def test_check_dig2_and_digit(capsys):
    code, out, _ = run(capsys, "check", "dig2", "--p", "2", "--s", "2",
                       "--nmax", "10", "--mmax", "3")
    assert code == 0
    code, out, _ = run(capsys, "check", "digit", "--p", "3", "--N", "20")
    assert code == 0


@pytest.mark.parametrize("flag", ["--nmax", "--mmax"])
def test_check_dig2_negative_range_exit2(capsys, flag):
    code, out, err = run(capsys, "check", "dig2", "--p", "2", flag, "-1")
    assert code == 2
    assert out == ""
    assert "non-negative" in err


@pytest.mark.parametrize("argv", [
    ["lemma", "--p", "3", "--nmax", "5"],
    ["digit", "--p", "3", "--N", "5"],
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_ignores_unused_huge_s(argv, fmt):
    # --s feeds only c1/c2/dig2 and the default N of c1/digit
    base = ["check", *argv, "--format", fmt]
    code, out, _ = run_subprocess(*base, "--s", "1")
    assert code == 0
    for s in ("100000000", "1000000000000"):
        assert run_subprocess(*base, "--s", s) == (0, out, b"")


@pytest.mark.parametrize("argv", [
    ["check", "c2", "--p", "2", "--s", "30"],
    ["check", "c1", "--p", "3", "--s", "2", "--N", "1000000000"],
    ["check", "dig2", "--p", "2", "--s", "40", "--nmax", "1", "--mmax", "1"],
    ["ct", "--N", "100000000", "--p", "3", "--K", "2"],
    ["ct", "--N", "100000000"],  # exact: the dict walk
    ["ct", "--N", "300"],  # exact, priced by its coefficients' 64-bit words
    # exact: each term pair's fixed cost at the boxes of the cut walk (--N 236
    # takes 13 to 23 s)
    ["ct", "--N", "237"],
    ["ct", "--N", "1200", "--p", "3", "--K", "40"],  # slot-steps fit, 128-bit slot-words not
    ["ct", "--poly", "x1", "--d", "1", "--N", "100000000", "--p", "3", "--K", "1"],  # cost per step
    # an empty base: every step still pays its fixed cost
    ["ct", "--poly", "0", "--N", "100000000"],
    ["ct", "--poly", "0", "--N", "100000000", "--p", "3", "--K", "2"],
    ["ct", "--poly", "x1-x1", "--d", "1", "--N", "100000000"],
])
def test_walks_over_budget_exit2_at_once(argv):
    # refused before the walk allocates anything (it used to end in a
    # MemoryError traceback, or to run for 2**40 steps)
    code, out, err = run_subprocess(*argv)
    assert (code, out) == (2, b"")
    assert b"budget" in err and b"Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["newton", "--poly", "x1^10000000+x1^-10000000", "--d", "1"],  # interior scan
    ["check", "c2", "--poly", "x1^3000+x2^3000+x1^-3000*x2^-3000", "--d", "2",
     "--p", "3", "--s", "1"],  # interior scan, before the constant terms
    ["newton", "--poly", "(1+x1+x2+x3)^8/(x1*x2*x3)", "--d", "3"],  # hull build
])
def test_geometry_over_budget_exit2_at_once(argv):
    # a monomial power such as x1^10000000 is admitted by the power budget
    code, out, err = run_subprocess(*argv)
    assert (code, out) == (2, b"")
    assert b"budget" in err and b"dot products" in err and b"Traceback" not in err


@pytest.mark.parametrize("argv", [
    # the parser's '^' of two or more terms: a walk, priced in slot-words
    ["newton", "--poly", "(1+x1+x2)^3000", "--d", "2"],
    ["newton", "--poly", "(1+x1)^200000", "--d", "1"],
    ["newton", "--poly", "(x1+x1^-1)^100000", "--d", "1"],
    # the lemma's ghost layer: the slot-words of its level products
    ["check", "lemma", "--p", "2", "--nmax", "500"],
    ["check", "lemma", "--p", "5", "--nmax", "3124"],
    # a walk whose coefficients grow to 94 words
    ["newton", "--poly", "(1+x1)^6000", "--d", "1"],
    # a monomial: 3**30000000 priced by the Karatsuba squarings that form it
    ["ct", "--poly", "(3*x1)^30000000", "--d", "1", "--N", "1"],
    # a one-shot exact product: term pairs times its coefficients' words
    ["ct", "--poly", "(1+x1+x2)^160*(1+x1+x2)^160", "--d", "2", "--N", "1"],
])
def test_powers_and_ghost_layer_over_budget_exit2_at_once(argv):
    code, out, err = run_subprocess(*argv, timeout=5)
    assert (code, out) == (2, b"")
    assert b"budget" in err and b"slot-words" in err and b"Traceback" not in err


@pytest.mark.parametrize("poly, out", [
    ("x1^-99999999999999999999", b"1 0\n"),  # a monomial's exponent is scaled
    ("(3*x1)^1000", b"1 0\n"),
])
def test_powers_within_budget_admitted(poly, out):
    assert run_subprocess("ct", "--poly", poly, "--d", "1", "--N", "1") == (0, out, b"")


@pytest.mark.oracle
def test_growing_dict_walk_priced_step_by_step():
    # 6.7e8 slot-words summed step by step, about 2 s; priced at its last
    # step's box and coefficient words it was refused
    code, out, err = run_subprocess("ct", "--poly", "(7*x1+x1^-1)^2000", "--d", "1",
                                    "--N", "1", timeout=60)
    assert (code, out[:2], err) == (0, b"1 ", b"")


@pytest.mark.oracle
def test_lemma_scale_probe_admitted():
    # the fold prices p = 3 to 242 at 8.9e7 slot-words; about 2 s on a
    # 2-core x86-64 host (it was refused at 4.6e9 term pairs per tuple)
    code, out, err = run_subprocess("check", "lemma", "--p", "3", "--nmax", "242",
                                    timeout=120)
    assert (code, err) == (0, b"")
    assert out.startswith(b"check lemma p=3 n_max=242 guard=2 K=6: PASS")


def test_fitted_walk_admitted():
    # priced at its fitted boxes, 2.3e7 slot-words, about 0.4 s on a 2-core
    # x86-64 host; at its full box, 1.6e9, it was refused
    code, out, err = run_subprocess("ct", "--poly", "x1+x2+x3+x1^-1*x2^-1*x3^-1", "--d", "3",
                                    "--N", "200", "--p", "3", "--K", "3", timeout=30)
    assert (code, err) == (0, b"")
    assert out.split() == [str(factorial(n) // factorial(n // 4) ** 4 % 27 if n % 4 == 0
                               else 0).encode() for n in range(201)]


def test_product_within_budget_admitted():
    # 2.6e8 slot-words, about 5 s on a 2-core x86-64 host
    assert run_subprocess("ct", "--poly", "(1+x1+x2)^80*(1+x1+x2)^80", "--d", "2",
                          "--N", "1", timeout=60) == (0, b"1 1\n", b"")


@pytest.mark.parametrize("argv", [
    ["newton", "--poly", "x1+x1^-1", "--d", "100000"],  # affine-hull kernel
    ["check", "c2", "--p", "3", "--poly", "x1+x1^-1", "--d", "100000"],  # admissibility
    ["ct", "--poly", "x1+x1^-1", "--d", "400", "--N", "3", "--p", "3", "--K", "1"],  # lattice
])
def test_arity_over_bound_exit2_at_once(argv):
    code, out, err = run_subprocess(*argv, timeout=5)
    assert (code, out) == (2, b"")
    assert err.startswith(b"error: arity must be an integer in 1..64")
    assert b"Traceback" not in err


HUGE = "1000000000000"


@pytest.mark.parametrize("argv", [
    # b through p**(s+1), or m_max * p**s: p**e walk steps, compared in log2
    ["check", "c2", "--p", "3", "--s", HUGE],
    ["check", "c1", "--p", "3", "--s", HUGE],  # the default N = p**(s+1) - 1
    ["check", "digit", "--p", "3", "--s", HUGE],
    ["check", "dig2", "--p", "3", "--s", HUGE],
    # no such b, but the modulus p**K, K >= s, priced as its squarings
    ["check", "c1", "--p", "3", "--s", HUGE, "--N", "5"],
    ["check", "dig2", "--p", "3", "--s", HUGE, "--mmax", "0"],
    ["check", "c2", "--p", "3", "--s", "2", "--K", HUGE],
    ["ct", "--N", "2", "--p", "3", "--K", HUGE],
    # series products, priced before the walk: K = 10**6 gives slots of
    # 3.2 million bits (16.8 s when only the walk was priced)
    ["check", "c1", "--p", "3", "--s", "2", "--K", "1000000", "--N", "9"],
    # estimates past float range: exponents of 401 digits
    ["check", "c2", "--p", "3", "--s", "1" + "0" * 400],
    ["ct", "--N", "1" + "0" * 400],
    ["ct", "--poly", "(2*x1)^1" + "0" * 400, "--d", "1", "--N", "2"],
])
def test_huge_exponents_exit2_at_once(argv):
    # each formed a power of p of 10**12 bits or more, or an estimate past
    # float range, before any price was compared
    code, out, err = run_subprocess(*argv, timeout=5, memory=1 << 30)
    assert (code, out) == (2, b"")
    assert b"slot-words; budget 1000000000" in err and b"Traceback" not in err


def test_huge_refusal_names_the_budget():
    # the estimate has about 477,000 digits: it is printed as a power of two
    code, out, err = run_subprocess("check", "c2", "--p", "3", "--s", "1000000",
                                    timeout=5, memory=1 << 30)
    assert (code, out) == (2, b"")
    assert err == (b"error: b through p**(s+1) needs about 2^1584964 slot-words; "
                   b"budget 1000000000\n")


def test_monomial_of_huge_exponent_admitted():
    # x1**n is only its exponent scaled; its estimate used to overflow a float
    assert run_subprocess("ct", "--poly", "x1^1" + "0" * 400, "--d", "1", "--N", "2",
                          timeout=5, memory=1 << 30) == (0, b"1 0 0\n", b"")


@pytest.mark.parametrize("p", ["0", "1"])
def test_check_lemma_non_prime_exit2(p):
    # p is checked before n_max is split into base-p digits (p = 1 hung, and
    # p = 0 divided by zero)
    code, out, err = run_subprocess("check", "lemma", "--p", p, "--nmax", "5")
    assert (code, out) == (2, b"")
    assert b"not prime" in err and b"Traceback" not in err


def test_check_non_admissible_refused_exit2(capsys):
    code, out, err = run(capsys, "check", "c2", "--poly", "x1^2+x1^-1",
                         "--d", "1", "--p", "2")
    assert code == 2
    assert "admissib" in err or "interior" in err


def test_non_admissible_refusal_lists_few_points():
    # 199,999 interior points: the message names the first few and the count
    code, out, err = run_subprocess("check", "c2", "--p", "3", "--poly",
                                    "x1^100000+x1^-100000", "--d", "1")
    assert (code, out) == (2, b"")
    assert len(err) < 1024 and b"199999 interior points: (-99999,)" in err
    for poly in ("1", "x1"):  # a point: nothing is interior
        code, out, err = run_subprocess("check", "c2", "--p", "3", "--poly", poly, "--d", "1")
        assert (code, out) == (2, b"")
        assert b"integral point (no interior points); pass" in err


def test_check_non_admissible_forced_fails_exit1(capsys):
    code, out, _ = run(capsys, "check", "c2", "--poly", "x1^2+x1^-1",
                       "--d", "1", "--p", "2", "--force", "--format", "json")
    assert code == 1
    result = json.loads(out)["results"][0]
    assert result["verdict"] == "fail"
    assert result["admissible"] is False
    assert result["witness"] == {"exponent": 3, "lhs": 1, "rhs": 0}


def test_check_report_schema(capsys):
    code, out, _ = run(capsys, "check", "c2", "--p", "2", "--s", "1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "config", "results"}
    report = doc["results"][0]
    assert list(report) == ["check", "params", "admissible", "verdict", "witness"]
    assert list(report["params"]) == ["p", "s", "K", "b_through"]


# -- unitroot -----------------------------------------------------------------


def test_unitroot_single(capsys):
    code, out, _ = run(capsys, "unitroot", "--p", "7", "--t", "1", "--s", "2",
                       "--format", "json")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["smooth"] is True
    assert row["agree"] is True


def test_unitroot_sweep_table(capsys):
    code, out, _ = run(capsys, "unitroot", "--p", "5", "--s", "2", "--sweep")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert lines[1].startswith("t=2  smooth=false")  # the nodal fiber


def test_unitroot_s_below_one_exit2(capsys):
    for mode in (("--t", "1"), ("--sweep",)):
        code, out, err = run(capsys, "unitroot", "--p", "5", "--s", "0", *mode)
        assert code == 2
        assert out == ""
        assert "s must be >= 1" in err


def test_unitroot_rejects_t_zero(capsys):
    code, _, err = run(capsys, "unitroot", "--p", "5", "--t", "0")
    assert code == 2
    assert "error" in err


def test_unitroot_jobs_equivalent(capsys):
    code, out1, _ = run(capsys, "unitroot", "--p", "5", "--s", "1", "--sweep",
                        "--format", "json")
    code2, out2, _ = run(capsys, "unitroot", "--p", "5", "--s", "1", "--sweep",
                         "--jobs", "2", "--format", "json")
    assert code == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_unitroot_jobs_below_one_exit2(capsys, jobs):
    for mode in (["--sweep"], ["--t", "1"]):
        code, out, err = run(capsys, "unitroot", "--p", "5", *mode, "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert "--jobs" in err


# -- error handling and plumbing -------------------------------------------------


def test_parse_error_exit2(capsys):
    code, _, err = run(capsys, "ct", "--poly", "2x1", "--d", "1", "--N", "3")
    assert code == 2
    assert "position" in err


def test_deeply_nested_poly_exit2(capsys):
    poly = "(" * 3000 + "x1" + ")" * 3000
    code, out, err = run(capsys, "ct", "--poly", poly, "--d", "1", "--N", "3")
    assert code == 2
    assert out == ""
    assert "nested" in err and "position" in err


def test_invalid_prime_exit2(capsys):
    code, _, err = run(capsys, "check", "c2", "--p", "4")
    assert code == 2
    assert "prime" in err


@pytest.mark.parametrize("p,why", [
    ("318665857834031151167461", "not prime"),  # psi_12, passed bases 2..37
    (str(2**89 - 1), "too large"),  # prime, beyond exact primality testing
])
@pytest.mark.parametrize("mode", [("--t", "1"), ("--sweep",)])
def test_unitroot_huge_p_exit2_at_once(capsys, p, why, mode):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "unitroot", "--p", p, *mode)
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert out == ""
    assert why in err


@pytest.mark.parametrize("p,s", [("1000003", "1"), ("2", "40")])
@pytest.mark.parametrize("mode", [("--t", "1"), ("--sweep",)])
def test_unitroot_over_work_budget_exit2_at_once(capsys, p, s, mode):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "unitroot", "--p", p, "--s", s, *mode)
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert out == ""
    assert "budget" in err
    # one fiber is refused for its Apery terms, N**2 // 2048 at N = p; a sweep
    # counts points on p - 1 fibers, about 2p each; 2**40 is priced in log2,
    # as p**s too large to form would be
    about = {"1000003": "2e+12" if "--sweep" in mode else "4.91e+08", "2": "2^69"}[p]
    assert err.endswith(f" needs about {about} point evaluations; budget 10000000\n")


def test_usage_error_exit2(capsys):
    assert main(["check"]) == 2
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()


CALLS = [
    ["check", "c1", "--poly", "x1+x2+x1^-1*x2^-1", "--d", "2", "--p", "3", "--s", "2"],
    ["check"],  # usage error
    ["--help"],
    ["ct", "--N", "5", "--format", "json"],
    ["check", "c2", "--help"],
    ["nonsense"],
    ["ct", "--poly", "x1+", "--N", "5"],  # parse error
    ["check", "c1", "--poly", "x1+x2+x1^-1*x2^-1", "--d", "2", "--p", "3", "--s", "2"],
]


def test_main_reuses_one_parser(capsys, monkeypatch):
    built = []

    def counted():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    reused = [run(capsys, *argv) for argv in CALLS]
    assert len(built) == 1 and cli._parser() is built[0]
    fresh = []
    for argv in CALLS:  # a new parser for every call
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._parser.cache_clear()  # not one the next test's main would reuse
    assert len(built) == 1 + len(CALLS)
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 0, 0, 0, 2, 2, 0]
    assert reused[0][1] and reused[2][1].startswith("usage: dworkcong")


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()


def test_import_builds_no_parser():
    script = ("import argparse\n"
              "built = []\n"
              "init = argparse.ArgumentParser.__init__\n"
              "def counted(self, *a, **k):\n"
              "    built.append(1)\n"
              "    init(self, *a, **k)\n"
              "argparse.ArgumentParser.__init__ = counted\n"
              "import dworkcong.cli\n"
              "print(len(built), dworkcong.cli._parser.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"0 0\n", b"")


def test_output_to_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run(capsys, "ct", "--poly", APERY, "--d", "2", "--N", "3",
                       "--format", "json", "--output", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["results"][0]["b"] == [1, 3, 19, 147]


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_output_exit2(tmp_path, where):
    # an OSError on --output is a usage error, not a failed check
    target = tmp_path / "no" / "such" / "dir" / "x" if where == "missing" else tmp_path
    code, out, err = run_subprocess("ct", "--N", "3", "--output", str(target))
    assert (code, out) == (2, b"")
    assert err.startswith(b"error: ") and b"Traceback" not in err


def test_structured_output_deterministic(capsys):
    battery = [
        ["ct", "--poly", APERY, "--d", "2", "--N", "20", "--format", "json"],
        ["newton", "--poly", APERY, "--d", "2", "--format", "json"],
        ["check", "c2", "--p", "2", "--s", "2", "--format", "json"],
        ["unitroot", "--p", "5", "--s", "2", "--sweep", "--format", "json"],
    ]
    for argv in battery:
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()

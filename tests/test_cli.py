import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dworkcong import polytope
from dworkcong.cli import main

APERY = "(1+x1)*(1+x2)*(1+x1+x2)/(x1*x2)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(*argv, timeout=5):
    """The CLI in a fresh interpreter, killed (and the test failed) after `timeout` s."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "dworkcong.cli", *argv], env=env,
                          capture_output=True, timeout=timeout)
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
])
def test_walks_over_budget_exit2_at_once(argv):
    # refused before the walk allocates anything (it used to end in a
    # MemoryError traceback, or to run for 2**40 steps)
    code, out, err = run_subprocess(*argv)
    assert (code, out) == (2, b"")
    assert b"budget" in err and b"Traceback" not in err


def test_check_non_admissible_refused_exit2(capsys):
    code, out, err = run(capsys, "check", "c2", "--poly", "x1^2+x1^-1",
                         "--d", "1", "--p", "2")
    assert code == 2
    assert "admissib" in err or "interior" in err


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


def test_usage_error_exit2(capsys):
    assert main(["check"]) == 2
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_output_to_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run(capsys, "ct", "--poly", APERY, "--d", "2", "--N", "3",
                       "--format", "json", "--output", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["results"][0]["b"] == [1, 3, 19, 147]


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

"""Every op of the benchmark's workloads, run once through `cli.main`, keeps
the exit code and stdout digest recorded in bench/expected.json and passes
the benchmark's own checks (`check_op` of bench/run.py), so a change in any
op's bytes shows in the test suite, not only in a benchmark run.  One traced
pass of each workload meets the benchmark's per-layer load and bypass
predictions (`self_test`), without which a traced run exits 1.  Every
modular product and Cartier product the ops form takes the Kronecker kernel."""

import contextlib
import importlib.util
import io
import json
import time
from pathlib import Path

import pytest

from dworkcong import laurent
from dworkcong.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
EXPECTED = json.loads((BENCH / "expected.json").read_text())

OPS = {f"{name}-{'_'.join(argv[:-2])}": argv  # argv ends in --format json
       for name in bench.WORKLOADS for argv in bench.workload_ops(name, 0)}


@pytest.mark.parametrize("argv", OPS.values(), ids=OPS.keys())
def test_bench_op_matches_its_digest(argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception as exc:  # reported by check_op as the op's failure
            code, error = None, repr(exc)
    op = {"argv": argv, "exit": code, "stdout": out.getvalue(), "error": error}
    assert bench.check_op(op, EXPECTED) is None, err.getvalue()


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_pass_meets_the_layer_predictions(name, tmp_path):
    # one traced child, as bench/run.py --trace 1 runs it (about 1 s each)
    reply = bench.run_child("trace", bench.workload_ops(name, 0),
                            str(tmp_path / "spans.jsonl"), time.monotonic() + 120)
    layers = dict(reply["layers"])
    layers["cli.bytes_out"] = sum(len(op["stdout"].encode("utf-8")) for op in reply["ops"])
    assert bench.self_test(name, layers) == []


def routes(monkeypatch, ops):
    """The products and Cartier products of running each op once, by route:
    ("packed",) for each `_kronecker`, ("dict", p, exact) for each
    `_cartier_dict`, p being 1 for a one-shot product."""
    seen, kronecker, cartier_dict = [], laurent._kronecker, laurent._cartier_dict
    monkeypatch.setattr(laurent, "_kronecker",
                        lambda fs, wide: seen.append(("packed",)) or kronecker(fs, wide))
    monkeypatch.setattr(laurent, "_cartier_dict", lambda fs, p: seen.append(
        ("dict", p, fs[0].modulus is None)) or cartier_dict(fs, p))
    for argv in ops:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(list(argv))
    return seen


@pytest.mark.parametrize("name", ["verdicts", "powers"])
def test_bench_products_take_the_kronecker_route(name, monkeypatch):
    # a modular product or Cartier product of these ops is never too sparse
    # for its box; only exact products (exact ct, the parser) take the dict
    seen = routes(monkeypatch, bench.workload_ops(name, 0))
    assert ("packed",) in seen
    assert all(route[0] == "packed" or route[2] for route in seen)


def test_simplex3_lemma_takes_the_dict_route_for_some(monkeypatch):
    # SIMPLEX3's ghost terms fill about 2 % of their Z^3 boxes
    seen = routes(monkeypatch, [["check", "lemma", "--poly", bench.SIMPLEX3, "--d", "3",
                                 "--p", "3", "--nmax", "26"]])
    assert ("packed",) in seen and ("dict", 3, False) in seen

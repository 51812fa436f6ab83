"""Every op of the benchmark's workloads, run once through `cli.main`, keeps
the exit code and stdout digest recorded in bench/expected.json and passes
the benchmark's own checks (`check_op` of bench/run.py), so a change in any
op's bytes shows in the test suite, not only in a benchmark run.  One traced
pass of each workload meets the benchmark's per-layer load and bypass
predictions (`self_test`), without which a traced run exits 1."""

import contextlib
import importlib.util
import io
import json
import time
from pathlib import Path

import pytest

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

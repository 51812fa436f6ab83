"""Every op of the benchmark's workloads, run once through `cli.main`, keeps
the exit code and stdout digest recorded in bench/expected.json and passes
the benchmark's own checks (`check_op` of bench/run.py), so a change in any
op's bytes shows in the test suite, not only in a benchmark run."""

import contextlib
import importlib.util
import io
import json
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

"""CLI smoke test that needs no pytest: each invocation of acceptance
criterion 10 runs twice, each time in a fresh interpreter, and must exit 0
with the same stdout bytes both times.

Run from the repository root:  PYTHONPATH=src python tests/cli_smoke.py
"""

import subprocess
import sys

APERY_SRC = "(1+x1)*(1+x2)*(1+x1+x2)/(x1*x2)"

# The invocations of test_acceptance.py::test_criterion_10_determinism.
BATTERY = [
    ["ct", "--poly", APERY_SRC, "--d", "2", "--N", "60", "--format", "json"],
    ["newton", "--poly", APERY_SRC, "--d", "2", "--format", "json"],
    ["check", "c2", "--p", "3", "--s", "2", "--format", "json"],
    ["check", "c1", "--p", "2", "--s", "2", "--format", "json"],
    ["check", "dig2", "--p", "2", "--s", "2", "--nmax", "15", "--mmax", "3",
     "--format", "json"],
    ["check", "digit", "--p", "3", "--N", "30", "--format", "json"],
    ["check", "lemma", "--p", "2", "--nmax", "15", "--format", "json"],
    ["unitroot", "--p", "5", "--s", "2", "--sweep", "--format", "json"],
]


def main() -> int:
    failed = 0
    for argv in BATTERY:
        runs = [subprocess.run([sys.executable, "-m", "dworkcong.cli", *argv],
                               capture_output=True, timeout=300) for _ in range(2)]
        codes = [run.returncode for run in runs]
        ok = codes == [0, 0] and runs[0].stdout == runs[1].stdout
        failed += not ok
        print("ok  " if ok else f"FAIL exit {codes}", " ".join(argv))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Record bench/expected.json: exit code and stdout digest of every op.

    python3 bench/record_expected.py

The digests are the correctness reference of bench/run.py, so record them
only from a commit whose reports are trusted (they were recorded from the
seed commit); reports are byte-identical by contract, so they stay valid
until an op list changes.
"""

import json
import time

import run

expected = {}
for name in sorted(run.WORKLOADS):
    ops = run.workload_ops(name, 0)
    reply = run.run_child("run", ops, "", time.monotonic() + 600)
    for op in reply["ops"]:
        expected[json.dumps(op["argv"])] = {"exit": op["exit"],
                                            "sha256": run.digest(op["stdout"])}
with open(run.EXPECTED, "w", encoding="utf-8") as fh:
    json.dump(expected, fh, indent=1, sort_keys=True)
    fh.write("\n")
print(f"recorded {len(expected)} ops in {run.EXPECTED}")

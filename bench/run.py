"""The dworkcong benchmark: CLI workloads timed end to end, traced by layer.

    python3 bench/run.py --workload verdicts --seed 1 --seconds 42 --trace 0

A run drives the public CLI contract, `dworkcong.cli.main(argv)` with
`--format json`, as a closed loop with one client.  Each pass over a
workload's op list runs in a fresh interpreter (bench/child.py), so the
library's process-wide caches start cold, as they do for a CLI user.  Passes
repeat while another one fits in `--seconds`; there is always at least one.

Times are CPU seconds of the child, scaled to a fixed reference speed by a
reference kernel the child times between and during the ops (see
bench/child.py and bench/README.md), because the shared host's speed
drifts by tens of percent within a run.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and reports the per-layer metrics of bench/spans.py plus
the tracing overhead.  Every op's exit code and stdout bytes are checked
against digests recorded from the seed commit (bench/expected.json), `ct`
values against independent oracles, and unit-root rows against the Hasse
bound and the unit-root agreement.  The last stdout line is the result
object; the exit code is 0 only when every check held.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from math import comb, factorial

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
EXPECTED = os.path.join(BENCH, "expected.json")

SETUP_PROBES = 7  # set-up-only children per untraced run, after one warm-up
# Typical CPU time of child.reference_kernel on the host where the benchmark
# was defined (2-vCPU Xeon KVM guest, Python 3.11.7).  Times are reported at
# that speed: CPU seconds times REFERENCE_S over the mean reference time
# measured while they ran, so the host's changes of speed cancel.
REFERENCE_S = 0.0047
OP_MIN_REFS = 10  # an op with fewer samples inside it borrows its neighbours'
RUN_BUDGET_S = 170  # a run must end well inside three minutes

APERY = "(1+x1)*(1+x2)*(1+x1+x2)/(x1*x2)"
CHEB = "x1+x1^-1"
TRIANGLE = "x1+x2+x1^-1*x2^-1"
SIMPLEX3 = "x1+x2+x3+x1^-1*x2^-1*x3^-1"


def _verdict_ops():
    ops = [  # acceptance criterion 10
        ["ct", "--poly", APERY, "--d", "2", "--N", "60"],
        ["newton", "--poly", APERY, "--d", "2"],
        ["check", "c2", "--p", "3", "--s", "2"],
        ["check", "c1", "--p", "2", "--s", "2"],
        ["check", "dig2", "--p", "2", "--s", "2", "--nmax", "15", "--mmax", "3"],
        ["check", "digit", "--p", "3", "--N", "30"],
        ["check", "lemma", "--p", "2", "--nmax", "15"],
        ["unitroot", "--p", "5", "--s", "2", "--sweep"],
    ]
    # Each check kind at one, two or all four primes per polynomial, rotating
    # so every kind meets every p in {2, 3, 5, 7}; s = 2 for p <= 3, else 1.
    # The op counts put the median latency in the middle of the
    # x1+x2+x1^-1*x2^-1 ops, not on the edge between two polynomials whose
    # checks differ twofold in cost, where noise would flip it between them.
    primes = (2, 3, 5, 7)
    for poly, d, shifts in ((CHEB, 1, (0, 1, 2, 3)), (TRIANGLE, 2, (0, 2)),
                            (APERY, 2, (1,)), (SIMPLEX3, 3, (3,))):
        for i, kind in enumerate(("c2", "c1", "dig2", "digit")):
            for shift in shifts:
                p = primes[(i + shift) % 4]
                argv = ["check", kind, "--poly", poly, "--d", str(d), "--p", str(p)]
                if kind != "digit":
                    argv += ["--s", "2" if p <= 3 else "1"]
                ops.append(argv)
    # negative controls: refused as not admissible (exit 2), and a forced
    # check that fails with a witness (exit 1)
    ops.append(["check", "c2", "--poly", "(x1+x1^-1)^3", "--d", "1",
                "--p", "3", "--s", "1"])
    ops.append(["check", "c2", "--poly", "x1^2+x1^-2+x1", "--d", "1",
                "--p", "3", "--s", "1", "--force"])
    return ops


def _power_ops():
    return [
        ["check", "c2", "--p", "3", "--s", "3"],
        ["check", "c2", "--p", "5", "--s", "2"],
        ["check", "lemma", "--p", "3", "--nmax", "50"],
        ["check", "c1", "--p", "2", "--s", "5"],
        ["ct", "--poly", SIMPLEX3, "--d", "3", "--N", "63", "--p", "2", "--K", "4"],
    ]


def _zeta_ops():
    # Criterion 09's sweeps for p in {5, 7}, s in {1, 2, 3}, in its order,
    # then deep-s sweeps where the Apery recurrence and the p-adic steps
    # weigh more than the smoothness scan.  p = 11 is left out: its scan
    # alone takes 18 s, which leaves room for one pass per run and makes the
    # run's figures a single noisy sample.  The deep-s ops also keep the
    # median latency off the fast cache-hit ops, whose few milliseconds
    # depend on when the garbage collector happens to run.
    ps = [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3), (3, 8), (3, 9),
          (5, 6), (7, 5)]
    return [["unitroot", "--p", str(p), "--s", str(s), "--sweep", "--jobs", "1"]
            for p, s in ps]


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


# name -> (ops, cache key).  Ops with the same key keep their listed order
# under every seed: `verdicts` repeats polynomials (a cross-call memo would be
# keyed on them) and `zeta` repeats primes (the smoothness cache is), so the
# seed changes the interleaving but never which op finds a cache cold.
WORKLOADS = {
    "verdicts": (_verdict_ops, lambda argv: _option(argv, "--poly", APERY)),
    "powers": (_power_ops, lambda argv: " ".join(argv)),
    "zeta": (_zeta_ops, lambda argv: _option(argv, "--p")),
}


def workload_ops(name, seed):
    """The workload's argv lists, deterministically permuted by `seed`."""
    make, key = WORKLOADS[name]
    ops = [argv + ["--format", "json"] for argv in make()]
    queues = {}
    for argv in ops:
        queues.setdefault(key(argv), []).append(argv)
    order = [key(argv) for argv in ops]
    random.Random(seed).shuffle(order)
    return [queues[k].pop(0) for k in order]


# -- correctness ------------------------------------------------------------


def digest(stdout):
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def _ct_oracles(poly, n_max):
    """Independent sequences b_0..b_n_max for the `ct` polynomials in use."""
    if poly == APERY:
        from dworkcong.apery import apery_numbers

        return [apery_numbers(n_max),
                [sum(comb(n, k) ** 2 * comb(n + k, k) for k in range(n + 1))
                 for n in range(n_max + 1)]]
    if poly == SIMPLEX3:  # [x^0] (x1+x2+x3+1/(x1x2x3))^(4k) = (4k)!/(k!)^4
        return [[factorial(n) // factorial(n // 4) ** 4 if n % 4 == 0 else 0
                 for n in range(n_max + 1)]]
    return []


def _check_document(argv, code, doc):
    """Semantic checks on one op's report; returns a failure reason or None."""
    command = argv[0]
    if command == "ct":
        p, K = _option(argv, "--p"), _option(argv, "--K")
        modulus = int(p) ** int(K) if p else None
        got = [int(v) for v in doc["results"][0]["b"]]
        oracles = _ct_oracles(_option(argv, "--poly", APERY), int(_option(argv, "--N")))
        if not oracles:
            return "no ct oracle for this polynomial"
        for oracle in oracles:
            if got != [v % modulus if modulus else v for v in oracle]:
                return "ct values disagree with an oracle"
    elif command == "check":
        result = doc["results"][0]
        if (result["verdict"] == "pass") != (code == 0):
            return "verdict does not match the exit code"
        if code == 1 and not result["witness"]:
            return "failed check without a witness"
    elif command == "unitroot":
        p = int(_option(argv, "--p"))
        rows = doc["results"]
        if [row["t"] for row in rows] != list(range(1, p)):
            return "sweep does not cover every t in F_p^*"
        for row in rows:
            if not row["smooth"]:
                continue
            if not row["hasse_agree"] or row["a_p"] ** 2 > 4 * p:
                return f"Hasse check failed at t={row['t']}"
            if row["ordinary"] and not row["agree"]:
                return f"unit root disagrees at t={row['t']}"
    return None


def check_op(op, expected):
    """Failure reason for one executed op, or None when every check holds."""
    argv, code, stdout = op["argv"], op["exit"], op["stdout"]
    if op["error"]:
        return f"raised {op['error']}"
    want = expected.get(json.dumps(argv))
    if want is None:
        return "no recorded digest for this argv"
    if code != want["exit"]:
        return f"exit {code}, expected {want['exit']}"
    if digest(stdout) != want["sha256"]:
        return "stdout differs from the recorded digest"
    if code == 2:
        return None if stdout == "" else "refused op wrote a report"
    return _check_document(argv, code, json.loads(stdout))


# -- per-layer predictions -------------------------------------------------

# Per-layer metrics each workload is predicted to load: all must be non-zero
# there.  See bench/README.md for the end-to-end metric each should move.
LOADS = {
    "verdicts": ["polyparse.parse_poly.calls", "polyparse.self_s",
                 "polytope.is_admissible.calls", "polytope.contains.calls",
                 "polytope.vertices.calls", "polytope.self_s",
                 "laurent.mul.calls", "laurent.mul_exact.self_s",
                 "congruence.checks", "congruence.self_s",
                 "cli.requests", "cli.bytes_out", "cli.self_s"],
    "powers": ["laurent.mul.calls", "laurent.mul.term_pairs",
               "laurent.mul.terms_out", "laurent.mul_mod.self_s",
               "laurent.b_terms", "laurent.series.self_s",
               "laurent.ct_of_product.self_s", "ghost.c_direct.calls",
               "ghost.tuples_summed", "ghost.ghost_term.calls", "ghost.self_s"],
    "zeta": ["apery.terms", "apery.self_s", "padic.calls", "padic.self_s",
             "unitroot.fibers", "unitroot.is_smooth_cubic.calls",
             "unitroot.smooth_cache.hit_ratio", "unitroot.smooth.self_s",
             "unitroot.count_points.self_s", "unitroot.self_s"],
}


def _bypassed(workload, metric):
    """Whether `metric` is predicted to stay exactly zero on `workload`."""
    if workload == "zeta":
        return metric.startswith(("laurent.", "polytope."))
    return workload == "powers" and metric == "laurent.mul_exact.self_s"


def self_test(workload, layers):
    """Violated load and bypass predictions, as readable strings."""
    problems = [f"{m} is 0 on {workload}" for m in LOADS[workload] if not layers[m]]
    problems += [f"{m} is {v} on {workload}, predicted 0"
                 for m, v in layers.items() if _bypassed(workload, m) and v]
    return problems


# -- running ----------------------------------------------------------------


class ChildFailed(Exception):
    pass


def run_child(mode, ops, spans_path, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    request = json.dumps({"ops": ops, "spans_path": spans_path})
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), mode],
            input=request, capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} pass timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{mode} pass exited {proc.returncode}: "
                          + proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_nonblank_lines():
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    total += sum(1 for line in fh if line.strip())
    return total


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_passes(args, ops, expected):
    """Set-up probes, then passes until the next would overrun `--seconds`.

    Returns (set-up probes, passes, attempted, failed, failures), where each
    failure is `{"argv", "reason"}`, argv being None when a pass was lost.
    """
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    modes = ["run", "trace"] if args.trace else ["run"]
    setups, passes, durations, failures = [], [], [], []
    attempted = failed = 0
    try:
        if not args.trace:
            for i in range(SETUP_PROBES + 1):
                reply = run_child("setup", [], spans_path, deadline)
                if i:  # the first one also writes the bytecode cache
                    setups.append(reply)
        while True:
            mode = modes[len(passes) % len(modes)]
            t0 = time.monotonic()
            reply = run_child(mode, ops, spans_path, deadline)
            durations.append(time.monotonic() - t0)
            reply["mode"] = mode
            passes.append(reply)
            for op in reply["ops"]:
                attempted += 1
                reason = check_op(op, expected)
                if reason:
                    failed += 1
                    failures.append({"argv": op["argv"], "reason": reason})
            elapsed = time.monotonic() - started
            if (len(passes) >= len(modes)
                    and elapsed + statistics.median(durations) > args.seconds):
                break
    except ChildFailed as exc:
        attempted += len(ops)
        failed += len(ops)
        failures.append({"argv": None, "reason": str(exc)})
    return setups, passes, attempted, failed, failures


def speed(ref_s):
    """Factor that scales CPU seconds to the reference speed, from the
    reference samples taken while they ran.  The samples are spread evenly
    over CPU time, so the mean speed, 1 / harmonic mean of the sample
    times, is the one the work ran at."""
    return REFERENCE_S / statistics.harmonic_mean(ref_s)


def op_seconds(reply):
    """The pass's op times at the reference speed.  Each op is scaled by the
    samples taken inside it, widened on both sides to OP_MIN_REFS."""
    refs, seconds = reply["ref_s"], []
    for op in reply["ops"]:
        first, last = op["refs"]
        pad = max(0, OP_MIN_REFS - (last - first) + 1) // 2
        seconds.append(op["cpu_s"] * speed(refs[max(first - pad, 0):last + pad]))
    return seconds


def op_medians(untraced):
    """Each op's median time over the run's passes, keyed by its argv."""
    per_op = {}
    for r in untraced:
        for op, seconds in zip(r["ops"], op_seconds(r)):
            per_op.setdefault(json.dumps(op["argv"]), []).append(seconds)
    return {argv: statistics.median(v) for argv, v in per_op.items()}


def end_to_end_values(setups, untraced):
    # one value per op, so the figures do not depend on how many passes fit
    latencies = list(op_medians(untraced).values())
    return {
        # set-up is too short to scale by its own samples; it takes the run's
        "setup_s": statistics.median(r["setup_cpu_s"] for r in setups + untraced)
                   * speed([t for r in setups + untraced for t in r["ref_s"]]),
        "solve_s": sum(latencies),
        "op_s.p50": statistics.median(latencies),
        "op_s.p90": p90(latencies),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in untraced),
    }


def layer_values(untraced, traced):
    # counts repeat exactly from pass to pass; times take the median
    values = {name: statistics.median(r["layers"][name] for r in traced)
              if name.endswith("self_s") else value
              for name, value in traced[0]["layers"].items()}
    values["cli.bytes_out"] = sum(len(op["stdout"].encode("utf-8"))
                                  for op in traced[0]["ops"])
    values["trace.overhead_s"] = (
        statistics.median(sum(op_seconds(r)) for r in traced)
        - statistics.median(sum(op_seconds(r)) for r in untraced))
    values["code.src_nonblank_lines"] = src_nonblank_lines()
    return values


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dworkcong", "cli.py")):
        print(f"error: no dworkcong sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # for the ct oracle
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    ops = workload_ops(args.workload, args.seed)
    setups, passes, attempted, failed, failures = run_passes(args, ops, expected)
    untraced = [r for r in passes if r["mode"] == "run"]
    traced = [r for r in passes if r["mode"] == "trace"]
    values, problems = {}, []
    if untraced and args.trace and traced:
        values = layer_values(untraced, traced)
        problems = self_test(args.workload, values)
    elif untraced and not args.trace:
        values = end_to_end_values(setups, untraced)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    if len(metrics) != len(declared):
        problems.append("metrics not produced: " + ", ".join(
            m["name"] for m in declared if m["name"] not in values))

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "traced_passes": len(traced),
        "latency_samples": len(ops) * len(untraced),
        "environment": {"python": platform.python_version(),
                        "nproc": len(os.sched_getaffinity(0)),
                        "loadavg": os.getloadavg()},
        "src_nonblank_lines": src_nonblank_lines(),
        "argv": ops,
        "op_s_median": op_medians(untraced),
        "pass_cpu_s": [r["cpu_s"] for r in untraced],
        "pass_wall_s": [r["wall_s"] for r in untraced],
        "pass_ref_s": [statistics.harmonic_mean(r["ref_s"]) for r in untraced],
        "failures": failures,
        "self_test_problems": problems,
    }))
    correct = not failures and not problems
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

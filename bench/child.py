"""One pass of a workload in a fresh interpreter, as a CLI user would run it.

Started by run.py as

    python3 bench/child.py MODE < request.json

MODE is `setup` (stop once ready), `run` (run the ops untraced) or `trace`
(run them under bench/spans.py).  The request is
`{"ops": [[argv...], ...], "spans_path": str}`; the reply is one JSON line
on stdout.

Times are CPU seconds: of the main thread for ops, which runs the whole
single-threaded program, and of the process for set-up.  On an idle
machine they equal the time a user waits; unlike wall time they do not
grow while other tenants of a shared host hold the cores.  The thread
clock also keeps its resolution while the profiling timer below is armed,
which the process clock does not.  The
host's speed still varies by 10-30 %, within seconds and over minutes, so
the child also times a fixed reference kernel: a few times before the
first op, and in an untraced pass every REF_INTERVAL_S of CPU time, from a
profiling-timer signal that interrupts the ops.  Each op's CPU time
excludes the samples taken inside it.  The reply lists every sample in
`ref_s`, and each op gives the index range of its own in `refs`, so run.py
can scale the op by the host's speed around the time it ran.
"""

import json
import sys
import time

import dworkcong.cli

REF_REPEATS = 5  # reference samples before the first op
REF_INTERVAL_S = 0.1  # CPU seconds between reference samples during ops


def reference_kernel():
    """CPU time of a fixed slice of the kind of work the program does: a
    sparse product of two 121-term Laurent-like dicts modulo a prime, about
    5 ms.  It uses no dworkcong code, so a change to the program cannot
    change it.  It allocates only ints and untracked dicts, so it neither
    triggers the garbage collector nor moves the point where the program's
    next collection falls.
    """
    t0 = time.thread_time()
    a = {}
    for i in range(-5, 6):
        for j in range(-5, 6):
            a[64 * i + j] = 7 * i + j  # x1^i x2^j, exponents packed in one int
    product = {}
    for ka, u in a.items():
        for kb, v in a.items():
            key = ka + kb
            product[key] = (product.get(key, 0) + u * v) % 1000003
    return time.thread_time() - t0


def run_ops(ops, recorder, refs):
    """Run every op through `dworkcong.cli.main`; returns the op results.

    Reference samples taken while an op runs are appended to `refs`.
    """
    import contextlib
    import gc
    import io

    main = dworkcong.cli.main
    results = []
    for index, argv in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        error = None
        gc.collect()  # each op starts from a clean heap, as a new CLI process does
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # a sample that lands between the clock and the count is timed
            # with the op, never subtracted from it
            t0, c0 = time.perf_counter(), time.thread_time()
            before = len(refs)
            try:
                if recorder is None:
                    code = main(list(argv))
                else:
                    code = recorder.call_cli(main, list(argv), index)
            except Exception as exc:  # the real CLI would die with a traceback
                code, error = None, repr(exc)
            after = len(refs)
            t1, c1 = time.perf_counter(), time.thread_time()
        inside = sum(refs[before:after])
        results.append({"argv": argv, "exit": code, "stdout": out.getvalue(),
                        "cpu_s": c1 - c0 - inside, "wall_s": t1 - t0 - inside,
                        "refs": [before, after], "error": error})
    return results


def main():
    mode = sys.argv[1]
    request = json.load(sys.stdin)
    ops = [list(argv) for argv in request["ops"]]
    # set-up is interpreter start, `import dworkcong` and reading the argv
    # lists; the process CPU clock starts with the process
    reply = {"setup_cpu_s": time.process_time()}
    # harness imports come after set-up: they are not part of the program
    import resource
    import signal

    refs = reply["ref_s"] = [reference_kernel() for _ in range(REF_REPEATS)]
    if mode in ("run", "trace"):
        recorder = None
        if mode == "trace":  # no sampling: it would land in the spans
            import spans

            recorder = spans.Recorder()
            recorder.install()
        else:
            signal.signal(signal.SIGPROF, lambda *_: refs.append(reference_kernel()))
            signal.setitimer(signal.ITIMER_PROF, REF_INTERVAL_S, REF_INTERVAL_S)
        reply["ops"] = run_ops(ops, recorder, refs)
        signal.setitimer(signal.ITIMER_PROF, 0)
        reply["cpu_s"] = sum(op["cpu_s"] for op in reply["ops"])
        reply["wall_s"] = sum(op["wall_s"] for op in reply["ops"])
        if recorder is not None:
            reply["layers"] = recorder.layer_metrics()
            recorder.write(request["spans_path"])
    # ru_maxrss is in KiB on Linux
    reply["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()

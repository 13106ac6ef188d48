"""One round of a workload in a fresh interpreter.

    python3 perfbench/one_round.py --workload W --seed N --launch T [--trace] [--probe]

T is the `time.monotonic()` reading of the parent just before it started
this process; set-up time runs from T to the first timed operation and so
covers interpreter start and `import unimodular` (numpy included).  With
--probe the round stops there.  The last stdout line is a JSON record.

The machine's speed moves by up to a factor of two within a minute, so the
round also times a fixed reference computation of the benchmark's own
before its first operation and then after every REF_EVERY_S seconds of
timed operations, outside the timed spans.  `wall_ref` and `cpu_ref` are
the round's wall and CPU time over the mean reference time: the cost of
the workload in units of a computation that does not depend on the
program, measured at the same moments.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import checks

#: timed work between two samples of the reference computation
REF_EVERY_S = 0.5
#: the reference: a product of two dense 1500-term q-series, about 1.1 M
#: multiply-adds on dicts of small ints, 0.1-0.25 s
_DENSE = {e: e % 7 + 1 for e in range(1500)}


def reference_s() -> float:
    t0 = time.perf_counter()
    checks.series_mul(_DENSE, _DENSE, len(_DENSE))
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    import unimodular  # noqa: F401  (set-up covers this import)
    import workloads
    from tracing import Tracer

    tracer = Tracer().install() if args.trace else None
    ops = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.launch
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    refs = [reference_s()]
    since_ref = 0.0
    ctx: dict = {}
    wall = cpu = 0.0
    failed = 0
    wrong: list[str] = []
    per_op = []
    for op in ops:
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = op.run(ctx)
            error = None
        except Exception as exc:  # recorded below, not fatal to the round
            error = "%s: %s" % (type(exc).__name__, exc)
            if not op.fault:
                traceback.print_exc()
        dt = time.perf_counter() - t0
        dc = time.process_time() - c0
        wall += dt
        cpu += dc
        reason = error or op.check(result, ctx)
        # only a known fault's error or wrong answer counts as a failure;
        # from any other operation either one makes the round wrong
        counted = bool(reason) and bool(op.fault)
        if reason and not op.fault:
            wrong.append("%s: %s" % (op.name, reason))
            print("%s: %s" % (op.name, reason), file=sys.stderr)
        failed += counted
        per_op.append({"op": op.name, "wall_s": dt, "failed": counted})
        since_ref += dt
        if since_ref >= REF_EVERY_S or op is ops[-1]:
            refs.append(reference_s())
            since_ref = 0.0

    out = {
        "correct": not wrong,
        "wrong": wrong,
        "attempted": len(ops),
        "failed": failed,
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "wall_ref": wall / statistics.mean(refs),
        "cpu_ref": cpu / statistics.mean(refs),
        "ref_s": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": per_op,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

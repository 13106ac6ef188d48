"""Regenerate the figures quoted in perfbench/README.md.

    python3 perfbench/report.py [--seeds 10] [--sets 2] [--first-seed 101]

Runs `run.py` untraced once per seed on every workload, in `--sets` sets
one after the other; set k uses seeds first-seed + 100 k onwards.  For
each set it prints each end-to-end metric's median, quartiles and spread
(interquartile range over median).  Then, for each metric, how much worse
each set's median is than every other set's, in both orders, against the
metric's bound.  Last, it runs each workload traced once with the first
seed and prints the per-layer figures and the tracing overhead (traced
minus set 1's median untraced wall_ref).  Every run's JSON line is kept in
perfbench/out/report.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = BENCH["run_seconds"]
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
LOWER_BETTER = {m["name"]: m["better"] == "lower" for m in BENCH["end_to_end"]}


def run(log, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    log.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                          "result": result}) + "\n")
    log.flush()
    return result


def worse(name: str, new: float, old: float) -> float:
    """Share by which `new` is worse than `old` (negative when better)."""
    return (new - old) / old if LOWER_BETTER[name] else (old - new) / old


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=101)
    args = ap.parse_args()
    (HERE / "out").mkdir(exist_ok=True)
    log = open(HERE / "out" / "report.jsonl", "a")

    medians = {}  # (set, workload, metric) -> median over the set's seeds
    for k in range(args.sets):
        first = args.first_seed + 100 * k
        for w in WORKLOADS:
            results = [run(log, w, seed, 0) for seed in range(first, first + args.seeds)]
            shares = {(r["failed"], r["attempted"]) for r in results}
            print("## set %d, %s: seeds %d..%d, correct=%s, failed/attempted=%s"
                  % (k + 1, w, first, first + args.seeds - 1,
                     all(r["correct"] for r in results), sorted(shares)))
            print("%-14s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3", "spread"))
            for name in BOUNDS:
                vals = [r["metrics"][name]["value"] for r in results]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
                print("%-14s %12.4f %12.4f %12.4f %8.3f" % (name, med, q1, q3, (q3 - q1) / med))
                medians[k, w, name] = med
            print(flush=True)

    if args.sets > 1:
        print("## worse than another set's median, as a share (bound in brackets)")
        for w in WORKLOADS:
            for name, bound in BOUNDS.items():
                pairs = ["set %d vs %d %+.3f" % (a + 1, b + 1, worse(name, medians[a, w, name],
                                                                     medians[b, w, name]))
                         for a in range(args.sets) for b in range(args.sets) if a != b]
                print("%-8s %-12s [%.2f]  %s" % (w, name, bound, ", ".join(pairs)))
        print(flush=True)

    for w in WORKLOADS:
        t = run(log, w, args.first_seed, 1)
        rec = json.loads((HERE / "out" / ("%s-seed%d-trace1.json" % (w, args.first_seed))).read_text())
        traced = statistics.median(r["wall_ref"] for r in rec["rounds"])
        untraced = medians[0, w, "wall_ref"]
        print("## traced %s, seed %d: wall_ref %.3f, untraced median %.3f, overhead %+.3f ref (%+.1f%%)"
              % (w, args.first_seed, traced, untraced, traced - untraced,
                 100 * (traced - untraced) / untraced))
        for name, m in t["metrics"].items():
            if m["value"]:
                print("  %-30s %14.6g %s" % (name, m["value"], m["unit"]))
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

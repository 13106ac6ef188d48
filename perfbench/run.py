"""Benchmark entry point: one workload, one seed, whole rounds.

    python3 perfbench/run.py --workload {series,certify,theta} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src/` directory.  Each round runs the workload's operations once in a
fresh interpreter, so every cache starts cold, as it does for a `unimod`
call.  Rounds repeat until S seconds have passed (at least one round).
Extra interpreters that only start up and import the program (probes)
sample the set-up time, half before the rounds and half after.  `setup_s`
is the median over the probes and rounds; every other metric is the
median over the run's rounds.  `wall_ref` and `cpu_ref` are the workload's
times in units of a reference computation timed in the same round (see
one_round.py); the raw seconds are printed and kept in the record.  With --trace 1 the rounds are traced and
the per-layer figures are reported instead of the end-to-end ones.
Workloads, metric names and units come from BENCHMARK.json.

The last stdout line is the JSON result; the rounds' records, with the
per-operation times, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

#: interpreters started only to sample set-up time, per run
SETUP_PROBES = 16
#: a round longer than this is killed and fails the run
ROUND_TIMEOUT_S = 170


def child(workload: str, seed: int, trace: bool, probe: bool) -> dict:
    env = dict(os.environ)
    env.pop("UNIMODULAR_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "one_round.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if probe:
        cmd.append("--probe")
    launch = time.monotonic()
    proc = subprocess.run(cmd + ["--launch", repr(launch)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit("round of %s exited with %d" % (workload, proc.returncode))
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in BENCH["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "unimodular" / "__init__.py").is_file():
        print("no program source at %s" % SRC, file=sys.stderr)
        return 2

    def probes(count):
        return [child(args.workload, args.seed, False, True)["setup_s"] for _ in range(count)]

    # probes before and after the rounds, so set-up is sampled across the
    # run; a traced run reports no set-up time and starts none
    n_probes = 0 if args.trace else SETUP_PROBES
    setups = probes(n_probes // 2)
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        rounds.append(child(args.workload, args.seed, bool(args.trace), False))
    setups += probes(n_probes - n_probes // 2) + [r["setup_s"] for r in rounds]

    def med(key):
        return statistics.median(r[key] for r in rounds)

    def value(name):
        if args.trace:
            return statistics.median(r["layers"][name] for r in rounds)
        return statistics.median(setups) if name == "setup_s" else med(name)

    specs = BENCH["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]} for m in specs}

    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    record.write_text(json.dumps({"args": vars(args), "result": result,
                                  "setup_samples": setups, "rounds": rounds}))
    print("%s seed=%d rounds=%d median wall_s=%.3f ref_s=%.3f attempted=%d failed=%d"
          % (args.workload, args.seed, len(rounds), med("wall_s"),
             statistics.median(x for r in rounds for x in r["ref_s"]),
             result["attempted"], result["failed"]))
    for r in rounds:
        for w in r["wrong"]:
            print("WRONG %s" % w)
    for k, m in metrics.items():
        print("  %-32s %14.6g %s" % (k, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

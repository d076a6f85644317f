#!/usr/bin/env python3
"""Steadiness check for the DDUp ledger benchmark.

    python3 ledger/steady.py --workload drift_update --runs 10 [--seed 1]
                             [--seconds S] [--trace 0]

Runs ledger/run.py once per seed (seed, seed+1, ...), then prints, for every
end-to-end metric, the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next to
the metric's bound in BENCHMARK.json. A spread at or above a third of the
bound is flagged "noisy"; at or above the bound, "OVER". Also prints the
share of failed operations per run, which must be identical across runs.
Use --workload all to go through every workload. Run from the repository
root; exits 1 if any run fails or any spread is over its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "ledger/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
        print("\n".join(lines[-20:]))
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workload == "all" else [args.workload])
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    ok = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.seed + i, seconds, args.trace)
            if r is None:
                ok = False
                continue
            results.append(r)
            print("  %s seed %d: correct=%s attempted=%d failed=%d" %
                  (workload, args.seed + i, r["correct"], r["attempted"],
                   r["failed"]), flush=True)
        if len(results) < 2:
            ok = False
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: %d runs, %.0f s each, failed share(s) %s" %
              (workload, len(results), seconds, shares))
        if len(shares) != 1 or not all(r["correct"] for r in results):
            ok = False
        print("  %-40s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                if spread >= bound:
                    flag = "OVER"
                    ok = False
                elif spread >= bound / 3:
                    flag = "noisy"
            print("  %-40s %14.6g %14.6g %14.6g %8.4f %6s %s" %
                  (m["name"], med, q1, q3, spread,
                   "-" if bound is None else "%.2f" % bound, flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the DDUp ledger benchmark from the root of a checkout.

    python3 ledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program is built from source (ledger/CMakeLists.txt plus the library
under src/) into .bench_build/ledger; build output goes to stderr. The last
stdout line is the run's JSON result: {"correct", "attempted", "failed",
"metrics"}, with every end-to-end metric of BENCHMARK.json for --trace 0 and
every per-layer metric for --trace 1. Checkpoints, the full report and the
reduced trace land in .bench_build/ledger-run.

Exits non-zero without a result when the sources are missing, the build
fails, or the program's result does not carry exactly the metrics that
BENCHMARK.json lists.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "ledger")
WORK_DIR = os.path.join(".bench_build", "ledger-run")
BINARY = os.path.join(BUILD_DIR, "ddup_ledger")
# One run must finish in 180 s; the program itself takes run_seconds plus
# its set-up and epilogue (README.md, "Run time").
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("ledger/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("src/CMakeLists.txt", "src/api/engine.h",
                   "ledger/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail("missing %s: run from the root of a full checkout" % needed)
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = [cmake, "-S", "ledger", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    if subprocess.call([cmake, "--build", BUILD_DIR, "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed")


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("the program printed no result (exit %d)" % proc.returncode, 1)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong_unit = sorted(n for n in set(want) & set(got)
                            if want[n] != got[n])
        sys.stdout.write(proc.stdout)
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit %s" % (missing, extra, wrong_unit), 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Builds the benchmark binary (and the program's libraries) from source into
.bench_build/ at the root of the checkout, then runs one workload:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last stdout line is the binary's result object. Build output goes to
stderr. `--smoke` instead runs every workload, end-to-end and traced, on tiny
inputs and exits non-zero unless each run is correct and reports exactly the
metrics BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "gdp_e2ebench")


def build():
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no program sources under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "gdp_e2ebench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2ebench: build step failed: %s" % " ".join(step))


def run(args):
    """Runs one workload; returns (exit code, last stdout line)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def smoke():
    """Every workload, both modes, tiny inputs: correct and complete?"""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, last = run(["--workload", workload, "--seed", "1",
                              "--seconds", "0", "--trace", trace, "--smoke"])
            try:
                result = json.loads(last)
            except ValueError:
                result = None
            expected = {m["name"]: m["unit"] for m in spec[key]}
            good = (code == 0 and result is not None and result["correct"]
                    and result["failed"] == 0 and result["attempted"] >= 1
                    and {k: v["unit"] for k, v in result["metrics"].items()}
                    == expected)
            print("smoke %-18s trace=%s %s" % (workload, trace,
                                               "ok" if good else "FAILED"),
                  file=sys.stderr)
            ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    build()
    if args.smoke:
        return smoke()
    code, _ = run(["--workload", args.workload, "--seed", args.seed,
                   "--seconds", args.seconds, "--trace", args.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())

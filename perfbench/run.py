#!/usr/bin/env python3
"""Builds the Rock benchmark runner from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--scale <k>]
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a checkout. The runner is built with CMake under
$CARGO_TARGET_DIR (default .bench_build) inside the checkout; the first run
builds the library from src/, later runs only check that it is up to date.
The last line of standard output is the JSON result. --trace 1 also writes
the recorded spans to .bench_build/perfbench/spans-<workload>-<seed>.json.

`--workload all` runs the three workloads one after another (untraced) and
prints each one's human-readable lines, which name the end-to-end metrics
the way perfbench/README.md does; it prints no JSON line.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("logistics-detect", "bank-correct", "bank-serve")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        sys.exit("perfbench: Rock sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed (see %s)" % log_path)
    return os.path.join(out, "rock_perfbench")


def run(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir(), "spans-%s-%d.json" % (workload, args.seed))]
    return subprocess.run(cmd, cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1; held-out: 9001)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=1,
                        help="divide data sizes by this (smoke test only)")
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        return run(binary, args.workload, args)
    args.trace = 0
    for workload in WORKLOADS:
        print("== %s (seed %d)" % (workload, args.seed), flush=True)
        result = subprocess.run(
            [binary, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0",
             "--scale", str(args.scale)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if result.returncode != 0:
            return result.returncode
        # Every line but the JSON result.
        print("\n".join(result.stdout.strip().splitlines()[:-1]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

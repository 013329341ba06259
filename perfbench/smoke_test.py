#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (data divided by 4).

    python3 perfbench/smoke_test.py

Checks that
  1. every workload's measured run reports correct=true and every
     end-to-end metric of BENCHMARK.json, with its unit;
  2. the traced run reports every per-layer metric, with its unit;
  3. counts repeat exactly across two traced runs with one seed (the
     pool's steal count is timing-dependent and exempt);
  4. a different seed changes the data, so some count changes.
Exits 0 when all hold. Takes about a minute after the build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step)

SCALE = "4"
failures = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def result_of(binary, workload, seed, trace):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         "1", "--trace", str(trace), "--scale", SCALE],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        check(False, "%s seed %d trace %d exits 0" % (workload, seed, trace))
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def has_all(result, specs, label):
    missing = [m["name"] for m in specs
               if result["metrics"].get(m["name"], {}).get("unit")
               != m["unit"]]
    check(not missing, "%s reports every metric with its unit%s" % (
        label, "" if not missing else " (missing: %s)" % ", ".join(missing)))


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count" and "stolen" not in name}


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    binary = run.build()

    for workload in run.WORKLOADS:
        result = result_of(binary, workload, 1, 0)
        if result is None:
            continue
        check(result["correct"] and result["attempted"] >= 1,
              "%s measured run is correct" % workload)
        has_all(result, config["end_to_end"], workload)

    first = result_of(binary, "bank-serve", 1, 1)
    again = result_of(binary, "bank-serve", 1, 1)
    other = result_of(binary, "bank-serve", 2, 1)
    if None in (first, again, other):
        return 1
    has_all(first, config["per_layer"], "traced run")
    check(first["correct"], "traced run is correct")
    differ = sorted(name for name, value in counts(first).items()
                    if counts(again).get(name) != value)
    check(not differ, "counts repeat with one seed%s" % (
        "" if not differ else " (differ: %s)" % ", ".join(differ)))
    check(counts(first) != counts(other), "another seed changes the data")

    print("\n%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Gates the perf-critical bench phases against a checked-in baseline.

Usage:
  check_perf_ratchet.py --bench-dir DIR [--baseline FILE]
                        [--tolerance X] [--speedup-margin F]
                        [--update-baseline] [--self-test]

Reads the BENCH_<name>.json files that the bench binaries emit (see
bench/bench_telemetry.h) and applies three kinds of teeth:

  ratios    Hardware-robust invariants between two phases of the same
            bench run: the `denominator` phase must stay at least `min`
            times faster than the `numerator` phase. Both sides ran on
            the same machine moments apart, so these gate tightly on any
            hardware. The checked-in baseline declares none today.
  phases    Absolute per-phase ceilings: measured <= baseline *
            tolerance. The default tolerance (2.5x) is deliberately
            loose — CI runners vary — so this only catches
            order-of-magnitude regressions (an accidentally quadratic
            loop, a lost index), never scheduler jitter.
  speedups  Floors on scalar results (the fig-4 measured_speedup
            numbers): measured >= floor. Floors are recorded with a
            margin off the observed value for the same reason.

A phase or result named in the baseline but absent from the JSON fails:
silently dropping a bench from the build must not read as "no
regression". `--update-baseline` rewrites the measured phase times and
re-derives the speedup floors (measured * (1 - speedup-margin)) while
preserving the ratio policy; run it on the CI reference hardware and
commit the result when a deliberate perf change moves the floors.

No third-party modules.
"""

import argparse
import json
import os
import sys

DEFAULT_BASELINE = "scripts/perf_baseline.json"

# Ratio policy lives in the baseline file, so a policy change is a
# reviewed diff of scripts/perf_baseline.json; --update-baseline keeps it.

# Benches whose phases are ratcheted; "total" moves with machine load and
# bench count, so it is excluded from the recorded ceilings.
PHASE_BENCHES = ["micro_perf"]
SKIPPED_PHASES = {"total"}

# (bench, result key) pairs whose floors --update-baseline records.
SPEEDUP_KEYS = [
    ("fig4_scale_ed", "simulated_speedup_n4_to_n20"),
    ("fig4_scale_ed", "threaded_speedup_w1_to_w4"),
    ("fig4_scale_ec", "simulated_speedup_n4_to_n20"),
]


def load_bench(bench_dir, name):
    """Parsed BENCH_<name>.json, or None with a message when unreadable."""
    path = os.path.join(bench_dir, f"BENCH_{name}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"FAIL unreadable bench output {path}: {err}")
        return None


def check_ratios(benches, ratios):
    ok = True
    for ratio in ratios:
        doc = benches.get(ratio["bench"])
        if doc is None:
            ok = False
            continue
        phases = doc.get("phases", {})
        num = phases.get(ratio["numerator"])
        den = phases.get(ratio["denominator"])
        if not num or not den:
            print(f"FAIL ratio {ratio['name']}: missing phase "
                  f"{ratio['numerator']!r} or {ratio['denominator']!r} in "
                  f"BENCH_{ratio['bench']}.json")
            ok = False
            continue
        measured = num / den
        verdict = "OK  " if measured >= ratio["min"] else "FAIL"
        print(f"{verdict} ratio {ratio['name']}: {measured:.2f}x "
              f"(floor {ratio['min']:.2f}x)")
        if measured < ratio["min"]:
            ok = False
    return ok


def check_phases(benches, baseline_phases, tolerance):
    ok = True
    for bench, ceilings in sorted(baseline_phases.items()):
        doc = benches.get(bench)
        if doc is None:
            ok = False
            continue
        phases = doc.get("phases", {})
        for phase, base in sorted(ceilings.items()):
            measured = phases.get(phase)
            if measured is None:
                print(f"FAIL phase {bench}/{phase}: absent from bench "
                      f"output (baselined phases may not be dropped)")
                ok = False
                continue
            limit = base * tolerance
            verdict = "OK  " if measured <= limit else "FAIL"
            print(f"{verdict} phase {bench}/{phase}: {measured:.3e}s "
                  f"(baseline {base:.3e}s, limit {limit:.3e}s)")
            if measured > limit:
                ok = False
    return ok


def check_speedups(benches, floors):
    ok = True
    for bench, keys in sorted(floors.items()):
        doc = benches.get(bench)
        if doc is None:
            ok = False
            continue
        results = doc.get("results", {})
        for key, floor in sorted(keys.items()):
            measured = results.get(key)
            if measured is None:
                print(f"FAIL speedup {bench}/{key}: absent from bench "
                      f"output")
                ok = False
                continue
            verdict = "OK  " if measured >= floor else "FAIL"
            print(f"{verdict} speedup {bench}/{key}: {measured:.2f} "
                  f"(floor {floor:.2f})")
            if measured < floor:
                ok = False
    return ok


def check(benches, baseline, tolerance_override=None):
    tolerance = (tolerance_override if tolerance_override is not None
                 else baseline.get("tolerance", 2.5))
    ok = check_ratios(benches, baseline.get("ratios", []))
    ok = check_phases(benches, baseline.get("phases", {}), tolerance) and ok
    ok = check_speedups(benches, baseline.get("speedups", {})) and ok
    return ok


def update(benches, baseline_path, old_baseline, tolerance,
           speedup_margin):
    """Rewrites measured phases/speedup floors, keeping ratio policy."""
    baseline = {
        "tolerance": (tolerance if tolerance is not None
                      else old_baseline.get("tolerance") or 2.5),
        "ratios": old_baseline.get("ratios", []),
        "phases": {},
        "speedups": {},
    }
    for bench in PHASE_BENCHES:
        doc = benches.get(bench)
        if doc is None:
            return False
        phases = {name: seconds
                  for name, seconds in doc.get("phases", {}).items()
                  if name not in SKIPPED_PHASES and seconds > 0}
        if not phases:
            print(f"FAIL {bench}: no positive phase times; refusing to "
                  f"record an empty baseline")
            return False
        baseline["phases"][bench] = phases
        print(f"RECORD {bench}: {len(phases)} phase ceilings")
    for bench, key in SPEEDUP_KEYS:
        doc = benches.get(bench)
        if doc is None:
            return False
        measured = doc.get("results", {}).get(key)
        if measured is None:
            print(f"FAIL {bench}/{key}: result missing; cannot record a "
                  f"floor")
            return False
        floor = round(measured * (1.0 - speedup_margin), 3)
        baseline["speedups"].setdefault(bench, {})[key] = floor
        print(f"RECORD speedup {bench}/{key}: measured {measured:.2f}, "
              f"floor {floor:.2f}")
    with open(baseline_path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {baseline_path}")
    return True


def self_test():
    """Fixture check so a broken ratchet fails loudly, not vacuously."""
    baseline = {
        "tolerance": 2.0,
        "ratios": [{"name": "batched", "bench": "micro_perf",
                    "numerator": "scalar", "denominator": "batched",
                    "min": 2.0}],
        "phases": {"micro_perf": {"scalar": 1e-3, "batched": 2.5e-4}},
        "speedups": {"fig4_scale_ed": {"measured_speedup": 2.0}},
    }
    healthy = {"micro_perf": {
        "phases": {"scalar": 1.1e-3, "batched": 2.6e-4},
        "results": {}},
        "fig4_scale_ed": {"phases": {}, "results":
                          {"measured_speedup": 3.1}}}
    assert check(healthy, baseline), "healthy run must pass"

    # A batched-path regression flips the ratio below its floor even
    # though both phases stay under their absolute ceilings.
    regressed_ratio = json.loads(json.dumps(healthy))
    regressed_ratio["micro_perf"]["phases"]["batched"] = 7e-4
    assert not check(regressed_ratio, baseline), \
        "ratio below floor must fail"

    # An absolute blow-up past tolerance fails even with the ratio intact.
    regressed_abs = json.loads(json.dumps(healthy))
    regressed_abs["micro_perf"]["phases"]["scalar"] = 9e-3
    regressed_abs["micro_perf"]["phases"]["batched"] = 2e-3
    assert not check(regressed_abs, baseline), \
        "phase past tolerance must fail"
    # ... but passes when the caller loosens the tolerance explicitly.
    assert check(regressed_abs, baseline, tolerance_override=20.0)

    # Dropping a baselined phase from the bench output must fail.
    dropped = json.loads(json.dumps(healthy))
    del dropped["micro_perf"]["phases"]["batched"]
    assert not check(dropped, baseline), "dropped phase must fail"

    # A speedup under its floor must fail.
    slow = json.loads(json.dumps(healthy))
    slow["fig4_scale_ed"]["results"]["measured_speedup"] = 1.2
    assert not check(slow, baseline), "speedup under floor must fail"

    # Missing bench file: load_bench returns None and check fails.
    assert not check({"fig4_scale_ed": healthy["fig4_scale_ed"]},
                     baseline), "missing bench doc must fail"
    print("self-test OK")
    return True


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench-dir", default=".",
                        help="directory holding the BENCH_*.json files")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override the baseline's phase tolerance "
                             "multiplier")
    parser.add_argument("--speedup-margin", type=float, default=0.4,
                        help="fraction shaved off measured speedups when "
                             "recording floors with --update-baseline")
    parser.add_argument("--update-baseline", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv[1:])

    if args.self_test:
        return 0 if self_test() else 1

    old_baseline = {}
    if not args.update_baseline or os.path.exists(args.baseline):
        try:
            with open(args.baseline, encoding="utf-8") as fh:
                old_baseline = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            if not args.update_baseline:
                print(f"FAIL unreadable baseline {args.baseline}: {err}")
                return 1

    names = set(PHASE_BENCHES)
    names.update(bench for bench, _key in SPEEDUP_KEYS)
    names.update(r["bench"] for r in old_baseline.get("ratios", []))
    names.update(old_baseline.get("phases", {}))
    names.update(old_baseline.get("speedups", {}))
    benches = {name: load_bench(args.bench_dir, name) for name in
               sorted(names)}

    if args.update_baseline:
        return 0 if update(benches, args.baseline, old_baseline,
                           args.tolerance, args.speedup_margin) else 1
    return 0 if check(benches, old_baseline, args.tolerance) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

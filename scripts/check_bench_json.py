#!/usr/bin/env python3
"""Validates the JSON artifacts the bench binaries and telemetry plane emit.

Usage: check_bench_json.py [--require-zero-dropped-spans]
                           [--require-zero-unrecovered-faults]
                           [--require-profile]
                           [--require-serve]
                           FILE [FILE...]
       check_bench_json.py --trace [--require-flow] FILE [FILE...]
       check_bench_json.py --standalone-telemetry FILE [FILE...]

Default mode checks BENCH_*.json files: bench name, schema_version,
non-empty phases, schedules (rows must carry the ScheduleReport fields
plus per-worker busy/wait/idle attribution), results, telemetry with
counters/gauges/histograms/spans (spans must carry p50/p95/p99 latency
and cpu_seconds/alloc_bytes resource attribution) and a wait_breakdown
array, the profile block, the provenance block, and the faults block.
With --require-zero-dropped-spans, a non-zero tracer drop count
is an error (the bench ring must be sized for the run). With
--require-zero-unrecovered-faults, a non-zero faults.unrecovered gauge
is an error: every unit the pool abandoned must have been replayed from
the round checkpoint by the time the bench emitted telemetry. With
--require-profile, the profile block must come from a live sampling run:
enabled, with at least one sample and at least one folded stack naming a
rock:: frame (the profiler-smoke CI job's gate). With --require-serve,
the optional "serve" block (bench_serve's latency/throughput report:
client/phase config, workload-mix counters, p50/p95/p99 latency,
throughput) must be present, internally consistent, and error-free —
the serve-smoke CI job's gate. CI's bench-smoke step runs this over
every emitted file with the zero-drop/zero-unrecovered flags.

--trace checks Chrome trace-event JSON (TRACE_*.json / the server's
/trace.json): a traceEvents array of well-formed M/X/s/f events.
--require-flow additionally demands at least one s→f flow pair whose
endpoints sit on *different* threads — the scheduler→worker causality
link the tentpole exists to expose.

--standalone-telemetry checks a bare /telemetry.json document (the
telemetry object without the surrounding bench envelope).
"""

import json
import sys

REQUIRED_TOP = ["bench", "schema_version", "phases", "schedules",
                "results", "telemetry", "profile", "provenance", "faults"]
REQUIRED_SCHEDULE = ["label", "mode", "workers", "serial_seconds",
                     "makespan_seconds", "wall_seconds", "stolen_units",
                     "speedup", "measured_speedup", "initial_units",
                     "executed_units", "busy_seconds", "wait_seconds",
                     "idle_seconds"]
REQUIRED_TELEMETRY = ["counters", "gauges", "histograms", "spans",
                      "wait_breakdown", "dropped_spans"]
REQUIRED_HISTOGRAM = ["buckets", "count", "sum", "p50", "p95", "p99"]
REQUIRED_SPAN = ["count", "total_seconds", "max_seconds",
                 "p50_seconds", "p95_seconds", "p99_seconds",
                 "cpu_seconds", "alloc_bytes"]
REQUIRED_BREAKDOWN = ["label", "mode", "workers", "wall_seconds",
                      "busy_seconds", "wait_seconds", "idle_seconds"]
REQUIRED_PROFILE_LIVE = ["running", "sample_hz", "samples", "dropped",
                         "duration_seconds", "stacks"]
REQUIRED_PROVENANCE = ["enabled", "nodes", "conflict_candidates",
                       "max_depth", "ml_calls", "premises",
                       "fixes_by_rule", "proof_depth"]
REQUIRED_PREMISES = ["ground_truth", "prior_fix", "raw", "oracle"]
REQUIRED_FAULTS = ["injected", "retries", "backoff_micros", "worker_deaths",
                   "crashes_suppressed", "steals_on_death",
                   "units_reassigned", "checkpoints", "checkpoint_restores",
                   "unrecovered"]
REQUIRED_SERVE = ["clients", "warmup_requests", "measure_requests", "seed",
                  "mix", "measured_requests", "error_responses",
                  "latency_seconds", "throughput_rps",
                  "measure_wall_seconds"]
REQUIRED_SERVE_MIX = ["ingest", "detect", "explain", "ping"]
REQUIRED_SERVE_LATENCY = ["p50", "p95", "p99", "max"]


def fail(path, message):
    print(f"FAIL {path}: {message}")
    return False


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        fail(path, f"unreadable: {err}")
    except json.JSONDecodeError as err:
        fail(path, f"malformed JSON: {err}")
    return None


def check_provenance(path, prov):
    for key in REQUIRED_PROVENANCE:
        if key not in prov:
            return fail(path, f"provenance missing {key!r}")
    if not isinstance(prov["enabled"], bool):
        return fail(path, f"provenance enabled must be bool, "
                          f"got {prov['enabled']!r}")
    for key in REQUIRED_PREMISES:
        if key not in prov["premises"]:
            return fail(path, f"provenance premises missing {key!r}")
    if not isinstance(prov["fixes_by_rule"], dict):
        return fail(path, "provenance fixes_by_rule must be an object")
    depth = prov["proof_depth"]
    # Empty {} is legal when the bench never chased (histogram never
    # registered); otherwise count + cumulative buckets are required.
    if depth:
        for key in ("count", "buckets"):
            if key not in depth:
                return fail(path, f"provenance proof_depth missing {key!r}")
        for bucket in depth["buckets"]:
            if "le" not in bucket or "count" not in bucket:
                return fail(path, f"bad proof_depth bucket {bucket!r}")
    if prov["enabled"]:
        rule_total = sum(prov["fixes_by_rule"].values())
        if prov["nodes"] < rule_total:
            return fail(path, f"provenance nodes={prov['nodes']} < "
                              f"sum(fixes_by_rule)={rule_total}")
    return True


def check_faults(path, faults, require_zero_unrecovered=False):
    for key in REQUIRED_FAULTS:
        if key not in faults:
            return fail(path, f"faults missing {key!r}")
        if not isinstance(faults[key], int):
            return fail(path, f"faults {key}={faults[key]!r} must be an int")
    # Counters can never go negative; the gauge can transiently (a replay
    # without a matching give-up would be a double-subtract bug).
    for key in REQUIRED_FAULTS:
        if faults[key] < 0:
            return fail(path, f"faults {key}={faults[key]} is negative")
    if faults["injected"] < faults["retries"] + faults["worker_deaths"]:
        return fail(path, f"faults injected={faults['injected']} < "
                          f"retries+deaths="
                          f"{faults['retries'] + faults['worker_deaths']}")
    if require_zero_unrecovered and faults["unrecovered"] != 0:
        return fail(path, f"{faults['unrecovered']} unit(s) abandoned by the "
                          f"pool were never replayed from a checkpoint")
    return True


def check_telemetry_block(path, telemetry):
    for key in REQUIRED_TELEMETRY:
        if key not in telemetry:
            return fail(path, f"telemetry missing {key!r}")
    for name, hist in telemetry["histograms"].items():
        for key in REQUIRED_HISTOGRAM:
            if key not in hist:
                return fail(path, f"histogram {name!r} missing {key!r}")
    for name, span in telemetry["spans"].items():
        for key in REQUIRED_SPAN:
            if key not in span:
                return fail(path, f"span {name!r} missing {key!r}")
        if span["p50_seconds"] > span["p99_seconds"]:
            return fail(path, f"span {name!r} p50 > p99 "
                              f"({span['p50_seconds']} > "
                              f"{span['p99_seconds']})")
        if span["cpu_seconds"] < 0 or span["alloc_bytes"] < 0:
            return fail(path, f"span {name!r} has negative resource "
                              f"attribution (cpu={span['cpu_seconds']} "
                              f"alloc={span['alloc_bytes']})")
    if not isinstance(telemetry["wait_breakdown"], list):
        return fail(path, "wait_breakdown must be an array")
    for row in telemetry["wait_breakdown"]:
        for key in REQUIRED_BREAKDOWN:
            if key not in row:
                return fail(path, f"wait_breakdown row missing {key!r}: "
                                  f"{row}")
        workers = row["workers"]
        for key in ("busy_seconds", "wait_seconds", "idle_seconds"):
            col = row[key]
            if not isinstance(col, list) or len(col) != workers:
                return fail(path, f"wait_breakdown {row['label']!r} {key} "
                                  f"must list one entry per worker "
                                  f"({workers}), got {col!r}")
            if any(v < 0 for v in col):
                return fail(path, f"wait_breakdown {row['label']!r} has a "
                                  f"negative {key} entry: {col}")
    return True


def check_profile(path, profile, require_profile=False):
    """The bench's top-level "profile" block (sampling CPU profiler).

    The "enabled" key must exist, so a missing block is an error rather
    than a silently absent profile.
    """
    if not isinstance(profile, dict) or "enabled" not in profile:
        return fail(path, "profile block must be an object with 'enabled'")
    if not isinstance(profile["enabled"], bool):
        return fail(path, f"profile enabled must be bool, "
                          f"got {profile['enabled']!r}")
    if not profile["enabled"]:
        if require_profile:
            return fail(path, "--require-profile: profiler compiled out "
                              "(profile.enabled is false)")
        return True
    for key in REQUIRED_PROFILE_LIVE:
        if key not in profile:
            return fail(path, f"profile missing {key!r}")
    if profile["samples"] < 0 or profile["dropped"] < 0:
        return fail(path, f"profile has negative sample counts: "
                          f"samples={profile['samples']} "
                          f"dropped={profile['dropped']}")
    stacks = profile["stacks"]
    if not isinstance(stacks, list):
        return fail(path, "profile stacks must be an array")
    for entry in stacks:
        if "stack" not in entry or "count" not in entry:
            return fail(path, f"bad profile stack entry {entry!r}")
        if entry["count"] <= 0:
            return fail(path, f"profile stack with non-positive count: "
                              f"{entry!r}")
    if require_profile:
        if profile["samples"] == 0:
            return fail(path, "--require-profile: profiler captured zero "
                              "samples (was --profile passed? did the bench "
                              "run long enough?)")
        if not stacks:
            return fail(path, "--require-profile: no folded stacks "
                              "(symbolization produced nothing)")
        if not any("rock" in entry["stack"] for entry in stacks):
            return fail(path, "--require-profile: no stack names a rock:: "
                              "frame (is the binary linked -rdynamic?)")
    return True


def check_serve(path, serve):
    """bench_serve's "serve" block: closed-loop latency/throughput report.

    Consistency rules: the workload-mix counters must sum to exactly the
    measured request count (clients * measure_requests), the latency
    percentiles must be non-negative and ordered p50 <= p95 <= p99 <= max,
    and a healthy run has zero error responses.
    """
    for key in REQUIRED_SERVE:
        if key not in serve:
            return fail(path, f"serve missing {key!r}")
    for key in ("clients", "warmup_requests", "measure_requests"):
        if not isinstance(serve[key], int) or serve[key] < 0:
            return fail(path, f"serve {key}={serve[key]!r} must be a "
                              f"non-negative int")
    if serve["clients"] == 0 or serve["measure_requests"] == 0:
        return fail(path, "serve ran zero measured requests "
                          f"(clients={serve['clients']} "
                          f"measure_requests={serve['measure_requests']})")
    mix = serve["mix"]
    for key in REQUIRED_SERVE_MIX:
        if key not in mix:
            return fail(path, f"serve mix missing {key!r}")
        if not isinstance(mix[key], int) or mix[key] < 0:
            return fail(path, f"serve mix {key}={mix[key]!r} must be a "
                              f"non-negative int")
    expected = serve["clients"] * serve["measure_requests"]
    mix_total = sum(mix[key] for key in REQUIRED_SERVE_MIX)
    if mix_total != expected:
        return fail(path, f"serve mix sums to {mix_total}, expected "
                          f"clients*measure_requests={expected}")
    if serve["measured_requests"] != expected:
        return fail(path, f"serve measured_requests="
                          f"{serve['measured_requests']}, expected "
                          f"{expected}")
    latency = serve["latency_seconds"]
    for key in REQUIRED_SERVE_LATENCY:
        if key not in latency:
            return fail(path, f"serve latency_seconds missing {key!r}")
        if not isinstance(latency[key], (int, float)) or latency[key] < 0:
            return fail(path, f"serve latency {key}={latency[key]!r} must "
                              f"be a non-negative number")
    ordered = [latency[key] for key in REQUIRED_SERVE_LATENCY]
    if ordered != sorted(ordered):
        return fail(path, f"serve latency percentiles out of order: "
                          f"{ordered}")
    if serve["throughput_rps"] <= 0:
        return fail(path, f"serve throughput_rps="
                          f"{serve['throughput_rps']!r} must be positive")
    if serve["error_responses"] != 0:
        return fail(path, f"serve saw {serve['error_responses']} error "
                          f"response(s)")
    return True


def check(path, require_zero_dropped_spans=False,
          require_zero_unrecovered=False, require_profile=False,
          require_serve=False):
    doc = load(path)
    if doc is None:
        return False

    for key in REQUIRED_TOP:
        if key not in doc:
            return fail(path, f"missing top-level key {key!r}")
    if doc["schema_version"] != 1:
        return fail(path, f"unexpected schema_version {doc['schema_version']}")
    if not isinstance(doc["phases"], dict) or not doc["phases"]:
        return fail(path, "phases must be a non-empty object")
    for phase, seconds in doc["phases"].items():
        if not isinstance(seconds, (int, float)) or seconds < 0:
            return fail(path, f"phase {phase!r} has bad duration {seconds!r}")
    if not isinstance(doc["schedules"], list):
        return fail(path, "schedules must be an array")
    for row in doc["schedules"]:
        for key in REQUIRED_SCHEDULE:
            if key not in row:
                return fail(path, f"schedule row missing {key!r}: {row}")
    telemetry = doc["telemetry"]
    if not check_telemetry_block(path, telemetry):
        return False
    if require_zero_dropped_spans and telemetry["dropped_spans"] != 0:
        return fail(path, f"tracer dropped {telemetry['dropped_spans']} "
                          f"spans (ring too small for this run)")
    if not check_profile(path, doc["profile"], require_profile):
        return False
    if not check_provenance(path, doc["provenance"]):
        return False
    if not check_faults(path, doc["faults"], require_zero_unrecovered):
        return False
    if require_serve and "serve" not in doc:
        return fail(path, "--require-serve: no serve block "
                          "(is this BENCH_serve.json?)")
    if "serve" in doc and not check_serve(path, doc["serve"]):
        return False

    n_counters = len(telemetry["counters"])
    n_spans = len(telemetry["spans"])
    prov = doc["provenance"]
    faults = doc["faults"]
    profile = doc["profile"]
    samples = profile.get("samples", 0) if profile["enabled"] else 0
    serve_note = ""
    if "serve" in doc:
        serve = doc["serve"]
        serve_note = (f" serve_p50_ms="
                      f"{serve['latency_seconds']['p50'] * 1e3:.3f}"
                      f" serve_rps={serve['throughput_rps']:.0f}")
    print(f"OK   {path}: bench={doc['bench']} phases={len(doc['phases'])} "
          f"schedules={len(doc['schedules'])} counters={n_counters} "
          f"spans={n_spans} breakdowns={len(telemetry['wait_breakdown'])} "
          f"profile_samples={samples} prov_nodes={prov['nodes']} "
          f"faults={faults['injected']} unrecovered={faults['unrecovered']}"
          f"{serve_note}")
    return True


def check_standalone_telemetry(path):
    """A bare /telemetry.json document: the telemetry object itself."""
    doc = load(path)
    if doc is None:
        return False
    if not check_telemetry_block(path, doc):
        return False
    print(f"OK   {path}: counters={len(doc['counters'])} "
          f"spans={len(doc['spans'])} dropped={doc['dropped_spans']}")
    return True


def check_trace(path, require_flow=False):
    """Chrome trace-event JSON, as emitted by ExportChromeTrace."""
    doc = load(path)
    if doc is None:
        return False
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return fail(path, "expected an object with a traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return fail(path, "traceEvents must be an array")

    counts = {"X": 0, "M": 0, "s": 0, "f": 0}
    flow_sources = {}   # flow id -> tid of the "s" step
    flow_finishes = {}  # flow id -> tid of the "f" step
    for event in events:
        ph = event.get("ph")
        if ph not in counts:
            return fail(path, f"unexpected event phase {ph!r}: {event}")
        counts[ph] += 1
        if ph == "X":
            for key in ("name", "pid", "tid", "ts", "dur"):
                if key not in event:
                    return fail(path, f"X event missing {key!r}: {event}")
            if event["dur"] < 0:
                return fail(path, f"negative duration: {event}")
        elif ph == "M":
            if "name" not in event or "args" not in event:
                return fail(path, f"metadata event missing name/args: "
                                  f"{event}")
        else:  # flow step
            for key in ("id", "tid", "ts"):
                if key not in event:
                    return fail(path, f"{ph} event missing {key!r}: {event}")
            if ph == "f" and event.get("bp") != "e":
                return fail(path, f"f event must bind enclosing (bp=e): "
                                  f"{event}")
            target = flow_sources if ph == "s" else flow_finishes
            target[event["id"]] = event["tid"]

    if flow_sources.keys() != flow_finishes.keys():
        dangling = flow_sources.keys() ^ flow_finishes.keys()
        return fail(path, f"unpaired flow ids: {sorted(dangling)[:5]}")
    cross_thread = [fid for fid, tid in flow_sources.items()
                    if flow_finishes[fid] != tid]
    if require_flow and not cross_thread:
        return fail(path, "no cross-thread flow event (scheduler→worker "
                          "causality missing); pairs="
                          f"{len(flow_sources)}")
    print(f"OK   {path}: events={len(events)} spans={counts['X']} "
          f"metadata={counts['M']} flows={counts['s']} "
          f"cross_thread_flows={len(cross_thread)}")
    return True


def main(argv):
    args = argv[1:]
    require_zero_dropped_spans = False
    require_zero_unrecovered = False
    require_profile = False
    require_serve = False
    trace_mode = False
    require_flow = False
    standalone_telemetry = False
    while args and args[0].startswith("--"):
        if args[0] == "--require-zero-dropped-spans":
            require_zero_dropped_spans = True
        elif args[0] == "--require-zero-unrecovered-faults":
            require_zero_unrecovered = True
        elif args[0] == "--require-profile":
            require_profile = True
        elif args[0] == "--require-serve":
            require_serve = True
        elif args[0] == "--trace":
            trace_mode = True
        elif args[0] == "--require-flow":
            require_flow = True
        elif args[0] == "--standalone-telemetry":
            standalone_telemetry = True
        else:
            print(f"unknown flag {args[0]}")
            return 1
        args = args[1:]
    if not args:
        print(__doc__.strip())
        return 1
    if require_flow and not trace_mode:
        print("--require-flow needs --trace")
        return 1
    if trace_mode:
        ok = all([check_trace(path, require_flow) for path in args])
    elif standalone_telemetry:
        ok = all([check_standalone_telemetry(path) for path in args])
    else:
        ok = all([check(path, require_zero_dropped_spans,
                        require_zero_unrecovered, require_profile,
                        require_serve)
                  for path in args])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

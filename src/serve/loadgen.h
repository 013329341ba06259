#pragma once

// Closed-loop load generator for rockd: N client threads, each holding one
// connection, each issuing its next request only after the previous
// response arrives (closed loop — offered load adapts to service rate, so
// latency percentiles are honest rather than coordinated-omission noise).
//
// Determinism contract: the full request sequence — which verb each client
// issues at each step, and which tuples an ingest carries — is a pure
// function of LoadGenOptions (BuildLoadPlan below). Two runs with the same
// options differ only in measured timings; the workload-mix counters in
// the report are identical. tests/serve_loadgen_test.cc holds us to this.
//
// Phases: each client runs `warmup_requests` unmeasured requests (connection
// setup, cache warm, allocator steady-state) and then `measure_requests`
// measured ones. Phases are counted in requests, not wall time, precisely
// so the mix is reproducible.

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/status.h"
#include "src/serve/protocol.h"

namespace rock::serve {

struct LoadGenOptions {
  int port = 0;
  /// Concurrent closed-loop clients (one connection + thread each).
  int clients = 4;
  /// Unmeasured requests per client before the measured phase.
  int warmup_requests = 20;
  /// Measured requests per client.
  int measure_requests = 200;
  /// RNG seed for the request plan (verb choices, tuple picks).
  uint64_t seed = 42;

  /// Workload mix weights, ingest:detect:explain. Need not sum to
  /// anything; zero disables the verb.
  double ingest_weight = 1.0;
  double detect_weight = 8.0;
  double explain_weight = 1.0;

  /// Tuples per ingest request, drawn round-robin per client from `pool`.
  int ingest_batch_rows = 4;
  /// Relation ingest requests target.
  int ingest_rel = 0;
  /// Tuple pool for ingest bodies (cycled; may be empty when
  /// ingest_weight == 0).
  std::vector<Tuple> pool;
  /// Detect scope used by detect requests. kSession keeps measured work
  /// proportional to what this run ingested; kFull scans the database.
  DetectScope detect_scope = DetectScope::kSession;
  /// Cells to explain, cycled through by explain requests. May be empty
  /// when explain_weight == 0 (or explain then asks for a never-fixed cell
  /// and measures the empty-proof path).
  std::vector<std::tuple<int32_t, int64_t, int32_t>> explain_targets;
};

/// One planned request: the verb plus which pool/target index it uses.
struct PlannedRequest {
  Verb verb = Verb::kDetect;
  /// First pool index of the ingest batch, or explain-target index.
  uint32_t pick = 0;
};

/// The per-client request plans, warmup followed by measured requests —
/// plans[c] has warmup_requests + measure_requests entries. Pure function
/// of `options` (tuple pool contents aside, only counts/weights/seed
/// matter), the determinism anchor for everything downstream.
std::vector<std::vector<PlannedRequest>> BuildLoadPlan(
    const LoadGenOptions& options);

/// Results of one load run. Latencies are measured-phase only, seconds,
/// in completion order per client then concatenated by client index (so
/// the vector itself is reproducible modulo the timing values).
struct LoadReport {
  // Measured-phase workload-mix counters (deterministic given options).
  uint64_t ingest_requests = 0;
  uint64_t detect_requests = 0;
  uint64_t explain_requests = 0;
  uint64_t ping_requests = 0;
  /// Responses with a non-OK wire status (deterministically 0 on a
  /// healthy server).
  uint64_t error_responses = 0;

  std::vector<double> latencies_seconds;
  double measure_wall_seconds = 0;
  double throughput_rps = 0;

  double LatencyPercentile(double q) const;
};

/// Runs the closed loop against a live rockd. Fails if any connection or
/// transport operation fails (a non-OK *wire* status only increments
/// error_responses — the protocol exchange itself still succeeded).
Result<LoadReport> RunLoad(const LoadGenOptions& options);

}  // namespace rock::serve

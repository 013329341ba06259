#pragma once

// The three workloads. Each Run* function is one untraced run: set-up,
// warm-up, a measured round-robin loop of --seconds, output checks, and
// the end-to-end metrics. Each Trace* function adds one layer group's
// per-layer metrics for the traced run.

#include <cstdint>
#include <string>

#include "setup.h"
#include "util.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  Sizes sizes;
};

Outcome RunLogisticsDetect(const Options& options);
Outcome RunBankCorrect(const Options& options);
Outcome RunBankServe(const Options& options);

/// Per-layer metrics of detect, rules, ml and par.detect on Logistics.
void TraceDetectLayers(const Options& options, Outcome* out);
/// Per-layer metrics of chase, fix_store, obs and par.correct on Bank.
void TraceCorrectLayers(const Options& options, Outcome* out);
/// Per-layer metrics of serve and storage on one bank-serve epoch.
void TraceServeLayers(const Options& options, Outcome* out);

/// The initial correction and server start of bank-serve's set-up.
void TraceServeSetup(const Options& options, Outcome* out);

}  // namespace perfbench

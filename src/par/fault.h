#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace rock::par {

/// Retry discipline for failed work units: capped exponential backoff with
/// a per-unit attempt budget. An "attempt" is one acquisition of the unit
/// by a worker; a unit whose failing attempt number reaches `max_attempts`
/// is declared unrecovered by the pool (the recovery layer above — the
/// chase's round checkpoint — replays it serially).
struct RetryPolicy {
  /// Maximum acquisitions per unit before the pool gives up on it.
  int max_attempts = 4;
  /// Backoff before retry k is min(base * 2^(k-1), cap) seconds.
  double backoff_base_seconds = 0.0005;
  double backoff_cap_seconds = 0.01;

  double BackoffSeconds(int attempt) const;
};

/// A deterministic fault schedule for one WorkerPool::Execute call
/// (DESIGN.md "Fault injection & recovery"). Faults are keyed by unit
/// index and attempt number — never by wall-clock or thread identity — so
/// a given plan injects exactly the same fault events on every run and in
/// WorkerPool::Replay, and a failing run replays from its spec string.
///
///  - crash: the worker that acquires the unit at the given attempt dies.
///    Its acquired unit and remaining deque re-place onto surviving
///    workers via the pool's hash ring (salted probing past dead nodes).
///    A crash that would kill the last live worker is suppressed.
///  - delay: a straggler — the unit's first execution attempt stalls for
///    the given duration before the body runs.
///  - transient: the unit's first N acquisition attempts fail before the
///    body runs (the body itself still executes exactly once, on the
///    first surviving attempt), each followed by RetryPolicy backoff.
///    N >= RetryPolicy::max_attempts exhausts the attempt budget and the
///    unit is reported unrecovered.
struct FaultPlan {
  /// unit index -> attempt (1-based) at which the acquiring worker dies.
  std::map<size_t, int> crash_at_attempt;
  /// unit index -> straggler delay in seconds (first attempt only).
  std::map<size_t, double> delay_seconds;
  /// unit index -> number of leading attempts that fail.
  std::map<size_t, int> transient_failures;

  bool empty() const {
    return crash_at_attempt.empty() && delay_seconds.empty() &&
           transient_failures.empty();
  }
  size_t size() const {
    return crash_at_attempt.size() + delay_seconds.size() +
           transient_failures.size();
  }

  /// True when the plan exhausts `unit`'s attempt budget (the pool will
  /// report it unrecovered). Independent of crashes: transient failures
  /// are keyed by attempt *number*, so a unit fails unrecoverably iff its
  /// scheduled failures reach the budget.
  bool Unrecoverable(size_t unit, const RetryPolicy& retry) const;

  /// Replayable textual form, e.g.
  ///   "crash:5@1;delay:3=0.02;flaky:7x2"
  /// (crash unit 5 at attempt 1; delay unit 3 by 20ms; fail unit 7's
  /// first two attempts). Parse(ToSpec()) round-trips exactly.
  std::string ToSpec() const;
  static Result<FaultPlan> Parse(const std::string& spec);

  /// Deterministic pseudo-random plan over `num_units` units: a mix of
  /// stragglers, transient failures (always below the default attempt
  /// budget) and at most num_workers - 1 crashes. Same seed, same plan.
  static FaultPlan FromSeed(uint64_t seed, size_t num_units,
                            int num_workers);

  /// Plan configured through the environment: ROCK_FAULT_PLAN (a spec
  /// string, wins) or ROCK_FAULT_SEED (fed to FromSeed). nullopt when
  /// neither is set; an unparsable ROCK_FAULT_PLAN aborts.
  static std::optional<FaultPlan> FromEnv(size_t num_units,
                                          int num_workers);
};

/// Fault/recovery accounting for one Execute call. Event counts are
/// functions of the plan (not of thread timing), so they are identical
/// across runs and in WorkerPool::Replay; the exception is crashes_suppressed,
/// which depends on how many workers are still alive when a crash fires.
struct FaultReport {
  /// Fault events that fired (crashes + stragglers + transient failures).
  int injected = 0;
  /// Transient failures that were retried after backoff.
  int retries = 0;
  int worker_deaths = 0;
  /// Crashes ignored because they would have killed the last live worker.
  int crashes_suppressed = 0;
  /// Units drained from a dead worker's deque to surviving peers.
  int steals_on_death = 0;
  /// Units re-placed off a dead worker (drained units + the one in hand).
  int units_reassigned = 0;
  /// Total backoff slept (Execute) or modeled (Replay), seconds.
  double backoff_seconds = 0.0;
  /// Units whose attempt budget was exhausted — never executed by the
  /// pool, sorted ascending. The caller owns recovery (see
  /// WorkerPool::ReplayUnrecovered).
  std::vector<size_t> unrecovered_units;
};

}  // namespace rock::par

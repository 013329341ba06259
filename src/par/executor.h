#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/crystal/hash_ring.h"
#include "src/par/fault.h"

namespace rock::par {

/// A work unit T = (φ, D_T) (paper §5.2): one rule against one data
/// partition — a contiguous slice of the rows of the rule's first tuple
/// variable. The unit's body runs the serial, indexed evaluation with that
/// variable bound to the slice; the other variables are reached through
/// the evaluator's indexes and blocking, exactly as in serial detection.
struct WorkUnit {
  int rule_index = -1;
  /// Relation index and row slice [begin, end) of the first tuple variable.
  struct Range {
    int rel = -1;
    int begin = 0;
    int end = 0;
  };
  Range rows;

  /// Placement key: units hash onto the ring by their slice coordinates.
  std::string PlacementKey() const;
};

/// Maximum number of slices a relation is cut into.
inline constexpr int kMaxRowSlices = 64;

/// Work units of rule `rule_index` over relation `rel` of `rows` rows:
/// min(rows, kMaxRowSlices) contiguous slices that cover [0, rows) once, in
/// order, with sizes differing by at most one; one empty unit when rows is
/// 0. The partition depends on the relation size only, never on the worker
/// count, so reports merged in unit order are identical at every worker
/// count and a 1-worker measurement replays at any other.
std::vector<WorkUnit> BuildRowUnits(int rule_index, int rel, size_t rows);

/// Idle time of one worker over one execution: wall-clock minus busy time,
/// clamped at zero. The clamp matters for stragglers measured with
/// per-thread CPU clocks, where busy can nominally exceed a short wall
/// interval and the naive subtraction would go negative.
inline double ClampedIdleSeconds(double wall_seconds, double busy_seconds) {
  return wall_seconds > busy_seconds ? wall_seconds - busy_seconds : 0.0;
}

/// Result of a parallel execution, or of a Replay of one. Execute fills
/// every field from the threaded run (the makespan comes from replaying the
/// run's own measured durations); Replay recomputes the schedule fields for
/// another pool from `unit_seconds` and `placement_keys`.
struct ScheduleReport {
  int num_workers = 0;
  /// Sum of measured unit durations — an estimate of the serial execution
  /// time. Each duration is per-thread CPU time, so the sum stays faithful
  /// even when workers outnumber cores.
  double serial_seconds = 0.0;
  /// Modeled parallel makespan under hash placement + work stealing,
  /// replayed from `unit_seconds`.
  double makespan_seconds = 0.0;
  /// Measured wall-clock of the threaded region that produced
  /// `unit_seconds` (a replay runs nothing and carries it over).
  double wall_seconds = 0.0;
  /// Units initially placed per worker (before stealing).
  std::vector<int> initial_units;
  /// Units actually executed per worker (after stealing).
  std::vector<int> executed_units;
  /// Units that moved between workers via stealing.
  int stolen_units = 0;
  /// Per-worker wait-vs-run attribution. busy_seconds[w] is the time
  /// worker w spent executing unit bodies; wait_seconds[w] sums the
  /// submit→dequeue queue wait of every unit w executed (how long its
  /// units sat enqueued before w picked them up); idle_seconds[w] is the
  /// remainder of the execution wall-clock (the makespan, for a replay)
  /// the worker spent neither executing nor acquiring work, clamped at
  /// zero (per-thread CPU clocks can nominally exceed a short wall
  /// interval).
  std::vector<double> busy_seconds;
  std::vector<double> wait_seconds;
  std::vector<double> idle_seconds;
  /// Fault-injection and recovery accounting (all zero without a plan).
  FaultReport faults;
  /// Measured duration of each unit, indexed like the executed units:
  /// per-thread CPU seconds (wall-clock where the CPU clock is
  /// unavailable), 0 for units the pool abandoned. The input of Replay;
  /// empty, like `placement_keys`, in a Replay result.
  std::vector<double> unit_seconds;
  /// WorkUnit::PlacementKey() of each unit, so Replay can re-place the
  /// units on a ring of any size.
  std::vector<std::string> placement_keys;

  /// Modeled speedup (serial time over replayed makespan).
  double speedup() const {
    return makespan_seconds > 0 ? serial_seconds / makespan_seconds : 1.0;
  }
  /// Measured speedup (serial time over observed wall-clock).
  double measured_speedup() const {
    return wall_seconds > 0 ? serial_seconds / wall_seconds : 1.0;
  }
};

/// Pool-level execution knobs: retry discipline and an optional
/// deterministic fault schedule (see src/par/fault.h).
struct PoolOptions {
  RetryPolicy retry;
  /// Injected fault schedule, keyed by unit index + attempt so runs replay
  /// bit-identically. Not owned; nullptr disables injection entirely.
  const FaultPlan* fault_plan = nullptr;
};

/// The worker pool (paper §5.2 (3)): a non-centralized set of workers under
/// consistent hashing; every unit is first placed on the ring by its
/// partition key, and idle workers steal queued units from the most loaded
/// peer.
///
/// Fault tolerance (paper §6 "21-node cluster" deployment conditions,
/// DESIGN.md "Fault injection & recovery"): when a PoolOptions::fault_plan
/// is injected, units that fail transiently are retried with capped
/// exponential backoff under a per-unit attempt budget (the failing worker
/// holds the unit through its backoff, then re-queues it at the back of
/// its own deque), a crashed worker's
/// deque drains to surviving peers via the hash ring, and units whose
/// budget is exhausted are reported (never silently dropped) for the
/// caller's checkpoint-recovery layer to replay.
///
/// Thread contract: the body runs concurrently on `num_workers` threads.
/// Each unit is executed exactly once; bodies must not share mutable state
/// except through `unit_index` (write only to your own unit's slot) or
/// `worker` (write only to your own worker's scratch, 0 <= worker <
/// num_workers). Call sites merge per-unit results in unit order after
/// Execute returns, which makes results independent of the worker count
/// and of steal timing.
class WorkerPool {
 public:
  /// Bodies receive the unit, its index in `units`, and the id of the
  /// worker executing it.
  using UnitBody =
      std::function<void(const WorkUnit&, size_t unit_index, int worker)>;

  explicit WorkerPool(int num_workers, PoolOptions options = PoolOptions());

  /// Executes all units on `num_workers` threads and returns the schedule
  /// accounting. Workers take every scheduling step (placement, stealing,
  /// fault handling) under one lock and run bodies outside it.
  ScheduleReport Execute(const std::vector<WorkUnit>& units,
                         const UnitBody& body) const;

  /// Replays `measured` (a report from Execute, on any pool) on this
  /// pool's ring at this pool's worker count, under its fault plan and
  /// retry policy: Execute's schedule stepped on virtual time over the
  /// measured per-unit durations. Fills the
  /// placement, makespan, executed/stolen units, busy/wait/idle and fault
  /// accounting; runs no bodies and publishes no metrics. Deterministic:
  /// the same report and pool always replay to the same schedule.
  ScheduleReport Replay(const ScheduleReport& measured) const;

  /// Recovery hook for checkpoint layers: runs `body` serially (worker 0)
  /// for every unit `report` lists as unrecovered, clears the list, and
  /// settles the rock_par_unrecovered_units gauge. Returns the number of
  /// replayed units. Call sites that merge per-unit buffers in unit order
  /// therefore produce output identical to the fault-free run.
  static size_t ReplayUnrecovered(const std::vector<WorkUnit>& units,
                                  ScheduleReport* report,
                                  const UnitBody& body);

  int num_workers() const { return num_workers_; }
  const PoolOptions& options() const { return options_; }

 private:
  int num_workers_;
  PoolOptions options_;
  crystal::HashRing ring_;

  /// Execute and Replay under an explicit plan: Execute passes the plan
  /// it runs under, which may come from the environment.
  ScheduleReport ExecuteThreads(const std::vector<WorkUnit>& units,
                                const UnitBody& body,
                                const FaultPlan* plan) const;
  ScheduleReport ReplayUnder(const ScheduleReport& measured,
                             const FaultPlan* plan) const;
};

}  // namespace rock::par


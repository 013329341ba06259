#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "src/par/executor.h"
#include "src/rules/eval.h"
#include "src/rules/ree.h"

namespace rock::par {

/// What one worker of a round owns: an evaluator, whose lazy equality
/// indexes stay thread-local.
struct RoundWorker {
  explicit RoundWorker(const rules::EvalContext& ctx) : eval(ctx) {}

  rules::Evaluator eval;
};

/// Per-unit outputs of one round, in unit order.
template <typename Out>
struct RoundResult {
  std::vector<size_t> unit_rules;  // rule index of each unit
  std::vector<Out> outputs;
  /// Units the pool abandoned (attempt budget exhausted under a fault
  /// plan) and the round re-ran serially.
  size_t replayed_units = 0;
};

/// One parallel round (paper §5.2), shared by parallel detection and the
/// chase's round 0: one work unit T = (φ, D_T) per (rule, row slice of the
/// rule's first tuple variable), placed on the hash ring of a WorkerPool
/// built from `options` and run under work stealing, with one RoundWorker
/// over `ctx` per pool worker. `body(rule, slice, worker, out)` may write
/// only `*out`, which is reset before every run of its unit. Units the
/// pool abandons re-run serially, so outputs merged in unit order are
/// identical at every worker count and under any fault plan. Fills
/// `schedule` (when non-null) with the pool accounting.
template <typename Out>
RoundResult<Out> RunRound(
    const std::vector<rules::Ree>& rules, const rules::EvalContext& ctx,
    int num_workers, const PoolOptions& options,
    const std::function<void(size_t rule, const rules::Scope& slice,
                             RoundWorker& worker, Out* out)>& body,
    ScheduleReport* schedule) {
  RoundResult<Out> result;
  std::vector<WorkUnit> units;
  for (size_t r = 0; r < rules.size(); ++r) {
    const int rel = rules[r].tuple_vars.empty() ? -1 : rules[r].tuple_vars[0];
    std::vector<WorkUnit> rule_units = BuildRowUnits(
        static_cast<int>(r), rel, rel < 0 ? 0 : ctx.db->relation(rel).size());
    units.insert(units.end(), rule_units.begin(), rule_units.end());
    result.unit_rules.insert(result.unit_rules.end(), rule_units.size(), r);
  }
  result.outputs.resize(units.size());
  const WorkerPool pool(num_workers, options);
  std::vector<RoundWorker> workers;
  for (int w = 0; w < pool.num_workers(); ++w) workers.emplace_back(ctx);
  // Replays run as worker 0 after the pool has joined.
  auto unit_body = [&](const WorkUnit& unit, size_t index, int w) {
    Out& out = result.outputs[index];
    out = Out();  // a replayed unit overwrites, never appends
    body(static_cast<size_t>(unit.rule_index),
         rules::Scope::Rows(unit.rows.begin, unit.rows.end),
         workers[static_cast<size_t>(w)], &out);
  };
  ScheduleReport local = pool.Execute(units, unit_body);
  result.replayed_units =
      WorkerPool::ReplayUnrecovered(units, &local, unit_body);
  if (schedule != nullptr) *schedule = std::move(local);
  return result;
}

}  // namespace rock::par

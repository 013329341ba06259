#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <set>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/par/executor.h"
#include "src/rules/eval.h"
#include "src/rules/ree.h"

namespace rock::detect {

/// The error classes Rock reports (paper §3 "Error detection": duplicates,
/// semantic inconsistencies, obsolete values and missing values).
enum class ErrorClass { kDuplicate, kConflict, kMissing, kStale };

const char* ErrorClassName(ErrorClass error_class);

/// One detected error: a violation of one rule, localized to cells.
struct ErrorRecord {
  ErrorClass error_class = ErrorClass::kConflict;
  std::string rule_id;
  /// Cells implicated by the violated consequence; attr = -1 denotes the
  /// whole tuple (duplicates).
  struct Cell {
    int rel = -1;
    int64_t tid = -1;
    int attr = -1;
    bool operator<(const Cell& o) const {
      return std::tie(rel, tid, attr) < std::tie(o.rel, o.tid, o.attr);
    }
    bool operator==(const Cell& o) const {
      return rel == o.rel && tid == o.tid && attr == o.attr;
    }
  };
  std::vector<Cell> cells;

  bool operator==(const ErrorRecord&) const = default;
};

struct DetectionReport {
  std::vector<ErrorRecord> errors;
  /// Raw violation count (several violations may implicate the same cell).
  size_t violations = 0;
  /// Valuations checked against a rule's consequence: candidate pairs the
  /// LSH blocking filter produced (verified against the whole rule) vs.
  /// valuations the indexed enumeration produced (for the §5.4
  /// filter-and-verify accounting).
  size_t blocked_pairs_checked = 0;
  size_t exhaustive_pairs_checked = 0;

  /// Field for field: errors in order, and every counter.
  bool operator==(const DetectionReport&) const = default;

  /// Distinct implicated cells.
  std::set<ErrorRecord::Cell> DirtyCells() const;
  /// Distinct implicated (rel, tid) tuples.
  std::set<std::pair<int, int64_t>> DirtyTuples() const;
};

struct DetectorOptions {
  /// Filter-and-verify for ML pair predicates (paper §5.4): when a rule's
  /// only link between its two variables is an ML predicate, candidate
  /// pairs come from an LSH blocking index instead of the cross product
  /// (rules::Blocking says which rules qualify), on every path.
  bool use_ml_blocking = true;
  /// DetectParallel's worker pool: retry discipline and an optional
  /// injected fault schedule. Units the pool abandons are replayed
  /// serially into their own per-unit reports before the unit-order
  /// merge, so the detection report matches the fault-free run.
  par::PoolOptions pool;
  /// ML score memo (not owned) shared by every rule and worker of this
  /// detector; nullptr (the default) scores each ML pair once per
  /// valuation that reaches it. Memoized scores are the exact doubles
  /// Score computes, so reports are bitwise identical with or without one.
  ml::MlScoreCache* ml_cache = nullptr;
};

/// Error detection (paper §3): violations of REE++s in Σ, batch and
/// incremental. Every path runs one per-rule body (DetectRule) over a
/// rules::Scope: the whole data, one row slice per parallel unit, or ΔD.
class ErrorDetector {
 public:
  explicit ErrorDetector(rules::EvalContext ctx);
  ErrorDetector(rules::EvalContext ctx, DetectorOptions options);

  /// Batch detection over the full database.
  DetectionReport Detect(const std::vector<rules::Ree>& rules) const;

  /// Incremental detection: the violations whose valuation binds a tuple
  /// in `dirty` (ΔD), each once. With every tuple dirty it equals Detect().
  DetectionReport DetectIncremental(
      const std::vector<rules::Ree>& rules,
      const std::vector<std::pair<int, int64_t>>& dirty) const;

  /// Parallel detection: one par::RunRound whose unit body is DetectRule
  /// over the unit's row slice; fills `schedule` with the placement/
  /// stealing accounting used by the scalability benches. Each unit
  /// accumulates into its own report and the per-unit reports are merged
  /// in unit order, so the result equals Detect() field for field at every
  /// worker count and under any fault plan.
  DetectionReport DetectParallel(const std::vector<rules::Ree>& rules,
                                 int num_workers,
                                 par::ScheduleReport* schedule) const;

 private:
  // ROCK_ANALYZE(unguarded-ok: set at construction, read-only afterwards)
  rules::EvalContext ctx_;
  DetectorOptions options_;
  // Lazy (rel, guard attr, consequence attr) -> pair-frequency table used
  // by majority-side flagging of CR violations. Guarded by pair_freq_mu_:
  // DetectParallel's worker threads reach it through RecordViolation. On a
  // miss the table is scanned OUTSIDE the lock (building it is the
  // expensive part and the scan is a pure read of the immutable database);
  // the insert re-checks under the lock and the first emplace wins.
  mutable common::Mutex pair_freq_mu_;
  mutable std::map<std::tuple<int, int, int>,
                   std::unordered_map<uint64_t, int>>
      pair_freq_ ROCK_GUARDED_BY(pair_freq_mu_);

  /// Frequency of (guard value, consequence value) among rel's tuples.
  int PairFrequency(int rel, int guard_attr, int cons_attr,
                    const Value& guard, const Value& cons) const;

  void RecordViolation(const rules::Ree& rule, const rules::Valuation& v,
                       const rules::Evaluator& eval,
                       DetectionReport* report) const;
  /// rules::Blocking::For, or nullptr when blocking is off.
  std::unique_ptr<const rules::Blocking> BlockingFor(
      const rules::Ree& rule) const;
  /// Serial detection of every rule over one scope.
  DetectionReport DetectScope(const std::vector<rules::Ree>& rules,
                              const rules::Scope& scope) const;
  /// Records the violations among the rule's valuations in `scope`.
  void DetectRule(const rules::Ree& rule, const rules::Scope& scope,
                  const rules::Blocking* blocking, const rules::Evaluator& eval,
                  DetectionReport* report) const;
};

}  // namespace rock::detect


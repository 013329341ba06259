#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/chase/fix_store.h"
#include "src/kg/graph.h"
#include "src/ml/library.h"
#include "src/par/executor.h"
#include "src/rules/eval.h"
#include "src/rules/ree.h"
#include "src/storage/relation.h"

namespace rock::chase {

/// User-queue callback for ER/CR conflicts (paper §4.2 (1): "Rock
/// presents the conflicts to the users for correction, together with the
/// rules and ground truth that identify the conflicts"). Given the
/// conflict and the two candidate values, returns the value to keep, or
/// nullopt to leave the conflict unresolved.
using UserConflictResolver = std::function<std::optional<Value>(
    const ConflictRecord& conflict, const Value& a, const Value& b)>;

struct ChaseOptions {
  /// Certain-fix mode (paper §4.1 condition (1)): a rule application is
  /// admitted only when every cell its precondition reads is validated
  /// (ground truth or previously deduced). When false, the precondition is
  /// evaluated over the repaired view (validated values override raw data)
  /// — the "deep cleaning" configuration used when little ground truth is
  /// available.
  bool certain_fixes_only = false;
  /// Fixpoint guard.
  int max_rounds = 64;
  /// Optional user queue for ER/CR value conflicts; when unset, conflicts
  /// are recorded and left for offline review.
  UserConflictResolver user_resolver;
  /// RunParallel's worker pool: retry discipline and an optional injected
  /// fault schedule. Units lost to exhausted attempt budgets are replayed
  /// serially against the round checkpoint, so the chase output is
  /// identical to the fault-free run.
  par::PoolOptions pool;
};

/// Per-cell difference between the raw database and the repaired view.
struct CellFix {
  int rel = -1;
  int64_t tid = -1;
  int attr = -1;
  Value old_value;
  Value new_value;
};

struct ChaseResult {
  /// Rounds until fixpoint (a round applies every activated rule once).
  int rounds = 0;
  /// Fixes that extended U (merges + value validations + temporal pairs),
  /// excluding ground truth.
  size_t fixes_applied = 0;
  /// Rule applications admitted (including re-derivations of known fixes).
  size_t applications = 0;
  bool converged = false;
  std::vector<ConflictRecord> conflicts;
  /// Units the pool abandoned (attempt budget exhausted under an injected
  /// fault plan) and RunParallel replayed serially from the round
  /// checkpoint. Zero on fault-free runs.
  size_t replayed_units = 0;
};

/// The chase engine (paper §4): deduces fixes by chasing D with (Σ, Γ),
/// with lazy activation — after the first full round, a rule is re-examined
/// only against tuples whose entity acquired new fixes — and the §4.2
/// conflict-resolution strategies. The chase is Church-Rosser: U only grows
/// (value validations, EID merges, temporal pairs), conflict resolutions
/// are deterministic functions of the conflicting fixes, and canonical EIDs
/// are order-independent minima, so all application orders converge.
class ChaseEngine {
 public:
  ChaseEngine(const Database* db, const kg::KnowledgeGraph* graph,
              const ml::MlLibrary* models);
  ChaseEngine(const Database* db, const kg::KnowledgeGraph* graph,
              const ml::MlLibrary* models, ChaseOptions options);

  FixStore& fix_store() { return fixes_; }
  const FixStore& fix_store() const { return fixes_; }

  /// Every conflict recorded by this engine's runs so far, in order.
  const std::vector<ConflictRecord>& conflicts() const { return conflicts_; }

  /// Batch mode: chases the whole database to fixpoint.
  ChaseResult Run(const std::vector<rules::Ree>& rules);

  /// Incremental mode: only valuations touching `dirty` tuples (e.g. a ΔD
  /// of freshly inserted tids) are activated initially; deduced fixes
  /// propagate as in batch mode.
  ChaseResult RunIncremental(const std::vector<rules::Ree>& rules,
                             const std::vector<std::pair<int, int64_t>>& dirty);

  /// Batch mode with data-partitioned parallelism for the first (dominant)
  /// round: one par::RunRound, one work unit per (rule, slice of the
  /// rule's first tuple variable), vertex-variable rules included,
  /// producing the schedule accounting used by the scalability benches
  /// (Fig 4(l)); later rounds are small and run serially, in the same
  /// loop as Run().
  ///
  /// Workers only *evaluate* preconditions — each unit enumerates its slice
  /// with the serial enumerator into a per-unit buffer, the fix
  /// store stays read-only, and the buffers are merged at the pool's
  /// barrier in unit order. Consequences are then applied serially
  /// (re-verifying each precondition against the growing overlay), so the
  /// chase reaches the same fixpoint as Run() for every worker count;
  /// valuations a round-0 fix newly enables are picked up by the serial
  /// propagation rounds through the dirty set.
  ChaseResult RunParallel(const std::vector<rules::Ree>& rules,
                          int num_workers, par::ScheduleReport* schedule);

  /// Applies U to a copy of the database: validated values overwrite cells,
  /// EIDs become canonical.
  Database MaterializeRepairs() const;

  /// Cells whose repaired value differs from the raw data.
  std::vector<CellFix> CellFixes() const;

  /// Tuple pairs identified as the same entity (canonical-EID groups of
  /// size > 1), as (rel, tid) lists per entity.
  std::vector<std::vector<std::pair<int, int64_t>>> EntityGroups() const;

  /// Why-provenance of a repaired cell / an identified entity pair: the
  /// depth-bounded proof tree over the witnesses captured during the chase
  /// (empty when the cell was never validated).
  obs::ProofTree Explain(int rel, int64_t tid, int attr,
                         int max_depth = 32) const {
    return fixes_.ExplainCell(rel, tid, attr, max_depth);
  }
  obs::ProofTree ExplainMerge(int64_t eid_a, int64_t eid_b,
                              int max_depth = 32) const {
    return fixes_.ExplainMerge(eid_a, eid_b, max_depth);
  }

  /// Whole-run provenance aggregate over the fix store's DAG.
  obs::ProvenanceSummary ProvenanceSummary() const {
    return fixes_.provenance().Summarize();
  }

 private:
  const Database* db_;
  const kg::KnowledgeGraph* graph_;
  const ml::MlLibrary* models_;
  ChaseOptions options_;
  FixStore fixes_;
  std::vector<ConflictRecord> conflicts_;

  rules::EvalContext Context() const;

  /// The chase loop of every mode: round 0 enumerates `scope` (with
  /// `workers`, as one par::RunRound into per-unit buffers that fills
  /// `schedule`, then applied serially in unit order), later rounds the
  /// tuples the previous round touched.
  ChaseResult Loop(const std::vector<rules::Ree>& rules, rules::Scope scope,
                   std::optional<int> workers, par::ScheduleReport* schedule);

  /// Admits one satisfying valuation (certain-fix check) and applies it.
  void Admit(const rules::Ree& rule, const std::string& rule_text,
             const rules::Valuation& v, const rules::Evaluator& eval,
             std::vector<std::pair<int, int64_t>>* newly_dirty,
             ChaseResult* result);

  /// Applies one admitted rule application; appends to `newly_dirty` the
  /// tuples whose repaired view changed. Returns number of new fixes.
  size_t ApplyConsequence(const rules::Ree& rule, const std::string& rule_text,
                          const rules::Valuation& v,
                          const rules::Evaluator& eval,
                          std::vector<std::pair<int, int64_t>>* newly_dirty);

  /// Certain-fix admission: every kRaw premise cell (rules::
  /// ForEachPremiseCell) of the precondition is validated. Cells a side
  /// structure answers count as validated, and null(t[A]) tests none.
  bool PremisesValidated(const rules::Ree& rule,
                         const rules::Valuation& v) const;

  void MarkEntityDirty(int rel, int64_t tid,
                       std::vector<std::pair<int, int64_t>>* out) const;

  /// Resolves an MI value conflict by M_c argmax (ml::kMcModel; without
  /// one the existing value stays); returns the value to keep.
  /// `witness` is the losing/candidate derivation's, recorded on the
  /// ConflictRecord alongside the existing derivation's node.
  Value ResolveMiConflict(int rel, int64_t tid, int attr,
                          const Value& existing, const Value& candidate,
                          const std::string& rule_id,
                          const obs::Witness* witness);
};

}  // namespace rock::chase


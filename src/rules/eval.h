#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/kg/graph.h"
#include "src/ml/library.h"
#include "src/obs/provenance.h"
#include "src/rules/ree.h"
#include "src/storage/relation.h"

namespace rock::rules {

/// Overlay of repaired cells and merged EIDs. The chase evaluates rules
/// against the repaired view of the data without mutating the raw relations;
/// it implements this interface over its fix store U.
class CellOverlay {
 public:
  virtual ~CellOverlay() = default;
  /// Repaired value of (rel, tid, attr), or nullopt to fall through to the
  /// raw data.
  virtual std::optional<Value> GetCell(int rel, int64_t tid,
                                       int attr) const = 0;
  /// Canonical EID of (rel, tid), or nullopt to use the stored EID.
  virtual std::optional<int64_t> GetEid(int rel, int64_t tid) const = 0;

  /// Tids whose (rel, attr) cell may differ from the raw data. The
  /// evaluator unions these with raw-value index hits so hash-join
  /// acceleration stays sound under an overlay (candidates are always
  /// re-verified against the overlay-aware predicate).
  virtual std::vector<int64_t> PatchedTids(int rel, int attr) const {
    (void)rel;
    (void)attr;
    return {};
  }

  /// Patched tids whose overlay value hashes to `value_hash` — the
  /// narrow variant the equality index uses (a patched cell with a
  /// different value cannot satisfy the equality anyway). Defaults to the
  /// broad set.
  virtual std::vector<int64_t> PatchedTidsEq(int rel, int attr,
                                             uint64_t value_hash) const {
    (void)value_hash;
    return PatchedTids(rel, attr);
  }
};

/// Oracle for the explicit temporal orders ⪯A of a temporal instance
/// (paper §2.2). Returns true/false when the order status of (tid1, tid2)
/// on `attr` is known, nullopt when unknown.
class TemporalOracle {
 public:
  virtual ~TemporalOracle() = default;
  virtual std::optional<bool> Holds(int rel, int attr, int64_t tid1,
                                    int64_t tid2, bool strict) const = 0;
};

/// Everything needed to evaluate REE++ predicates. graph/models/overlay/
/// temporal may be null when the rule set does not use them.
struct EvalContext {
  const Database* db = nullptr;
  const kg::KnowledgeGraph* graph = nullptr;
  const ml::MlLibrary* models = nullptr;
  const CellOverlay* overlay = nullptr;
  const TemporalOracle* temporal = nullptr;
  /// Shared memo of ML pair-predicate scores keyed by (model, pair
  /// content); nullptr disables caching. With a cache, kMlPair predicates
  /// threshold the memoized Score — identical to the default Predict, so
  /// only models relying on the default Score-vs-threshold Predict should
  /// run with a cache. Keys hash the overlay-aware cell *values*, so the
  /// cache stays sound across overlays, rules and workers.
  ml::MlScoreCache* ml_cache = nullptr;
};

/// A valuation h of a rule's variables: a row index per tuple variable and
/// a vertex id per vertex variable (paper §2.1/§2.3 semantics).
struct Valuation {
  std::vector<int> rows;
  std::vector<kg::VertexId> vertices;

  bool operator==(const Valuation& other) const {
    return rows == other.rows && vertices == other.vertices;
  }
};

/// Rows [begin, end) of tuple variable `var`, the slice an enumeration
/// binds that variable to. var = -1 restricts nothing.
struct RowRange {
  int var = -1;
  int begin = 0;
  int end = 0;
};

/// Evaluates REE++s over a database (+ optional graph/models/overlay).
/// Satisfaction follows §2: comparisons touching null are unsatisfied
/// (except the explicit null(t[A]) predicate); ML predicates delegate to
/// the model library; temporal predicates consult the oracle, then
/// timestamps, then (for ranker-backed predicates) M_rank.
class Evaluator {
 public:
  explicit Evaluator(EvalContext ctx) : ctx_(ctx) {}

  const EvalContext& context() const { return ctx_; }

  /// The (overlay-aware) value of attribute `attr` of the tuple bound to
  /// variable `var`.
  Value GetCell(const Ree& rule, const Valuation& v, int var, int attr) const;

  /// The (overlay-aware) EID of the tuple bound to `var`.
  int64_t GetEid(const Ree& rule, const Valuation& v, int var) const;

  /// The bound tuple itself (raw, without overlay).
  const Tuple& GetTuple(const Ree& rule, const Valuation& v, int var) const;

  /// Overlay-aware copy of the full value vector of `var`'s tuple.
  std::vector<Value> GetValues(const Ree& rule, const Valuation& v,
                               int var) const;

  /// h |= p.
  bool Satisfies(const Ree& rule, const Valuation& v,
                 const Predicate& p) const;

  /// h |= X (every precondition predicate).
  bool SatisfiesPrecondition(const Ree& rule, const Valuation& v) const;

  /// The full witness of `v` satisfying `rule`'s precondition: the rule
  /// text, the tuple bindings, every cell the precondition read (with its
  /// overlay-aware value; sources default to kRaw / kOracle — the fix
  /// store upgrades them to ground-truth / prior-fix when it knows the
  /// cell is validated), and every ML-predicate invocation re-scored so
  /// the proof records the actual score against its threshold. Call only
  /// for valuations that satisfy the precondition.
  obs::Witness CaptureWitness(const Ree& rule, const Valuation& v) const;

  /// Enumerates valuations with h |= X. The callback returns false to stop
  /// early. Equality predicates against already-bound variables and
  /// constants are pushed into hash-index lookups; HER predicates restrict
  /// vertex candidates via the model's blocking index. Valuations come in
  /// ascending row order of variable 0, then of each later variable's
  /// candidates.
  ///
  /// `range` binds one tuple variable only to rows inside [begin, end):
  /// {var, row, row + 1} is the delta enumeration of incremental detection
  /// and the lazy chase (only valuations touching an updated tuple fire);
  /// {0, begin, end} is one data-parallel work unit. Concatenating the
  /// enumerations of contiguous slices of variable 0 in slice order yields
  /// exactly the unrestricted enumeration.
  void ForEachSatisfying(const Ree& rule,
                         const std::function<bool(const Valuation&)>& cb,
                         RowRange range = {}) const;

  /// Pre-scores the rule's ML pair predicates into ctx().ml_cache with one
  /// ScoreBatch per model (see MlWarmer): enumerates valuations satisfying
  /// the *non-ML* precondition predicates within `range` and warms their
  /// ML pairs. Later Satisfies calls hit the memo instead of re-scoring
  /// per pair.
  ///
  /// Warms only rules where every ML pair predicate binds at the deepest
  /// tuple variable and no vertex variables exist — skipping the ML
  /// predicates then loses no pruning at shallower depths, so the warm
  /// enumeration visits no more prefixes than the real one. Other rules
  /// return 0 and fall back to per-pair scoring (which still populates the
  /// cache). Cached values equal the scalar path's bitwise, so warming
  /// never changes detection results. Returns the number of pairs scored.
  size_t WarmMlCache(const Ree& rule, ml::BatchScratch* scratch,
                     RowRange range = {}) const;

  /// Enumerates violations: h |= X but h !|= p0.
  void ForEachViolation(const Ree& rule,
                        const std::function<bool(const Valuation&)>& cb) const;

  /// Counts (#h |= X, #h |= X ∧ p0) — the support/confidence counters used
  /// by discovery. Stops early after `cap` satisfying valuations when
  /// cap > 0.
  std::pair<size_t, size_t> CountSupport(const Ree& rule,
                                         size_t cap = 0) const;

 private:
  EvalContext ctx_;
  // Lazily built equality indexes: (rel, attr) -> value hash -> rows.
  mutable std::map<std::pair<int, int>,
                   std::unordered_map<uint64_t, std::vector<int>>>
      eq_index_;

  /// Fills `out` with candidate rows for value equality on (rel, attr):
  /// raw-index hits plus overlay-patched rows. Returns false when no
  /// restriction is possible.
  bool LookupCandidates(int rel, int attr, const Value& value,
                        std::vector<int>* out) const;
  void Recurse(const Ree& rule, Valuation& v, size_t depth,
               const std::vector<std::vector<const Predicate*>>& ready_preds,
               const std::function<bool(const Valuation&)>& cb,
               bool& keep_going, RowRange range) const;
  bool AssignVertices(const Ree& rule, Valuation& v, int vertex_depth,
                      const std::function<bool(const Valuation&)>& cb,
                      bool& keep_going) const;
};

/// The ML warm pre-pass shared by every detection path: queues the (a, b)
/// value pairs of a rule's ML pair predicates for the valuations it is
/// given, skips pairs the memo already holds or the pass already queued,
/// and scores them with one ScoreBatch per model (in rounds of at most
/// 4096 pairs, to bound memory) into ctx().ml_cache. Does nothing when the
/// context has no memo or no models.
class MlWarmer {
 public:
  MlWarmer(const Evaluator& eval, const Ree& rule, ml::BatchScratch* scratch);

  /// Queues `v`'s uncached ML pairs.
  void Add(const Valuation& v);
  /// Scores what is still queued; returns the pairs scored by this warmer.
  size_t Finish();

 private:
  struct Pending {
    const ml::PairClassifier* model = nullptr;
    ml::PairBatch batch;
    std::vector<ml::MlScoreCache::Key> keys;
  };
  const Evaluator& eval_;
  const Ree& rule_;
  ml::BatchScratch* scratch_;
  ml::MlScoreCache* cache_;
  std::vector<const Predicate*> ml_preds_;
  std::map<std::string, Pending> pending_;
  std::unordered_set<ml::MlScoreCache::Key, ml::MlScoreCache::KeyHash> queued_;
  size_t pending_pairs_ = 0;
  size_t scored_ = 0;
};

}  // namespace rock::rules


#pragma once

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/kg/graph.h"
#include "src/ml/batch.h"
#include "src/ml/library.h"
#include "src/ml/lsh.h"
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

  /// Tids whose (rel, attr) cell the overlay changed: its repaired value
  /// differs from the raw one. A cell repaired to its raw value is not
  /// listed — the evaluator's raw-value index already serves it.
  virtual std::vector<int64_t> PatchedTids(int rel, int attr) const = 0;

  /// The changed cells of PatchedTids whose repaired value hashes to
  /// `value_hash` — what an equality probe unions with its raw-index hits
  /// (candidates are always re-verified against the overlay-aware
  /// predicate).
  virtual std::vector<int64_t> PatchedTidsEq(int rel, int attr,
                                             uint64_t value_hash) const = 0;

  /// Every raw EID whose canonical EID is `eid`'s (the entity class,
  /// `eid` included): an EID join probes the raw-EID index once per
  /// member.
  virtual std::vector<int64_t> EidClass(int64_t eid) const = 0;
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
  /// Optional memo of ML pair-predicate scores keyed by (model, pair
  /// content); nullptr (the default) scores every pair that reaches a
  /// kMlPair check. Either way the check thresholds the exact double Score
  /// returns. Keys hash the overlay-aware cell *values*, so a memo stays
  /// sound across overlays, rules and workers.
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

/// The premise cells of `p`, the one list both a witness and certain-fix
/// mode use: calls `read(var, attr, source)` for each cell the predicate
/// reads, in the order a witness lists them. `attr` is kEidAttr for a
/// tuple's EID. `source` is kOracle for a cell a side structure answers
/// (E_= for an EID, the temporal order, the KG) and kRaw for a cell read
/// from the data. HER predicates list none.
template <typename Read>
void ForEachPremiseCell(const Predicate& p, Read&& read) {
  using obs::PremiseSource;
  auto cell = [&](int var, int attr, PremiseSource source) {
    read(var, attr, attr == kEidAttr ? PremiseSource::kOracle : source);
  };
  switch (p.kind) {
    case PredicateKind::kConstant:
    case PredicateKind::kIsNull:
      cell(p.var, p.attr, PremiseSource::kRaw);
      break;
    case PredicateKind::kAttrCompare:
      cell(p.var, p.attr, PremiseSource::kRaw);
      cell(p.var2, p.attr == kEidAttr ? kEidAttr : p.attr2,
           PremiseSource::kRaw);
      break;
    case PredicateKind::kMlPair:
      for (int a : p.attrs_a) cell(p.var, a, PremiseSource::kRaw);
      for (int b : p.attrs_b) cell(p.var2, b, PremiseSource::kRaw);
      break;
    case PredicateKind::kCorrelation:
    case PredicateKind::kPredictValue:
      for (int a : p.attrs_a) cell(p.var, a, PremiseSource::kRaw);
      break;
    case PredicateKind::kTemporal:
      cell(p.var, p.attr, PremiseSource::kOracle);
      cell(p.var2, p.attr, PremiseSource::kOracle);
      break;
    case PredicateKind::kPathMatch:
    case PredicateKind::kValExtract:
      cell(p.var, p.attr, PremiseSource::kOracle);
      break;
    case PredicateKind::kHer:
      break;
  }
}

/// ΔD as rows: per relation, the distinct rows of the given tids,
/// ascending (unknown tids dropped).
class DeltaRows {
 public:
  DeltaRows(const Database& db,
            const std::vector<std::pair<int, int64_t>>& tids);

  const std::vector<int>& rows(int rel) const {
    return rows_[static_cast<size_t>(rel)];
  }
  bool Contains(int rel, int row) const;

 private:
  std::vector<std::vector<int>> rows_;
};

/// What one enumeration covers: every valuation (the default), those
/// binding variable 0 to a row in [begin, end) (one parallel work unit), or
/// exactly those binding at least one ΔD row, each once. Delta seeds are
/// semi-naive: a seed on variable i binds it to a ΔD row, variables before
/// i skip ΔD's rows, variables after i range over all rows. Seeds run
/// variable by variable, rows ascending, so with ΔD = D the enumeration is
/// the unrestricted one, in its order.
struct Scope {
  int begin = 0;
  int end = std::numeric_limits<int>::max();
  const DeltaRows* delta = nullptr;

  static Scope Rows(int begin, int end) { return {begin, end, nullptr}; }
  static Scope Delta(const DeltaRows& delta) { return {0, 0, &delta}; }
};

/// What one Enumerate call checked: candidate pairs the blocking filter
/// proposed, and rows tried by a plain scan at a variable other than the
/// scope's own (variable 0 of a full or row scope, a delta seed's
/// variable) — rows no index, LSH block or seed probe proposed.
struct EnumerateStats {
  size_t blocked_pairs = 0;
  size_t unindexed_rows = 0;
};

class Evaluator;

/// LSH blocking (filter-and-verify, paper §5.4) of a rule with two tuple
/// variables over one relation, no vertex variables, no equality join, and
/// an ML pair predicate linking them over the same attributes on both
/// sides — so candidates are symmetric and a variable-1 seed can probe in
/// reverse. Indexes every row's raw tokens; read-only once built.
class Blocking {
 public:
  /// The rule's index, or nullptr when the rule does not qualify.
  static std::unique_ptr<const Blocking> For(const Ree& rule,
                                             const EvalContext& ctx);

  /// Rows other than `row` sharing an LSH band with its (overlay-aware)
  /// tokens, plus the rows whose blocked cells the overlay changed;
  /// ascending.
  std::vector<int> Candidates(const Evaluator& eval, const Ree& rule,
                              int row) const;

 private:
  const Predicate* ml_pred_ = nullptr;
  const ml::PairClassifier* model_ = nullptr;
  ml::LshBlocker blocker_;
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

  /// h |= p. With `record`, a check that runs a model appends the call it
  /// made to record->ml_calls: the model, the predicate text, the score,
  /// the threshold and the verdict returned. (HER records its match as
  /// 1 or 0 against 0.5; a value prediction, which has no score, as 1
  /// against 0.) Nothing is appended when the model is missing.
  bool Satisfies(const Ree& rule, const Valuation& v, const Predicate& p,
                 obs::Witness* record = nullptr) const;

  /// h |= X (every precondition predicate), checked in cost order.
  bool SatisfiesPrecondition(const Ree& rule, const Valuation& v) const;

  /// The full witness of `v` satisfying `rule`'s precondition: the rule
  /// text (`rule_text`, the caller's rule.ToString rendered once per
  /// run), the tuple bindings, and per precondition predicate in written
  /// order the cells it reads (ForEachPremiseCell, with their
  /// overlay-aware values; the fix store upgrades kRaw sources to
  /// ground-truth / prior-fix when it knows the cell is validated) and,
  /// for a model-scored predicate, the model call its Satisfies check
  /// records. Call only for valuations that satisfy the precondition.
  obs::Witness CaptureWitness(const Ree& rule, const Valuation& v,
                              std::string rule_text) const;

  /// Enumerates valuations with h |= X. The callback returns false to stop
  /// early. Equality predicates against already-bound variables (EIDs
  /// included) and constants are pushed into index lookups; HER predicates
  /// restrict vertex candidates via the model's blocking index. At each
  /// binding step the predicates are checked in cost order: the
  /// model-scored ones (ML pair, HER, correlation, value prediction,
  /// ranker-backed temporal) after the others, each group in written
  /// order, so a model scores only what the cheap checks let through.
  /// Valuations come in ascending row order of variable 0, then of each
  /// later variable's candidates.
  void ForEachSatisfying(const Ree& rule,
                         const std::function<bool(const Valuation&)>& cb) const;

  /// The one enumerator of detection and the chase: every valuation in
  /// `scope` with h |= X, in ForEachSatisfying's order, in one walk. With
  /// `blocking`, variable 1 ranges over the LSH candidates of variable 0
  /// (filter) and X verifies them.
  EnumerateStats Enumerate(
      const Ree& rule, const Scope& scope, const Blocking* blocking,
      const std::function<void(const Valuation&)>& sink) const;

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
  /// One equality index: (key, row) pairs sorted ascending, so the rows of
  /// one key form an ascending run. Keys are raw value hashes (null cells
  /// left out), or raw EIDs for kEidAttr.
  using FlatIndex = std::vector<std::pair<uint64_t, int>>;
  // Lazily built, one per (rel, attr | kEidAttr).
  mutable std::map<std::pair<int, int>, FlatIndex> indexes_;

  const FlatIndex& Index(int rel, int attr) const;

  /// Fills `out`, ascending, with the candidate rows for value equality
  /// on (rel, attr): raw-index hits plus the rows whose overlay value
  /// changed to `value`.
  void LookupCandidates(int rel, int attr, const Value& value,
                        std::vector<int>* out) const;

  /// Fills `out`, ascending, with the rows whose (overlay-aware) EID is
  /// `eid`: the raw-EID index's rows of every member of its class.
  void LookupEidClass(int rel, int64_t eid, std::vector<int>* out) const;

  /// Where one variable's rows come from. Chosen once per walk and seed
  /// variable; kScan tries every row (of the scope's slice, at its own
  /// variable).
  struct Source {
    enum class Kind { kScan, kBlocked, kConstant, kValueJoin, kEidJoin };
    Kind kind = Kind::kScan;
    const Predicate* pred = nullptr;
    int attr = -1;       // this variable's probed attribute
    int bound_var = -1;  // kValueJoin / kEidJoin: the bound side
    int bound_attr = -1;
  };
  /// The source of each variable when `seed_var` (or -1) is bound first:
  /// the LSH block of the other variable, else the first equality
  /// predicate in the precondition with a constant or a bound other side.
  std::vector<Source> PlanSources(const Ree& rule, int seed_var,
                                  const Blocking* blocking) const;

  /// One pass: `var` bound to rows [begin, end); with `delta`, variables
  /// before `var` kept off ΔD. ready[d] holds the predicates fully bound
  /// once variables 0..d are, and `vertex_ready` those on vertex
  /// variables, each list in cost order.
  struct Pass {
    const std::vector<std::vector<const Predicate*>>& ready;
    const std::vector<const Predicate*>& vertex_ready;
    const std::function<bool(const Valuation&)>& cb;
    const Blocking* blocking = nullptr;
    std::vector<Source> sources = {};
    std::vector<std::vector<int>> candidates = {};  // per variable, reused
    int var = 0;
    int begin = 0;
    int end = 0;
    const DeltaRows* delta = nullptr;
    EnumerateStats stats = {};
    bool keep_going = true;
  };
  /// Runs `cb` on the valuations of `scope` satisfying X; returns the
  /// blocked and unindexed rows.
  EnumerateStats Walk(const Ree& rule, const Scope& scope,
                      const Blocking* blocking,
                      const std::function<bool(const Valuation&)>& cb) const;
  void Recurse(const Ree& rule, Valuation& v, size_t depth, Pass& pass) const;
  void AssignVertices(const Ree& rule, Valuation& v, int vertex_depth,
                      Pass& pass) const;
};

}  // namespace rock::rules


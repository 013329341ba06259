#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/obs/provenance.h"
#include "src/rules/eval.h"
#include "src/storage/relation.h"

namespace rock::chase {

/// Union-find over entity ids. EID classes only grow (entities are
/// identified, never split), matching the chase's inflationary semantics.
///
/// Thread contract: Find/Members are pure reads (path compression happens
/// eagerly inside Union, never in Find), so any number of threads may Find
/// concurrently as long as no Union runs — the invariant the parallel
/// chase's read-only evaluation phase relies on.
class UnionFind {
 public:
  /// Canonical representative of `eid` (the smallest eid in its class, so
  /// results are independent of merge order — part of Church-Rosser).
  int64_t Find(int64_t eid) const;

  /// Merges the classes of `a` and `b`; returns the new canonical id.
  int64_t Union(int64_t a, int64_t b);

  /// All members of `eid`'s class (including eids never explicitly added).
  std::vector<int64_t> Members(int64_t eid) const;

  size_t num_merges() const { return num_merges_; }

 private:
  std::unordered_map<int64_t, int64_t> parent_;
  std::unordered_map<int64_t, std::vector<int64_t>> members_;
  size_t num_merges_ = 0;
};

/// One temporal-order store [A]⪯ for a (relation, attribute): a DAG over
/// tids whose edges are validated ⪯/≺ pairs. Conflicts (a cycle through a
/// strict edge) are rejected at insertion so the store always stays valid.
class TemporalOrderStore {
 public:
  /// Adds tid1 ⪯ tid2 (strict=false) or tid1 ≺ tid2 (strict=true).
  /// Returns kConflict when the pair contradicts the stored order; OK and
  /// `*added=false` when the pair was already known.
  Status Add(int64_t tid1, int64_t tid2, bool strict, bool* added);

  /// Ternary query: true/false when implied by the stored order (via
  /// reachability), nullopt when unknown.
  std::optional<bool> Holds(int64_t tid1, int64_t tid2, bool strict) const;

  size_t num_pairs() const { return num_pairs_; }

 private:
  struct Edge {
    int64_t to;
    bool strict;
  };
  std::unordered_map<int64_t, std::vector<Edge>> out_;

  /// Reachability tid1 -> tid2; sets *via_strict when some path uses a
  /// strict edge.
  bool Reaches(int64_t from, int64_t to, bool* via_strict) const;
  size_t num_pairs_ = 0;
};

/// A single deduced fix, kept for the certain-fix audit trail (every fix is
/// a logical consequence of one rule application over validated premises).
struct FixRecord {
  /// kMergeEid identifies eid_a and eid_b as one entity; kDistinctEid
  /// validates that they denote different entities (t.EID != s.EID).
  enum class Kind { kMergeEid, kDistinctEid, kSetValue, kTemporalOrder };
  Kind kind;
  std::string rule_id;
  // kMergeEid, kDistinctEid
  int64_t eid_a = -1, eid_b = -1;
  // kSetValue
  int rel = -1;
  int attr = -1;
  int64_t eid = -1;
  Value value = {};
  // kTemporalOrder
  int64_t tid1 = -1, tid2 = -1;
  bool strict = false;
  /// Provenance node recording this fix's witness (-1 when the fix was
  /// installed without a rule application behind it).
  int64_t prov_id = -1;

  std::string ToString() const;

  /// One JSON object: the kind, rule, provenance node and the kind's
  /// fields (values as {type, text}, which Value::Parse reads back).
  std::string ToJson() const;
};

/// A conflict surfaced during chasing, together with how it was resolved
/// (paper §4.2 "Resolving conflicts").
struct ConflictRecord {
  enum class Kind { kValue, kEid, kTemporal };
  Kind kind;
  std::string rule_id;
  std::string description;
  /// "kept_existing", "kept_new", "confidence", "mc_argmax", "user_queue".
  std::string resolution;
  /// Provenance of the two competing derivations: the fix that installed
  /// the existing state, and the conflict-candidate node capturing the
  /// losing rule application's witness (-1 when unknown).
  int64_t prov_existing = -1;
  int64_t prov_candidate = -1;

  std::string ToJson() const;
};

/// The fix collection U = (E_=, E_⪯) plus ground truth Γ (paper §4.1):
///  - an EID union-find ([EID]_= classes),
///  - validated attribute values ([EID.A]_= singletons),
///  - validated EID-distinctness constraints (consequences t.EID != s.EID),
///  - per-(relation, attribute) temporal orders ([A]_⪯).
/// Deviation from the paper, documented in DESIGN.md: validated values are
/// scoped to TUPLES rather than entities. The paper's temporal relations
/// allow one entity to have several versions in the same relation with
/// different (all correct at their time) attribute values, so a single
/// value per [EID.A] would conflate versions; cross-tuple propagation
/// instead happens through explicit REE++s (e.g. with t0.eid = t1.eid and
/// temporal predicates in the precondition).
/// The store also implements the evaluator's CellOverlay/TemporalOracle so
/// rules are evaluated over the repaired view, and tracks which cells are
/// *validated* (in Γ or deduced) for certain-fix mode.
///
/// Thread contract (compile-time checked under Clang, see
/// src/common/thread_annotations.h): the store is phase-confined, not
/// internally locked. Mutators carry ROCK_REQUIRES(apply_role_) — callers
/// must hold the store's apply role (common::RoleGuard role(
/// store.apply_role())), which asserts "this is the chase's single serial
/// apply thread". The read side (GetCell/GetEid/Holds/Find...) is lock-free
/// and safe for any number of concurrent readers while no role holder
/// mutates — the invariant RunParallel's read-only evaluation phase relies
/// on. The role costs nothing at runtime; it exists so every new mutation
/// path must visibly acknowledge the phase discipline or fail the
/// -Werror=thread-safety build.
class FixStore : public rules::CellOverlay, public rules::TemporalOracle {
 public:
  explicit FixStore(const Database* db);

  /// A cheap structural snapshot of the store's size vector. The store is
  /// inflationary (fixes only accumulate, merges only grow classes), so
  /// "no counter moved" is equivalent to "no state changed" — which makes
  /// the checkpoint a sufficient barrier invariant for the parallel
  /// chase's recovery protocol: RunParallel checkpoints before its
  /// read-only evaluation phase and verifies at the apply barrier that the
  /// store is bit-for-bit where the checkpoint left it, so replaying lost
  /// or unrecovered units can never double-apply a fix.
  struct Checkpoint {
    size_t fixes = 0;
    size_t value_cells = 0;
    size_t merges = 0;
    size_t distinct = 0;
    size_t ground_truth_cells = 0;
    int64_t provenance_nodes = 0;

    bool operator==(const Checkpoint&) const = default;
  };
  Checkpoint TakeCheckpoint() const;

  /// The apply-phase role; pass to common::RoleGuard before mutating.
  const common::ThreadRole& apply_role() const
      ROCK_RETURN_CAPABILITY(apply_role_) {
    return apply_role_;
  }

  /// Registers a tuple inserted after construction (incremental mode).
  void RegisterTuple(int rel, int64_t tid) ROCK_REQUIRES(apply_role_);

  /// All tuples whose (possibly merged) entity is `eid`'s entity.
  std::vector<std::pair<int, int64_t>> TuplesOfEntity(int64_t eid) const;

  // ---- Ground truth Γ ----

  /// Marks every cell of (rel, tid) as validated with its current value.
  Status AddGroundTruthTuple(int rel, int64_t tid) ROCK_REQUIRES(apply_role_);

  /// Marks one cell as validated with the given (trusted) value.
  Status AddGroundTruthValue(int rel, int64_t tid, int attr, Value value)
      ROCK_REQUIRES(apply_role_);

  /// Seeds [A]_⪯ with an initial order (e.g. from timestamps).
  Status AddGroundTruthOrder(int rel, int attr, int64_t tid1, int64_t tid2,
                             bool strict) ROCK_REQUIRES(apply_role_);

  // ---- Chase-deduced fixes ----
  // Each mutator takes the witness of the deducing rule application. A
  // null witness (the default) means no rule application is behind the
  // fact (ground truth, polynomial repair, direct store manipulation in
  // tests): it becomes a leaf node in the proof DAG.

  /// t.EID = s.EID. Returns kConflict when a distinctness constraint
  /// forbids the merge. `*changed` reports whether the store grew.
  Status MergeEids(int64_t a, int64_t b, const std::string& rule_id,
                   bool* changed, const obs::Witness* witness = nullptr)
      ROCK_REQUIRES(apply_role_);

  /// t.EID != s.EID.
  Status AddEidDistinct(int64_t a, int64_t b, const std::string& rule_id,
                        bool* changed, const obs::Witness* witness = nullptr)
      ROCK_REQUIRES(apply_role_);

  /// Validates value `v` for attribute `attr` of tuple `tid`.
  /// kConflict when a different value is already validated.
  Status SetValue(int rel, int64_t tid, int attr, Value v,
                  const std::string& rule_id, bool* changed,
                  const obs::Witness* witness = nullptr)
      ROCK_REQUIRES(apply_role_);

  /// Overwrites a validated value — used only by deterministic conflict
  /// resolution (M_c argmax for MI, §4.2), never by plain chase steps.
  Status ReplaceValue(int rel, int64_t tid, int attr, Value v,
                      const std::string& rule_id,
                      const obs::Witness* witness = nullptr)
      ROCK_REQUIRES(apply_role_);

  /// Validated value of the cell, if any.
  std::optional<Value> ValidatedValue(int rel, int64_t tid, int attr) const;

  /// True when the cell's value is validated (ground truth or deduced).
  bool IsValidated(int rel, int64_t tid, int attr) const;

  /// Adds a temporal pair; kConflict on contradiction.
  Status AddTemporal(int rel, int attr, int64_t tid1, int64_t tid2,
                     bool strict, const std::string& rule_id, bool* changed,
                     const obs::Witness* witness = nullptr)
      ROCK_REQUIRES(apply_role_);

  // ---- CellOverlay / TemporalOracle (the repaired view) ----
  std::optional<Value> GetCell(int rel, int64_t tid,
                               int attr) const override;
  std::optional<int64_t> GetEid(int rel, int64_t tid) const override;
  std::vector<int64_t> PatchedTids(int rel, int attr) const override;
  std::vector<int64_t> PatchedTidsEq(int rel, int attr,
                                     uint64_t value_hash) const override;
  std::vector<int64_t> EidClass(int64_t eid) const override;
  std::optional<bool> Holds(int rel, int attr, int64_t tid1, int64_t tid2,
                            bool strict) const override;

  // ---- Introspection ----
  const UnionFind& eids() const { return eids_; }
  const std::vector<FixRecord>& fixes() const { return fixes_; }
  std::vector<FixRecord>& mutable_fixes() ROCK_REQUIRES(apply_role_) {
    return fixes_;
  }
  size_t num_value_fixes() const { return cells_.size(); }
  size_t num_ground_truth_cells() const { return ground_truth_cells_; }

  /// Canonical eid of a tuple (through the union-find).
  int64_t CanonicalEid(int rel, int64_t tid) const;

  // ---- Provenance ----
  const obs::ProvenanceGraph& provenance() const { return prov_; }
  obs::ProvenanceGraph& mutable_provenance() ROCK_REQUIRES(apply_role_) {
    return prov_;
  }

  /// Provenance node that validated the cell / installed the temporal pair
  /// (unordered) / the distinctness constraint; -1 when unknown.
  int64_t ProvOfCell(int rel, int64_t tid, int attr) const;
  int64_t ProvOfTemporal(int rel, int attr, int64_t tid1, int64_t tid2) const;
  int64_t ProvOfDistinct(int64_t a, int64_t b) const;
  /// Most recent merge deduction on the proof-forest path between `a` and
  /// `b`; -1 when their classes were never connected by recorded merges.
  int64_t ProvOfMerge(int64_t a, int64_t b) const;

  /// Records a derivation that LOST a conflict resolution (its witness is
  /// kept so ConflictRecord links both sides). Returns the node id.
  int64_t AddConflictCandidate(const std::string& rule_id, std::string target,
                               const obs::Witness* witness)
      ROCK_REQUIRES(apply_role_);

  /// Depth-bounded proof tree for a validated cell / an eid merge.
  obs::ProofTree ExplainCell(int rel, int64_t tid, int attr,
                             int max_depth = 32) const;
  obs::ProofTree ExplainMerge(int64_t eid_a, int64_t eid_b,
                              int max_depth = 32) const;

 private:
  const Database* db_;
  /// Zero-cost capability for the serial apply phase (see class comment).
  common::ThreadRole apply_role_;
  UnionFind eids_;
  /// A validated cell: its value and the provenance node that validated
  /// it (-1 while that node is being recorded).
  struct ValidatedCell {
    Value value;
    int64_t node = -1;
  };
  struct CellKey {
    int rel;
    int attr;
    int64_t tid;
    bool operator==(const CellKey&) const = default;
  };
  struct CellKeyHash {
    size_t operator()(const CellKey& key) const;
  };
  // (rel, attr, tid) -> the validated cell. Looked up, never iterated.
  std::unordered_map<CellKey, ValidatedCell, CellKeyHash> cells_;
  // (rel, attr, value hash) -> tids whose validated value differs from the
  // raw one and hashes so: the overlay's changed cells (PatchedTids,
  // PatchedTidsEq). ReplaceValue moves the tid out of the superseded
  // bucket, so the index never serves a tid whose current validated value
  // hashes differently, nor one replaced back to its raw value.
  std::map<std::tuple<int, int, uint64_t>, std::vector<int64_t>>
      changed_by_hash_;
  // Distinctness constraints: canonical (lo, hi) eid pair -> node of the
  // deduction (re-canonicalized on merges).
  std::map<std::pair<int64_t, int64_t>, int64_t> distinct_;
  // (rel, attr) -> temporal order DAG.
  std::map<std::pair<int, int>, TemporalOrderStore> temporal_;
  std::vector<FixRecord> fixes_;
  size_t ground_truth_cells_ = 0;
  // Raw eid -> tuples carrying it (for entity-level dirty propagation).
  std::map<int64_t, std::vector<std::pair<int, int64_t>>> eid_index_;

  // ---- Provenance capture ----
  obs::ProvenanceGraph prov_;
  // (rel, attr, min tid, max tid) -> node that installed the pair.
  std::map<std::tuple<int, int, int64_t, int64_t>, int64_t> prov_by_temporal_;

  const Tuple* FindTuple(int rel, int64_t tid) const;

  /// Lists the cell in changed_by_hash_ under `v` when `v` differs from
  /// the raw value / drops it from `v`'s bucket.
  void IndexChangedCell(int rel, int attr, const Tuple& t, const Value& v)
      ROCK_REQUIRES(apply_role_);
  void UnindexChangedCell(int rel, int attr, int64_t tid, const Value& v)
      ROCK_REQUIRES(apply_role_);

  /// SetValue (`replace` false) and ReplaceValue (true): validates `v`
  /// for the cell and records the fix.
  Status WriteValue(int rel, int64_t tid, int attr, Value v,
                    const std::string& rule_id, const obs::Witness* witness,
                    bool replace, bool* changed) ROCK_REQUIRES(apply_role_);

  /// The one place a fact is recorded: appends `record` to the audit
  /// trail with its provenance node — a Γ leaf when the rule is "Γ", else
  /// a fix citing `witness` — whose target is the record's text. Returns
  /// the node id.
  int64_t AppendFix(FixRecord record, const obs::Witness* witness)
      ROCK_REQUIRES(apply_role_);

  /// Copies the witness, upgrades premise sources against the validated
  /// state (raw -> ground-truth / prior-fix with upstream edges), and
  /// appends the node. Returns the node id.
  int64_t AddProvNode(obs::ProvKind kind, const std::string& rule_id,
                      std::string target, const obs::Witness* witness)
      ROCK_REQUIRES(apply_role_);
};

}  // namespace rock::chase


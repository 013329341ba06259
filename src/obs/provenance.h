#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/exporters.h"
#include "src/obs/metrics.h"

namespace rock::obs {

/// Why-provenance for the chase (the data-level observability layer on top
/// of the metrics/tracing subsystem): every deduced fix records its full
/// witness — the rule, the bound tuples, the premise cells read (classified
/// as ground truth, prior fix, or raw data), and the ML-predicate
/// invocations with their scores — forming a DAG whose depth-bounded
/// expansion is a proof tree. `core::Rock::Explain()` renders it.

/// Where a premise cell's value came from when the rule application read it.
enum class PremiseSource {
  kGroundTruth,  // validated by Γ
  kPriorFix,     // validated by an earlier chase deduction
  kRaw,          // read from the dirty data (relaxed mode only)
  kOracle,       // answered by a side structure (temporal order DAG, KG)
};

const char* PremiseSourceName(PremiseSource source);

/// One tuple binding of the satisfying valuation: rule variable t<var> was
/// bound to tuple `tid` of relation `rel`.
struct WitnessTuple {
  int var = -1;
  int rel = -1;
  int64_t tid = -1;
};

/// One cell the precondition read, with its value at capture time and its
/// validation status. `upstream` is the provenance node that validated the
/// cell (ground-truth leaf or prior fix), -1 for raw reads.
struct PremiseCell {
  int rel = -1;
  int64_t tid = -1;
  int attr = -1;
  std::string value;
  PremiseSource source = PremiseSource::kRaw;
  int64_t upstream = -1;
};

/// One ML-predicate invocation inside the witness: which model ran, the
/// score it produced, the threshold it was held to, and the verdict.
struct MlInvocation {
  std::string model;
  std::string detail;  // predicate shape, e.g. "MER(t0[com], t1[com])"
  double score = 0.0;
  double threshold = 0.0;
  bool passed = true;
};

/// The full witness of one rule application: the satisfying valuation's
/// bindings plus everything its precondition consumed.
struct Witness {
  std::string rule_text;
  std::vector<WitnessTuple> tuples;
  std::vector<PremiseCell> premises;
  std::vector<MlInvocation> ml_calls;
};

/// Node kinds in the provenance DAG.
enum class ProvKind {
  kGroundTruth,        // Γ leaf
  kFix,                // an applied chase deduction
  kConflictCandidate,  // a derivation that lost a conflict resolution
};

const char* ProvKindName(ProvKind kind);

/// One deduction in the provenance DAG. `upstream` are the node ids of the
/// validated premises this deduction consumed (deduplicated); expanding
/// them recursively reaches ground-truth or raw-read leaves.
struct ProvenanceNode {
  int64_t id = -1;
  ProvKind kind = ProvKind::kFix;
  std::string rule_id;
  /// Rendered fix target (FixRecord::ToString of the recorded fix).
  std::string target;
  Witness witness;
  std::vector<int64_t> upstream;
};

/// A depth-bounded expansion of the DAG from one root: the proof tree the
/// Explain API returns. A synthetic root (node == nullptr) with children
/// models multi-step answers such as a merge path.
struct ProofTree {
  struct TreeNode {
    const ProvenanceNode* node = nullptr;
    /// True when the depth bound cut the expansion below this node.
    bool truncated = false;
    std::vector<TreeNode> children;
  };
  TreeNode root;
  /// Label printed for a synthetic root ("merge path", ...).
  std::string synthetic_label;

  bool empty() const {
    return root.node == nullptr && root.children.empty();
  }

  /// Indented human-readable rendering.
  std::string ToText() const;
  /// Nested JSON rendering (parses back with json::Parse).
  std::string ToJson() const;
};

/// Whole-run provenance aggregate: fix counts by rule, proof-depth
/// histogram, and the ML-vs-logic premise split.
struct ProvenanceSummary {
  uint64_t nodes = 0;
  uint64_t conflict_candidates = 0;
  std::map<std::string, uint64_t> fixes_by_rule;
  /// depth_histogram[d-1] = nodes whose proof depth is d (capped at 16).
  std::vector<uint64_t> depth_histogram;
  uint64_t max_depth = 0;
  uint64_t ml_calls = 0;
  uint64_t premises_ground_truth = 0;
  uint64_t premises_prior_fix = 0;
  uint64_t premises_raw = 0;
  uint64_t premises_oracle = 0;
};

/// The provenance DAG plus the union-find proof forest that explains EID
/// merges. Thread contract matches the owning FixStore: mutations happen
/// only in the chase's serial apply phases; the parallel evaluation phase
/// never touches it.
class ProvenanceGraph {
 public:
  /// Appends a node, assigns and returns its id.
  int64_t Add(ProvenanceNode node);

  const ProvenanceNode* Get(int64_t id) const;
  size_t size() const { return nodes_.size(); }
  const std::vector<ProvenanceNode>& nodes() const { return nodes_; }

  /// Proof depth of a node: 1 for leaves, 1 + max(upstream) otherwise.
  /// Memoized; the DAG is append-only so cached depths stay valid.
  uint64_t ProofDepth(int64_t id) const;

  /// Depth-bounded proof tree rooted at `id`.
  ProofTree Expand(int64_t id, int max_depth = 32) const;

  // ---- Merge proof forest (union-find explanation) ----

  /// Records that the merge fix `node_id` united the classes of `a` and
  /// `b` (the classic proof-forest construction: re-root a's tree at a,
  /// then hang it under b labeled with the deduction).
  void LinkMerge(int64_t a, int64_t b, int64_t node_id);

  /// The deductions on the proof-forest path between `a` and `b` — the
  /// minimal set of merge fixes explaining why the two eids coincide.
  /// Empty when they were never connected through recorded merges.
  std::vector<int64_t> MergePath(int64_t a, int64_t b) const;

  /// Proof tree over the merge path (synthetic root, one child per step).
  ProofTree ExplainMerge(int64_t a, int64_t b, int max_depth = 32) const;

  /// Aggregate over the whole DAG.
  ProvenanceSummary Summarize() const;

  /// Exports the summary of nodes added since the previous call into the
  /// global MetricsRegistry (counters rock_prov_*, histogram
  /// rock_prov_proof_depth, gauge rock_prov_max_depth) so provenance rides
  /// the existing exporters and BENCH_*.json files.
  void ExportDeltaToMetrics();

 private:
  struct ForestEdge {
    int64_t parent = -1;
    int64_t label = -1;  // provenance node id of the merge deduction
  };

  std::vector<int64_t> PathToRoot(int64_t eid) const;
  void Reroot(int64_t eid);

  std::vector<ProvenanceNode> nodes_;
  mutable std::vector<uint64_t> depth_cache_;
  std::unordered_map<int64_t, ForestEdge> forest_;
  size_t exported_watermark_ = 0;
};

/// Appends the `provenance` block of BENCH_<name>.json from a metrics
/// snapshot: {"enabled", "nodes", "max_depth", "ml_calls", "premises":
/// {ground_truth, prior_fix, raw, oracle}, "fixes_by_rule": {...}}.
/// All values come from the rock_prov_* metrics ExportDeltaToMetrics
/// published, so the block reflects every chase the process ran.
void AppendProvenanceBlock(const MetricsRegistry::Snapshot& snapshot,
                           JsonWriter* writer);

/// Registry name of the per-rule fix counter ("rock_prov_fixes_rule:φ1").
std::string ProvRuleCounterName(const std::string& rule_id);

}  // namespace rock::obs


#include "src/obs/provenance.h"

#include <algorithm>

#include "src/common/strings.h"

namespace rock::obs {

namespace {

/// Proof-depth histogram cap: deeper chains land in the last bucket.
constexpr uint64_t kDepthCap = 16;

struct ProvMetrics {
  Counter* nodes;
  Counter* conflict_candidates;
  Counter* ml_calls;
  Counter* premises_ground_truth;
  Counter* premises_prior_fix;
  Counter* premises_raw;
  Counter* premises_oracle;
  Histogram* proof_depth;
  Gauge* max_depth;

  static const ProvMetrics& Get() {
    static ProvMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      ProvMetrics out;
      out.nodes = reg.GetCounter("rock_prov_nodes_total");
      out.conflict_candidates =
          reg.GetCounter("rock_prov_conflict_candidates_total");
      out.ml_calls = reg.GetCounter("rock_prov_ml_calls_total");
      out.premises_ground_truth =
          reg.GetCounter("rock_prov_premises_ground_truth_total");
      out.premises_prior_fix =
          reg.GetCounter("rock_prov_premises_prior_fix_total");
      out.premises_raw = reg.GetCounter("rock_prov_premises_raw_total");
      out.premises_oracle = reg.GetCounter("rock_prov_premises_oracle_total");
      out.proof_depth = reg.GetHistogram(
          "rock_prov_proof_depth", {1, 2, 3, 4, 6, 8, 12, 16});
      out.max_depth = reg.GetGauge("rock_prov_max_depth");
      return out;
    }();
    return m;
  }
};

}  // namespace

const char* PremiseSourceName(PremiseSource source) {
  switch (source) {
    case PremiseSource::kGroundTruth:
      return "ground_truth";
    case PremiseSource::kPriorFix:
      return "prior_fix";
    case PremiseSource::kRaw:
      return "raw";
    case PremiseSource::kOracle:
      return "oracle";
  }
  return "?";
}

const char* ProvKindName(ProvKind kind) {
  switch (kind) {
    case ProvKind::kGroundTruth:
      return "ground_truth";
    case ProvKind::kFix:
      return "fix";
    case ProvKind::kConflictCandidate:
      return "conflict_candidate";
  }
  return "?";
}

int64_t ProvenanceGraph::Add(ProvenanceNode node) {
  node.id = static_cast<int64_t>(nodes_.size());
  // Upstream ids must predate the node (the DAG is append-only), which is
  // what makes ProofDepth's recursion well-founded.
  node.upstream.erase(
      std::remove_if(node.upstream.begin(), node.upstream.end(),
                     [&](int64_t up) { return up < 0 || up >= node.id; }),
      node.upstream.end());
  std::sort(node.upstream.begin(), node.upstream.end());
  node.upstream.erase(
      std::unique(node.upstream.begin(), node.upstream.end()),
      node.upstream.end());
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

const ProvenanceNode* ProvenanceGraph::Get(int64_t id) const {
  if (id < 0 || static_cast<size_t>(id) >= nodes_.size()) return nullptr;
  return &nodes_[static_cast<size_t>(id)];
}

uint64_t ProvenanceGraph::ProofDepth(int64_t id) const {
  if (id < 0 || static_cast<size_t>(id) >= nodes_.size()) return 0;
  if (depth_cache_.size() < nodes_.size()) {
    depth_cache_.resize(nodes_.size(), 0);
  }
  uint64_t& cached = depth_cache_[static_cast<size_t>(id)];
  if (cached != 0) return cached;
  uint64_t deepest = 0;
  for (int64_t up : nodes_[static_cast<size_t>(id)].upstream) {
    deepest = std::max(deepest, ProofDepth(up));
  }
  cached = deepest + 1;
  return cached;
}

ProofTree ProvenanceGraph::Expand(int64_t id, int max_depth) const {
  ProofTree tree;
  const ProvenanceNode* node = Get(id);
  if (node == nullptr) return tree;
  struct Builder {
    const ProvenanceGraph* graph;
    ProofTree::TreeNode Build(const ProvenanceNode& n, int budget) const {
      ProofTree::TreeNode out;
      out.node = &n;
      if (budget <= 1) {
        out.truncated = !n.upstream.empty();
        return out;
      }
      out.children.reserve(n.upstream.size());
      for (int64_t up : n.upstream) {
        const ProvenanceNode* child = graph->Get(up);
        if (child != nullptr) out.children.push_back(Build(*child, budget - 1));
      }
      return out;
    }
  };
  tree.root = Builder{this}.Build(*node, max_depth);
  return tree;
}

void ProvenanceGraph::Reroot(int64_t eid) {
  // Reverse every edge on eid's path to its proof-forest root so eid
  // becomes the root (labels travel with their edge).
  std::vector<std::pair<int64_t, ForestEdge>> path;
  int64_t cur = eid;
  auto it = forest_.find(cur);
  while (it != forest_.end()) {
    path.emplace_back(cur, it->second);
    cur = it->second.parent;
    it = forest_.find(cur);
  }
  for (auto& [child, edge] : path) {
    forest_[edge.parent] = {child, edge.label};
  }
  forest_.erase(eid);
}

void ProvenanceGraph::LinkMerge(int64_t a, int64_t b, int64_t node_id) {
  if (a == b) return;
  Reroot(a);
  forest_[a] = {b, node_id};
}

std::vector<int64_t> ProvenanceGraph::PathToRoot(int64_t eid) const {
  std::vector<int64_t> out = {eid};
  auto it = forest_.find(eid);
  while (it != forest_.end()) {
    out.push_back(it->second.parent);
    it = forest_.find(it->second.parent);
  }
  return out;
}

std::vector<int64_t> ProvenanceGraph::MergePath(int64_t a, int64_t b) const {
  if (a == b) return {};
  std::vector<int64_t> path_a = PathToRoot(a);
  std::vector<int64_t> path_b = PathToRoot(b);
  if (path_a.back() != path_b.back()) return {};  // different trees
  // Find the meeting point (lowest common ancestor in the proof forest).
  std::unordered_map<int64_t, size_t> index_a;
  for (size_t i = 0; i < path_a.size(); ++i) index_a[path_a[i]] = i;
  size_t meet_b = 0;
  while (index_a.find(path_b[meet_b]) == index_a.end()) ++meet_b;
  size_t meet_a = index_a[path_b[meet_b]];
  std::vector<int64_t> labels;
  auto collect = [&](const std::vector<int64_t>& path, size_t stop) {
    for (size_t i = 0; i < stop; ++i) {
      auto it = forest_.find(path[i]);
      if (it != forest_.end()) labels.push_back(it->second.label);
    }
  };
  collect(path_a, meet_a);
  collect(path_b, meet_b);
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return labels;
}

ProofTree ProvenanceGraph::ExplainMerge(int64_t a, int64_t b,
                                        int max_depth) const {
  ProofTree tree;
  std::vector<int64_t> steps = MergePath(a, b);
  if (steps.empty()) return tree;
  tree.synthetic_label =
      StrFormat("merge path eid %lld = eid %lld (%zu step%s)",
                static_cast<long long>(a), static_cast<long long>(b),
                steps.size(), steps.size() == 1 ? "" : "s");
  for (int64_t step : steps) {
    ProofTree expanded = Expand(step, max_depth);
    if (expanded.root.node != nullptr) {
      tree.root.children.push_back(std::move(expanded.root));
    }
  }
  return tree;
}

ProvenanceSummary ProvenanceGraph::Summarize() const {
  ProvenanceSummary summary;
  summary.depth_histogram.assign(kDepthCap, 0);
  for (const ProvenanceNode& node : nodes_) {
    ++summary.nodes;
    if (node.kind == ProvKind::kConflictCandidate) {
      ++summary.conflict_candidates;
    } else {
      ++summary.fixes_by_rule[node.rule_id];
    }
    uint64_t depth = ProofDepth(node.id);
    summary.max_depth = std::max(summary.max_depth, depth);
    ++summary.depth_histogram[std::min(depth, kDepthCap) - 1];
    summary.ml_calls += node.witness.ml_calls.size();
    for (const PremiseCell& premise : node.witness.premises) {
      switch (premise.source) {
        case PremiseSource::kGroundTruth:
          ++summary.premises_ground_truth;
          break;
        case PremiseSource::kPriorFix:
          ++summary.premises_prior_fix;
          break;
        case PremiseSource::kRaw:
          ++summary.premises_raw;
          break;
        case PremiseSource::kOracle:
          ++summary.premises_oracle;
          break;
      }
    }
  }
  return summary;
}

void ProvenanceGraph::ExportDeltaToMetrics() {
  const ProvMetrics& metrics = ProvMetrics::Get();
  uint64_t max_depth =
      static_cast<uint64_t>(std::max<int64_t>(0, metrics.max_depth->Value()));
  for (size_t i = exported_watermark_; i < nodes_.size(); ++i) {
    const ProvenanceNode& node = nodes_[i];
    metrics.nodes->Add(1);
    if (node.kind == ProvKind::kConflictCandidate) {
      metrics.conflict_candidates->Add(1);
    } else {
      MetricsRegistry::Global()
          .GetCounter(ProvRuleCounterName(node.rule_id))
          ->Add(1);
    }
    uint64_t depth = ProofDepth(node.id);
    metrics.proof_depth->Observe(static_cast<double>(depth));
    max_depth = std::max(max_depth, depth);
    metrics.ml_calls->Add(node.witness.ml_calls.size());
    for (const PremiseCell& premise : node.witness.premises) {
      switch (premise.source) {
        case PremiseSource::kGroundTruth:
          metrics.premises_ground_truth->Add(1);
          break;
        case PremiseSource::kPriorFix:
          metrics.premises_prior_fix->Add(1);
          break;
        case PremiseSource::kRaw:
          metrics.premises_raw->Add(1);
          break;
        case PremiseSource::kOracle:
          metrics.premises_oracle->Add(1);
          break;
      }
    }
  }
  metrics.max_depth->Set(static_cast<int64_t>(max_depth));
  exported_watermark_ = nodes_.size();
}

std::string ProvRuleCounterName(const std::string& rule_id) {
  return "rock_prov_fixes_rule:" + rule_id;
}

namespace {

void AppendNodeText(const ProofTree::TreeNode& tn, int indent,
                    std::string* out) {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  if (tn.node == nullptr) return;
  const ProvenanceNode& n = *tn.node;
  *out += pad + "[" + ProvKindName(n.kind);
  if (!n.rule_id.empty()) *out += " " + n.rule_id;
  // Targets built from FixRecord::ToString() repeat the rule id; the
  // header already names it, so drop the duplicated prefix.
  std::string target = n.target;
  if (!n.rule_id.empty()) {
    const std::string dup = "[" + n.rule_id + "] ";
    if (target.rfind(dup, 0) == 0) target = target.substr(dup.size());
  }
  *out += "] " + target + "\n";
  const Witness& w = n.witness;
  if (!w.rule_text.empty()) {
    *out += pad + "  rule: " + w.rule_text + "\n";
  }
  if (!w.tuples.empty()) {
    *out += pad + "  bound:";
    for (const WitnessTuple& t : w.tuples) {
      *out += StrFormat(" t%d=rel%d#%lld", t.var, t.rel,
                        static_cast<long long>(t.tid));
    }
    *out += "\n";
  }
  for (const PremiseCell& p : w.premises) {
    *out += pad +
            StrFormat("  premise: rel%d tid=%lld attr=%d value=%s [%s]", p.rel,
                      static_cast<long long>(p.tid), p.attr, p.value.c_str(),
                      PremiseSourceName(p.source));
    if (p.upstream >= 0) {
      *out += StrFormat(" <- #%lld", static_cast<long long>(p.upstream));
    }
    *out += "\n";
  }
  for (const MlInvocation& m : w.ml_calls) {
    *out += pad + StrFormat("  ml: %s score=%.4f threshold=%.4f %s",
                            m.model.c_str(), m.score, m.threshold,
                            m.passed ? "pass" : "fail");
    if (!m.detail.empty()) *out += " (" + m.detail + ")";
    *out += "\n";
  }
  if (tn.truncated) {
    *out += pad + "  ... (depth bound reached)\n";
  }
  for (const ProofTree::TreeNode& child : tn.children) {
    AppendNodeText(child, indent + 1, out);
  }
}

void AppendNodeJson(const ProofTree::TreeNode& tn, JsonWriter* w) {
  w->BeginObject();
  if (tn.node != nullptr) {
    const ProvenanceNode& n = *tn.node;
    w->Key("id").Int(n.id);
    w->Key("kind").String(ProvKindName(n.kind));
    w->Key("rule_id").String(n.rule_id);
    w->Key("target").String(n.target);
    w->Key("witness").BeginObject();
    w->Key("rule").String(n.witness.rule_text);
    w->Key("tuples").BeginArray();
    for (const WitnessTuple& t : n.witness.tuples) {
      w->BeginObject();
      w->Key("var").Int(t.var);
      w->Key("rel").Int(t.rel);
      w->Key("tid").Int(t.tid);
      w->EndObject();
    }
    w->EndArray();
    w->Key("premises").BeginArray();
    for (const PremiseCell& p : n.witness.premises) {
      w->BeginObject();
      w->Key("rel").Int(p.rel);
      w->Key("tid").Int(p.tid);
      w->Key("attr").Int(p.attr);
      w->Key("value").String(p.value);
      w->Key("source").String(PremiseSourceName(p.source));
      w->Key("upstream").Int(p.upstream);
      w->EndObject();
    }
    w->EndArray();
    w->Key("ml_calls").BeginArray();
    for (const MlInvocation& m : n.witness.ml_calls) {
      w->BeginObject();
      w->Key("model").String(m.model);
      w->Key("detail").String(m.detail);
      w->Key("score").Number(m.score);
      w->Key("threshold").Number(m.threshold);
      w->Key("passed").Bool(m.passed);
      w->EndObject();
    }
    w->EndArray();
    w->EndObject();
  }
  w->Key("truncated").Bool(tn.truncated);
  w->Key("children").BeginArray();
  for (const ProofTree::TreeNode& child : tn.children) {
    AppendNodeJson(child, w);
  }
  w->EndArray();
  w->EndObject();
}

}  // namespace

std::string ProofTree::ToText() const {
  if (empty()) return "(no provenance recorded)\n";
  std::string out;
  if (root.node == nullptr) {
    out += synthetic_label.empty() ? std::string("proof")
                                   : synthetic_label;
    out += "\n";
    for (const TreeNode& child : root.children) {
      AppendNodeText(child, 1, &out);
    }
    return out;
  }
  AppendNodeText(root, 0, &out);
  return out;
}

std::string ProofTree::ToJson() const {
  JsonWriter w;
  if (root.node == nullptr) {
    w.BeginObject();
    w.Key("label").String(synthetic_label);
    w.Key("steps").BeginArray();
    for (const TreeNode& child : root.children) {
      AppendNodeJson(child, &w);
    }
    w.EndArray();
    w.EndObject();
    return w.str();
  }
  AppendNodeJson(root, &w);
  return w.str();
}

void AppendProvenanceBlock(const MetricsRegistry::Snapshot& snapshot,
                           JsonWriter* writer) {
  JsonWriter& w = *writer;
  w.Key("provenance").BeginObject();
  w.Key("enabled").Bool(true);
  w.Key("nodes").Uint(snapshot.CounterValue("rock_prov_nodes_total"));
  w.Key("conflict_candidates")
      .Uint(snapshot.CounterValue("rock_prov_conflict_candidates_total"));
  int64_t max_depth = 0;
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name == "rock_prov_max_depth") max_depth = gauge.value;
  }
  w.Key("max_depth").Int(max_depth);
  w.Key("ml_calls").Uint(snapshot.CounterValue("rock_prov_ml_calls_total"));
  w.Key("premises").BeginObject();
  w.Key("ground_truth")
      .Uint(snapshot.CounterValue("rock_prov_premises_ground_truth_total"));
  w.Key("prior_fix")
      .Uint(snapshot.CounterValue("rock_prov_premises_prior_fix_total"));
  w.Key("raw").Uint(snapshot.CounterValue("rock_prov_premises_raw_total"));
  w.Key("oracle")
      .Uint(snapshot.CounterValue("rock_prov_premises_oracle_total"));
  w.EndObject();
  const std::string rule_prefix = "rock_prov_fixes_rule:";
  w.Key("fixes_by_rule").BeginObject();
  for (const auto& counter : snapshot.counters) {
    if (counter.name.rfind(rule_prefix, 0) == 0) {
      w.Key(counter.name.substr(rule_prefix.size())).Uint(counter.value);
    }
  }
  w.EndObject();
  w.Key("proof_depth").BeginObject();
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name != "rock_prov_proof_depth") continue;
    w.Key("count").Uint(histogram.count);
    w.Key("buckets").BeginArray();
    for (size_t i = 0; i < histogram.bounds.size(); ++i) {
      w.BeginObject();
      w.Key("le").Number(histogram.bounds[i]);
      w.Key("count").Uint(histogram.cumulative_counts[i]);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  w.EndObject();
}

}  // namespace rock::obs

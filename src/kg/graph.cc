#include "src/kg/graph.h"

#include "src/common/strings.h"

#include <algorithm>

namespace rock::kg {

VertexId KnowledgeGraph::AddVertex(std::string label) {
  VertexId id = static_cast<VertexId>(labels_.size());
  label_index_[label].push_back(id);
  labels_.push_back(std::move(label));
  adjacency_.emplace_back();
  return id;
}

Status KnowledgeGraph::AddEdge(VertexId from, const std::string& label,
                               VertexId to) {
  if (!HasVertex(from) || !HasVertex(to)) {
    return Status::OutOfRange("edge endpoint does not exist");
  }
  adjacency_[static_cast<size_t>(from)][label].push_back(to);
  ++num_edges_;
  return Status::Ok();
}

std::vector<VertexId> KnowledgeGraph::Neighbors(
    VertexId v, const std::string& label) const {
  if (!HasVertex(v)) return {};
  const auto& edges = adjacency_[static_cast<size_t>(v)];
  auto it = edges.find(label);
  return it == edges.end() ? std::vector<VertexId>{} : it->second;
}

std::vector<std::pair<std::string, VertexId>> KnowledgeGraph::OutEdges(
    VertexId v) const {
  std::vector<std::pair<std::string, VertexId>> out;
  if (!HasVertex(v)) return out;
  for (const auto& [label, targets] : adjacency_[static_cast<size_t>(v)]) {
    for (VertexId t : targets) out.emplace_back(label, t);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<VertexId> KnowledgeGraph::MatchPath(
    VertexId start, const std::vector<std::string>& path) const {
  if (!HasVertex(start)) return {};
  std::vector<VertexId> frontier = {start};
  for (const std::string& label : path) {
    std::vector<VertexId> next;
    for (VertexId v : frontier) {
      for (VertexId t : Neighbors(v, label)) next.push_back(t);
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  return frontier;
}

bool KnowledgeGraph::HasPath(VertexId start,
                             const std::vector<std::string>& path) const {
  return !MatchPath(start, path).empty();
}

Result<Value> KnowledgeGraph::ValueAtPath(
    VertexId start, const std::vector<std::string>& path) const {
  std::vector<VertexId> terminals = MatchPath(start, path);
  if (terminals.empty()) {
    return Status::NotFound(StrFormat("no match of path from vertex %lld",
                                      static_cast<long long>(start)));
  }
  const std::string* best = nullptr;
  for (VertexId v : terminals) {
    const std::string& label = Label(v);
    if (best == nullptr || label < *best) best = &label;
  }
  return Value::String(*best);
}

std::vector<VertexId> KnowledgeGraph::FindByLabel(
    const std::string& label) const {
  auto it = label_index_.find(label);
  return it == label_index_.end() ? std::vector<VertexId>{} : it->second;
}

std::vector<VertexId> KnowledgeGraph::AllVertices() const {
  std::vector<VertexId> out(labels_.size());
  for (size_t i = 0; i < labels_.size(); ++i) {
    out[i] = static_cast<VertexId>(i);
  }
  return out;
}

}  // namespace rock::kg

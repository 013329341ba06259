#include "src/ml/correlation.h"

#include <algorithm>
#include <cmath>

#include "src/common/hash.h"
#include "src/common/strings.h"

namespace rock::ml {

CooccurrenceModel::CooccurrenceModel() : CooccurrenceModel(Options()) {}

size_t CooccurrenceModel::CoocKeyHash::operator()(const CoocKey& k) const {
  return static_cast<size_t>(HashCombine(
      HashCombine(MixHash64(static_cast<uint64_t>(k.attr_a)), k.hash),
      static_cast<uint64_t>(k.attr_b)));
}

void CooccurrenceModel::Count(int attr_a, const Value& va, int attr_b,
                              const Value& vb, double weight) {
  cooc_[CoocKey{attr_a, va.Hash(), attr_b}][vb] += weight;
  attr_values_[attr_b].insert(vb);
}

void CooccurrenceModel::TrainOnRelation(const Relation& relation) {
  const int num_attrs = static_cast<int>(relation.schema().num_attributes());
  for (size_t row = 0; row < relation.size(); ++row) {
    const Tuple& t = relation.tuple(row);
    for (int a = 0; a < num_attrs; ++a) {
      const Value& va = t.value(a);
      if (va.is_null()) continue;
      for (int b = 0; b < num_attrs; ++b) {
        if (a == b) continue;
        const Value& vb = t.value(b);
        if (vb.is_null()) continue;
        Count(a, va, b, vb, 1.0);
      }
    }
  }
}

void CooccurrenceModel::TrainOnGraph(const kg::KnowledgeGraph& graph,
                                     int subject_attr, int object_attr) {
  for (kg::VertexId v : graph.AllVertices()) {
    for (const auto& [label, target] : graph.OutEdges(v)) {
      Value subject = Value::String(graph.Label(v));
      Value object = Value::String(graph.Label(target));
      Count(subject_attr, subject, object_attr, object, 1.0);
      Count(object_attr, object, subject_attr, subject, 1.0);
    }
  }
}

double CooccurrenceModel::ConditionalScore(int attr_a, const Value& va,
                                           int attr_b,
                                           const Value& vb) const {
  auto it = cooc_.find(CoocKey{attr_a, va.Hash(), attr_b});
  double joint = 0.0;
  double denom = 0.0;
  if (it != cooc_.end()) {
    // The conditional P(vb | va) within attribute B: the denominator is
    // va's co-occurrence mass with B only, not with every attribute.
    for (const auto& [value, count] : it->second) {
      denom += count;
      if (value == vb) joint = count;
    }
  }
  // Distinct candidate universe for smoothing.
  double universe = 1.0;
  auto ut = attr_values_.find(attr_b);
  if (ut != attr_values_.end()) {
    universe = std::max<double>(1.0, static_cast<double>(ut->second.size()));
  }
  return (joint + options_.smoothing) /
         (denom + options_.smoothing * universe);
}

double CooccurrenceModel::EmbeddingScore(const Value& a,
                                         const Value& b) const {
  FeatureVector ea = text_.ExtractNormalized(a.ToString());
  FeatureVector eb = text_.ExtractNormalized(b.ToString());
  // Cosine in [-1,1] mapped to [0,1].
  return 0.5 * (1.0 + Cosine(ea, eb));
}

double CooccurrenceModel::Strength(const std::vector<Value>& values,
                                   const std::vector<int>& validated_attrs,
                                   int attr_b, const Value& candidate) const {
  if (candidate.is_null()) return 0.0;
  double cond_sum = 0.0;
  double emb_sum = 0.0;
  int counted = 0;
  for (int a : validated_attrs) {
    if (a == attr_b) continue;
    const Value& va = values[static_cast<size_t>(a)];
    if (va.is_null()) continue;
    cond_sum += ConditionalScore(a, va, attr_b, candidate);
    emb_sum += EmbeddingScore(va, candidate);
    ++counted;
  }
  if (counted == 0) return 0.0;
  double cond = cond_sum / counted;
  double emb = emb_sum / counted;
  return options_.cooccurrence_weight * cond +
         (1.0 - options_.cooccurrence_weight) * emb;
}

std::vector<Value> CooccurrenceModel::Candidates(
    const std::vector<Value>& values, const std::vector<int>& validated_attrs,
    int attr_b) const {
  // Retrieve: values of B co-occurring with any validated value of t[A].
  std::map<Value, double> scored;
  for (int a : validated_attrs) {
    if (a == attr_b) continue;
    const Value& va = values[static_cast<size_t>(a)];
    if (va.is_null()) continue;
    auto it = cooc_.find(CoocKey{a, va.Hash(), attr_b});
    if (it == cooc_.end()) continue;
    for (const auto& [vb, count] : it->second) {
      (void)count;
      scored[vb] = std::max(
          scored[vb], Strength(values, validated_attrs, attr_b, vb));
    }
  }
  std::vector<std::pair<double, Value>> ranked;
  ranked.reserve(scored.size());
  for (const auto& [v, s] : scored) ranked.emplace_back(s, v);
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& x, const auto& y) {
              if (x.first != y.first) return x.first > y.first;
              return x.second < y.second;
            });
  std::vector<Value> out;
  out.reserve(ranked.size());
  for (auto& [s, v] : ranked) {
    (void)s;
    out.push_back(std::move(v));
  }
  return out;
}

Result<Value> CooccurrenceModel::PredictValue(
    const std::vector<Value>& values, const std::vector<int>& validated_attrs,
    int attr_b) const {
  std::vector<Value> candidates = Candidates(values, validated_attrs, attr_b);
  if (candidates.empty()) {
    return Status::NotFound(
        StrFormat("no candidate value for attribute %d", attr_b));
  }
  return candidates.front();
}

}  // namespace rock::ml

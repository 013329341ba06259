#pragma once

#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/kg/graph.h"
#include "src/ml/feature.h"
#include "src/storage/relation.h"
#include "src/storage/schema.h"

namespace rock::ml {

/// Interface of the correlation model M_c(t[A], t[B]) (paper §2.3): the
/// strength, in [0,1], of the correlation between a partial tuple t[A] and
/// a candidate value for attribute B.
class CorrelationModel {
 public:
  virtual ~CorrelationModel() = default;

  /// `values` are the tuple's attribute values; `validated_attrs` is A (the
  /// positions whose values participate); `attr_b`/`candidate` are B and
  /// the value whose correlation with t[A] is assessed.
  virtual double Strength(const std::vector<Value>& values,
                          const std::vector<int>& validated_attrs, int attr_b,
                          const Value& candidate) const = 0;
};

/// Interface of the predictive model t[B] = M_d(t[A], B) (paper §2.3):
/// suggests a value for missing attribute B from the validated partial
/// tuple t[A]. Implemented per the paper by retrieving candidates and
/// ranking them with the correlation encoders.
class ValuePredictor {
 public:
  virtual ~ValuePredictor() = default;

  virtual Result<Value> PredictValue(const std::vector<Value>& values,
                                     const std::vector<int>& validated_attrs,
                                     int attr_b) const = 0;

  /// The ranked candidate list (best first); PredictValue returns its head.
  virtual std::vector<Value> Candidates(
      const std::vector<Value>& values,
      const std::vector<int>& validated_attrs, int attr_b) const = 0;
};

/// M_c / M_d implementation: smoothed conditional co-occurrence statistics
/// between attribute values (the "graph embedding" classification of the
/// paper is replaced by co-occurrence counts mined from the same training
/// relation plus, optionally, a knowledge graph), blended with a hashed
/// text-embedding similarity backoff for unseen value combinations.
class CooccurrenceModel : public CorrelationModel, public ValuePredictor {
 public:
  struct Options {
    /// Additive smoothing for conditional probabilities.
    double smoothing = 0.1;
    /// Weight of the co-occurrence evidence vs. the embedding backoff.
    double cooccurrence_weight = 0.85;
    int text_dim = 64;
  };

  CooccurrenceModel();
  explicit CooccurrenceModel(Options options)
      : options_(options), text_(options.text_dim) {}

  /// Mines co-occurrence statistics from `relation` (every pair of
  /// attributes). Rows with nulls contribute only their non-null pairs.
  void TrainOnRelation(const Relation& relation);

  /// Additionally mines (subject-label, edge-label, object-label) triples:
  /// an edge v --l--> w counts as co-occurrence of v's label (keyed by
  /// attribute `subject_attr`) with w's label (keyed by `object_attr`).
  void TrainOnGraph(const kg::KnowledgeGraph& graph, int subject_attr,
                    int object_attr);

  double Strength(const std::vector<Value>& values,
                  const std::vector<int>& validated_attrs, int attr_b,
                  const Value& candidate) const override;

  Result<Value> PredictValue(const std::vector<Value>& values,
                             const std::vector<int>& validated_attrs,
                             int attr_b) const override;

  std::vector<Value> Candidates(const std::vector<Value>& values,
                                const std::vector<int>& validated_attrs,
                                int attr_b) const override;

 private:
  /// (attr_a, hash(va), attr_b): the values of B seen with va.
  struct CoocKey {
    int attr_a;
    uint64_t hash;
    int attr_b;
    bool operator==(const CoocKey&) const = default;
  };
  struct CoocKeyHash {
    size_t operator()(const CoocKey& k) const;
  };

  Options options_;
  HashedTextFeaturizer text_;
  // cooc_[{attr_a, hash(va), attr_b}] : value -> count. The inner map is
  // ordered, so every sum over it runs in the same order.
  std::unordered_map<CoocKey, std::map<Value, double>, CoocKeyHash> cooc_;
  // Distinct values seen per attribute (candidate universe).
  std::unordered_map<int, std::set<Value>> attr_values_;

  void Count(int attr_a, const Value& va, int attr_b, const Value& vb,
             double weight);
  double ConditionalScore(int attr_a, const Value& va, int attr_b,
                          const Value& vb) const;
  double EmbeddingScore(const Value& a, const Value& b) const;
};

}  // namespace rock::ml


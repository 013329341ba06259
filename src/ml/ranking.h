#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/ml/feature.h"
#include "src/ml/linear.h"
#include "src/storage/relation.h"
#include "src/storage/schema.h"

namespace rock::ml {

/// Interface of the pairwise temporal ranking model M_rank(t1, t2, ⊗A)
/// (paper §2.2): predicts whether t1 ⊗A t2 for ⊗ ∈ {⪯, ≺}, and — for
/// conflict resolution (§4.2) — exposes a confidence score in [0,1].
class TemporalRanker {
 public:
  virtual ~TemporalRanker() = default;

  /// Confidence that t1 ⊗A t2 holds (t2's A-value at least as current as
  /// t1's when strict=false; strictly more current when strict=true).
  virtual double Confidence(const Tuple& t1, const Tuple& t2, int attr,
                            bool strict) const = 0;

  /// The confidence at which the order predicate holds.
  static constexpr double kThreshold = 0.5;

  bool Predict(const Tuple& t1, const Tuple& t2, int attr,
               bool strict) const {
    return Confidence(t1, t2, attr, strict) >= kThreshold;
  }
};

/// A currency constraint used by the critic: returns +1 when it can certify
/// t1 ⪯A t2, -1 for t2 ⪯A t1, and 0 when it is silent (paper [34]/[42],
/// e.g. "marital status only changes from single to married").
struct CurrencyConstraint {
  std::string name;
  std::function<int(const Schema&, const Tuple& t1, const Tuple& t2,
                    int attr)>
      judge;
};

/// The trained M_rank: a per-tuple recency score r(t) (linear in numeric
/// attributes, available timestamps and hashed text features of t[A]),
/// with P(t1 ⪯A t2) = sigmoid(r(t2) - r(t1)). The paper trains it
/// creator-critic style, interleaving model learning with verification
/// against currency constraints (§2.2, §4.2); TrainCreatorCritic reproduces
/// that loop: the creator ranks unlabeled pairs, the critic keeps the ones
/// certified by constraints (plus transitive consequences) as augmented
/// training data, and the model is refit each round.
class RankingModel : public TemporalRanker {
 public:
  struct Options {
    int rounds = 3;
    int text_dim = 64;
    LogisticRegression::Options logistic;
  };

  RankingModel(const Schema& schema, int attr);
  RankingModel(const Schema& schema, int attr, Options options);

  /// Supervised seed training: each (earlier, later) pair certifies
  /// earlier ⪯A later.
  void Train(const std::vector<std::pair<Tuple, Tuple>>& ordered_pairs);

  /// Creator-critic training over an unlabeled relation (see class doc).
  /// `constraints` is the critic's knowledge; `seed_pairs` may be empty.
  void TrainCreatorCritic(
      const Relation& relation,
      const std::vector<CurrencyConstraint>& constraints,
      const std::vector<std::pair<Tuple, Tuple>>& seed_pairs = {});

  double Confidence(const Tuple& t1, const Tuple& t2, int attr,
                    bool strict) const override;

  /// The learned recency score of a tuple (higher = more current).
  double RecencyScore(const Tuple& t) const;

  int attr() const { return attr_; }

 private:
  Schema schema_;
  int attr_;
  Options options_;
  HashedTextFeaturizer text_;
  LogisticRegression pair_model_;

  FeatureVector TupleFeatures(const Tuple& t) const;
  FeatureVector PairFeatures(const Tuple& t1, const Tuple& t2) const;
};

}  // namespace rock::ml


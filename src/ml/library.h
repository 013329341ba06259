#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/kg/graph.h"
#include "src/ml/feature.h"
#include "src/ml/linear.h"
#include "src/ml/tree.h"
#include "src/storage/relation.h"
#include "src/storage/schema.h"

namespace rock::ml {

/// Interface of a Boolean ML predicate M(t[A], s[B]) over two pairwise
/// compatible attribute vectors (paper §2.1). Any model whose output can be
/// thresholded to a Boolean can be embedded in an REE++ through this
/// interface.
class PairClassifier {
 public:
  virtual ~PairClassifier() = default;

  /// Match strength in [0,1].
  virtual double Score(const std::vector<Value>& a,
                       const std::vector<Value>& b) const = 0;

  /// The Boolean predicate value: Score >= threshold(), always, so a
  /// memoized or recorded score decides exactly as Predict does.
  bool Predict(const std::vector<Value>& a,
               const std::vector<Value>& b) const {
    return Score(a, b) >= threshold();
  }

  virtual double threshold() const { return 0.5; }

  /// Blocking tokens for the filter-and-verify paradigm (§5.4): records
  /// with disjoint token sets are assumed non-matching by the filter.
  virtual std::vector<std::string> BlockTokens(
      const std::vector<Value>& a) const;
};

/// An untrained similarity-threshold classifier: the mean Jaro-Winkler /
/// numeric closeness across attribute pairs. Useful as a default model and
/// as the weak "pre-trained" starting point the trainable models refine.
class SimilarityClassifier : public PairClassifier {
 public:
  explicit SimilarityClassifier(double threshold = 0.85)
      : threshold_(threshold) {}

  double Score(const std::vector<Value>& a,
               const std::vector<Value>& b) const override;
  double threshold() const override { return threshold_; }

 private:
  double threshold_;
};

/// Logistic regression over PairFeaturizer features — the workhorse trained
/// ER/matching model (the paper's Bert-based M_ER stands in behind the same
/// interface).
class LogisticPairClassifier : public PairClassifier {
 public:
  LogisticPairClassifier(int num_attributes, double threshold = 0.5,
                         LogisticRegression::Options options = {})
      : featurizer_(num_attributes),
        model_(options),
        threshold_(threshold) {}

  /// Trains from labeled value-vector pairs.
  Status Train(const std::vector<std::pair<std::vector<Value>,
                                           std::vector<Value>>>& pairs,
               const std::vector<int>& labels);

  double Score(const std::vector<Value>& a,
               const std::vector<Value>& b) const override;
  double threshold() const override { return threshold_; }
  bool trained() const { return model_.trained(); }

 private:
  PairFeaturizer featurizer_;
  LogisticRegression model_;
  double threshold_;
};

/// Gradient-boosted trees over PairFeaturizer features, clamped to [0,1]
/// so the regression output reads as a match strength. The non-linear
/// counterpart of LogisticPairClassifier for pairs whose decision boundary
/// a single hyperplane cannot carve.
class BoostedPairClassifier : public PairClassifier {
 public:
  BoostedPairClassifier(int num_attributes, double threshold = 0.5,
                        GradientBoostedTrees::Options options = {})
      : featurizer_(num_attributes),
        model_(options),
        threshold_(threshold) {}

  /// Trains from labeled value-vector pairs ({0,1} labels).
  Status Train(const std::vector<std::pair<std::vector<Value>,
                                           std::vector<Value>>>& pairs,
               const std::vector<int>& labels);

  double Score(const std::vector<Value>& a,
               const std::vector<Value>& b) const override;
  double threshold() const override { return threshold_; }
  bool trained() const { return model_.trained(); }

 private:
  PairFeaturizer featurizer_;
  GradientBoostedTrees model_;
  double threshold_;
};

class TemporalRanker;
class CorrelationModel;
class ValuePredictor;
class HerModel;
class PathMatchModel;

/// Names of the models the chase resolves conflicts with (paper §4.2): the
/// correlation model M_c for MI value conflicts and the ranking model
/// M_rank for TD conflicts. core::Rock::TrainModels registers its models
/// under these names.
inline constexpr char kMcModel[] = "Mc";
inline constexpr char kMrankModel[] = "Mrank";

/// The pre-trained model pool Crystal maintains (paper §5.1 "ML library and
/// REE++s management"). Rules reference models by name; evaluation resolves
/// the name here.
class MlLibrary {
 public:
  void RegisterPair(const std::string& name,
                    std::shared_ptr<PairClassifier> model);
  void RegisterRanker(const std::string& name,
                      std::shared_ptr<TemporalRanker> model);
  void RegisterCorrelation(const std::string& name,
                           std::shared_ptr<CorrelationModel> model);
  void RegisterPredictor(const std::string& name,
                         std::shared_ptr<ValuePredictor> model);
  void RegisterHer(std::shared_ptr<HerModel> model);
  void RegisterPathMatcher(std::shared_ptr<PathMatchModel> model);

  /// nullptr when the name is unknown.
  const PairClassifier* FindPair(const std::string& name) const;
  const TemporalRanker* FindRanker(const std::string& name) const;
  const CorrelationModel* FindCorrelation(const std::string& name) const;
  const ValuePredictor* FindPredictor(const std::string& name) const;
  const HerModel* her() const { return her_.get(); }
  const PathMatchModel* path_matcher() const { return path_matcher_.get(); }

  std::vector<std::string> PairModelNames() const;

 private:
  std::unordered_map<std::string, std::shared_ptr<PairClassifier>> pairs_;
  std::unordered_map<std::string, std::shared_ptr<TemporalRanker>> rankers_;
  std::unordered_map<std::string, std::shared_ptr<CorrelationModel>>
      correlations_;
  std::unordered_map<std::string, std::shared_ptr<ValuePredictor>>
      predictors_;
  std::shared_ptr<HerModel> her_;
  std::shared_ptr<PathMatchModel> path_matcher_;
};

}  // namespace rock::ml


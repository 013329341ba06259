#pragma once

#include <memory>
#include <vector>

#include "src/ml/feature.h"

namespace rock::ml {

/// A CART-style regression tree (variance-reducing axis-aligned splits).
/// Building block of GradientBoostedTrees below.
class DecisionTree {
 public:
  struct Options {
    int max_depth = 4;
    int min_samples_leaf = 4;
  };

  DecisionTree() = default;
  explicit DecisionTree(Options options) : options_(options) {}

  void Train(const std::vector<FeatureVector>& x,
             const std::vector<double>& y);

  double Predict(const FeatureVector& features) const {
    return PredictRow(features.data());
  }

  /// Predict over a raw feature row; the row must span the training
  /// dimension.
  double PredictRow(const double* row) const;

  /// Total variance reduction attributed to each feature across splits.
  const std::vector<double>& feature_gain() const { return feature_gain_; }

 private:
  struct Node {
    int feature = -1;          // -1 => leaf
    double split_threshold = 0.0;
    double leaf_value = 0.0;
    int left = -1;
    int right = -1;
  };

  Options options_;
  std::vector<Node> nodes_;
  std::vector<double> feature_gain_;

  int BuildNode(const std::vector<FeatureVector>& x,
                const std::vector<double>& y, std::vector<int>& indices,
                int depth);
};

/// Gradient-boosted regression trees with squared loss — the XGBoost
/// stand-in of §5.4. Feature importance (summed split gain) ranks numeric
/// attributes for polynomial-expression discovery, and the model itself is
/// usable as a regressor or (via a logistic link at the caller) classifier.
class GradientBoostedTrees {
 public:
  struct Options {
    int num_trees = 30;
    double learning_rate = 0.2;
    DecisionTree::Options tree;
  };

  GradientBoostedTrees() = default;
  explicit GradientBoostedTrees(Options options) : options_(options) {}

  void Train(const std::vector<FeatureVector>& x,
             const std::vector<double>& y);

  double Predict(const FeatureVector& features) const {
    return PredictRow(features.data());
  }

  /// Predict over a raw feature row spanning the training dimension.
  double PredictRow(const double* row) const;

  /// Per-feature importance (summed split gain over all trees), normalized
  /// to sum to 1 when any gain exists.
  std::vector<double> FeatureImportance() const;

  bool trained() const { return !trees_.empty(); }

 private:
  Options options_;
  double base_prediction_ = 0.0;
  std::vector<DecisionTree> trees_;
  size_t dimension_ = 0;
};

}  // namespace rock::ml


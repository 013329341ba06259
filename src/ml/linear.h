#pragma once

#include <vector>

#include "src/common/rng.h"
#include "src/ml/feature.h"

namespace rock::ml {

/// Binary logistic regression trained with AdaGrad SGD. Backs most Boolean
/// ML predicates M(t[A], s[B]) embedded in REE++s (paper §2.1): the model
/// returns a probability, and the predicate thresholds it.
class LogisticRegression {
 public:
  struct Options {
    int epochs = 30;
    double learning_rate = 0.5;
    double l2 = 1e-4;
    uint64_t seed = 42;
  };

  LogisticRegression() = default;
  explicit LogisticRegression(Options options) : options_(options) {}

  /// Trains on dense features with {0,1} labels. Resets existing weights.
  void Train(const std::vector<FeatureVector>& features,
             const std::vector<int>& labels);

  /// Probability of the positive class.
  double Score(const FeatureVector& features) const {
    return ScoreRow(features.data(), features.size());
  }

  /// Score over a raw feature row of `n` doubles.
  double ScoreRow(const double* row, size_t n) const;

  bool Predict(const FeatureVector& features, double threshold = 0.5) const {
    return Score(features) >= threshold;
  }

  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }
  bool trained() const { return !weights_.empty(); }

 private:
  Options options_;
  std::vector<double> weights_;
  double bias_ = 0.0;
};

/// LASSO linear regression via cyclic coordinate descent. Used by the
/// polynomial-expression discovery of §5.4: unimportant features receive
/// exactly-zero weights.
class Lasso {
 public:
  struct Options {
    double lambda = 0.1;
    int max_iters = 200;
    double tolerance = 1e-7;
  };

  Lasso() = default;
  explicit Lasso(Options options) : options_(options) {}

  /// Fits y ≈ X·w + b with an L1 penalty on w.
  void Train(const std::vector<FeatureVector>& x, const std::vector<double>& y);

  double Predict(const FeatureVector& features) const;

  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }

  /// Indices of features with non-zero weight (|w| > 1e-9).
  std::vector<int> SelectedFeatures() const;

 private:
  Options options_;
  std::vector<double> weights_;
  double bias_ = 0.0;
};

}  // namespace rock::ml


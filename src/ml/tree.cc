#include "src/ml/tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace rock::ml {
namespace {

double Mean(const std::vector<double>& y, const std::vector<int>& indices) {
  if (indices.empty()) return 0.0;
  double sum = 0.0;
  for (int i : indices) sum += y[static_cast<size_t>(i)];
  return sum / static_cast<double>(indices.size());
}

}  // namespace

void DecisionTree::Train(const std::vector<FeatureVector>& x,
                         const std::vector<double>& y) {
  nodes_.clear();
  feature_gain_.assign(x.empty() ? 0 : x[0].size(), 0.0);
  if (x.empty()) return;
  std::vector<int> indices(x.size());
  std::iota(indices.begin(), indices.end(), 0);
  BuildNode(x, y, indices, 0);
}

int DecisionTree::BuildNode(const std::vector<FeatureVector>& x,
                            const std::vector<double>& y,
                            std::vector<int>& indices, int depth) {
  int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<size_t>(node_id)].leaf_value = Mean(y, indices);

  if (depth >= options_.max_depth ||
      static_cast<int>(indices.size()) < 2 * options_.min_samples_leaf) {
    return node_id;
  }

  // Parent sum of squared error.
  double parent_mean = nodes_[static_cast<size_t>(node_id)].leaf_value;
  double parent_sse = 0.0;
  for (int i : indices) {
    double d = y[static_cast<size_t>(i)] - parent_mean;
    parent_sse += d * d;
  }
  if (parent_sse <= 1e-12) return node_id;

  const size_t dim = x[0].size();
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = 1e-9;

  std::vector<std::pair<double, double>> sorted;  // (feature value, target)
  for (size_t f = 0; f < dim; ++f) {
    sorted.clear();
    sorted.reserve(indices.size());
    for (int i : indices) {
      sorted.emplace_back(x[static_cast<size_t>(i)][f],
                          y[static_cast<size_t>(i)]);
    }
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front().first == sorted.back().first) continue;

    // Prefix sums for O(n) threshold scan.
    double left_sum = 0.0, left_sq = 0.0;
    double total_sum = 0.0, total_sq = 0.0;
    for (const auto& [_, target] : sorted) {
      total_sum += target;
      total_sq += target * target;
    }
    size_t n = sorted.size();
    for (size_t k = 0; k + 1 < n; ++k) {
      left_sum += sorted[k].second;
      left_sq += sorted[k].second * sorted[k].second;
      if (sorted[k].first == sorted[k + 1].first) continue;
      size_t left_n = k + 1;
      size_t right_n = n - left_n;
      if (static_cast<int>(left_n) < options_.min_samples_leaf ||
          static_cast<int>(right_n) < options_.min_samples_leaf) {
        continue;
      }
      double right_sum = total_sum - left_sum;
      double right_sq = total_sq - left_sq;
      double left_sse = left_sq - left_sum * left_sum / left_n;
      double right_sse = right_sq - right_sum * right_sum / right_n;
      double gain = parent_sse - left_sse - right_sse;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = (sorted[k].first + sorted[k + 1].first) / 2.0;
      }
    }
  }

  if (best_feature < 0) return node_id;

  std::vector<int> left_idx, right_idx;
  for (int i : indices) {
    if (x[static_cast<size_t>(i)][static_cast<size_t>(best_feature)] <=
        best_threshold) {
      left_idx.push_back(i);
    } else {
      right_idx.push_back(i);
    }
  }
  if (left_idx.empty() || right_idx.empty()) return node_id;

  feature_gain_[static_cast<size_t>(best_feature)] += best_gain;
  int left = BuildNode(x, y, left_idx, depth + 1);
  int right = BuildNode(x, y, right_idx, depth + 1);
  Node& node = nodes_[static_cast<size_t>(node_id)];
  node.feature = best_feature;
  node.split_threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_id;
}

double DecisionTree::PredictRow(const double* row) const {
  if (nodes_.empty()) return 0.0;
  int node = 0;
  while (nodes_[static_cast<size_t>(node)].feature >= 0) {
    const Node& n = nodes_[static_cast<size_t>(node)];
    double v = row[static_cast<size_t>(n.feature)];
    node = v <= n.split_threshold ? n.left : n.right;
  }
  return nodes_[static_cast<size_t>(node)].leaf_value;
}

void GradientBoostedTrees::Train(const std::vector<FeatureVector>& x,
                                 const std::vector<double>& y) {
  trees_.clear();
  base_prediction_ = 0.0;
  dimension_ = x.empty() ? 0 : x[0].size();
  if (x.empty()) return;
  for (double v : y) base_prediction_ += v;
  base_prediction_ /= static_cast<double>(y.size());

  std::vector<double> prediction(x.size(), base_prediction_);
  std::vector<double> residual(x.size());
  for (int t = 0; t < options_.num_trees; ++t) {
    for (size_t i = 0; i < x.size(); ++i) residual[i] = y[i] - prediction[i];
    DecisionTree tree(options_.tree);
    tree.Train(x, residual);
    bool useful = false;
    for (size_t i = 0; i < x.size(); ++i) {
      double delta = options_.learning_rate * tree.Predict(x[i]);
      if (std::abs(delta) > 1e-12) useful = true;
      prediction[i] += delta;
    }
    trees_.push_back(std::move(tree));
    if (!useful) break;
  }
}

double GradientBoostedTrees::PredictRow(const double* row) const {
  double out = base_prediction_;
  for (const DecisionTree& tree : trees_) {
    out += options_.learning_rate * tree.PredictRow(row);
  }
  return out;
}

std::vector<double> GradientBoostedTrees::FeatureImportance() const {
  std::vector<double> importance(dimension_, 0.0);
  for (const DecisionTree& tree : trees_) {
    const std::vector<double>& gain = tree.feature_gain();
    for (size_t i = 0; i < gain.size() && i < dimension_; ++i) {
      importance[i] += gain[i];
    }
  }
  double total = 0.0;
  for (double v : importance) total += v;
  if (total > 0) {
    for (double& v : importance) v /= total;
  }
  return importance;
}

}  // namespace rock::ml

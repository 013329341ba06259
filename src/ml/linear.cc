#include "src/ml/linear.h"

#include <algorithm>
#include <cmath>

namespace rock::ml {
namespace {

double Sigmoid(double z) {
  if (z >= 0) {
    double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

void LogisticRegression::Train(const std::vector<FeatureVector>& features,
                               const std::vector<int>& labels) {
  if (features.empty()) {
    weights_.clear();
    bias_ = 0.0;
    return;
  }
  const size_t dim = features[0].size();
  weights_.assign(dim, 0.0);
  bias_ = 0.0;
  std::vector<double> grad_sq(dim + 1, 1e-8);

  Rng rng(options_.seed);
  std::vector<size_t> order(features.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t idx : order) {
      const FeatureVector& x = features[idx];
      double y = labels[idx] > 0 ? 1.0 : 0.0;
      double p = Score(x);
      double err = p - y;
      for (size_t j = 0; j < dim; ++j) {
        if (x[j] == 0.0 && weights_[j] == 0.0) continue;
        double g = err * x[j] + options_.l2 * weights_[j];
        grad_sq[j] += g * g;
        weights_[j] -= options_.learning_rate * g / std::sqrt(grad_sq[j]);
      }
      double gb = err;
      grad_sq[dim] += gb * gb;
      bias_ -= options_.learning_rate * gb / std::sqrt(grad_sq[dim]);
    }
  }
}

double LogisticRegression::ScoreRow(const double* row, size_t n) const {
  double z = bias_;
  const size_t dim = std::min(n, weights_.size());
  for (size_t i = 0; i < dim; ++i) z += weights_[i] * row[i];
  return Sigmoid(z);
}

void Lasso::Train(const std::vector<FeatureVector>& x,
                  const std::vector<double>& y) {
  weights_.clear();
  bias_ = 0.0;
  if (x.empty()) return;
  const size_t n = x.size();
  const size_t dim = x[0].size();
  weights_.assign(dim, 0.0);

  // Center both the target and every column so the intercept co-adapts
  // (the standard LASSO parameterization); the bias is recovered at the
  // end as ȳ - w·x̄.
  double y_mean = 0.0;
  for (double v : y) y_mean += v;
  y_mean /= static_cast<double>(n);
  std::vector<double> col_mean(dim, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) col_mean[j] += x[i][j];
  }
  for (size_t j = 0; j < dim; ++j) col_mean[j] /= static_cast<double>(n);

  // Centered column norms.
  std::vector<double> col_sq(dim, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      double c = x[i][j] - col_mean[j];
      col_sq[j] += c * c;
    }
  }

  // Residuals r_i = (y_i - ȳ) - Σ w_j (x_ij - x̄_j); w starts at 0.
  std::vector<double> residual(n);
  for (size_t i = 0; i < n; ++i) residual[i] = y[i] - y_mean;

  for (int iter = 0; iter < options_.max_iters; ++iter) {
    double max_change = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      if (col_sq[j] <= 1e-30) continue;
      // rho = x_j_centered . (r + w_j x_j_centered)
      double rho = 0.0;
      for (size_t i = 0; i < n; ++i) {
        double c = x[i][j] - col_mean[j];
        rho += c * (residual[i] + weights_[j] * c);
      }
      double lambda_n = options_.lambda * static_cast<double>(n);
      double w_new;
      if (rho > lambda_n) {
        w_new = (rho - lambda_n) / col_sq[j];
      } else if (rho < -lambda_n) {
        w_new = (rho + lambda_n) / col_sq[j];
      } else {
        w_new = 0.0;
      }
      double delta = w_new - weights_[j];
      if (delta != 0.0) {
        for (size_t i = 0; i < n; ++i) {
          residual[i] -= delta * (x[i][j] - col_mean[j]);
        }
        weights_[j] = w_new;
      }
      max_change = std::max(max_change, std::abs(delta));
    }
    if (max_change < options_.tolerance) break;
  }
  bias_ = y_mean;
  for (size_t j = 0; j < dim; ++j) bias_ -= weights_[j] * col_mean[j];
}

double Lasso::Predict(const FeatureVector& features) const {
  double out = bias_;
  size_t n = std::min(features.size(), weights_.size());
  for (size_t i = 0; i < n; ++i) out += weights_[i] * features[i];
  return out;
}

std::vector<int> Lasso::SelectedFeatures() const {
  std::vector<int> out;
  for (size_t i = 0; i < weights_.size(); ++i) {
    if (std::abs(weights_[i]) > 1e-9) out.push_back(static_cast<int>(i));
  }
  return out;
}

}  // namespace rock::ml

#include "src/discovery/poly.h"

#include <algorithm>
#include <cmath>

#include "src/ml/linear.h"
#include "src/ml/tree.h"

namespace rock::discovery {
namespace {

/// Keep at most this many features after GBT importance ranking (paper:
/// "XGBoost ranks the importance ... and prunes irrelevant features").
constexpr size_t kMaxFeatures = 6;
/// LASSO regularization strength. It is applied on max-scaled columns, so
/// it acts as a selection pressure only; an OLS refit debiases the kept
/// terms. Unimportant features get zero weight.
constexpr double kLassoLambda = 1e-4;
/// Drop terms whose scaled contribution falls below this after the refit
/// (relative to the target's magnitude).
constexpr double kMinWeight = 1e-3;
/// Robust refit rounds: after each fit, outlier rows are dropped (the data
/// being fit is dirty; that is the point) and the expression is refit on
/// the inliers.
constexpr int kRobustRounds = 4;
/// Give up when more than this fraction of rows are outliers (the
/// attribute is then not governed by a polynomial invariant).
constexpr double kMaxOutlierFraction = 0.3;

/// Solves (A + εI) w = b by Gaussian elimination with partial pivoting —
/// the OLS refit used to debias LASSO-selected terms.
bool SolveLinearSystem(std::vector<std::vector<double>> a,
                       std::vector<double> b, std::vector<double>* out) {
  const size_t n = b.size();
  for (size_t i = 0; i < n; ++i) a[i][i] += 1e-9;
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    }
    if (std::abs(a[pivot][col]) < 1e-30) return false;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (size_t row = col + 1; row < n; ++row) {
      double factor = a[row][col] / a[col][col];
      for (size_t k = col; k < n; ++k) a[row][k] -= factor * a[col][k];
      b[row] -= factor * b[col];
    }
  }
  out->assign(n, 0.0);
  for (size_t i = n; i-- > 0;) {
    double sum = b[i];
    for (size_t k = i + 1; k < n; ++k) sum -= a[i][k] * (*out)[k];
    (*out)[i] = sum / a[i][i];
  }
  return true;
}

bool IsNumeric(ValueType type) {
  return type == ValueType::kInt || type == ValueType::kDouble;
}

double NumericOf(const Value& v) { return v.AsDouble(); }

}  // namespace

Result<PolyExpression> DiscoverPolynomial(const Relation& relation,
                                          int target_attr) {
  const Schema& schema = relation.schema();
  if (!IsNumeric(schema.AttributeType(target_attr))) {
    return Status::InvalidArgument("target attribute is not numeric");
  }
  std::vector<int> numeric_attrs;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    if (static_cast<int>(a) == target_attr) continue;
    if (IsNumeric(schema.AttributeType(static_cast<int>(a)))) {
      numeric_attrs.push_back(static_cast<int>(a));
    }
  }
  if (numeric_attrs.empty()) {
    return Status::FailedPrecondition("no numeric feature attributes");
  }

  // Rows with a defined target and all numeric attrs defined.
  std::vector<ml::FeatureVector> x_linear;
  std::vector<double> y;
  for (size_t row = 0; row < relation.size(); ++row) {
    const Tuple& t = relation.tuple(row);
    if (t.value(target_attr).is_null()) continue;
    ml::FeatureVector features;
    bool ok = true;
    for (int a : numeric_attrs) {
      if (t.value(a).is_null()) {
        ok = false;
        break;
      }
      features.push_back(NumericOf(t.value(a)));
    }
    if (!ok) continue;
    x_linear.push_back(std::move(features));
    y.push_back(NumericOf(t.value(target_attr)));
  }
  if (x_linear.size() < 8) {
    return Status::FailedPrecondition("too few complete rows to fit");
  }

  // Stage 1: GBT importance ranking prunes irrelevant attributes.
  ml::GradientBoostedTrees gbt;
  gbt.Train(x_linear, y);
  std::vector<double> importance = gbt.FeatureImportance();
  std::vector<std::pair<double, int>> ranked;
  for (size_t i = 0; i < numeric_attrs.size(); ++i) {
    ranked.emplace_back(importance[i], numeric_attrs[i]);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<int> selected;
  for (const auto& [gain, attr] : ranked) {
    if (selected.size() >= kMaxFeatures) break;
    if (gain <= 0.0 && !selected.empty()) break;
    selected.push_back(attr);
  }

  // Stage 2: LASSO over the polynomial feature expansion: every selected
  // attribute and every degree-2 product of two of them.
  struct FeatureDef {
    int attr_a;
    int attr_b;  // -1 for linear
  };
  std::vector<FeatureDef> defs;
  for (int a : selected) defs.push_back({a, -1});
  for (size_t i = 0; i < selected.size(); ++i) {
    for (size_t j = i; j < selected.size(); ++j) {
      defs.push_back({selected[i], selected[j]});
    }
  }
  // Column scaling keeps LASSO's single lambda meaningful across features
  // of very different magnitudes.
  std::vector<double> scale(defs.size(), 1.0);
  std::vector<ml::FeatureVector> x_poly(x_linear.size());
  auto attr_pos = [&](int attr) {
    return std::find(numeric_attrs.begin(), numeric_attrs.end(), attr) -
           numeric_attrs.begin();
  };
  for (size_t f = 0; f < defs.size(); ++f) {
    double max_abs = 0.0;
    for (size_t row = 0; row < x_linear.size(); ++row) {
      double v = x_linear[row][static_cast<size_t>(attr_pos(defs[f].attr_a))];
      if (defs[f].attr_b >= 0) {
        v *= x_linear[row][static_cast<size_t>(attr_pos(defs[f].attr_b))];
      }
      max_abs = std::max(max_abs, std::abs(v));
    }
    scale[f] = max_abs > 0 ? max_abs : 1.0;
  }
  double y_scale = 0.0;
  for (double v : y) y_scale = std::max(y_scale, std::abs(v));
  if (y_scale == 0.0) y_scale = 1.0;
  std::vector<double> y_scaled(y.size());
  for (size_t row = 0; row < y.size(); ++row) y_scaled[row] = y[row] / y_scale;

  for (size_t row = 0; row < x_linear.size(); ++row) {
    x_poly[row].resize(defs.size());
    for (size_t f = 0; f < defs.size(); ++f) {
      double v = x_linear[row][static_cast<size_t>(attr_pos(defs[f].attr_a))];
      if (defs[f].attr_b >= 0) {
        v *= x_linear[row][static_cast<size_t>(attr_pos(defs[f].attr_b))];
      }
      x_poly[row][f] = v / scale[f];
    }
  }

  // Fit core: LASSO selection + centered OLS refit over a row subset.
  struct Fit {
    std::vector<double> weights;  // scaled space
    double bias = 0.0;            // scaled space
    double r2 = 0.0;
    bool ok = false;
  };
  auto fit_rows = [&](const std::vector<int>& rows) {
    Fit fit;
    std::vector<ml::FeatureVector> xs;
    std::vector<double> ys;
    xs.reserve(rows.size());
    ys.reserve(rows.size());
    for (int r : rows) {
      xs.push_back(x_poly[static_cast<size_t>(r)]);
      ys.push_back(y_scaled[static_cast<size_t>(r)]);
    }
    ml::Lasso::Options lasso_options;
    lasso_options.lambda = kLassoLambda;
    ml::Lasso lasso(lasso_options);
    lasso.Train(xs, ys);

    // LASSO provides the support; a centered OLS refit on that support
    // debiases the shrunken weights (otherwise exact invariants like
    // total = amount + fee + tax fit with systematic error).
    // Support = every linear term (cheap, and tiny-variance terms like a
    // small fee are exactly what LASSO under-selects) plus the product
    // terms LASSO kept.
    std::vector<int> support;
    for (size_t f = 0; f < defs.size(); ++f) {
      if (defs[f].attr_b < 0) support.push_back(static_cast<int>(f));
    }
    for (int f : lasso.SelectedFeatures()) {
      if (defs[static_cast<size_t>(f)].attr_b >= 0) support.push_back(f);
    }
    if (support.empty()) {
      for (size_t f = 0; f < defs.size(); ++f) {
        support.push_back(static_cast<int>(f));
      }
    }
    const size_t k = support.size();
    std::vector<double> sup_mean(k, 0.0);
    for (const auto& row : xs) {
      for (size_t i = 0; i < k; ++i) {
        sup_mean[i] += row[static_cast<size_t>(support[i])];
      }
    }
    for (double& m : sup_mean) m /= static_cast<double>(xs.size());
    double y_mean = 0.0;
    for (double v : ys) y_mean += v;
    y_mean /= static_cast<double>(ys.size());
    std::vector<std::vector<double>> gram(k, std::vector<double>(k, 0.0));
    std::vector<double> xty(k, 0.0);
    for (size_t row = 0; row < xs.size(); ++row) {
      for (size_t i = 0; i < k; ++i) {
        double xi = xs[row][static_cast<size_t>(support[i])] - sup_mean[i];
        xty[i] += xi * (ys[row] - y_mean);
        for (size_t j = i; j < k; ++j) {
          double xj = xs[row][static_cast<size_t>(support[j])] - sup_mean[j];
          gram[i][j] += xi * xj;
        }
      }
    }
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < i; ++j) gram[i][j] = gram[j][i];
    }
    std::vector<double> refit;
    fit.weights.assign(defs.size(), 0.0);
    if (SolveLinearSystem(gram, xty, &refit)) {
      fit.bias = y_mean;
      for (size_t i = 0; i < k; ++i) {
        fit.weights[static_cast<size_t>(support[i])] = refit[i];
        fit.bias -= refit[i] * sup_mean[i];
      }
    } else {
      fit.bias = lasso.bias();
      for (size_t f = 0; f < defs.size(); ++f) {
        fit.weights[f] = lasso.weights()[f];
      }
    }
    // R² on the subset.
    double ss_res = 0.0, ss_tot = 0.0;
    for (size_t row = 0; row < xs.size(); ++row) {
      double pred = fit.bias;
      for (size_t f = 0; f < defs.size(); ++f) {
        pred += fit.weights[f] * xs[row][f];
      }
      ss_res += (ys[row] - pred) * (ys[row] - pred);
      ss_tot += (ys[row] - y_mean) * (ys[row] - y_mean);
    }
    fit.r2 = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
    fit.ok = true;
    return fit;
  };

  // Robust rounds (kRobustRounds): the data being fit is dirty by
  // assumption.
  std::vector<int> active(x_poly.size());
  for (size_t i = 0; i < active.size(); ++i) active[i] = static_cast<int>(i);
  Fit fit = fit_rows(active);
  for (int round = 0; round < kRobustRounds && fit.ok; ++round) {
    // MAD-style trimming: rows whose residual exceeds 6× the median
    // absolute residual are outliers (gross corruptions, not fit noise).
    std::vector<double> residuals;
    residuals.reserve(active.size());
    for (int r : active) {
      double pred = fit.bias;
      for (size_t f = 0; f < defs.size(); ++f) {
        pred += fit.weights[f] * x_poly[static_cast<size_t>(r)][f];
      }
      residuals.push_back(
          std::abs(y_scaled[static_cast<size_t>(r)] - pred));
    }
    std::vector<double> sorted = residuals;
    std::sort(sorted.begin(), sorted.end());
    double median = sorted[sorted.size() / 2];
    double cut = std::max(6.0 * median, 1e-9);
    std::vector<int> inliers;
    for (size_t i = 0; i < active.size(); ++i) {
      if (residuals[i] <= cut) inliers.push_back(active[i]);
    }
    if (inliers.size() == active.size()) break;  // nothing dropped
    if (static_cast<double>(x_poly.size() - inliers.size()) >
        kMaxOutlierFraction * static_cast<double>(x_poly.size())) {
      return Status::FailedPrecondition(
          "attribute is not governed by a polynomial invariant "
          "(too many outliers)");
    }
    if (inliers.size() < 8) break;
    active = std::move(inliers);
    fit = fit_rows(active);
  }

  PolyExpression expr;
  expr.poly.bias = fit.bias * y_scale;
  for (size_t f = 0; f < defs.size(); ++f) {
    // fit.weights is in the max-scaled space (columns and target in
    // [-1, 1]), so its magnitude IS the relative contribution.
    if (std::abs(fit.weights[f]) < kMinWeight) continue;
    double w = fit.weights[f] * y_scale / scale[f];
    expr.poly.terms.push_back({defs[f].attr_a, defs[f].attr_b, w});
  }
  expr.r_squared = fit.r2;
  // Exact support over ALL rows (outliers included): the share of data the
  // expression reproduces to within float/cents rounding.
  size_t exact = 0;
  for (size_t row = 0; row < x_poly.size(); ++row) {
    double pred = fit.bias;
    for (size_t f = 0; f < defs.size(); ++f) {
      pred += fit.weights[f] * x_poly[row][f];
    }
    double scale_ref = std::max(1e-6, std::abs(pred));
    if (std::abs(y_scaled[row] - pred) / scale_ref <= 1e-4) ++exact;
  }
  expr.exact_support =
      static_cast<double>(exact) / static_cast<double>(x_poly.size());
  return expr;
}

}  // namespace rock::discovery

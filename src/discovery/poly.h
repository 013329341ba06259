#pragma once

#include <vector>

#include "src/common/status.h"
#include "src/rules/predicate.h"
#include "src/storage/relation.h"

namespace rock::discovery {

/// A discovered arithmetic correlation among numeric attributes
/// (paper §5.4 "Polynomial expressions"): target ≈ bias + Σ w_i · term_i,
/// where each term is an attribute or a product of two attributes.
struct PolyExpression {
  rules::Polynomial poly;
  /// In-sample coefficient of determination (on the robust inliers).
  double r_squared = 0.0;
  /// Fraction of ALL rows whose relative residual is below 1e-4 — the
  /// share of data satisfying the expression exactly. True arithmetic
  /// invariants score ≈ 1 - error rate; statistical pseudo-fits (high R²
  /// but nonzero residuals everywhere) score ≈ 0.
  double exact_support = 0.0;
};

struct PolyOptions {
  /// Keep at most this many features after GBT importance ranking
  /// (paper: "XGBoost ranks the importance ... and prunes irrelevant
  /// features").
  int max_features = 6;
  /// Include degree-2 product terms.
  bool include_products = true;
  /// LASSO regularization strength (applied on max-scaled columns, so it
  /// acts as a selection pressure only; an OLS refit debiases the kept
  /// terms). Unimportant features get zero weight.
  double lasso_lambda = 1e-4;
  /// Drop terms whose scaled contribution falls below this after the
  /// refit (relative to the target's magnitude).
  double min_weight = 1e-3;
  /// Robust refit rounds: after each fit, rows whose relative residual
  /// exceeds `outlier_threshold` are dropped (the data being fit is dirty
  /// — that is the point) and the expression is refit on the inliers.
  int robust_rounds = 4;
  double outlier_threshold = 0.05;
  /// Give up when more than this fraction of rows are outliers (the
  /// attribute is then not governed by a polynomial invariant).
  double max_outlier_fraction = 0.3;
};

/// Discovers a polynomial expression predicting `target_attr` (numeric)
/// from the other numeric attributes of `relation`: GBT ranks feature
/// importance, LASSO fits the predefined polynomial form (paper §5.4).
/// Rows with nulls in the involved attributes are skipped.
Result<PolyExpression> DiscoverPolynomial(const Relation& relation,
                                          int target_attr,
                                          const PolyOptions& options);

}  // namespace rock::discovery


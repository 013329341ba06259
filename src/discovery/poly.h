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

/// Discovers a polynomial expression predicting `target_attr` (numeric)
/// from the other numeric attributes of `relation`: GBT ranks feature
/// importance, LASSO fits the predefined polynomial form (paper §5.4).
/// Rows with nulls in the involved attributes are skipped.
Result<PolyExpression> DiscoverPolynomial(const Relation& relation,
                                          int target_attr);

}  // namespace rock::discovery


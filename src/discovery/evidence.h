#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/rules/eval.h"
#include "src/rules/ree.h"

namespace rock::discovery {

/// The candidate predicate space for rule discovery over one "shape": a
/// fixed binding of tuple variables to relations (e.g. two variables over
/// the same relation for ER/CR shapes, or one variable for constant CFD
/// shapes). Predicates are indexed; evidence rows are bitsets over them.
struct PredicateSpace {
  /// tuple_vars[i] = relation index, as in Ree.
  std::vector<int> tuple_vars;
  std::vector<rules::Predicate> predicates;
  /// Indices of predicates allowed as a consequence p0.
  std::vector<int> consequence_candidates;
};

struct PredicateSpaceOptions {
  /// Max distinct constants per attribute for constant predicates (taken
  /// from the most frequent values).
  int max_constants_per_attr = 3;
  /// ML pair models to bind: (model name, attribute names) — each becomes
  /// M(t0[A], t1[A]) over same-relation pairs.
  std::vector<std::pair<std::string, std::vector<std::string>>> ml_bindings;
  /// Include t0.eid = t1.eid as a consequence (ER shape).
  bool include_er_consequence = true;
};

/// Builds the two-variable predicate space over relation `rel`:
/// equality/comparison predicates between the variables' attributes,
/// constant predicates from frequent values, ML predicates from bindings,
/// and the ER/CR consequence candidates.
PredicateSpace BuildPairSpace(const Database& db, int rel,
                              const PredicateSpaceOptions& options);

/// Builds the single-variable space over `rel` (CFD shapes:
/// constant preconditions -> constant consequence).
PredicateSpace BuildSingleSpace(const Database& db, int rel,
                                const PredicateSpaceOptions& options);

/// The evidence table (after [72] / paper §6 "ES"): one row per sampled
/// valuation, holding the bitset of satisfied predicates. Mining support
/// and confidence of any candidate rule then reduces to bitset counting.
class EvidenceTable {
 public:
  /// Builds evidence over (a sample of) the valuations of `space`.
  /// `max_rows` caps the sample (0 = all valuations, quadratic for pairs);
  /// sampling is uniform via `rng`.
  static EvidenceTable Build(const rules::Evaluator& eval,
                             const PredicateSpace& space, size_t max_rows,
                             Rng* rng);

  size_t num_rows() const { return rows_.size(); }
  size_t num_predicates() const { return num_predicates_; }

  bool Holds(size_t row, int predicate) const {
    return (rows_[row][static_cast<size_t>(predicate) >> 6] >>
            (static_cast<size_t>(predicate) & 63)) &
           1;
  }

  /// Count of rows satisfying all of `predicates`.
  size_t CountAll(const std::vector<int>& predicates) const;

  /// Count of rows satisfying all of `predicates` and predicate `extra`.
  size_t CountAllPlus(const std::vector<int>& predicates, int extra) const;

  /// Rows satisfying all of `predicates` (indices into the table).
  std::vector<uint32_t> RowsSatisfying(
      const std::vector<int>& predicates) const;

  /// Fraction of valuations in the underlying population this table
  /// covers (1.0 when unsampled).
  double sample_ratio() const { return sample_ratio_; }

 private:
  std::vector<std::vector<uint64_t>> rows_;  // bitsets
  size_t num_predicates_ = 0;
  double sample_ratio_ = 1.0;
};

}  // namespace rock::discovery


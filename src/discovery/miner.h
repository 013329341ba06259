#pragma once

#include <string>
#include <vector>

#include "src/discovery/evidence.h"
#include "src/ml/library.h"
#include "src/rules/eval.h"
#include "src/rules/ree.h"

namespace rock::discovery {

struct MinerOptions {
  /// Minimum support in rows of (sampled) valuations satisfying X ∧ p0.
  /// The fractional floor (kMinSupport in miner.cc) is the paper's 1e-8;
  /// at laptop scale this absolute row floor does the real work.
  size_t min_support_rows = 4;
  double min_confidence = 0.9;
  /// Maximum precondition size |X|.
  int max_precondition = 3;
  /// Evidence sample cap (valuations). 0 = exhaustive.
  size_t max_evidence_rows = 200000;
  /// When true, no pruning is applied (the "ES" baseline behaviour:
  /// exhaustive levelwise enumeration with exact counting on the full
  /// evidence set, no anti-monotone cuts, no FDX predicate filtering).
  bool disable_pruning = false;
  /// FDX-style predicate pruning (paper §5.4): drop precondition
  /// candidates whose evidence correlation with the consequence is below
  /// this threshold (0 disables).
  double fdx_min_correlation = 0.0;
  uint64_t seed = 7;
};

/// One discovered rule plus its measured statistics.
struct MinedRule {
  rules::Ree rule;
  size_t support_rows = 0;
  double support = 0.0;
  double confidence = 0.0;
};

/// Levelwise REE++ miner over an evidence table (paper §3 "Rule discovery",
/// after [36, 41]): for each consequence candidate p0, grows preconditions
/// X levelwise, pruning by anti-monotone support, confidence-closing
/// minimal rules (no mined rule's precondition is a superset of another
/// mined rule's with the same consequence).
class RuleMiner {
 public:
  RuleMiner() = default;
  explicit RuleMiner(MinerOptions options) : options_(options) {}

  /// Mines rules from one predicate space. `eval` supplies predicate
  /// semantics (including ML models).
  std::vector<MinedRule> Mine(const rules::Evaluator& eval,
                              const PredicateSpace& space);

  /// Statistics of the last Mine() call.
  size_t candidates_explored() const { return candidates_explored_; }
  size_t candidates_pruned() const { return candidates_pruned_; }

 private:
  MinerOptions options_;
  size_t candidates_explored_ = 0;
  size_t candidates_pruned_ = 0;
};

/// Multi-round sampling (paper §5.2, after [36]): mines on samples with a
/// Hoeffding-style accuracy bound. Returns the required sample size so
/// that support/confidence estimates are within `epsilon` of their true
/// values with probability 1 - delta.
size_t HoeffdingSampleSize(double epsilon, double delta);

}  // namespace rock::discovery


#pragma once

#include <functional>
#include <vector>

#include "src/detect/detector.h"
#include "src/discovery/topk.h"
#include "src/rules/eval.h"

namespace rock::discovery {

/// The prior-knowledge learning workflow of §5.2/§5.4: ranking rules is
/// easy for data-quality experts but hard for novices, so Rock detects
/// errors on a small testing sample with each candidate rule, invites the
/// user to confirm whether those detections are unknown true positives,
/// and incrementally trains the scoring model from the confirmations.
class PriorKnowledgeSession {
 public:
  /// The (possibly human) oracle: shown one rule and the tuples it flags
  /// on the sample, answers whether the rule surfaces real errors.
  using Oracle = std::function<bool(
      const rules::Ree& rule,
      const std::vector<std::pair<int, int64_t>>& flagged_sample)>;

  explicit PriorKnowledgeSession(rules::EvalContext ctx) : ctx_(ctx) {}

  /// Runs `rounds` interaction rounds over `candidates`: each round picks
  /// the currently-top unlabeled rules, detects with them on the sample,
  /// asks the oracle, and feeds the labels to the scoring model. Returns
  /// the model (also exposed via scorer()).
  RuleScoringModel& Run(const std::vector<MinedRule>& candidates,
                        const Oracle& oracle, int rounds);

  RuleScoringModel& scorer() { return scorer_; }
  size_t rules_labeled() const { return rules_labeled_; }

 private:
  rules::EvalContext ctx_;
  RuleScoringModel scorer_;
  size_t rules_labeled_ = 0;
};

}  // namespace rock::discovery


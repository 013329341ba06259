#include "src/discovery/feedback.h"

#include <algorithm>
#include <set>

namespace rock::discovery {
namespace {

/// Rows per relation in the testing sample.
constexpr size_t kSampleRows = 64;
/// Rules shown to the oracle per round.
constexpr size_t kRulesPerRound = 8;

}  // namespace

RuleScoringModel& PriorKnowledgeSession::Run(
    const std::vector<MinedRule>& candidates, const Oracle& oracle,
    int rounds) {
  // Build the testing sample: the first kSampleRows of every relation
  // (deterministic, so interaction transcripts are reproducible).
  std::set<std::pair<int, int64_t>> sample;
  for (size_t rel = 0; rel < ctx_.db->num_relations(); ++rel) {
    const Relation& relation = ctx_.db->relation(static_cast<int>(rel));
    for (size_t row = 0; row < relation.size() && row < kSampleRows; ++row) {
      sample.emplace(static_cast<int>(rel), relation.tuple(row).tid);
    }
  }

  detect::ErrorDetector detector(ctx_);
  std::set<size_t> labeled;
  for (int round = 0; round < rounds; ++round) {
    // Pick the currently-top unlabeled rules.
    std::vector<std::pair<double, size_t>> ranked;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (labeled.count(i)) continue;
      ranked.emplace_back(scorer_.Score(candidates[i]), i);
    }
    if (ranked.empty()) break;
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    size_t shown = std::min(kRulesPerRound, ranked.size());
    for (size_t k = 0; k < shown; ++k) {
      size_t index = ranked[k].second;
      labeled.insert(index);
      // Detect on the sample with this one rule.
      auto report = detector.Detect({candidates[index].rule});
      std::vector<std::pair<int, int64_t>> flagged_sample;
      for (const auto& tuple : report.DirtyTuples()) {
        if (sample.count(tuple)) flagged_sample.push_back(tuple);
      }
      bool useful = oracle(candidates[index].rule, flagged_sample);
      scorer_.AddFeedback(candidates[index], useful ? 1 : 0);
      ++rules_labeled_;
    }
  }
  return scorer_;
}

}  // namespace rock::discovery

#include "src/discovery/miner.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "src/common/strings.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace rock::discovery {
namespace {

/// Minimum support as a fraction of the (sampled) valuations satisfying
/// X ∧ p0: the paper's 1e-8, set for billions of pairs.
constexpr double kMinSupport = 1e-8;

struct MinerMetrics {
  obs::Counter* candidates_explored;
  obs::Counter* candidates_pruned;
  obs::Counter* rules_mined;
  obs::Gauge* evidence_rows;

  static const MinerMetrics& Get() {
    static MinerMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      MinerMetrics out;
      out.candidates_explored =
          reg.GetCounter("rock_discovery_candidates_explored_total");
      out.candidates_pruned =
          reg.GetCounter("rock_discovery_candidates_pruned_total");
      out.rules_mined = reg.GetCounter("rock_discovery_rules_mined_total");
      out.evidence_rows = reg.GetGauge("rock_discovery_evidence_rows");
      return out;
    }();
    return m;
  }
};

/// Evidence-level correlation of predicate `p` with consequence `c`:
/// |P(c|p) - P(c)| — the FDX-style structure signal used for pruning.
double EvidenceCorrelation(const EvidenceTable& table, int p, int c) {
  size_t n = table.num_rows();
  if (n == 0) return 0.0;
  size_t np = 0, nc = 0, npc = 0;
  for (size_t row = 0; row < n; ++row) {
    bool hp = table.Holds(row, p);
    bool hc = table.Holds(row, c);
    np += hp;
    nc += hc;
    npc += hp && hc;
  }
  if (np == 0) return 0.0;
  double p_c = static_cast<double>(nc) / static_cast<double>(n);
  double p_c_given_p = static_cast<double>(npc) / static_cast<double>(np);
  return std::abs(p_c_given_p - p_c);
}

/// True when `candidate` is a superset of any precondition in `minimal`.
bool SubsumedByMinimal(const std::vector<int>& candidate,
                       const std::vector<std::vector<int>>& minimal) {
  for (const auto& base : minimal) {
    if (std::includes(candidate.begin(), candidate.end(), base.begin(),
                      base.end())) {
      return true;
    }
  }
  return false;
}

}  // namespace

size_t HoeffdingSampleSize(double epsilon, double delta) {
  // m >= ln(2/δ) / (2 ε²) keeps an empirical mean within ε of the true
  // mean with probability >= 1 - δ.
  return static_cast<size_t>(
      std::ceil(std::log(2.0 / delta) / (2.0 * epsilon * epsilon)));
}

std::vector<MinedRule> RuleMiner::Mine(const rules::Evaluator& eval,
                                       const PredicateSpace& space) {
  ROCK_OBS_SPAN("discovery.mine");
  candidates_explored_ = 0;
  candidates_pruned_ = 0;

  Rng rng(options_.seed);
  size_t cap = options_.disable_pruning ? 0 : options_.max_evidence_rows;
  EvidenceTable table = EvidenceTable::Build(eval, space, cap, &rng);
  const size_t n = table.num_rows();
  MinerMetrics::Get().evidence_rows->Set(static_cast<int64_t>(n));
  std::vector<MinedRule> out;
  if (n == 0) return out;

  size_t min_rows = std::max<size_t>(
      options_.min_support_rows,
      static_cast<size_t>(kMinSupport * static_cast<double>(n)));
  if (options_.disable_pruning) min_rows = 1;

  for (int consequence : space.consequence_candidates) {
    // Precondition candidates: every other predicate (FDX filter applies
    // unless pruning is disabled).
    std::vector<int> pool;
    for (size_t p = 0; p < space.predicates.size(); ++p) {
      if (static_cast<int>(p) == consequence) continue;
      // Skip preconditions that trivially contain the consequence's cell
      // (e.g. X includes p0 itself structurally).
      if (space.predicates[p] == space.predicates[
              static_cast<size_t>(consequence)]) {
        continue;
      }
      if (!options_.disable_pruning && options_.fdx_min_correlation > 0.0) {
        if (EvidenceCorrelation(table, static_cast<int>(p), consequence) <
            options_.fdx_min_correlation) {
          ++candidates_pruned_;
          continue;
        }
      }
      pool.push_back(static_cast<int>(p));
    }

    // Levelwise search.
    std::vector<std::vector<int>> frontier = {{}};
    std::vector<std::vector<int>> minimal_found;
    for (int level = 1; level <= options_.max_precondition; ++level) {
      std::vector<std::vector<int>> next;
      std::set<std::vector<int>> seen;
      for (const std::vector<int>& base : frontier) {
        int last = base.empty() ? -1 : base.back();
        for (int p : pool) {
          if (p <= last) continue;  // canonical order
          std::vector<int> candidate = base;
          candidate.push_back(p);
          if (!options_.disable_pruning &&
              SubsumedByMinimal(candidate, minimal_found)) {
            continue;
          }
          if (!seen.insert(candidate).second) continue;
          ++candidates_explored_;

          size_t support_x = table.CountAll(candidate);
          if (!options_.disable_pruning && support_x < min_rows) {
            ++candidates_pruned_;
            continue;  // anti-monotone: no superset can reach min support
          }
          size_t support_both = table.CountAllPlus(candidate, consequence);
          if (support_both >= min_rows && support_x > 0) {
            double confidence = static_cast<double>(support_both) /
                                static_cast<double>(support_x);
            if (confidence >= options_.min_confidence) {
              MinedRule mined;
              mined.rule.tuple_vars = space.tuple_vars;
              for (int q : candidate) {
                mined.rule.precondition.push_back(
                    space.predicates[static_cast<size_t>(q)]);
              }
              mined.rule.consequence =
                  space.predicates[static_cast<size_t>(consequence)];
              mined.support_rows = support_both;
              mined.support = static_cast<double>(support_both) /
                              static_cast<double>(n);
              mined.confidence = confidence;
              mined.rule.support = mined.support;
              mined.rule.confidence = mined.confidence;
              out.push_back(std::move(mined));
              minimal_found.push_back(candidate);
              continue;  // minimal: do not extend a confident rule
            }
          }
          if (support_x >= min_rows || options_.disable_pruning) {
            next.push_back(std::move(candidate));
          }
        }
      }
      frontier = std::move(next);
      if (frontier.empty()) break;
    }
  }

  // Deterministic id assignment.
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].rule.id = StrFormat("mined_%zu", i);
  }
  const MinerMetrics& metrics = MinerMetrics::Get();
  metrics.candidates_explored->Add(candidates_explored_);
  metrics.candidates_pruned->Add(candidates_pruned_);
  metrics.rules_mined->Add(out.size());
  return out;
}

}  // namespace rock::discovery

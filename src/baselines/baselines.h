#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/detect/detector.h"
#include "src/discovery/miner.h"
#include "src/ml/correlation.h"
#include "src/ml/feature.h"
#include "src/ml/tree.h"
#include "src/rules/eval.h"

namespace rock::baselines {

/// "ES" (paper §6): a rule-discovery baseline using evidence sets in a
/// purely mining manner [72] — exhaustive evidence construction, no
/// anti-monotone pruning, no sampling, no FDX predicate filtering. Slower
/// by construction and precision-oriented (it never optimizes recall).
class EsMiner {
 public:
  explicit EsMiner(double min_confidence = 0.95)
      : min_confidence_(min_confidence) {}

  std::vector<discovery::MinedRule> Mine(
      const rules::Evaluator& eval, const discovery::PredicateSpace& space);

  size_t candidates_explored() const { return candidates_explored_; }

 private:
  double min_confidence_;
  size_t candidates_explored_ = 0;
};

/// "T5s" (paper §6): a pre-trained-language-model cleaner. The stand-in
/// keeps the cost/accuracy profile: per-attribute character-level language
/// models over cell text with a large hashed parameter vector tuned over
/// many epochs ("millions of parameters to tune"), scoring a cell as
/// erroneous when its text is improbable for its column. Strong on textual
/// regularities, near-blind on numeric attributes (digits carry no
/// character-level signal) — the paper's observed weakness.
class T5sModel {
 public:
  struct Options {
    int hashed_parameters = 1 << 18;
    int epochs = 30;
    int ngram = 3;
    /// Cells below this percentile of their column's score distribution
    /// are flagged.
    double flag_percentile = 0.05;
  };

  T5sModel();
  explicit T5sModel(Options options);

  /// "Fine-tunes" on the database (unsupervised column LMs).
  void Train(const Database& db);

  /// Per-cell plausibility in [0,1]-ish (higher = more plausible).
  double CellScore(int rel, const Tuple& t, int attr) const;

  /// Flags improbable cells across the database.
  detect::DetectionReport Detect(const Database& db) const;

  /// Suggests a replacement for a flagged cell: the most frequent column
  /// value within small edit distance; null when no candidate.
  Value SuggestCorrection(const Database& db, int rel, const Tuple& t,
                          int attr) const;

  size_t parameters_trained() const { return parameters_trained_; }

 private:
  Options options_;
  // (rel, attr) -> hashed n-gram log-frequency table.
  std::map<std::pair<int, int>, std::vector<float>> column_lm_;
  // (rel, attr) -> flagging threshold.
  std::map<std::pair<int, int>, double> thresholds_;
  // (rel, attr) -> value frequencies for correction suggestions.
  std::map<std::pair<int, int>, std::map<std::string, int>> vocab_;
  size_t parameters_trained_ = 0;

  double TextLogProb(const std::vector<float>& lm, const std::string& text)
      const;
};

/// "RB" (paper §6, after Baran [65]): holistic feature engineering + a
/// tree-ensemble error classifier per attribute, trained from a labeled
/// sample, plus a context-based value corrector. Feature generation is the
/// dominant cost (as the paper observes).
class RbCleaner {
 public:
  struct Options {
    int trees = 40;
    int feature_dim = 128;
  };

  RbCleaner();
  explicit RbCleaner(Options options);

  /// Trains per-attribute error classifiers from labeled tuples:
  /// `labeled_errors` lists known-dirty cells; every other cell of
  /// `labeled_tuples` counts as clean.
  void Train(const Database& db,
             const std::vector<std::pair<int, int64_t>>& labeled_tuples,
             const std::vector<std::tuple<int, int64_t, int>>& labeled_errors);

  detect::DetectionReport Detect(const Database& db) const;

  /// Context-based correction: the value most correlated with the rest of
  /// the tuple (Baran's value models, via the co-occurrence corrector).
  Value SuggestCorrection(const Database& db, int rel, const Tuple& t,
                          int attr) const;

  size_t features_generated() const { return features_generated_; }

 private:
  Options options_;
  ml::HashedTextFeaturizer text_;
  std::map<std::pair<int, int>, ml::GradientBoostedTrees> classifiers_;
  ml::CooccurrenceModel corrector_;
  mutable size_t features_generated_ = 0;

  ml::FeatureVector CellFeatures(const Database& db, int rel, const Tuple& t,
                                 int attr) const;
};

/// SparkSQL / Presto stand-in (paper §6): executes REE++ violation queries
/// as a generic SQL engine would — hash joins on equality predicates but
/// no ML-predicate blocking, no partial-valuation caching, and iterated
/// full re-execution for the chase simulation. Also renders the REE++→SQL
/// translation the paper describes (ML predicates become UDFs).
class NaiveSqlEngine {
 public:
  explicit NaiveSqlEngine(rules::EvalContext ctx) : ctx_(ctx) {}

  /// The SQL string for a rule's violation query.
  std::string ToSql(const rules::Ree& rule) const;

  /// Violation detection by block-nested-loop evaluation (no blocking).
  detect::DetectionReport Detect(const std::vector<rules::Ree>& rules) const;

  /// Simulated error correction: iterates Detect + naive single-pass
  /// repairs until no new violations, re-running every query from scratch
  /// each round (what "iteratively executed SQL" costs, §6 Exp-3).
  /// Returns the number of full re-executions.
  int IterativeClean(const std::vector<rules::Ree>& rules, int max_rounds,
                     size_t* violations_fixed);

 private:
  rules::EvalContext ctx_;
};

/// Presto stand-in (paper §6 Exp-2): a federated engine without local
/// index structures runs each violation query as a nested loop over every
/// tuple-variable combination — no equality index, no blocking — with ML
/// predicates as UDFs whose results are memoized. Rules with vertex
/// variables are skipped: the engine cannot reach the knowledge graph.
class NestedLoopEngine {
 public:
  explicit NestedLoopEngine(rules::EvalContext ctx) : ctx_(ctx) {}

  /// Counts violations. The report fills `violations` and
  /// `exhaustive_pairs_checked` (combinations evaluated) only.
  detect::DetectionReport Detect(const std::vector<rules::Ree>& rules) const;

 private:
  rules::EvalContext ctx_;
};

}  // namespace rock::baselines


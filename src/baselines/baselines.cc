#include "src/baselines/baselines.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "src/common/hash.h"
#include "src/common/strings.h"

namespace rock::baselines {
namespace {

/// "^text$", lower-cased: the n-gram language model's padded form.
std::string Padded(std::string_view text) {
  std::string out = "^";
  out += ToLower(text);
  out += '$';
  return out;
}

}  // namespace

using rules::Predicate;
using rules::PredicateKind;
using rules::Ree;

std::vector<discovery::MinedRule> EsMiner::Mine(
    const rules::Evaluator& eval, const discovery::PredicateSpace& space) {
  // Exhaustive evidence + pruning disabled: the miner walks the full
  // lattice up to the size cap.
  discovery::MinerOptions options;
  options.disable_pruning = true;
  options.max_evidence_rows = 0;
  options.min_confidence = min_confidence_;
  options.max_precondition = 3;
  discovery::RuleMiner miner(options);
  auto rules = miner.Mine(eval, space);
  candidates_explored_ = miner.candidates_explored();
  for (size_t i = 0; i < rules.size(); ++i) {
    rules[i].rule.id = StrFormat("es_%zu", i);
  }
  return rules;
}

T5sModel::T5sModel() : T5sModel(Options()) {}
T5sModel::T5sModel(Options options) : options_(options) {}

void T5sModel::Train(const Database& db) {
  column_lm_.clear();
  thresholds_.clear();
  vocab_.clear();
  parameters_trained_ = 0;

  for (size_t rel = 0; rel < db.num_relations(); ++rel) {
    const Relation& relation = db.relation(static_cast<int>(rel));
    for (size_t attr = 0; attr < relation.schema().num_attributes();
         ++attr) {
      auto key = std::make_pair(static_cast<int>(rel),
                                static_cast<int>(attr));
      std::vector<float>& lm = column_lm_[key];
      lm.assign(static_cast<size_t>(options_.hashed_parameters), 0.0f);
      parameters_trained_ += lm.size();

      // "Fine-tuning": several epochs over the column accumulating n-gram
      // counts into the hashed parameter vector.
      for (int epoch = 0; epoch < options_.epochs; ++epoch) {
        for (size_t row = 0; row < relation.size(); ++row) {
          const Value& v = relation.tuple(row).value(static_cast<int>(attr));
          if (v.is_null()) continue;
          const std::string text = Padded(v.ToString());
          if (static_cast<int>(text.size()) < options_.ngram) continue;
          for (size_t i = 0;
               i + static_cast<size_t>(options_.ngram) <= text.size(); ++i) {
            uint64_t h = Hash64(
                std::string_view(text).substr(i, options_.ngram));
            lm[h % lm.size()] += 1.0f;
          }
          vocab_[key][v.ToString()]++;
        }
      }
      // Normalize to log-frequencies.
      double total = 1.0;
      for (float c : lm) total += c;
      for (float& c : lm) {
        c = static_cast<float>(std::log((c + 0.5) / total));
      }
      // Flagging threshold: the configured percentile of per-cell scores.
      std::vector<double> scores;
      for (size_t row = 0; row < relation.size(); ++row) {
        const Tuple& t = relation.tuple(row);
        scores.push_back(CellScore(static_cast<int>(rel), t,
                                   static_cast<int>(attr)));
      }
      std::sort(scores.begin(), scores.end());
      size_t cut = static_cast<size_t>(options_.flag_percentile *
                                       static_cast<double>(scores.size()));
      thresholds_[key] = scores.empty() ? -1e30 : scores[std::min(
          cut, scores.size() - 1)];
    }
  }
}

double T5sModel::TextLogProb(const std::vector<float>& lm,
                             const std::string& text) const {
  const std::string padded = Padded(text);
  if (static_cast<int>(padded.size()) < options_.ngram) return 0.0;
  double total = 0.0;
  size_t count = 0;
  for (size_t i = 0; i + static_cast<size_t>(options_.ngram) <= padded.size();
       ++i) {
    uint64_t h = Hash64(std::string_view(padded).substr(i, options_.ngram));
    total += lm[h % lm.size()];
    ++count;
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

double T5sModel::CellScore(int rel, const Tuple& t, int attr) const {
  auto it = column_lm_.find({rel, attr});
  if (it == column_lm_.end()) return 0.0;
  const Value& v = t.value(attr);
  if (v.is_null()) return -1e30;  // nulls always flag
  return TextLogProb(it->second, v.ToString());
}

detect::DetectionReport T5sModel::Detect(const Database& db) const {
  detect::DetectionReport report;
  for (size_t rel = 0; rel < db.num_relations(); ++rel) {
    const Relation& relation = db.relation(static_cast<int>(rel));
    for (size_t attr = 0; attr < relation.schema().num_attributes();
         ++attr) {
      auto key = std::make_pair(static_cast<int>(rel),
                                static_cast<int>(attr));
      auto threshold = thresholds_.find(key);
      if (threshold == thresholds_.end()) continue;
      for (size_t row = 0; row < relation.size(); ++row) {
        const Tuple& t = relation.tuple(row);
        double score = CellScore(static_cast<int>(rel), t,
                                 static_cast<int>(attr));
        if (score <= threshold->second) {
          detect::ErrorRecord record;
          record.rule_id = "t5s";
          record.error_class = t.value(static_cast<int>(attr)).is_null()
                                   ? detect::ErrorClass::kMissing
                                   : detect::ErrorClass::kConflict;
          record.cells.push_back(
              {static_cast<int>(rel), t.tid, static_cast<int>(attr)});
          report.errors.push_back(std::move(record));
          ++report.violations;
        }
      }
    }
  }
  return report;
}

Value T5sModel::SuggestCorrection(const Database& db, int rel, const Tuple& t,
                                  int attr) const {
  auto it = vocab_.find({rel, attr});
  if (it == vocab_.end()) return Value::Null();
  const Value& current = t.value(attr);
  std::string text = current.is_null() ? "" : current.ToString();
  const std::string* best = nullptr;
  int best_count = 0;
  for (const auto& [value, count] : it->second) {
    // A defined cell is corrected towards a near-identical frequent value;
    // a null cell gets the most frequent value outright (the generative
    // guess — usually wrong, as the paper observes for numeric columns).
    if (!text.empty() &&
        EditDistance(ToLower(value), ToLower(text)) > 2) {
      continue;
    }
    if (count > best_count) {
      best_count = count;
      best = &value;
    }
  }
  if (best == nullptr) return Value::Null();
  ValueType type = db.relation(rel).schema().AttributeType(attr);
  auto parsed = Value::Parse(*best, type);
  return parsed.ok() ? *parsed : Value::String(*best);
}

RbCleaner::RbCleaner() : RbCleaner(Options()) {}
RbCleaner::RbCleaner(Options options)
    : options_(options), text_(options.feature_dim) {}

ml::FeatureVector RbCleaner::CellFeatures(const Database& db, int rel,
                                          const Tuple& t, int attr) const {
  ++features_generated_;
  const Value& v = t.value(attr);
  // Value-level features: hashed n-grams of the cell text.
  ml::FeatureVector features =
      text_.ExtractNormalized(v.is_null() ? "" : v.ToString());
  // Row-context feature: correlation of the cell with the rest of its row.
  std::vector<int> context;
  for (size_t a = 0; a < t.values.size(); ++a) {
    if (static_cast<int>(a) != attr && !t.values[a].is_null()) {
      context.push_back(static_cast<int>(a));
    }
  }
  double corr = v.is_null() ? 0.0
                            : corrector_.Strength(t.values, context, attr, v);
  features.push_back(corr);
  features.push_back(v.is_null() ? 1.0 : 0.0);
  // Column-frequency feature.
  const Relation& relation = db.relation(rel);
  size_t same = 0;
  for (size_t row = 0; row < relation.size(); ++row) {
    if (relation.tuple(row).value(attr) == v) ++same;
  }
  features.push_back(static_cast<double>(same) /
                     std::max<size_t>(1, relation.size()));
  return features;
}

void RbCleaner::Train(
    const Database& db,
    const std::vector<std::pair<int, int64_t>>& labeled_tuples,
    const std::vector<std::tuple<int, int64_t, int>>& labeled_errors) {
  corrector_ = ml::CooccurrenceModel();
  for (size_t rel = 0; rel < db.num_relations(); ++rel) {
    corrector_.TrainOnRelation(db.relation(static_cast<int>(rel)));
  }

  std::set<std::tuple<int, int64_t, int>> dirty(labeled_errors.begin(),
                                                labeled_errors.end());
  // Per-attribute training sets.
  std::map<std::pair<int, int>, std::vector<ml::FeatureVector>> features;
  std::map<std::pair<int, int>, std::vector<double>> labels;
  for (const auto& [rel, tid] : labeled_tuples) {
    const Relation& relation = db.relation(rel);
    int row = relation.RowOfTid(tid);
    if (row < 0) continue;
    const Tuple& t = relation.tuple(static_cast<size_t>(row));
    for (size_t attr = 0; attr < t.values.size(); ++attr) {
      auto key = std::make_pair(rel, static_cast<int>(attr));
      features[key].push_back(
          CellFeatures(db, rel, t, static_cast<int>(attr)));
      labels[key].push_back(
          dirty.count({rel, tid, static_cast<int>(attr)}) ? 1.0 : 0.0);
    }
  }
  for (auto& [key, x] : features) {
    ml::GradientBoostedTrees::Options gbt_options;
    gbt_options.num_trees = options_.trees;
    ml::GradientBoostedTrees model(gbt_options);
    model.Train(x, labels[key]);
    classifiers_[key] = std::move(model);
  }
}

detect::DetectionReport RbCleaner::Detect(const Database& db) const {
  detect::DetectionReport report;
  for (size_t rel = 0; rel < db.num_relations(); ++rel) {
    const Relation& relation = db.relation(static_cast<int>(rel));
    for (size_t attr = 0; attr < relation.schema().num_attributes();
         ++attr) {
      auto it = classifiers_.find(
          {static_cast<int>(rel), static_cast<int>(attr)});
      if (it == classifiers_.end() || !it->second.trained()) continue;
      for (size_t row = 0; row < relation.size(); ++row) {
        const Tuple& t = relation.tuple(row);
        double score = it->second.Predict(CellFeatures(
            db, static_cast<int>(rel), t, static_cast<int>(attr)));
        if (score >= 0.5) {
          detect::ErrorRecord record;
          record.rule_id = "rb";
          record.error_class =
              t.value(static_cast<int>(attr)).is_null()
                  ? detect::ErrorClass::kMissing
                  : detect::ErrorClass::kConflict;
          record.cells.push_back(
              {static_cast<int>(rel), t.tid, static_cast<int>(attr)});
          report.errors.push_back(std::move(record));
          ++report.violations;
        }
      }
    }
  }
  return report;
}

Value RbCleaner::SuggestCorrection(const Database& db, int rel,
                                   const Tuple& t, int attr) const {
  (void)db;
  (void)rel;
  std::vector<int> context;
  for (size_t a = 0; a < t.values.size(); ++a) {
    if (static_cast<int>(a) != attr && !t.values[a].is_null()) {
      context.push_back(static_cast<int>(a));
    }
  }
  auto predicted = corrector_.PredictValue(t.values, context, attr);
  return predicted.ok() ? *predicted : Value::Null();
}

std::string NaiveSqlEngine::ToSql(const Ree& rule) const {
  const DatabaseSchema& schema = ctx_.db->schema();
  std::string sql = "SELECT ";
  for (size_t var = 0; var < rule.tuple_vars.size(); ++var) {
    if (var > 0) sql += ", ";
    sql += 't';
    sql += std::to_string(var);
    sql += ".*";
  }
  sql += " FROM ";
  for (size_t var = 0; var < rule.tuple_vars.size(); ++var) {
    if (var > 0) sql += ", ";
    sql += schema.relation(rule.tuple_vars[var]).name();
    sql += " t";
    sql += std::to_string(var);
  }
  sql += " WHERE ";
  std::vector<std::string> conjuncts;
  auto attr_ref = [&](int var, int attr) {
    if (attr == rules::kEidAttr) {
      return StrFormat("t%d.eid", var);
    }
    return StrFormat(
        "t%d.%s", var,
        schema.relation(rule.tuple_vars[static_cast<size_t>(var)])
            .AttributeName(attr)
            .c_str());
  };
  auto render = [&](const Predicate& p, bool negate) {
    std::string out;
    switch (p.kind) {
      case PredicateKind::kConstant:
        out = attr_ref(p.var, p.attr) + " " + rules::CmpOpName(p.op) + " '" +
              p.constant.ToString() + "'";
        break;
      case PredicateKind::kAttrCompare:
        out = attr_ref(p.var, p.attr) + " " + rules::CmpOpName(p.op) + " " +
              attr_ref(p.var2, p.attr2);
        break;
      case PredicateKind::kMlPair:
        // ML predicates become UDF calls (paper §6 Exp-2).
        out = StrFormat("udf_%s(t%d, t%d)", p.model.c_str(), p.var, p.var2);
        break;
      case PredicateKind::kIsNull:
        out = attr_ref(p.var, p.attr) + " IS NULL";
        break;
      default:
        out = StrFormat("udf_predicate(t%d)", std::max(p.var, 0));
    }
    return negate ? "NOT (" + out + ")" : out;
  };
  for (const Predicate& p : rule.precondition) {
    conjuncts.push_back(render(p, false));
  }
  conjuncts.push_back(render(rule.consequence, true));
  sql += Join(conjuncts, " AND ");
  return sql;
}

detect::DetectionReport NaiveSqlEngine::Detect(
    const std::vector<Ree>& rules) const {
  // Generic engine: hash joins on equality predicates are available (any
  // SQL engine does this), but ML predicates run exhaustively — no
  // blocking — and every query is planned independently.
  detect::DetectorOptions options;
  options.use_ml_blocking = false;
  detect::ErrorDetector detector(ctx_, options);
  return detector.Detect(rules);
}

detect::DetectionReport NestedLoopEngine::Detect(
    const std::vector<Ree>& rules) const {
  ml::MlScoreCache udf_results;
  rules::EvalContext ctx = ctx_;
  ctx.ml_cache = &udf_results;
  const rules::Evaluator eval(ctx);
  detect::DetectionReport report;
  for (const Ree& rule : rules) {
    if (rule.num_vertex_vars != 0) continue;
    rules::Valuation v;
    v.rows.assign(rule.tuple_vars.size(), 0);
    std::function<void(size_t)> loop = [&](size_t var) {
      if (var == rule.tuple_vars.size()) {
        ++report.exhaustive_pairs_checked;
        if (eval.SatisfiesPrecondition(rule, v) &&
            !eval.Satisfies(rule, v, rule.consequence)) {
          ++report.violations;
        }
        return;
      }
      const size_t rows = ctx_.db->relation(rule.tuple_vars[var]).size();
      for (size_t row = 0; row < rows; ++row) {
        v.rows[var] = static_cast<int>(row);
        loop(var + 1);
      }
    };
    loop(0);
  }
  return report;
}

int NaiveSqlEngine::IterativeClean(const std::vector<Ree>& rules,
                                   int max_rounds,
                                   size_t* violations_fixed) {
  size_t fixed = 0;
  int rounds = 0;
  size_t previous = SIZE_MAX;
  for (int round = 0; round < max_rounds; ++round) {
    ++rounds;
    detect::DetectionReport report = Detect(rules);
    if (report.violations == 0 || report.violations >= previous) break;
    // "Fix" one batch: a real deployment would UPDATE; the simulation
    // counts the work of re-running every query per round.
    fixed += previous == SIZE_MAX ? report.violations
                                  : previous - report.violations;
    previous = report.violations;
  }
  if (violations_fixed != nullptr) *violations_fixed = fixed;
  return rounds;
}

}  // namespace rock::baselines

#include "src/detect/detector.h"

#include <algorithm>
#include <iterator>

#include "src/common/hash.h"
#include "src/common/timer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/par/round.h"

namespace rock::detect {
namespace {

struct DetectMetrics {
  obs::Counter* violations;
  obs::Counter* pairfreq_hits;
  obs::Counter* pairfreq_misses;
  obs::Counter* blocked_pairs;
  obs::Counter* exhaustive_pairs;
  obs::Histogram* rule_seconds;
  obs::Gauge* ml_cache_entries;
  obs::Gauge* ml_cache_bytes;

  static const DetectMetrics& Get() {
    static DetectMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      DetectMetrics out;
      out.violations = reg.GetCounter("rock_detect_violations_total");
      out.pairfreq_hits =
          reg.GetCounter("rock_detect_pairfreq_cache_hits_total");
      out.pairfreq_misses =
          reg.GetCounter("rock_detect_pairfreq_cache_misses_total");
      out.blocked_pairs =
          reg.GetCounter("rock_detect_blocked_pairs_checked_total");
      out.exhaustive_pairs =
          reg.GetCounter("rock_detect_exhaustive_pairs_checked_total");
      out.rule_seconds = reg.GetHistogram("rock_detect_rule_seconds",
                                          obs::LatencyBucketsSeconds());
      out.ml_cache_entries = reg.GetGauge("rock_detect_ml_cache_entries");
      reg.SetHelp("rock_detect_ml_cache_entries",
                  "Entries in the ML score memo after the last detection");
      out.ml_cache_bytes = reg.GetGauge("rock_detect_ml_cache_bytes");
      reg.SetHelp("rock_detect_ml_cache_bytes",
                  "Approximate heap bytes of the ML score memo after the "
                  "last detection; cross-check for per-span alloc_bytes");
      return out;
    }();
    return m;
  }
};

/// Publishes a detection pass's pair counters and the memo's gauges.
/// `cache` may be null (no memo).
void PublishDetection(const DetectionReport& report,
                      const ml::MlScoreCache* cache) {
  const DetectMetrics& metrics = DetectMetrics::Get();
  metrics.blocked_pairs->Add(report.blocked_pairs_checked);
  metrics.exhaustive_pairs->Add(report.exhaustive_pairs_checked);
  if (cache != nullptr) {
    metrics.ml_cache_entries->Set(static_cast<int64_t>(cache->size()));
    metrics.ml_cache_bytes->Set(static_cast<int64_t>(cache->ApproxBytes()));
  }
}

}  // namespace

using rules::Predicate;
using rules::PredicateKind;
using rules::Ree;
using rules::Valuation;

const char* ErrorClassName(ErrorClass error_class) {
  switch (error_class) {
    case ErrorClass::kDuplicate:
      return "duplicate";
    case ErrorClass::kConflict:
      return "conflict";
    case ErrorClass::kMissing:
      return "missing";
    case ErrorClass::kStale:
      return "stale";
  }
  return "?";
}

std::set<ErrorRecord::Cell> DetectionReport::DirtyCells() const {
  std::set<ErrorRecord::Cell> out;
  for (const ErrorRecord& error : errors) {
    out.insert(error.cells.begin(), error.cells.end());
  }
  return out;
}

std::set<std::pair<int, int64_t>> DetectionReport::DirtyTuples() const {
  std::set<std::pair<int, int64_t>> out;
  for (const ErrorRecord& error : errors) {
    for (const ErrorRecord::Cell& cell : error.cells) {
      out.emplace(cell.rel, cell.tid);
    }
  }
  return out;
}

ErrorDetector::ErrorDetector(rules::EvalContext ctx)
    : ErrorDetector(ctx, DetectorOptions()) {}

ErrorDetector::ErrorDetector(rules::EvalContext ctx, DetectorOptions options)
    : ctx_(ctx), options_(options) {
  ctx_.ml_cache = options_.ml_cache;
}

int ErrorDetector::PairFrequency(int rel, int guard_attr, int cons_attr,
                                 const Value& guard,
                                 const Value& cons) const {
  const auto key = std::make_tuple(rel, guard_attr, cons_attr);
  const uint64_t pair_hash = HashCombine(guard.Hash(), cons.Hash());
  {
    common::MutexLock lock(pair_freq_mu_);
    auto it = pair_freq_.find(key);
    if (it != pair_freq_.end()) {
      DetectMetrics::Get().pairfreq_hits->Add(1);
      auto found = it->second.find(pair_hash);
      return found == it->second.end() ? 0 : found->second;
    }
  }
  // Miss: build the table without holding the lock. The full-relation scan
  // is the expensive part, and holding pair_freq_mu_ across it would
  // serialize every worker behind the first toucher of this (rel, guard,
  // cons) key. The scan reads only the immutable database, so racing
  // builders produce identical tables; the emplace below re-checks under
  // the lock and keeps whichever landed first.
  DetectMetrics::Get().pairfreq_misses->Add(1);
  std::unordered_map<uint64_t, int> table;
  const Relation& relation = ctx_.db->relation(rel);
  for (size_t row = 0; row < relation.size(); ++row) {
    const Value& g = relation.tuple(row).value(guard_attr);
    const Value& c = relation.tuple(row).value(cons_attr);
    if (g.is_null() || c.is_null()) continue;
    table[HashCombine(g.Hash(), c.Hash())]++;
  }
  common::MutexLock lock(pair_freq_mu_);
  auto it = pair_freq_.emplace(key, std::move(table)).first;
  auto found = it->second.find(pair_hash);
  return found == it->second.end() ? 0 : found->second;
}

void ErrorDetector::RecordViolation(const Ree& rule, const Valuation& v,
                                    const rules::Evaluator& eval,
                                    DetectionReport* report) const {
  ++report->violations;
  DetectMetrics::Get().violations->Add(1);
  ErrorRecord record;
  record.rule_id = rule.id;
  const Predicate& p = rule.consequence;
  auto rel_of = [&](int var) {
    return rule.tuple_vars[static_cast<size_t>(var)];
  };
  auto tid_of = [&](int var) { return eval.GetTuple(rule, v, var).tid; };

  // CR-shaped rules guarded by a strict temporal predicate detect
  // obsolete values (an old version differing from the current one): the
  // paper's TD error class.
  bool stale_shape = false;
  if (rule.Task() == rules::RuleTask::kCr) {
    for (const Predicate& q : rule.precondition) {
      if (q.kind == PredicateKind::kTemporal && q.strict) {
        stale_shape = true;
        break;
      }
    }
  }

  switch (rule.Task()) {
    case rules::RuleTask::kEr:
      record.error_class = ErrorClass::kDuplicate;
      record.cells.push_back({rel_of(p.var), tid_of(p.var), -1});
      record.cells.push_back({rel_of(p.var2), tid_of(p.var2), -1});
      break;
    case rules::RuleTask::kCr: {
      // Null consequence cells are missing values; defined-but-violating
      // cells are semantic conflicts.
      bool any_null = false;
      if (p.kind == PredicateKind::kConstant ||
          p.kind == PredicateKind::kPoly) {
        any_null = eval.GetCell(rule, v, p.var, p.attr).is_null();
        record.cells.push_back({rel_of(p.var), tid_of(p.var), p.attr});
      } else if (p.kind == PredicateKind::kAttrCompare) {
        Value va = eval.GetCell(rule, v, p.var, p.attr);
        Value vb = eval.GetCell(rule, v, p.var2, p.attr2);
        any_null = va.is_null() || vb.is_null();
        if (any_null) {
          // Flag only null cells: the defined side is evidence, not error.
          if (va.is_null()) {
            record.cells.push_back({rel_of(p.var), tid_of(p.var), p.attr});
          }
          if (vb.is_null()) {
            record.cells.push_back(
                {rel_of(p.var2), tid_of(p.var2), p.attr2});
          }
        } else {
          // Majority-side flagging: the side whose (guard value,
          // consequence value) pairing is rarer in the data is the likely
          // error. The guard is the first equality precondition linking
          // the two variables.
          const Predicate* guard = nullptr;
          for (const Predicate& q : rule.precondition) {
            if (q.kind == PredicateKind::kAttrCompare &&
                q.op == rules::CmpOp::kEq && q.attr != rules::kEidAttr &&
                q.var != q.var2) {
              guard = &q;
              break;
            }
          }
          bool flagged_one = false;
          if (guard != nullptr &&
              rel_of(p.var) == rel_of(p.var2)) {
            Value ga = eval.GetCell(rule, v, guard->var, guard->attr);
            Value gb = eval.GetCell(rule, v, guard->var2, guard->attr2);
            if (!ga.is_null() && !gb.is_null()) {
              int fa = PairFrequency(rel_of(p.var), guard->attr, p.attr,
                                     ga, va);
              int fb = PairFrequency(rel_of(p.var2), guard->attr2, p.attr2,
                                     gb, vb);
              if (fa < fb) {
                record.cells.push_back(
                    {rel_of(p.var), tid_of(p.var), p.attr});
                flagged_one = true;
              } else if (fb < fa) {
                record.cells.push_back(
                    {rel_of(p.var2), tid_of(p.var2), p.attr2});
                flagged_one = true;
              }
            }
          }
          if (!flagged_one) {
            record.cells.push_back({rel_of(p.var), tid_of(p.var), p.attr});
            record.cells.push_back(
                {rel_of(p.var2), tid_of(p.var2), p.attr2});
          }
        }
      }
      record.error_class = any_null ? ErrorClass::kMissing
                           : stale_shape ? ErrorClass::kStale
                                         : ErrorClass::kConflict;
      break;
    }
    case rules::RuleTask::kTd:
      record.error_class = ErrorClass::kStale;
      record.cells.push_back({rel_of(p.var), tid_of(p.var), p.attr});
      record.cells.push_back({rel_of(p.var2), tid_of(p.var2), p.attr});
      break;
    case rules::RuleTask::kMi: {
      record.error_class = ErrorClass::kMissing;
      int attr = p.kind == PredicateKind::kPredictValue ? p.attr2 : p.attr;
      record.cells.push_back({rel_of(p.var), tid_of(p.var), attr});
      break;
    }
    case rules::RuleTask::kGeneral:
      record.error_class = ErrorClass::kConflict;
      for (int var : p.TupleVars()) {
        record.cells.push_back({rel_of(var), tid_of(var), -1});
      }
      break;
  }
  report->errors.push_back(std::move(record));
}

std::unique_ptr<const rules::Blocking> ErrorDetector::BlockingFor(
    const Ree& rule) const {
  if (!options_.use_ml_blocking) return nullptr;
  return rules::Blocking::For(rule, ctx_);
}

void ErrorDetector::DetectRule(const Ree& rule, const rules::Scope& scope,
                               const rules::Blocking* blocking,
                               const rules::Evaluator& eval,
                               DetectionReport* report) const {
  auto check = [&](const Valuation& v) {
    if (blocking == nullptr) ++report->exhaustive_pairs_checked;
    if (!eval.Satisfies(rule, v, rule.consequence)) {
      RecordViolation(rule, v, eval, report);
    }
  };
  report->blocked_pairs_checked +=
      eval.Enumerate(rule, scope, blocking, check).blocked_pairs;
}

DetectionReport ErrorDetector::DetectScope(const std::vector<Ree>& rules,
                                           const rules::Scope& scope) const {
  const DetectMetrics& metrics = DetectMetrics::Get();
  DetectionReport report;
  rules::Evaluator eval(ctx_);
  for (const Ree& rule : rules) {
    Timer timer;
    DetectRule(rule, scope, BlockingFor(rule).get(), eval, &report);
    metrics.rule_seconds->Observe(timer.ElapsedSeconds());
  }
  PublishDetection(report, options_.ml_cache);
  return report;
}

DetectionReport ErrorDetector::Detect(const std::vector<Ree>& rules) const {
  ROCK_OBS_SPAN("detect.batch");
  return DetectScope(rules, rules::Scope{});
}

DetectionReport ErrorDetector::DetectIncremental(
    const std::vector<Ree>& rules,
    const std::vector<std::pair<int, int64_t>>& dirty) const {
  ROCK_OBS_SPAN("detect.incremental");
  const rules::DeltaRows delta(*ctx_.db, dirty);
  return DetectScope(rules, rules::Scope::Delta(delta));
}

DetectionReport ErrorDetector::DetectParallel(
    const std::vector<Ree>& rules, int num_workers,
    par::ScheduleReport* schedule) const {
  ROCK_OBS_SPAN("detect.parallel");
  std::vector<std::unique_ptr<const rules::Blocking>> blockings;
  for (const Ree& rule : rules) blockings.push_back(BlockingFor(rule));
  // Workers share only the read-only blocking indexes and, when the caller
  // passed one, the sharded ML score memo, whose content-keyed
  // first-insert-wins entries are value-identical no matter which worker
  // lands first. Each unit detects one slice of the serial enumeration
  // order into its own report, so merging the reports in unit order
  // reproduces Detect().
  par::RoundResult<DetectionReport> round = par::RunRound<DetectionReport>(
      rules, ctx_, num_workers,
      par::PoolOptions{options_.retry, options_.fault_plan},
      [&](size_t r, const rules::Scope& scope, par::RoundWorker& worker,
          DetectionReport* out) {
        DetectRule(rules[r], scope, blockings[r].get(), worker.eval, out);
      },
      schedule);
  if (round.replayed_units > 0) {
    obs::MetricsRegistry::Global()
        .GetCounter("rock_detect_recovered_units_total")
        ->Add(round.replayed_units);
  }

  DetectionReport report;
  for (DetectionReport& unit_report : round.outputs) {
    report.violations += unit_report.violations;
    report.blocked_pairs_checked += unit_report.blocked_pairs_checked;
    report.exhaustive_pairs_checked += unit_report.exhaustive_pairs_checked;
    std::move(unit_report.errors.begin(), unit_report.errors.end(),
              std::back_inserter(report.errors));
  }
  PublishDetection(report, options_.ml_cache);
  return report;
}

}  // namespace rock::detect

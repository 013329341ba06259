#include "src/core/engine.h"

#include <algorithm>
#include <optional>

#include "src/common/logging.h"
#include "src/common/mutex.h"
#include "src/common/strings.h"
#include "src/discovery/poly.h"
#include "src/ml/correlation.h"
#include "src/ml/her.h"
#include "src/ml/ranking.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"

namespace rock::core {

using rules::Ree;
using rules::RuleTask;

const char* VariantName(Variant variant) {
  switch (variant) {
    case Variant::kRock:
      return "Rock";
    case Variant::kNoMl:
      return "Rock_noML";
    case Variant::kSequential:
      return "Rock_seq";
    case Variant::kNoChase:
      return "Rock_noC";
  }
  return "?";
}

Rock::Rock(Database* db, kg::KnowledgeGraph* graph)
    : Rock(db, graph, RockOptions()) {}

Rock::Rock(Database* db, kg::KnowledgeGraph* graph, RockOptions options)
    : db_(db), graph_(graph), options_(options) {
  if (options_.variant == Variant::kNoMl) {
    options_.enable_polynomials = false;
    options_.chase.resolve_mi_by_mc = false;
  }
  if (options_.variant == Variant::kNoChase) {
    options_.chase.max_rounds = 1;
  }
}

rules::EvalContext Rock::Context() const {
  rules::EvalContext ctx;
  ctx.db = db_;
  ctx.graph = graph_;
  ctx.models = &models_;
  return ctx;
}

void Rock::TrainModels(const ModelTrainingSpec& spec) {
  ROCK_OBS_SPAN("rock.train_models");
  if (options_.variant == Variant::kNoMl) return;

  models_.RegisterPair(
      "MER", std::make_shared<ml::SimilarityClassifier>(spec.mer_threshold));

  if (spec.train_correlation) {
    auto correlation = std::make_shared<ml::CooccurrenceModel>();
    for (size_t rel = 0; rel < db_->num_relations(); ++rel) {
      correlation->TrainOnRelation(db_->relation(static_cast<int>(rel)));
    }
    models_.RegisterCorrelation("Mc", correlation);
    models_.RegisterPredictor("Md", correlation);
  }

  // M_rank per configured target, creator-critic trained with timestamp +
  // monotone-attribute currency constraints (§2.2).
  bool first_ranker = true;
  for (const auto& [rel_name, attr_name] : spec.rank_targets) {
    const Relation* relation = db_->FindRelation(rel_name);
    if (relation == nullptr) continue;
    int attr = relation->schema().AttributeIndex(attr_name);
    if (attr < 0) continue;

    std::vector<ml::CurrencyConstraint> constraints;
    constraints.push_back(
        {"timestamps",
         [](const Schema&, const Tuple& t1, const Tuple& t2, int a) {
           int64_t ts1 = t1.timestamp(a);
           int64_t ts2 = t2.timestamp(a);
           if (ts1 == kNoTimestamp || ts2 == kNoTimestamp) return 0;
           if (ts1 == ts2) return 0;
           return ts1 < ts2 ? 1 : -1;
         }});
    for (const auto& [mono_rel, mono_attr] : spec.monotone_attrs) {
      if (mono_rel != rel_name) continue;
      int mono_idx = relation->schema().AttributeIndex(mono_attr);
      if (mono_idx < 0) continue;
      constraints.push_back(
          {"monotone:" + mono_attr,
           [mono_idx](const Schema&, const Tuple& t1, const Tuple& t2,
                      int) {
             // Same entity only: monotone attributes order versions.
             if (t1.eid != t2.eid) return 0;
             const Value& a = t1.values[static_cast<size_t>(mono_idx)];
             const Value& b = t2.values[static_cast<size_t>(mono_idx)];
             if (a.is_null() || b.is_null()) return 0;
             int cmp = a.Compare(b);
             if (cmp == 0) return 0;
             return cmp < 0 ? 1 : -1;
           }});
    }

    auto ranker =
        std::make_shared<ml::RankingModel>(relation->schema(), attr);
    ranker->TrainCreatorCritic(*relation, constraints);
    models_.RegisterRanker(first_ranker ? "Mrank"
                                        : "Mrank_" + rel_name + "_" +
                                              attr_name,
                           ranker);
    first_ranker = false;
  }

  if (graph_ != nullptr && graph_->num_vertices() > 0) {
    auto her = std::make_shared<ml::HerModel>();
    her->IndexGraph(*graph_);
    models_.RegisterHer(her);
  }
  auto matcher = std::make_shared<ml::PathMatchModel>();
  for (const auto& [attr, path] : spec.path_synonyms) {
    matcher->AddSynonym(attr, path);
  }
  models_.RegisterPathMatcher(matcher);
}

Result<std::vector<Ree>> Rock::LoadRules(const std::string& text) const {
  ROCK_OBS_SPAN("rock.load_rules");
  auto rules = rules::ParseRules(text, db_->schema());
  if (!rules.ok()) return rules.status();
  if (options_.variant != Variant::kNoMl) return rules;
  std::vector<Ree> kept;
  for (Ree& rule : *rules) {
    if (!rule.UsesMl()) kept.push_back(std::move(rule));
  }
  return kept;
}

std::vector<discovery::MinedRule> Rock::DiscoverRules(
    const discovery::PredicateSpaceOptions& space_options, size_t top_k) {
  ROCK_OBS_SPAN("rock.discover_rules");
  discovery::PredicateSpaceOptions effective = space_options;
  if (options_.variant == Variant::kNoMl) effective.ml_bindings.clear();

  rules::Evaluator eval(Context());
  discovery::RuleMiner miner(options_.miner);
  std::vector<discovery::MinedRule> mined;
  for (size_t rel = 0; rel < db_->num_relations(); ++rel) {
    discovery::PredicateSpace pair_space =
        discovery::BuildPairSpace(*db_, static_cast<int>(rel), effective);
    std::vector<discovery::MinedRule> rules = miner.Mine(eval, pair_space);
    mined.insert(mined.end(), rules.begin(), rules.end());
    discovery::PredicateSpace single_space =
        discovery::BuildSingleSpace(*db_, static_cast<int>(rel), effective);
    rules = miner.Mine(eval, single_space);
    mined.insert(mined.end(), rules.begin(), rules.end());
  }
  for (size_t i = 0; i < mined.size(); ++i) {
    mined[i].rule.id = StrFormat("mined_%zu", i);
  }
  discovery::RuleScoringModel scorer;
  if (top_k == 0 || top_k >= mined.size()) {
    std::sort(mined.begin(), mined.end(),
              [&scorer](const discovery::MinedRule& a,
                        const discovery::MinedRule& b) {
                return scorer.Score(a) > scorer.Score(b);
              });
    return mined;
  }
  return discovery::SelectTopK(mined, top_k, scorer, /*diversify=*/false);
}

const std::vector<Ree>& Rock::DiscoverPolynomials() {
  ROCK_OBS_SPAN("rock.discover_polynomials");
  poly_rules_.clear();
  if (!options_.enable_polynomials) return poly_rules_;
  discovery::PolyOptions poly_options;
  for (size_t rel = 0; rel < db_->num_relations(); ++rel) {
    const Relation& relation = db_->relation(static_cast<int>(rel));
    const Schema& schema = relation.schema();
    for (size_t attr = 0; attr < schema.num_attributes(); ++attr) {
      ValueType type = schema.AttributeType(static_cast<int>(attr));
      if (type != ValueType::kDouble && type != ValueType::kInt) continue;
      auto expr = discovery::DiscoverPolynomial(
          relation, static_cast<int>(attr), poly_options);
      if (!expr.ok()) continue;
      if (expr->r_squared < options_.poly_min_r2) continue;
      if (expr->exact_support < options_.poly_min_exact_support) continue;
      if (expr->poly.terms.empty()) continue;
      Ree rule;
      rule.id = StrFormat("poly_%zu_%zu", rel, attr);
      rule.tuple_vars = {static_cast<int>(rel)};
      rule.precondition = {rules::Predicate::Poly(
          0, static_cast<int>(attr), rules::CmpOp::kNe, std::move(expr->poly),
          options_.poly_tolerance)};
      rule.consequence = rule.precondition[0];
      rule.consequence.op = rules::CmpOp::kEq;
      poly_rules_.push_back(std::move(rule));
    }
  }
  return poly_rules_;
}

Status Rock::ActivateRules(const std::string& text) {
  ROCK_OBS_SPAN("rock.activate_rules");
  Result<std::vector<Ree>> rules = LoadRules(text);
  if (!rules.ok()) return rules.status();
  active_rules_ = std::move(rules).value();
  obs::MetricsRegistry::Global()
      .GetGauge("rock_core_active_rules")
      ->Set(static_cast<int64_t>(active_rules_.size()));
  return Status::Ok();
}

void Rock::ActivateRules(std::vector<Ree> rules) {
  ROCK_OBS_SPAN("rock.activate_rules");
  active_rules_ = std::move(rules);
  obs::MetricsRegistry::Global()
      .GetGauge("rock_core_active_rules")
      ->Set(static_cast<int64_t>(active_rules_.size()));
}

Result<std::vector<int64_t>> Rock::IngestBatch(int rel_index,
                                               std::vector<Tuple> tuples) {
  ROCK_OBS_SPAN("rock.ingest_batch");
  if (rel_index < 0 ||
      static_cast<size_t>(rel_index) >= db_->num_relations()) {
    return Status::InvalidArgument(
        StrFormat("IngestBatch: no relation with index %d", rel_index));
  }
  std::vector<int64_t> tids;
  tids.reserve(tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    Result<int64_t> tid = db_->Insert(rel_index, std::move(tuples[i]));
    if (!tid.ok()) {
      return Status(tid.status().code(),
                    StrFormat("IngestBatch: tuple %zu: %s", i,
                              tid.status().message().c_str()));
    }
    tids.push_back(*tid);
  }
  static obs::Counter* ingested =
      obs::MetricsRegistry::Global().GetCounter("rock_core_tuples_ingested_total");
  ingested->Add(tids.size());
  return tids;
}

detect::DetectionReport Rock::DetectActive() const {
  return DetectErrors(active_rules_);
}

detect::DetectionReport Rock::DetectActiveIncremental(
    const std::vector<std::pair<int, int64_t>>& dirty) const {
  return DetectErrorsIncremental(active_rules_, dirty);
}

detect::DetectionReport Rock::DetectErrors(
    const std::vector<Ree>& rules) const {
  ROCK_OBS_SPAN("rock.detect");
  return Detect(rules, /*dirty=*/nullptr, /*workers=*/std::nullopt, nullptr);
}

detect::DetectionReport Rock::DetectErrorsIncremental(
    const std::vector<Ree>& rules,
    const std::vector<std::pair<int, int64_t>>& dirty) const {
  ROCK_OBS_SPAN("rock.detect_errors_incremental");
  return Detect(rules, &dirty, /*workers=*/std::nullopt, nullptr);
}

detect::DetectionReport Rock::DetectErrorsParallel(
    const std::vector<Ree>& rules, int num_workers,
    par::ScheduleReport* schedule) const {
  ROCK_OBS_SPAN("rock.detect_parallel");
  return Detect(rules, /*dirty=*/nullptr, num_workers, schedule);
}

detect::DetectionReport Rock::Detect(
    const std::vector<Ree>& rules,
    const std::vector<std::pair<int, int64_t>>* dirty,
    std::optional<int> workers, par::ScheduleReport* schedule) const {
  // The polynomial rules come last, so the caller's rules report first.
  std::vector<Ree> all = rules;
  all.insert(all.end(), poly_rules_.begin(), poly_rules_.end());
  detect::ErrorDetector detector(Context(), options_.detector);
  if (dirty != nullptr) return detector.DetectIncremental(all, *dirty);
  if (workers.has_value()) {
    return detector.DetectParallel(all, *workers, schedule);
  }
  return detector.Detect(all);
}

std::shared_ptr<chase::ChaseEngine> Rock::CorrectErrors(
    const std::vector<Ree>& rules,
    const std::vector<std::pair<int, int64_t>>& ground_truth,
    CorrectionResult* result) {
  ROCK_OBS_SPAN("rock.correct");
  return Correct(rules, ground_truth, /*workers=*/std::nullopt, result,
                 nullptr);
}

std::shared_ptr<chase::ChaseEngine> Rock::CorrectErrorsParallel(
    const std::vector<Ree>& rules,
    const std::vector<std::pair<int, int64_t>>& ground_truth,
    int num_workers, CorrectionResult* result,
    par::ScheduleReport* schedule) {
  ROCK_OBS_SPAN("rock.correct_parallel");
  return Correct(rules, ground_truth, num_workers, result, schedule);
}

std::shared_ptr<chase::ChaseEngine> Rock::Correct(
    const std::vector<Ree>& rules,
    const std::vector<std::pair<int, int64_t>>& ground_truth,
    std::optional<int> workers, CorrectionResult* result,
    par::ScheduleReport* schedule) {
  auto engine = std::make_shared<chase::ChaseEngine>(db_, graph_, &models_,
                                                     options_.chase);
  {
    // Ground truth is seeded before any chase runs (apply thread).
    common::RoleGuard apply(engine->fix_store().apply_role());
    for (const auto& [rel, tid] : ground_truth) {
      Status s = engine->fix_store().AddGroundTruthTuple(rel, tid);
      if (!s.ok()) {
        ROCK_LOG(kWarning) << "ground truth rejected: " << s.ToString();
      }
    }
  }
  // The polynomial rules come first, so chase round 0 imputes their
  // targets before the other rules read them.
  std::vector<Ree> all = poly_rules_;
  all.insert(all.end(), rules.begin(), rules.end());
  CorrectionResult local;
  // One chase pass; with workers its round 0 runs under the pool.
  auto chase = [&](const std::vector<Ree>& pass_rules) {
    return workers.has_value()
               ? engine->RunParallel(pass_rules, *workers, schedule)
               : engine->Run(pass_rules);
  };

  if (options_.variant == Variant::kRock ||
      options_.variant == Variant::kNoMl) {
    local.chase = chase(all);
    local.passes = 1;
  } else {
    // ER, CR, MI, TD one task at a time: Rock_seq iterates until no task
    // makes progress, Rock_noC runs each task once.
    const bool iterate = options_.variant == Variant::kSequential;
    for (int iteration = 0; iteration < options_.chase.max_rounds;
         ++iteration) {
      size_t fixes_this_iteration = 0;
      for (RuleTask task :
           {RuleTask::kEr, RuleTask::kCr, RuleTask::kMi, RuleTask::kTd}) {
        std::vector<Ree> subset;
        for (const Ree& rule : all) {
          if (rule.Task() == task) subset.push_back(rule);
        }
        if (subset.empty()) continue;
        chase::ChaseResult pass = chase(subset);
        fixes_this_iteration += pass.fixes_applied;
        local.chase.applications += pass.applications;
        local.chase.replayed_units += pass.replayed_units;
        local.chase.conflicts = pass.conflicts;
        ++local.passes;
      }
      local.chase.fixes_applied += fixes_this_iteration;
      ++local.chase.rounds;
      if (!iterate || fixes_this_iteration == 0) {
        local.chase.converged = true;
        break;
      }
    }
  }
  if (result != nullptr) *result = local;
  last_engine_ = engine;
  return engine;
}

obs::ProofTree Rock::Explain(int rel, int64_t tid, int attr,
                             int max_depth) const {
  ROCK_OBS_SPAN("rock.explain");
  if (last_engine_ == nullptr) return obs::ProofTree();
  return last_engine_->Explain(rel, tid, attr, max_depth);
}

obs::ProofTree Rock::ExplainMerge(int64_t eid_a, int64_t eid_b,
                                  int max_depth) const {
  ROCK_OBS_SPAN("rock.explain_merge");
  if (last_engine_ == nullptr) return obs::ProofTree();
  return last_engine_->ExplainMerge(eid_a, eid_b, max_depth);
}

obs::ProvenanceSummary Rock::ProvenanceSummary() const {
  ROCK_OBS_SPAN("rock.provenance_summary");
  if (last_engine_ == nullptr) return obs::ProvenanceSummary();
  return last_engine_->ProvenanceSummary();
}

obs::TelemetrySnapshot Rock::Telemetry() const {
  return obs::CaptureGlobalTelemetry();
}

Status Rock::DumpJson(const std::string& path) const {
  return obs::WriteFile(path, Telemetry().ToJson());
}

// ROCK_ANALYZE(no-span-ok: observability-plane control, starts the exporter)
Status Rock::StartTelemetryServer(int port) {
  if (telemetry_server_ != nullptr) {
    return Status::AlreadyExists(
        StrFormat("telemetry server already running on port %d",
                  telemetry_server_->port()));
  }
  obs::TelemetryServer::Options options;
  options.port = port;
  options.build_info = "rock core (" + std::string(VariantName(
                           options_.variant)) + " variant)";
  auto server = obs::TelemetryServer::Start(options);
  if (!server.ok()) return server.status();
  telemetry_server_ = std::move(server).value();
  return Status::Ok();
}

// ROCK_ANALYZE(no-span-ok: observability-plane control, stops the exporter)
void Rock::StopTelemetryServer() { telemetry_server_.reset(); }

int Rock::telemetry_server_port() const {
  return telemetry_server_ == nullptr ? -1 : telemetry_server_->port();
}

// ROCK_ANALYZE(no-span-ok: observability-plane control, arms the profiler)
Status Rock::StartProfiler(int sample_hz) {
  obs::ProfileOptions options;
  options.sample_hz = sample_hz;
  return obs::StartGlobalProfiler(options);
}

Status Rock::StopProfiler() { return obs::StopGlobalProfiler(); }

// ROCK_ANALYZE(no-span-ok: observability-plane control, arms the watchdog)
Status Rock::StartStallWatchdog(double deadline_seconds,
                                const std::string& dump_path) {
  obs::WatchdogOptions options;
  options.span_deadline_seconds = deadline_seconds;
  options.progress_deadline_seconds = deadline_seconds;
  options.dump_path = dump_path;
  return obs::StartGlobalWatchdog(options);
}

Status Rock::StopStallWatchdog() { return obs::StopGlobalWatchdog(); }

}  // namespace rock::core

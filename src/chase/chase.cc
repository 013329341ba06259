#include "src/chase/chase.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "src/common/logging.h"
#include "src/common/mutex.h"
#include "src/common/strings.h"
#include "src/ml/correlation.h"
#include "src/ml/ranking.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/par/round.h"

namespace rock::chase {

using rules::Predicate;
using rules::PredicateKind;
using rules::Ree;
using rules::Valuation;

namespace {

struct ChaseMetrics {
  obs::Counter* applications;
  obs::Counter* conflicts;
  obs::Counter* rounds;
  /// Fixes broken down by the applying rule's task — the error classes the
  /// paper reports (ER = duplicates, CR = conflicts, MI = missing values,
  /// TD = stale values).
  obs::Counter* fixes_er;
  obs::Counter* fixes_cr;
  obs::Counter* fixes_mi;
  obs::Counter* fixes_td;
  obs::Counter* fixes_general;
  /// Round checkpoints taken / units replayed from one after the pool gave
  /// up on them (fault-injection recovery, DESIGN.md).
  obs::Counter* checkpoints;
  obs::Counter* checkpoint_restores;
  /// 1-based round in flight, 0 when no chase is running — gives the
  /// stall watchdog (and live scrapes) a progress signal for long chases.
  obs::Gauge* current_round;

  static const ChaseMetrics& Get() {
    static ChaseMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      ChaseMetrics out;
      out.applications = reg.GetCounter("rock_chase_applications_total");
      out.conflicts = reg.GetCounter("rock_chase_conflicts_total");
      out.rounds = reg.GetCounter("rock_chase_rounds_total");
      out.fixes_er = reg.GetCounter("rock_chase_fixes_er_total");
      out.fixes_cr = reg.GetCounter("rock_chase_fixes_cr_total");
      out.fixes_mi = reg.GetCounter("rock_chase_fixes_mi_total");
      out.fixes_td = reg.GetCounter("rock_chase_fixes_td_total");
      out.fixes_general = reg.GetCounter("rock_chase_fixes_general_total");
      out.checkpoints = reg.GetCounter("rock_chase_checkpoints_total");
      out.checkpoint_restores =
          reg.GetCounter("rock_chase_checkpoint_restores_total");
      out.current_round = reg.GetGauge("rock_chase_current_round");
      reg.SetHelp("rock_chase_current_round",
                  "1-based chase round in flight; 0 when idle");
      return out;
    }();
    return m;
  }

  obs::Counter* FixCounter(rules::RuleTask task) const {
    switch (task) {
      case rules::RuleTask::kEr:
        return fixes_er;
      case rules::RuleTask::kCr:
        return fixes_cr;
      case rules::RuleTask::kMi:
        return fixes_mi;
      case rules::RuleTask::kTd:
        return fixes_td;
      case rules::RuleTask::kGeneral:
        return fixes_general;
    }
    return fixes_general;
  }
};

}  // namespace

ChaseEngine::ChaseEngine(const Database* db, const kg::KnowledgeGraph* graph,
                         const ml::MlLibrary* models)
    : ChaseEngine(db, graph, models, ChaseOptions()) {}

ChaseEngine::ChaseEngine(const Database* db, const kg::KnowledgeGraph* graph,
                         const ml::MlLibrary* models, ChaseOptions options)
    : db_(db), graph_(graph), models_(models), options_(options),
      fixes_(db) {}

rules::EvalContext ChaseEngine::Context() const {
  rules::EvalContext ctx;
  ctx.db = db_;
  ctx.graph = graph_;
  ctx.models = models_;
  ctx.overlay = &fixes_;
  ctx.temporal = &fixes_;
  return ctx;
}

ChaseResult ChaseEngine::Run(const std::vector<Ree>& rules) {
  ROCK_OBS_SPAN("chase.run");
  return Loop(rules, rules::Scope{}, /*workers=*/std::nullopt, nullptr);
}

ChaseResult ChaseEngine::RunIncremental(
    const std::vector<Ree>& rules,
    const std::vector<std::pair<int, int64_t>>& dirty) {
  // Register any tuples inserted after construction. The chase has not
  // started, so this caller is trivially the (sole) apply thread.
  common::RoleGuard apply(fixes_.apply_role());
  for (const auto& [rel, tid] : dirty) {
    fixes_.RegisterTuple(rel, tid);
  }
  const rules::DeltaRows delta(*db_, dirty);
  return Loop(rules, rules::Scope::Delta(delta), /*workers=*/std::nullopt,
              nullptr);
}

ChaseResult ChaseEngine::RunParallel(const std::vector<Ree>& rules,
                                     int num_workers,
                                     par::ScheduleReport* schedule) {
  ROCK_OBS_SPAN("chase.run_parallel");
  return Loop(rules, rules::Scope{}, num_workers, schedule);
}

void ChaseEngine::MarkEntityDirty(
    int rel, int64_t tid, std::vector<std::pair<int, int64_t>>* out) const {
  const Relation& relation = db_->relation(rel);
  int row = relation.RowOfTid(tid);
  if (row < 0) return;
  int64_t eid = relation.tuple(static_cast<size_t>(row)).eid;
  for (const auto& member : fixes_.TuplesOfEntity(eid)) {
    out->push_back(member);
  }
}

bool ChaseEngine::PremisesValidated(const Ree& rule,
                                    const Valuation& v) const {
  for (const Predicate& p : rule.precondition) {
    // null(t[A]) holds on the missing value itself: nothing to validate.
    if (p.kind == PredicateKind::kIsNull) continue;
    bool validated = true;
    rules::ForEachPremiseCell(
        p, [&](int var, int attr, obs::PremiseSource source) {
          if (!validated || source != obs::PremiseSource::kRaw) return;
          const int rel = rule.tuple_vars[static_cast<size_t>(var)];
          const Tuple& t = db_->relation(rel).tuple(
              static_cast<size_t>(v.rows[static_cast<size_t>(var)]));
          validated = fixes_.IsValidated(rel, t.tid, attr);
        });
    if (!validated) return false;
  }
  return true;
}

Value ChaseEngine::ResolveMiConflict(int rel, int64_t tid, int attr,
                                     const Value& existing,
                                     const Value& candidate,
                                     const std::string& rule_id,
                                     const obs::Witness* witness) {
  // Only reached from ApplyConsequence, which already runs on the serial
  // apply thread (the role is recursion-safe: acquiring it is a no-op).
  common::RoleGuard apply(fixes_.apply_role());
  const ml::CorrelationModel* mc =
      models_ == nullptr ? nullptr
                         : models_->FindCorrelation(ml::kMcModel);
  Value keep = existing;
  std::string resolution = "kept_existing";
  if (mc != nullptr) {
    const Relation& relation = db_->relation(rel);
    int row = relation.RowOfTid(tid);
    if (row >= 0) {
      const Tuple& t = relation.tuple(static_cast<size_t>(row));
      // Validated attributes of the tuple form t[Ā].
      std::vector<int> validated;
      std::vector<Value> values = t.values;
      for (size_t a = 0; a < values.size(); ++a) {
        if (static_cast<int>(a) == attr) continue;
        auto fixed = fixes_.ValidatedValue(rel, tid, static_cast<int>(a));
        if (fixed.has_value()) {
          values[a] = *fixed;
          validated.push_back(static_cast<int>(a));
        }
      }
      if (!validated.empty()) {
        double s_existing = mc->Strength(values, validated, attr, existing);
        double s_candidate = mc->Strength(values, validated, attr, candidate);
        if (s_candidate > s_existing) {
          keep = candidate;
          resolution = "mc_argmax:candidate";
        } else {
          resolution = "mc_argmax:existing";
        }
      }
    }
  }
  ConflictRecord record;
  record.kind = ConflictRecord::Kind::kValue;
  record.rule_id = rule_id;
  record.description = "MI candidates " + existing.ToString() + " vs " +
                       candidate.ToString();
  record.resolution = resolution;
  record.prov_existing = fixes_.ProvOfCell(rel, tid, attr);
  record.prov_candidate = fixes_.AddConflictCandidate(
      rule_id,
      StrFormat("MI candidate %s for rel %d tid %lld attr %d",
                candidate.ToString().c_str(), rel,
                static_cast<long long>(tid), attr),
      witness);
  conflicts_.push_back(std::move(record));
  return keep;
}

size_t ChaseEngine::ApplyConsequence(
    const Ree& rule, const std::string& rule_text, const Valuation& v,
    const rules::Evaluator& eval,
    std::vector<std::pair<int, int64_t>>* newly_dirty) {
  // ApplyConsequence is the chase's single mutation funnel; Loop invokes it
  // only outside the pooled evaluation (after its barrier in round 0), so
  // it always executes on the serial apply thread (see FixStore's thread
  // contract).
  common::RoleGuard apply(fixes_.apply_role());
  const Predicate& p = rule.consequence;
  size_t new_fixes = 0;
  auto rel_of = [&](int var) {
    return rule.tuple_vars[static_cast<size_t>(var)];
  };
  auto tid_of = [&](int var) { return eval.GetTuple(rule, v, var).tid; };

  // Witness capture: record the satisfying valuation's bindings, premise
  // cells and ML scores BEFORE mutating the store (the premises must
  // reflect the state the deduction actually read).
  const obs::Witness witness = eval.CaptureWitness(rule, v, rule_text);

  // Value-deducing consequences (constant, polynomial, val extraction,
  // prediction):
  // validate `value` for attr of p.var's tuple, or settle an MI conflict
  // with an already validated value.
  auto impute = [&](int attr, const Value& value) -> size_t {
    const int rel = rel_of(p.var);
    const int64_t tid = tid_of(p.var);
    auto existing = fixes_.ValidatedValue(rel, tid, attr);
    Status s;
    bool changed = false;
    if (existing.has_value() && !(*existing == value)) {
      Value keep = ResolveMiConflict(rel, tid, attr, *existing, value,
                                     rule.id, &witness);
      changed = !(keep == *existing);
      if (changed) {
        s = fixes_.ReplaceValue(rel, tid, attr, keep, rule.id, &witness);
      }
    } else {
      s = fixes_.SetValue(rel, tid, attr, value, rule.id, &changed,
                          &witness);
    }
    if (!s.ok() || !changed) return 0;
    MarkEntityDirty(rel, tid, newly_dirty);
    return 1;
  };
  // A deduction the store rejected with `s`, queued against the derivation
  // `existing` it conflicts with; the candidate node carries its witness.
  auto reject = [&](ConflictRecord::Kind kind, const Status& s,
                    int64_t existing, std::string resolution) {
    conflicts_.push_back(
        {kind, rule.id, s.message(), std::move(resolution), existing,
         fixes_.AddConflictCandidate(rule.id, s.message(), &witness)});
  };

  switch (p.kind) {
    case PredicateKind::kAttrCompare: {
      if (p.attr == rules::kEidAttr) {
        int64_t e1 = eval.GetTuple(rule, v, p.var).eid;
        int64_t e2 = eval.GetTuple(rule, v, p.var2).eid;
        bool changed = false;
        Status s;
        if (p.op == rules::CmpOp::kEq) {
          s = fixes_.MergeEids(e1, e2, rule.id, &changed, &witness);
        } else if (p.op == rules::CmpOp::kNe) {
          s = fixes_.AddEidDistinct(e1, e2, rule.id, &changed, &witness);
        } else {
          return 0;
        }
        if (!s.ok()) {
          // The existing derivation: a merge is blocked by a distinctness
          // deduction; a distinctness claim by the merge chain that already
          // identified the pair.
          reject(ConflictRecord::Kind::kEid, s,
                 p.op == rules::CmpOp::kEq ? fixes_.ProvOfDistinct(e1, e2)
                                           : fixes_.ProvOfMerge(e1, e2),
                 "user_queue");
          return 0;
        }
        if (changed) {
          ++new_fixes;
          MarkEntityDirty(rel_of(p.var), tid_of(p.var), newly_dirty);
          MarkEntityDirty(rel_of(p.var2), tid_of(p.var2), newly_dirty);
        }
        return new_fixes;
      }
      if (p.op != rules::CmpOp::kEq) return 0;  // detection-only shape
      // Value propagation t.A = s.B: push the defined/validated side onto
      // the other.
      Value va = eval.GetCell(rule, v, p.var, p.attr);
      Value vb = eval.GetCell(rule, v, p.var2, p.attr2);
      bool validated_a =
          fixes_.IsValidated(rel_of(p.var), tid_of(p.var), p.attr);
      bool validated_b =
          fixes_.IsValidated(rel_of(p.var2), tid_of(p.var2), p.attr2);
      auto assign = [&](int var, int attr, const Value& value) {
        bool changed = false;
        Status s = fixes_.SetValue(rel_of(var), tid_of(var), attr, value,
                                   rule.id, &changed, &witness);
        if (!s.ok()) {
          reject(ConflictRecord::Kind::kValue, s,
                 fixes_.ProvOfCell(rel_of(var), tid_of(var), attr),
                 "user_queue");
          return;
        }
        if (changed) {
          ++new_fixes;
          MarkEntityDirty(rel_of(var), tid_of(var), newly_dirty);
        }
      };
      if (validated_a && !validated_b && !va.is_null()) {
        assign(p.var2, p.attr2, va);
      } else if (validated_b && !validated_a && !vb.is_null()) {
        assign(p.var, p.attr, vb);
      } else if (!validated_a && !validated_b) {
        // Neither side validated: imputation into a null cell is justified
        // (the defined side is the only evidence); two agreeing defined
        // values deduce nothing new, and are NOT validated — raw data never
        // self-certifies (only Γ and deduced fixes validate cells).
        if (!va.is_null() && vb.is_null()) {
          assign(p.var2, p.attr2, va);
        } else if (!vb.is_null() && va.is_null()) {
          assign(p.var, p.attr, vb);
        } else if (!va.is_null() && !vb.is_null() && !(va == vb)) {
          // Two defined, unvalidated, conflicting values: a CR conflict —
          // surfaced to the user queue (paper §4.2 (1)). An attached user
          // resolver may settle it immediately.
          ConflictRecord record;
          record.kind = ConflictRecord::Kind::kValue;
          record.rule_id = rule.id;
          record.description = "CR conflict: " + va.ToString() + " vs " +
                               vb.ToString();
          record.resolution = "user_queue";
          // Both sides are raw reads of the same valuation; one candidate
          // node carries the shared witness (there is no validated
          // "existing" derivation to link).
          record.prov_candidate = fixes_.AddConflictCandidate(
              rule.id, record.description, &witness);
          if (options_.user_resolver) {
            std::optional<Value> keep =
                options_.user_resolver(record, va, vb);
            if (keep.has_value()) {
              record.resolution = "user_resolved:" + keep->ToString();
              assign(p.var, p.attr, *keep);
              assign(p.var2, p.attr2, *keep);
            }
          }
          conflicts_.push_back(std::move(record));
        }
      } else if (validated_a && validated_b && !(va == vb)) {
        ConflictRecord record;
        record.kind = ConflictRecord::Kind::kValue;
        record.rule_id = rule.id;
        record.description = "validated values disagree: " + va.ToString() +
                             " vs " + vb.ToString();
        record.resolution = "user_queue";
        // Two competing VALIDATED derivations: link both fix nodes.
        record.prov_existing =
            fixes_.ProvOfCell(rel_of(p.var), tid_of(p.var), p.attr);
        record.prov_candidate =
            fixes_.ProvOfCell(rel_of(p.var2), tid_of(p.var2), p.attr2);
        conflicts_.push_back(std::move(record));
      }
      return new_fixes;
    }
    case PredicateKind::kConstant:
      if (p.op != rules::CmpOp::kEq) return 0;
      return impute(p.attr, p.constant);
    case PredicateKind::kTemporal: {
      int rel = rel_of(p.var);
      int64_t t1 = tid_of(p.var);
      int64_t t2 = tid_of(p.var2);
      bool changed = false;
      Status s = fixes_.AddTemporal(rel, p.attr, t1, t2, p.strict, rule.id,
                                    &changed, &witness);
      if (!s.ok()) {
        // TD conflict: keep the direction with the higher M_rank confidence
        // (paper §4.2 (2)). The stored direction came first; replacing it
        // would invalidate downstream deductions, so the resolution keeps
        // whichever the ranker prefers and records the decision.
        const ml::TemporalRanker* ranker =
            models_ == nullptr ? nullptr
                               : models_->FindRanker(ml::kMrankModel);
        std::string resolution = "kept_existing";
        if (ranker != nullptr) {
          const Relation& relation = db_->relation(rel);
          int r1 = relation.RowOfTid(t1);
          int r2 = relation.RowOfTid(t2);
          if (r1 >= 0 && r2 >= 0) {
            double conf = ranker->Confidence(
                relation.tuple(static_cast<size_t>(r1)),
                relation.tuple(static_cast<size_t>(r2)), p.attr, p.strict);
            resolution = conf > 0.5 ? "confidence_prefers_new(kept_existing)"
                                    : "confidence_confirms_existing";
          }
        }
        reject(ConflictRecord::Kind::kTemporal, s,
               fixes_.ProvOfTemporal(rel, p.attr, t1, t2),
               std::move(resolution));
        return 0;
      }
      if (changed) {
        ++new_fixes;
        MarkEntityDirty(rel, t1, newly_dirty);
        MarkEntityDirty(rel, t2, newly_dirty);
      }
      return new_fixes;
    }
    case PredicateKind::kPoly: {
      if (p.op != rules::CmpOp::kEq) return 0;
      Result<double> value = p.poly.Evaluate(
          [&](int attr) { return eval.GetCell(rule, v, p.var, attr); });
      if (!value.ok()) return 0;
      // Rounded to cents, as the generators' monetary values are.
      return impute(p.attr, Value::Double(std::round(*value * 100.0) / 100.0));
    }
    case PredicateKind::kValExtract: {
      if (graph_ == nullptr) return 0;
      kg::VertexId x = v.vertices[static_cast<size_t>(p.vertex_var)];
      Result<Value> extracted = graph_->ValueAtPath(x, p.path);
      if (!extracted.ok()) return 0;
      return impute(p.attr, *extracted);
    }
    case PredicateKind::kPredictValue: {
      if (models_ == nullptr) return 0;
      const ml::ValuePredictor* predictor = models_->FindPredictor(p.model);
      if (predictor == nullptr) return 0;
      std::vector<Value> values = eval.GetValues(rule, v, p.var);
      Result<Value> predicted =
          predictor->PredictValue(values, p.attrs_a, p.attr2);
      if (!predicted.ok()) return 0;
      return impute(p.attr2, *predicted);
    }
    case PredicateKind::kMlPair:
    case PredicateKind::kCorrelation:
    case PredicateKind::kHer:
    case PredicateKind::kPathMatch:
    case PredicateKind::kIsNull:
      // Explanation-style consequences (e.g. φ3) deduce no fix.
      return 0;
  }
  return 0;
}

void ChaseEngine::Admit(const Ree& rule, const std::string& rule_text,
                        const Valuation& v, const rules::Evaluator& eval,
                        std::vector<std::pair<int, int64_t>>* newly_dirty,
                        ChaseResult* result) {
  if (options_.certain_fixes_only && !PremisesValidated(rule, v)) return;
  const ChaseMetrics& metrics = ChaseMetrics::Get();
  ++result->applications;
  metrics.applications->Add(1);
  size_t new_fixes = ApplyConsequence(rule, rule_text, v, eval, newly_dirty);
  result->fixes_applied += new_fixes;
  if (new_fixes > 0) metrics.FixCounter(rule.Task())->Add(new_fixes);
}

ChaseResult ChaseEngine::Loop(const std::vector<Ree>& rules,
                              rules::Scope scope, std::optional<int> workers,
                              par::ScheduleReport* schedule) {
  ChaseResult result;
  // Per rule, built once per run: the LSH blocking (null when the rule
  // does not qualify) and the rule text its witnesses cite.
  std::vector<std::unique_ptr<const rules::Blocking>> blockings;
  std::vector<std::string> texts;
  for (const Ree& rule : rules) {
    blockings.push_back(rules::Blocking::For(rule, Context()));
    texts.push_back(rule.ToString(db_->schema()));
  }
  rules::Evaluator eval(Context());
  const ChaseMetrics& metrics = ChaseMetrics::Get();
  size_t conflicts_before = conflicts_.size();
  std::optional<rules::DeltaRows> touched;

  for (int round = 0; round < options_.max_rounds; ++round) {
    ROCK_OBS_SPAN("chase.round");
    metrics.rounds->Add(1);
    metrics.current_round->Set(round + 1);
    result.rounds = round + 1;
    std::vector<std::pair<int, int64_t>> next_dirty;
    size_t fixes_before = result.fixes_applied;

    if (round == 0 && workers.has_value()) {
      // Evaluation phase: workers enumerate their slices into per-unit
      // buffers while the fix store stays read-only, so concurrent
      // precondition evaluation needs no locks. Round checkpoint: a unit
      // lost mid-round (worker crash, exhausted retry budget) re-runs in
      // isolation, and the check after the round (replays included)
      // proves no fix leaked in early, so nothing is applied twice.
      const FixStore::Checkpoint checkpoint = fixes_.TakeCheckpoint();
      metrics.checkpoints->Add(1);
      const par::RoundResult<std::vector<Valuation>> hits =
          par::RunRound<std::vector<Valuation>>(
              rules, Context(), *workers,
              options_.pool,
              [&](size_t r, const rules::Scope& slice,
                  par::RoundWorker& worker, std::vector<Valuation>* out) {
                worker.eval.Enumerate(
                    rules[r], slice, blockings[r].get(),
                    [out](const Valuation& v) { out->push_back(v); });
              },
              schedule);
      ROCK_CHECK(fixes_.TakeCheckpoint() == checkpoint)
          << "fix store advanced during the read-only evaluation phase";
      result.replayed_units = hits.replayed_units;
      metrics.checkpoint_restores->Add(hits.replayed_units);
      // Apply phase: serially in unit order, re-verifying each
      // precondition against the growing overlay so a fix applied earlier
      // can retract a later candidate, exactly as in the serial chase.
      ROCK_OBS_SPAN("chase.parallel_apply");
      for (size_t unit = 0; unit < hits.outputs.size(); ++unit) {
        const size_t r = hits.unit_rules[unit];
        for (const Valuation& v : hits.outputs[unit]) {
          if (!eval.SatisfiesPrecondition(rules[r], v)) continue;
          Admit(rules[r], texts[r], v, eval, &next_dirty, &result);
        }
      }
    } else {
      for (size_t r = 0; r < rules.size(); ++r) {
        auto admit = [&](const Valuation& v) {
          Admit(rules[r], texts[r], v, eval, &next_dirty, &result);
        };
        eval.Enumerate(rules[r], scope, blockings[r].get(), admit);
      }
    }

    if (result.fixes_applied == fixes_before || next_dirty.empty()) {
      result.converged = true;
      break;
    }
    touched.emplace(*db_, next_dirty);
    scope = rules::Scope::Delta(*touched);
  }
  metrics.current_round->Set(0);
  metrics.conflicts->Add(conflicts_.size() - conflicts_before);
  result.conflicts = conflicts_;
  // Publish provenance added since the previous export (watermark-based,
  // so repeated Run/RunIncremental calls on one engine never double-count).
  // Runs after every worker has joined, i.e. on the apply thread.
  common::RoleGuard apply(fixes_.apply_role());
  fixes_.mutable_provenance().ExportDeltaToMetrics();
  return result;
}

Database ChaseEngine::MaterializeRepairs() const {
  Database repaired = *db_;
  for (size_t rel = 0; rel < repaired.num_relations(); ++rel) {
    Relation& relation = repaired.relation(static_cast<int>(rel));
    for (size_t row = 0; row < relation.size(); ++row) {
      Tuple& t = relation.mutable_tuple(row);
      t.eid = fixes_.eids().Find(t.eid);
      for (size_t attr = 0; attr < t.values.size(); ++attr) {
        auto fixed = fixes_.ValidatedValue(static_cast<int>(rel), t.tid,
                                           static_cast<int>(attr));
        if (fixed.has_value()) t.values[attr] = *fixed;
      }
    }
  }
  return repaired;
}

std::vector<CellFix> ChaseEngine::CellFixes() const {
  std::vector<CellFix> out;
  for (size_t rel = 0; rel < db_->num_relations(); ++rel) {
    const Relation& relation = db_->relation(static_cast<int>(rel));
    for (size_t row = 0; row < relation.size(); ++row) {
      const Tuple& t = relation.tuple(row);
      for (size_t attr = 0; attr < t.values.size(); ++attr) {
        auto fixed = fixes_.ValidatedValue(static_cast<int>(rel), t.tid,
                                           static_cast<int>(attr));
        if (fixed.has_value() && !(*fixed == t.values[attr])) {
          CellFix fix;
          fix.rel = static_cast<int>(rel);
          fix.tid = t.tid;
          fix.attr = static_cast<int>(attr);
          fix.old_value = t.values[attr];
          fix.new_value = *fixed;
          out.push_back(std::move(fix));
        }
      }
    }
  }
  return out;
}

std::vector<std::vector<std::pair<int, int64_t>>> ChaseEngine::EntityGroups()
    const {
  std::map<int64_t, std::vector<std::pair<int, int64_t>>> groups;
  for (size_t rel = 0; rel < db_->num_relations(); ++rel) {
    const Relation& relation = db_->relation(static_cast<int>(rel));
    for (size_t row = 0; row < relation.size(); ++row) {
      const Tuple& t = relation.tuple(row);
      groups[fixes_.eids().Find(t.eid)].emplace_back(static_cast<int>(rel),
                                                     t.tid);
    }
  }
  std::vector<std::vector<std::pair<int, int64_t>>> out;
  for (auto& [canon, members] : groups) {
    (void)canon;
    if (members.size() > 1) out.push_back(std::move(members));
  }
  return out;
}

}  // namespace rock::chase

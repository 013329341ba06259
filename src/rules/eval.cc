#include "src/rules/eval.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <string_view>

#include "src/common/logging.h"
#include "src/ml/correlation.h"
#include "src/ml/her.h"
#include "src/ml/ranking.h"
#include "src/obs/metrics.h"

namespace rock::rules {

Value Evaluator::GetCell(const Ree& rule, const Valuation& v, int var,
                         int attr) const {
  int rel = rule.tuple_vars[static_cast<size_t>(var)];
  const Tuple& t = ctx_.db->relation(rel).tuple(
      static_cast<size_t>(v.rows[static_cast<size_t>(var)]));
  if (ctx_.overlay != nullptr) {
    std::optional<Value> patched = ctx_.overlay->GetCell(rel, t.tid, attr);
    if (patched.has_value()) return *patched;
  }
  return t.value(attr);
}

int64_t Evaluator::GetEid(const Ree& rule, const Valuation& v, int var) const {
  int rel = rule.tuple_vars[static_cast<size_t>(var)];
  const Tuple& t = ctx_.db->relation(rel).tuple(
      static_cast<size_t>(v.rows[static_cast<size_t>(var)]));
  if (ctx_.overlay != nullptr) {
    std::optional<int64_t> patched = ctx_.overlay->GetEid(rel, t.tid);
    if (patched.has_value()) return *patched;
  }
  return t.eid;
}

const Tuple& Evaluator::GetTuple(const Ree& rule, const Valuation& v,
                                 int var) const {
  int rel = rule.tuple_vars[static_cast<size_t>(var)];
  return ctx_.db->relation(rel).tuple(
      static_cast<size_t>(v.rows[static_cast<size_t>(var)]));
}

std::vector<Value> Evaluator::GetValues(const Ree& rule, const Valuation& v,
                                        int var) const {
  int rel = rule.tuple_vars[static_cast<size_t>(var)];
  const Schema& schema = ctx_.db->schema().relation(rel);
  std::vector<Value> out;
  out.reserve(schema.num_attributes());
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    out.push_back(GetCell(rule, v, var, static_cast<int>(a)));
  }
  return out;
}

namespace {

/// Returns `passed`, first appending the model call that decided it to
/// `record` when the caller keeps one.
bool Verdict(obs::Witness* record, const Ree& rule,
             const DatabaseSchema& schema, const Predicate& p,
             std::string_view model, double score, double threshold,
             bool passed) {
  if (record != nullptr) {
    record->ml_calls.push_back({std::string(model),
                                PredicateToString(p, rule, schema), score,
                                threshold, passed});
  }
  return passed;
}

}  // namespace

bool Evaluator::Satisfies(const Ree& rule, const Valuation& v,
                          const Predicate& p, obs::Witness* record) const {
  const DatabaseSchema& schema = ctx_.db->schema();
  switch (p.kind) {
    case PredicateKind::kConstant: {
      Value cell = GetCell(rule, v, p.var, p.attr);
      if (cell.is_null() || p.constant.is_null()) return false;
      if (!cell.ComparableWith(p.constant)) return false;
      return EvalCmp(p.op, cell.Compare(p.constant));
    }
    case PredicateKind::kAttrCompare: {
      if (p.attr == kEidAttr) {
        int64_t e1 = GetEid(rule, v, p.var);
        int64_t e2 = GetEid(rule, v, p.var2);
        int tw = e1 < e2 ? -1 : (e1 > e2 ? 1 : 0);
        return EvalCmp(p.op, tw);
      }
      Value a = GetCell(rule, v, p.var, p.attr);
      Value b = GetCell(rule, v, p.var2, p.attr2);
      if (a.is_null() || b.is_null()) return false;
      if (!a.ComparableWith(b)) return false;
      return EvalCmp(p.op, a.Compare(b));
    }
    case PredicateKind::kMlPair: {
      if (ctx_.models == nullptr) return false;
      const ml::PairClassifier* model = ctx_.models->FindPair(p.model);
      if (model == nullptr) {
        // A recording call re-reads a check the walk already made (and
        // warned about).
        if (record == nullptr) {
          ROCK_LOG(kWarning) << "unknown pair model " << p.model;
        }
        return false;
      }
      std::vector<Value> a, b;
      a.reserve(p.attrs_a.size());
      b.reserve(p.attrs_b.size());
      for (int attr : p.attrs_a) a.push_back(GetCell(rule, v, p.var, attr));
      for (int attr : p.attrs_b) b.push_back(GetCell(rule, v, p.var2, attr));
      double score;
      if (ctx_.ml_cache != nullptr) {
        // Double-checked memo: look up, score outside any lock on a miss,
        // first insert wins. The cached double is exactly what Score
        // returns for this content, so the verdict matches the uncached
        // path bitwise.
        const ml::MlScoreCache::Key key =
            ml::MlScoreCache::MakeKey(p.model, a, b);
        if (!ctx_.ml_cache->Lookup(key, &score)) {
          score = model->Score(a, b);
          ctx_.ml_cache->Insert(key, score);
        }
      } else {
        score = model->Score(a, b);
      }
      return Verdict(record, rule, schema, p, p.model, score,
                     model->threshold(), score >= model->threshold());
    }
    case PredicateKind::kTemporal: {
      int rel = rule.tuple_vars[static_cast<size_t>(p.var)];
      const Tuple& t1 = GetTuple(rule, v, p.var);
      const Tuple& t2 = GetTuple(rule, v, p.var2);
      if (!p.model.empty()) {
        // Ranker-backed ML predicate M_rank(t1, t2, ⊗A).
        const ml::TemporalRanker* ranker =
            ctx_.models == nullptr ? nullptr
                                   : ctx_.models->FindRanker(p.model);
        if (ranker == nullptr) return false;
        const double confidence =
            ranker->Confidence(t1, t2, p.attr, p.strict);
        return Verdict(record, rule, schema, p, p.model, confidence,
                       ml::TemporalRanker::kThreshold,
                       confidence >= ml::TemporalRanker::kThreshold);
      }
      // Plain temporal predicate over the explicit partial order. ⪯ is
      // reflexive and ≺ irreflexive on the same tuple.
      if (t1.tid == t2.tid) return !p.strict;
      if (ctx_.temporal != nullptr) {
        std::optional<bool> known =
            ctx_.temporal->Holds(rel, p.attr, t1.tid, t2.tid, p.strict);
        if (known.has_value()) return *known;
      }
      int64_t ts1 = t1.timestamp(p.attr);
      int64_t ts2 = t2.timestamp(p.attr);
      if (ts1 != kNoTimestamp && ts2 != kNoTimestamp) {
        return p.strict ? ts1 < ts2 : ts1 <= ts2;
      }
      return false;
    }
    case PredicateKind::kHer: {
      if (ctx_.models == nullptr || ctx_.models->her() == nullptr ||
          ctx_.graph == nullptr) {
        return false;
      }
      int rel = rule.tuple_vars[static_cast<size_t>(p.var)];
      const bool matched = ctx_.models->her()->Match(
          GetValues(rule, v, p.var), schema.relation(rel), *ctx_.graph,
          v.vertices[static_cast<size_t>(p.vertex_var)]);
      return Verdict(record, rule, schema, p, "HER", matched ? 1.0 : 0.0,
                     0.5, matched);
    }
    case PredicateKind::kPathMatch: {
      if (ctx_.graph == nullptr) return false;
      int rel = rule.tuple_vars[static_cast<size_t>(p.var)];
      const std::string& attr_name =
          schema.relation(rel).AttributeName(p.attr);
      kg::VertexId x = v.vertices[static_cast<size_t>(p.vertex_var)];
      bool name_match =
          ctx_.models != nullptr && ctx_.models->path_matcher() != nullptr
              ? ctx_.models->path_matcher()->Matches(attr_name, p.path)
              : true;
      return name_match && ctx_.graph->HasPath(x, p.path);
    }
    case PredicateKind::kValExtract: {
      if (ctx_.graph == nullptr) return false;
      kg::VertexId x = v.vertices[static_cast<size_t>(p.vertex_var)];
      Result<Value> extracted = ctx_.graph->ValueAtPath(x, p.path);
      if (!extracted.ok()) return false;
      Value cell = GetCell(rule, v, p.var, p.attr);
      return !cell.is_null() && cell == *extracted;
    }
    case PredicateKind::kCorrelation: {
      if (ctx_.models == nullptr) return false;
      const ml::CorrelationModel* model =
          ctx_.models->FindCorrelation(p.model);
      if (model == nullptr) return false;
      std::vector<Value> values = GetValues(rule, v, p.var);
      Value candidate = p.has_constant
                            ? p.constant
                            : GetCell(rule, v, p.var, p.attr2);
      if (candidate.is_null()) return false;
      const double strength =
          model->Strength(values, p.attrs_a, p.attr2, candidate);
      return Verdict(record, rule, schema, p, p.model, strength, p.threshold,
                     strength >= p.threshold);
    }
    case PredicateKind::kPredictValue: {
      if (ctx_.models == nullptr) return false;
      const ml::ValuePredictor* model = ctx_.models->FindPredictor(p.model);
      if (model == nullptr) return false;
      std::vector<Value> values = GetValues(rule, v, p.var);
      Result<Value> predicted =
          model->PredictValue(values, p.attrs_a, p.attr2);
      bool passed = false;
      if (predicted.ok()) {
        Value cell = GetCell(rule, v, p.var, p.attr2);
        passed = !cell.is_null() && cell == *predicted;
      }
      return Verdict(record, rule, schema, p, p.model, 1.0, 0.0, passed);
    }
    case PredicateKind::kIsNull:
      return GetCell(rule, v, p.var, p.attr).is_null();
    case PredicateKind::kPoly: {
      Result<double> value = p.poly.Evaluate(
          [&](int attr) { return GetCell(rule, v, p.var, attr); });
      if (!value.ok()) return false;
      Value target = GetCell(rule, v, p.var, p.attr);
      const bool fits = !target.is_null() &&
                        std::abs(target.AsDouble() - *value) /
                                std::max(1.0, std::abs(*value)) <=
                            p.threshold;
      return p.op == CmpOp::kEq ? fits : !fits;
    }
  }
  return false;
}

namespace {

/// True for the predicates whose check runs a model on the valuation's
/// values. kPathMatch is not one: its model lookup does not depend on the
/// valuation.
bool ModelScored(const Predicate& p) {
  switch (p.kind) {
    case PredicateKind::kMlPair:
    case PredicateKind::kHer:
    case PredicateKind::kCorrelation:
    case PredicateKind::kPredictValue:
      return true;
    case PredicateKind::kTemporal:
      return !p.model.empty();  // ranker-backed
    case PredicateKind::kConstant:
    case PredicateKind::kAttrCompare:
    case PredicateKind::kPathMatch:
    case PredicateKind::kValExtract:
    case PredicateKind::kIsNull:
    case PredicateKind::kPoly:
      return false;
  }
  return false;
}

/// Calls `check` on the predicates of `preds` in cost order — the cheap
/// ones, then the ModelScored ones, each group in written order — and
/// stops at the first that returns false.
template <typename Check>
bool AllInCostOrder(const std::vector<Predicate>& preds, Check&& check) {
  for (const bool scored : {false, true}) {
    for (const Predicate& p : preds) {
      if (ModelScored(p) == scored && !check(p)) return false;
    }
  }
  return true;
}

}  // namespace

bool Evaluator::SatisfiesPrecondition(const Ree& rule,
                                      const Valuation& v) const {
  return AllInCostOrder(rule.precondition, [&](const Predicate& p) {
    return Satisfies(rule, v, p);
  });
}

obs::Witness Evaluator::CaptureWitness(const Ree& rule, const Valuation& v,
                                       std::string rule_text) const {
  obs::Witness w;
  w.rule_text = std::move(rule_text);
  w.tuples.reserve(rule.tuple_vars.size());
  for (size_t var = 0; var < rule.tuple_vars.size(); ++var) {
    w.tuples.push_back({static_cast<int>(var), rule.tuple_vars[var],
                        GetTuple(rule, v, static_cast<int>(var)).tid});
  }
  for (const Predicate& p : rule.precondition) {
    ForEachPremiseCell(p, [&](int var, int attr, obs::PremiseSource source) {
      obs::PremiseCell cell;
      cell.rel = rule.tuple_vars[static_cast<size_t>(var)];
      cell.tid = GetTuple(rule, v, var).tid;
      cell.attr = attr;
      cell.value = attr == kEidAttr ? std::to_string(GetEid(rule, v, var))
                                    : GetCell(rule, v, var, attr).ToString();
      cell.source = source;
      w.premises.push_back(std::move(cell));
    });
    if (ModelScored(p)) Satisfies(rule, v, p, &w);
  }
  return w;
}

const Evaluator::FlatIndex& Evaluator::Index(int rel, int attr) const {
  auto [it, built] = indexes_.try_emplace({rel, attr});
  FlatIndex& index = it->second;
  if (!built) return index;
  // Raw values only: the overlay's changed cells are unioned in per probe.
  const Relation& relation = ctx_.db->relation(rel);
  index.reserve(relation.size());
  for (size_t row = 0; row < relation.size(); ++row) {
    const Tuple& t = relation.tuple(row);
    if (attr == kEidAttr) {
      index.emplace_back(static_cast<uint64_t>(t.eid), static_cast<int>(row));
    } else if (!t.value(attr).is_null()) {
      index.emplace_back(t.value(attr).Hash(), static_cast<int>(row));
    }
  }
  std::sort(index.begin(), index.end());
  return index;
}

namespace {

/// Appends the rows `index` holds under `key`, ascending.
void AppendRows(const std::vector<std::pair<uint64_t, int>>& index,
                uint64_t key, std::vector<int>* out) {
  auto it = std::lower_bound(index.begin(), index.end(),
                             std::make_pair(key, INT_MIN));
  for (; it != index.end() && it->first == key; ++it) {
    out->push_back(it->second);
  }
}

obs::Counter* UnindexedRowsCounter() {
  static obs::Counter* counter = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    obs::Counter* out = reg.GetCounter("rock_eval_unindexed_rows_total");
    reg.SetHelp("rock_eval_unindexed_rows_total",
                "Rows the enumerator tried by a plain scan at a variable "
                "no index, LSH block or seed probe restricted");
    return out;
  }();
  return counter;
}

}  // namespace

void Evaluator::LookupCandidates(int rel, int attr, const Value& value,
                                 std::vector<int>* out) const {
  out->clear();
  const uint64_t key = value.Hash();
  AppendRows(Index(rel, attr), key, out);
  if (ctx_.overlay == nullptr) return;
  const size_t raw_hits = out->size();
  const Relation& relation = ctx_.db->relation(rel);
  for (int64_t tid : ctx_.overlay->PatchedTidsEq(rel, attr, key)) {
    const int row = relation.RowOfTid(tid);
    if (row >= 0) out->push_back(row);
  }
  if (out->size() == raw_hits) return;
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

void Evaluator::LookupEidClass(int rel, int64_t eid,
                               std::vector<int>* out) const {
  out->clear();
  const FlatIndex& index = Index(rel, kEidAttr);
  if (ctx_.overlay == nullptr) {
    AppendRows(index, static_cast<uint64_t>(eid), out);
    return;
  }
  const std::vector<int64_t> members = ctx_.overlay->EidClass(eid);
  for (int64_t member : members) {
    AppendRows(index, static_cast<uint64_t>(member), out);
  }
  // Each row has one raw EID, so the members' runs are disjoint.
  if (members.size() > 1) std::sort(out->begin(), out->end());
}

DeltaRows::DeltaRows(const Database& db,
                     const std::vector<std::pair<int, int64_t>>& tids)
    : rows_(db.num_relations()) {
  for (const auto& [rel, tid] : tids) {
    if (rel < 0 || static_cast<size_t>(rel) >= db.num_relations()) continue;
    const int row = db.relation(rel).RowOfTid(tid);
    if (row >= 0) rows_[static_cast<size_t>(rel)].push_back(row);
  }
  for (std::vector<int>& rows : rows_) {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  }
}

bool DeltaRows::Contains(int rel, int row) const {
  return std::binary_search(rows(rel).begin(), rows(rel).end(), row);
}

std::unique_ptr<const Blocking> Blocking::For(const Ree& rule,
                                              const EvalContext& ctx) {
  if (rule.tuple_vars.size() != 2 || rule.num_vertex_vars != 0) {
    return nullptr;
  }
  if (rule.tuple_vars[0] != rule.tuple_vars[1]) return nullptr;
  if (ctx.models == nullptr) return nullptr;

  auto blocking = std::make_unique<Blocking>();
  for (const Predicate& p : rule.precondition) {
    if (p.kind == PredicateKind::kMlPair && p.var != p.var2) {
      blocking->ml_pred_ = &p;
    }
    if (p.kind == PredicateKind::kAttrCompare && p.op == CmpOp::kEq &&
        p.var != p.var2 && p.attr != kEidAttr) {
      return nullptr;  // equality join available; indexing beats blocking
    }
  }
  if (blocking->ml_pred_ == nullptr ||
      blocking->ml_pred_->attrs_a != blocking->ml_pred_->attrs_b) {
    return nullptr;
  }
  blocking->model_ = ctx.models->FindPair(blocking->ml_pred_->model);
  if (blocking->model_ == nullptr) return nullptr;

  const Relation& relation = ctx.db->relation(rule.tuple_vars[0]);
  for (size_t row = 0; row < relation.size(); ++row) {
    std::vector<Value> values;
    for (int attr : blocking->ml_pred_->attrs_a) {
      values.push_back(relation.tuple(row).value(attr));
    }
    blocking->blocker_.Add(static_cast<int64_t>(row),
                           blocking->model_->BlockTokens(values));
  }
  return blocking;
}

std::vector<int> Blocking::Candidates(const Evaluator& eval, const Ree& rule,
                                      int row) const {
  Valuation v;
  v.rows.assign(2, row);
  std::vector<Value> values;
  for (int attr : ml_pred_->attrs_a) {
    values.push_back(eval.GetCell(rule, v, 0, attr));
  }
  std::vector<int> out;
  for (int64_t candidate : blocker_.Candidates(model_->BlockTokens(values))) {
    if (candidate != row) out.push_back(static_cast<int>(candidate));
  }
  const CellOverlay* overlay = eval.context().overlay;
  if (overlay == nullptr) return out;
  // As in LookupCandidates: the index holds raw tokens, so rows whose
  // blocked cells the overlay changed join every block.
  const int rel = rule.tuple_vars[0];
  const Relation& relation = eval.context().db->relation(rel);
  for (int attr : ml_pred_->attrs_a) {
    for (int64_t tid : overlay->PatchedTids(rel, attr)) {
      const int patched = relation.RowOfTid(tid);
      if (patched >= 0 && patched != row) out.push_back(patched);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void Evaluator::ForEachSatisfying(
    const Ree& rule, const std::function<bool(const Valuation&)>& cb) const {
  Walk(rule, Scope{}, /*blocking=*/nullptr, cb);
}

EnumerateStats Evaluator::Enumerate(
    const Ree& rule, const Scope& scope, const Blocking* blocking,
    const std::function<void(const Valuation&)>& sink) const {
  const std::function<bool(const Valuation&)> emit = [&](const Valuation& v) {
    sink(v);
    return true;
  };
  EnumerateStats stats = Walk(rule, scope, blocking, emit);
  UnindexedRowsCounter()->Add(stats.unindexed_rows);
  return stats;
}

std::vector<Evaluator::Source> Evaluator::PlanSources(
    const Ree& rule, int seed_var, const Blocking* blocking) const {
  using Kind = Source::Kind;
  const int num_vars = static_cast<int>(rule.tuple_vars.size());
  std::vector<Source> plan(static_cast<size_t>(num_vars));
  for (int depth = 0; depth < num_vars; ++depth) {
    if (depth == seed_var) continue;  // the seed row itself
    Source& source = plan[static_cast<size_t>(depth)];
    // A blocked rule's variable 1 ranges over the LSH candidates of
    // variable 0's row — or, when a delta seed binds variable 1, the
    // reverse.
    if (blocking != nullptr && depth == (seed_var == 1 ? 0 : 1)) {
      source.kind = Kind::kBlocked;
      continue;
    }
    auto bound = [&](int var) {
      return var != depth && (var < depth || var == seed_var);
    };
    for (const Predicate& p : rule.precondition) {
      if (p.op != CmpOp::kEq) continue;
      if (p.kind == PredicateKind::kConstant && p.var == depth) {
        source = {Kind::kConstant, &p, p.attr};
        break;
      }
      if (p.kind != PredicateKind::kAttrCompare) continue;
      const Kind join =
          p.attr == kEidAttr ? Kind::kEidJoin : Kind::kValueJoin;
      if (p.var2 == depth && bound(p.var)) {
        source = {join, &p, p.attr2, p.var, p.attr};
        break;
      }
      if (p.var == depth && bound(p.var2)) {
        source = {join, &p, p.attr, p.var2, p.attr2};
        break;
      }
    }
  }
  return plan;
}

EnumerateStats Evaluator::Walk(
    const Ree& rule, const Scope& scope, const Blocking* blocking,
    const std::function<bool(const Valuation&)>& cb) const {
  // ready[d] = predicates fully bound once vars 0..d are assigned; vertex-
  // var predicates are deferred to the vertex phase. Both in cost order.
  const size_t num_vars = rule.tuple_vars.size();
  std::vector<std::vector<const Predicate*>> ready(num_vars);
  std::vector<const Predicate*> vertex_ready;
  AllInCostOrder(rule.precondition, [&](const Predicate& p) {
    if (p.vertex_var >= 0) {
      vertex_ready.push_back(&p);
      return true;
    }
    int max_var = -1;
    for (int tv : p.TupleVars()) max_var = std::max(max_var, tv);
    if (max_var < 0) max_var = 0;
    if (static_cast<size_t>(max_var) < num_vars) {
      ready[static_cast<size_t>(max_var)].push_back(&p);
    }
    return true;
  });
  Pass pass{ready, vertex_ready, cb, blocking};
  pass.candidates.resize(num_vars);
  Valuation v;
  v.rows.assign(num_vars, -1);
  v.vertices.assign(static_cast<size_t>(rule.num_vertex_vars), -1);
  if (scope.delta == nullptr) {
    pass.sources = PlanSources(rule, /*seed_var=*/-1, blocking);
    pass.begin = scope.begin;
    pass.end = scope.end;
    Recurse(rule, v, 0, pass);
    return pass.stats;
  }
  pass.delta = scope.delta;
  for (size_t var = 0; var < num_vars; ++var) {
    const std::vector<int>& seeds = scope.delta->rows(rule.tuple_vars[var]);
    if (seeds.empty()) continue;
    pass.var = static_cast<int>(var);
    pass.sources = PlanSources(rule, pass.var, blocking);
    for (int row : seeds) {
      // The seed binds its variable before the walk, so earlier variables
      // probe it.
      v.rows[var] = row;
      pass.begin = row;
      pass.end = row + 1;
      Recurse(rule, v, 0, pass);
    }
    v.rows[var] = -1;
  }
  return pass.stats;
}

void Evaluator::Recurse(const Ree& rule, Valuation& v, size_t depth,
                        Pass& pass) const {
  using Kind = Source::Kind;
  if (!pass.keep_going) return;
  if (depth == rule.tuple_vars.size()) {
    // All tuple variables bound; handle vertex variables (if any), checking
    // the remaining predicates inside AssignVertices.
    AssignVertices(rule, v, 0, pass);
    return;
  }
  const int rel = rule.tuple_vars[depth];
  const Relation& relation = ctx_.db->relation(rel);
  const Source& source = pass.sources[depth];
  std::vector<int>& candidates = pass.candidates[depth];
  switch (source.kind) {
    case Kind::kScan:
      break;
    case Kind::kBlocked:
      candidates = pass.blocking->Candidates(*this, rule, v.rows[1 - depth]);
      break;
    case Kind::kConstant:
      LookupCandidates(rel, source.attr, source.pred->constant, &candidates);
      break;
    case Kind::kValueJoin: {
      const Value bound =
          GetCell(rule, v, source.bound_var, source.bound_attr);
      if (bound.is_null()) return;  // null never satisfies equality
      LookupCandidates(rel, source.attr, bound, &candidates);
      break;
    }
    case Kind::kEidJoin:
      LookupEidClass(rel, GetEid(rule, v, source.bound_var), &candidates);
      break;
  }

  // A delta seed on a later variable keeps this one off ΔD (semi-naive).
  const bool old_rows_only =
      pass.delta != nullptr && static_cast<int>(depth) < pass.var;
  const bool sliced = pass.var == static_cast<int>(depth);
  const bool unindexed = source.kind == Kind::kScan && !sliced;
  auto try_row = [&](int row) {
    if (old_rows_only && pass.delta->Contains(rel, row)) return;
    if (source.kind == Kind::kBlocked) ++pass.stats.blocked_pairs;
    if (unindexed) ++pass.stats.unindexed_rows;
    // Restore rather than clear: a pre-bound seed stays bound for the
    // variables before it.
    const int outer = v.rows[depth];
    v.rows[depth] = row;
    bool satisfied = true;
    for (const Predicate* p : pass.ready[depth]) {
      if (!Satisfies(rule, v, *p)) {
        satisfied = false;
        break;
      }
    }
    if (satisfied) Recurse(rule, v, depth + 1, pass);
    v.rows[depth] = outer;
  };

  // Rows [begin, end) this depth may bind; candidate lists are ascending,
  // so the slice of them is a binary-searched subrange.
  const int begin = sliced ? std::max(0, pass.begin) : 0;
  const int end = sliced ? std::min(static_cast<int>(relation.size()),
                                    pass.end)
                         : static_cast<int>(relation.size());
  if (source.kind == Kind::kScan) {
    for (int row = begin; row < end && pass.keep_going; ++row) try_row(row);
    return;
  }
  auto first = candidates.begin();
  auto last = candidates.end();
  if (sliced) {
    first = std::lower_bound(first, last, begin);
    last = std::lower_bound(first, last, end);
  }
  for (; first != last && pass.keep_going; ++first) try_row(*first);
}

void Evaluator::AssignVertices(const Ree& rule, Valuation& v, int vertex_depth,
                               Pass& pass) const {
  if (!pass.keep_going) return;
  if (vertex_depth == rule.num_vertex_vars) {
    // Check every predicate involving vertex variables (tuple-only
    // predicates were already checked during Recurse).
    for (const Predicate* p : pass.vertex_ready) {
      if (!Satisfies(rule, v, *p)) return;
    }
    if (!pass.cb(v)) pass.keep_going = false;
    return;
  }
  if (ctx_.graph == nullptr) return;

  // Restrict candidates by a HER predicate's blocking index when present.
  std::vector<kg::VertexId> candidates;
  bool restricted = false;
  if (ctx_.models != nullptr && ctx_.models->her() != nullptr) {
    for (const Predicate& p : rule.precondition) {
      if (p.kind == PredicateKind::kHer && p.vertex_var == vertex_depth) {
        int rel = rule.tuple_vars[static_cast<size_t>(p.var)];
        candidates = ctx_.models->her()->Candidates(
            GetValues(rule, v, p.var), ctx_.db->schema().relation(rel));
        restricted = true;
        break;
      }
    }
  }
  if (!restricted) candidates = ctx_.graph->AllVertices();

  for (kg::VertexId x : candidates) {
    if (!pass.keep_going) break;
    v.vertices[static_cast<size_t>(vertex_depth)] = x;
    AssignVertices(rule, v, vertex_depth + 1, pass);
    v.vertices[static_cast<size_t>(vertex_depth)] = -1;
  }
}

void Evaluator::ForEachViolation(
    const Ree& rule, const std::function<bool(const Valuation&)>& cb) const {
  ForEachSatisfying(rule, [&](const Valuation& v) {
    if (!Satisfies(rule, v, rule.consequence)) return cb(v);
    return true;
  });
}

std::pair<size_t, size_t> Evaluator::CountSupport(const Ree& rule,
                                                  size_t cap) const {
  size_t sat_x = 0;
  size_t sat_both = 0;
  ForEachSatisfying(rule, [&](const Valuation& v) {
    ++sat_x;
    if (Satisfies(rule, v, rule.consequence)) ++sat_both;
    return cap == 0 || sat_x < cap;
  });
  return {sat_x, sat_both};
}

}  // namespace rock::rules

#include <memory>

#include <gtest/gtest.h>

#include "src/chase/chase.h"
#include "src/common/mutex.h"
#include "src/ml/correlation.h"
#include "src/ml/her.h"
#include "src/ml/library.h"
#include "src/rules/parser.h"
#include "src/workload/ecommerce.h"
#include "src/workload/generator.h"

namespace rock {
namespace {

using workload::EcommerceData;
using workload::MakeEcommerceData;

class EvalExtraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = MakeEcommerceData();
    models_.RegisterPair("Mlimited",
                         std::make_shared<ml::SimilarityClassifier>(0.9));
  }
  rules::EvalContext Ctx() {
    rules::EvalContext ctx;
    ctx.db = &data_.db;
    ctx.graph = &data_.graph;
    ctx.models = &models_;
    return ctx;
  }
  rules::Ree Parse(const std::string& text) {
    auto rule = rules::ParseRee(text, data_.db.schema());
    EXPECT_TRUE(rule.ok()) << rule.status().ToString();
    rules::Ree out = rule.ok() ? *rule : rules::Ree{};
    out.id = "x";
    return out;
  }
  EcommerceData data_;
  ml::MlLibrary models_;
};

TEST_F(EvalExtraTest, CrossRelationJoin) {
  // Transactions join stores through sid: every transaction's sid matches
  // exactly one store.
  rules::Ree rule = Parse(
      "Trans(t0) ^ Store(t1) ^ t0.sid = t1.sid -> t1.type = t1.type");
  rules::Evaluator eval(Ctx());
  size_t joins = 0;
  eval.ForEachSatisfying(rule, [&](const rules::Valuation& v) {
    // Verify the join key really matches.
    EXPECT_EQ(eval.GetCell(rule, v, 0, 1), eval.GetCell(rule, v, 1, 0));
    ++joins;
    return true;
  });
  EXPECT_EQ(joins, 5u);  // one store per transaction
}

TEST_F(EvalExtraTest, FourVariableRuleAcrossTwoRelations) {
  // φ10 (paper Example 4): Trans(t) ∧ Trans(t') ∧ Store(s) ∧ Store(s') ∧
  // t.sid = s.sid ∧ t'.sid = s'.sid ∧ Mlimited(t[com], t'[com]) →
  // s.type = s'.type. The two Mate X2 (Limited Sold) rows are sold in
  // stores s3 (Electron.) and s4 (Sports): a CR violation across tables.
  rules::Ree rule = Parse(
      "Trans(t0) ^ Trans(t1) ^ Store(t2) ^ Store(t3) ^ t0.sid = t2.sid ^ "
      "t1.sid = t3.sid ^ Mlimited(t0[com], t1[com]) ^ t0.pid != t1.pid -> "
      "t2.type = t3.type");
  rules::Evaluator eval(Ctx());
  size_t violations = 0;
  eval.ForEachViolation(rule, [&](const rules::Valuation& v) {
    // The violating commodity is the limited-sold Mate X2.
    EXPECT_NE(eval.GetCell(rule, v, 0, 2).AsString().find("Mate X2"),
              std::string::npos);
    ++violations;
    return true;
  });
  EXPECT_EQ(violations, 2u);  // both orientations
}

TEST_F(EvalExtraTest, ThreeVariableChainJoin) {
  // φ13-style: two persons joined through pid plus a third tuple variable
  // over transactions referencing the same person.
  rules::Ree rule = Parse(
      "Person(t0) ^ Person(t1) ^ Trans(t2) ^ t0.pid = t1.pid ^ "
      "t2.pid = t0.pid -> t0.LN = t1.LN");
  rules::Evaluator eval(Ctx());
  size_t count = 0;
  eval.ForEachSatisfying(rule, [&](const rules::Valuation&) {
    ++count;
    return true;
  });
  // p2 has two person rows (t2, t3) and one transaction; p1/p3/p4 have one
  // row each with their transactions. All satisfy the consequence (same
  // LN within a pid), so no violations:
  size_t violations = 0;
  eval.ForEachViolation(rule, [&](const rules::Valuation&) {
    ++violations;
    return true;
  });
  EXPECT_GT(count, 0u);
  EXPECT_EQ(violations, 0u);
}

TEST_F(EvalExtraTest, InequalityComparisonPredicates) {
  // φ6-style: accumulated sales comparisons.
  rules::Ree rule = Parse(
      "Store(t0) ^ Store(t1) ^ t0.accu_sales < t1.accu_sales -> "
      "t0.sid != t1.sid");
  rules::Evaluator eval(Ctx());
  size_t satisfied = 0;
  eval.ForEachSatisfying(rule, [&](const rules::Valuation& v) {
    EXPECT_LT(eval.GetCell(rule, v, 0, 4).AsDouble(),
              eval.GetCell(rule, v, 1, 4).AsDouble());
    ++satisfied;
    return true;
  });
  // Stores with non-null sales: 15M, 11M, 10M -> 3 ordered pairs.
  EXPECT_EQ(satisfied, 3u);
}

TEST_F(EvalExtraTest, NotEqualConsequenceIsDetectionOnly) {
  // A ≠-consequence deduces no fix in the chase (there is no value to
  // assign), but it still constrains EIDs via AddEidDistinct.
  rules::Ree rule = Parse(
      "Person(t0) ^ Person(t1) ^ t0.gender != t1.gender -> "
      "t0.eid != t1.eid");
  chase::ChaseEngine engine(&data_.db, &data_.graph, &models_);
  chase::ChaseResult result = engine.Run({rule});
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.fixes_applied, 0u);  // distinctness facts recorded
  // A later attempt to merge a male with a female person conflicts.
  bool changed = false;
  common::RoleGuard apply(engine.fix_store().apply_role());
  Status s = engine.fix_store().MergeEids(101, 103, "er", &changed);
  EXPECT_EQ(s.code(), StatusCode::kConflict);
}

// ---------- Conflict-resolution paths (§4.2 (2) and (3)) ----------

TEST_F(EvalExtraTest, MiConflictResolvedByMcArgmax) {
  // Two constant rules disagree about a store's area code; M_c (trained on
  // a relation where Beijing co-occurs with 010) picks the right one.
  Relation training(Schema("T", {{"location", ValueType::kString},
                                 {"area_code", ValueType::kString}}));
  for (int i = 0; i < 10; ++i) {
    Tuple t;
    t.values = {Value::String("Beijing"), Value::String("010")};
    ASSERT_TRUE(training.Append(std::move(t)).ok());
  }
  auto correlation = std::make_shared<ml::CooccurrenceModel>();
  correlation->TrainOnRelation(training);
  // The trained model keys on attribute indices; Store's location/area
  // are attrs 3/5, so train on the Store relation itself too.
  correlation->TrainOnRelation(data_.db.relation(data_.store));
  models_.RegisterCorrelation("Mc", correlation);

  std::vector<rules::Ree> conflicting;
  conflicting.push_back(Parse(
      "Store(t0) ^ t0.location = 'Beijing' -> t0.area_code = '999'"));
  conflicting.push_back(Parse(
      "Store(t0) ^ t0.location = 'Beijing' -> t0.area_code = '021'"));
  conflicting[0].id = "bad";
  conflicting[1].id = "alt";
  chase::ChaseEngine engine(&data_.db, &data_.graph, &models_);
  // M_c assesses candidates against the tuple's VALIDATED values (§2.3),
  // so the stores' locations must be ground truth first.
  const Relation& store = data_.db.relation(data_.store);
  {
    common::RoleGuard apply(engine.fix_store().apply_role());
    for (size_t row = 0; row < store.size(); ++row) {
      if (!store.tuple(row).value(3).is_null()) {
        ASSERT_TRUE(engine.fix_store()
                        .AddGroundTruthValue(data_.store,
                                             store.tuple(row).tid, 3,
                                             store.tuple(row).value(3))
                        .ok());
      }
    }
  }
  chase::ChaseResult result = engine.Run(conflicting);
  // A value conflict occurred and was resolved via M_c argmax (not the
  // user queue).
  bool argmax_used = false;
  for (const auto& conflict : result.conflicts) {
    if (conflict.resolution.rfind("mc_argmax", 0) == 0) argmax_used = true;
  }
  EXPECT_TRUE(argmax_used);
}

TEST_F(EvalExtraTest, TdConflictRecordsConfidence) {
  // Contradictory strict orders: the second is rejected and the conflict
  // log records the (attempted) resolution.
  rules::Ree forward = Parse(
      "Person(t0) ^ Person(t1) ^ t0.status = 'single' ^ "
      "t1.status = 'married' -> t0 <[status] t1");
  rules::Ree backward = Parse(
      "Person(t0) ^ Person(t1) ^ t0.status = 'single' ^ "
      "t1.status = 'married' -> t1 <[status] t0");
  forward.id = "fwd";
  backward.id = "bwd";
  chase::ChaseEngine engine(&data_.db, &data_.graph, &models_);
  chase::ChaseResult result = engine.Run({forward, backward});
  bool td_conflict = false;
  for (const auto& conflict : result.conflicts) {
    if (conflict.kind == chase::ConflictRecord::Kind::kTemporal) {
      td_conflict = true;
      EXPECT_FALSE(conflict.resolution.empty());
    }
  }
  EXPECT_TRUE(td_conflict);
  // The store stays valid: for any pair at most one strict direction.
  const Relation& person = data_.db.relation(data_.person);
  int64_t t2 = person.tuple(1).tid;
  int64_t t3 = person.tuple(2).tid;
  auto fwd_holds = engine.fix_store().Holds(data_.person, 5, t2, t3, true);
  auto bwd_holds = engine.fix_store().Holds(data_.person, 5, t3, t2, true);
  EXPECT_FALSE(fwd_holds == std::optional<bool>(true) &&
               bwd_holds == std::optional<bool>(true));
}

TEST_F(EvalExtraTest, OverlayChangesEvaluationOutcome) {
  // A fix store overlay flips a predicate: before the fix, the rule fires;
  // after validating the corrected value, it no longer does.
  chase::FixStore store(&data_.db);
  rules::EvalContext ctx = Ctx();
  ctx.overlay = &store;
  rules::Evaluator eval(ctx);
  rules::Ree rule = Parse(
      "Trans(t0) ^ t0.mfg = 'Apple' ^ t0.com = 'Mate X2 (Limited Sold)' -> "
      "t0.price = t0.price");
  size_t before = 0;
  eval.ForEachSatisfying(rule, [&](const rules::Valuation&) {
    ++before;
    return true;
  });
  EXPECT_EQ(before, 1u);  // the erroneous Apple-branded Mate X2

  const Relation& trans = data_.db.relation(data_.trans);
  bool changed = false;
  common::RoleGuard apply(store.apply_role());
  ASSERT_TRUE(store
                  .SetValue(data_.trans, trans.tuple(4).tid, 3,
                            Value::String("Huawei"), "fix", &changed)
                  .ok());
  size_t after = 0;
  eval.ForEachSatisfying(rule, [&](const rules::Valuation&) {
    ++after;
    return true;
  });
  EXPECT_EQ(after, 0u);
}

// ---------- Cost order: model-scored predicates run last ----------

/// A pair classifier that counts its Score calls (Predict goes through
/// Score). Matches equal attribute vectors.
class CountingClassifier : public ml::PairClassifier {
 public:
  double Score(const std::vector<Value>& a,
               const std::vector<Value>& b) const override {
    ++calls_;
    return a == b ? 1.0 : 0.0;
  }
  size_t calls() const { return calls_; }

 private:
  mutable size_t calls_ = 0;
};

/// An overlay that repairs nothing and counts the cells the evaluator
/// reads through it.
class CountingOverlay : public rules::CellOverlay {
 public:
  std::optional<Value> GetCell(int, int64_t, int) const override {
    ++cell_reads_;
    return std::nullopt;
  }
  std::optional<int64_t> GetEid(int, int64_t) const override {
    return std::nullopt;
  }
  std::vector<int64_t> PatchedTids(int, int) const override { return {}; }
  std::vector<int64_t> PatchedTidsEq(int, int, uint64_t) const override {
    return {};
  }
  std::vector<int64_t> EidClass(int64_t eid) const override { return {eid}; }
  size_t cell_reads() const { return cell_reads_; }

 private:
  mutable size_t cell_reads_ = 0;
};

workload::GeneratedData SmallLogistics(size_t rows) {
  workload::GeneratorOptions options;
  options.rows = rows;
  return workload::MakeLogisticsData(options);
}

TEST(CostOrderTest, MlPairScoredOnlyAfterBothEqualities) {
  // Logistics r5: MER is written first, but it may score only the pairs
  // that pass both equalities.
  workload::GeneratedData data = SmallLogistics(120);
  auto mer = std::make_shared<CountingClassifier>();
  ml::MlLibrary models;
  models.RegisterPair("MER", mer);
  rules::EvalContext ctx;
  ctx.db = &data.db;
  ctx.models = &models;
  auto rule = rules::ParseRee(
      "Shipment(t0) ^ Shipment(t1) ^ MER(t0[recipient], t1[recipient]) ^ "
      "t0.zip = t1.zip ^ t0.order_date = t1.order_date -> t0.eid = t1.eid",
      data.db.schema());
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();

  const Relation& shipment = data.db.relation(rule->tuple_vars[0]);
  const int zip = shipment.schema().AttributeIndex("zip");
  const int date = shipment.schema().AttributeIndex("order_date");
  auto equal = [&](size_t i, size_t j, int attr) {
    const Value& a = shipment.tuple(i).value(attr);
    const Value& b = shipment.tuple(j).value(attr);
    return !a.is_null() && !b.is_null() && a == b;
  };
  size_t same_zip = 0;
  size_t both = 0;
  for (size_t i = 0; i < shipment.size(); ++i) {
    for (size_t j = 0; j < shipment.size(); ++j) {
      if (!equal(i, j, zip)) continue;
      ++same_zip;
      if (equal(i, j, date)) ++both;
    }
  }
  // Written order would score every same-zip pair.
  ASSERT_LT(both, same_zip);

  const rules::Evaluator eval(ctx);
  size_t emitted = 0;
  eval.Enumerate(*rule, rules::Scope{}, /*blocking=*/nullptr,
                 [&](const rules::Valuation&) { ++emitted; });
  EXPECT_EQ(mer->calls(), both);
  EXPECT_GT(emitted, 0u);

  const size_t before = mer->calls();
  rules::Valuation v;
  for (int i = 0; i < static_cast<int>(shipment.size()); ++i) {
    for (int j = 0; j < static_cast<int>(shipment.size()); ++j) {
      v.rows = {i, j};
      (void)eval.SatisfiesPrecondition(*rule, v);
    }
  }
  EXPECT_EQ(mer->calls() - before, both);
}

TEST(CostOrderTest, HerScoredOnlyOnVerticesWithThePath) {
  // Logistics r4: HER is written before the graph test, but it may score
  // only the vertices that have the AreaOf path. HER reads the whole
  // tuple through the overlay per vertex it scores; the match test reads
  // no cell.
  workload::GeneratedData data = SmallLogistics(40);
  auto her = std::make_shared<ml::HerModel>();
  her->IndexGraph(data.graph);
  ml::MlLibrary models;
  models.RegisterHer(her);
  CountingOverlay overlay;
  rules::EvalContext ctx;
  ctx.db = &data.db;
  ctx.graph = &data.graph;
  ctx.models = &models;
  ctx.overlay = &overlay;
  auto rule = rules::ParseRee(
      "Shipment(t0) ^ vertex(x0, G) ^ HER(t0, x0) ^ "
      "match(t0.area, x0.(AreaOf)) -> t0.area = val(x0.(AreaOf))",
      data.db.schema());
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();

  const Relation& shipment = data.db.relation(rule->tuple_vars[0]);
  const size_t num_attrs = shipment.schema().num_attributes();
  auto has_path = [&](kg::VertexId x) {
    return data.graph.HasPath(x, {"AreaOf"});
  };
  // Per row: one read of the tuple for HER's candidate lookup, then one
  // per candidate vertex that has the path.
  size_t expected = 0;
  size_t candidates = 0;
  size_t with_path = 0;
  for (size_t row = 0; row < shipment.size(); ++row) {
    expected += num_attrs;
    for (kg::VertexId x :
         her->Candidates(shipment.tuple(row).values, shipment.schema())) {
      ++candidates;
      if (!has_path(x)) continue;
      ++with_path;
      expected += num_attrs;
    }
  }
  // Written order would score every candidate.
  ASSERT_LT(with_path, candidates);

  const rules::Evaluator eval(ctx);
  size_t emitted = 0;
  eval.Enumerate(*rule, rules::Scope{}, /*blocking=*/nullptr,
                 [&](const rules::Valuation&) { ++emitted; });
  EXPECT_EQ(overlay.cell_reads(), expected);
  EXPECT_GT(emitted, 0u);

  const size_t before = overlay.cell_reads();
  size_t vertices_with_path = 0;
  rules::Valuation v;
  for (kg::VertexId x : data.graph.AllVertices()) {
    if (has_path(x)) ++vertices_with_path;
    for (int row = 0; row < static_cast<int>(shipment.size()); ++row) {
      v.rows = {row};
      v.vertices = {x};
      (void)eval.SatisfiesPrecondition(*rule, v);
    }
  }
  EXPECT_EQ(overlay.cell_reads() - before,
            num_attrs * shipment.size() * vertices_with_path);
}

}  // namespace
}  // namespace rock

#include <memory>

#include <gtest/gtest.h>

#include "src/chase/chase.h"
#include "src/chase/fix_store.h"
#include "src/common/mutex.h"
#include "src/common/rng.h"
#include "src/detect/detector.h"
#include "src/ml/correlation.h"
#include "src/ml/her.h"
#include "src/ml/library.h"
#include "src/rules/parser.h"
#include "src/workload/ecommerce.h"

namespace rock::chase {
namespace {

using rules::ParseRee;
using rules::ParseRules;
using rules::Ree;
using workload::EcommerceData;
using workload::MakeEcommerceData;

TEST(UnionFindTest, FindDefaultsToSelf) {
  UnionFind uf;
  EXPECT_EQ(uf.Find(7), 7);
}

TEST(UnionFindTest, UnionPicksSmallestCanonical) {
  UnionFind uf;
  EXPECT_EQ(uf.Union(5, 3), 3);
  EXPECT_EQ(uf.Find(5), 3);
  EXPECT_EQ(uf.Union(5, 1), 1);
  EXPECT_EQ(uf.Find(3), 1);
  EXPECT_EQ(uf.Find(5), 1);
}

TEST(UnionFindTest, MergeOrderIndependent) {
  // The canonical id of a class is its minimum regardless of merge order.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> orders = {
      {{9, 4}, {4, 6}, {6, 2}},
      {{6, 2}, {9, 4}, {4, 6}},
      {{4, 6}, {6, 2}, {2, 9}},
  };
  for (auto& merges : orders) {
    UnionFind uf;
    for (auto& [a, b] : merges) uf.Union(a, b);
    EXPECT_EQ(uf.Find(9), 2);
    EXPECT_EQ(uf.Find(4), 2);
    EXPECT_EQ(uf.Find(6), 2);
  }
}

TEST(UnionFindTest, MembersCoverClass) {
  UnionFind uf;
  uf.Union(1, 2);
  uf.Union(2, 3);
  std::vector<int64_t> members = uf.Members(3);
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, (std::vector<int64_t>{1, 2, 3}));
}

TEST(TemporalOrderStoreTest, BasicAddAndQuery) {
  TemporalOrderStore store;
  bool added = false;
  ASSERT_TRUE(store.Add(1, 2, /*strict=*/false, &added).ok());
  EXPECT_TRUE(added);
  EXPECT_EQ(store.Holds(1, 2, false), std::optional<bool>(true));
  EXPECT_EQ(store.Holds(1, 2, true), std::nullopt);  // ⪯ known, ≺ not
  EXPECT_EQ(store.Holds(2, 1, false), std::nullopt);
}

TEST(TemporalOrderStoreTest, TransitivityViaReachability) {
  TemporalOrderStore store;
  bool added;
  ASSERT_TRUE(store.Add(1, 2, false, &added).ok());
  ASSERT_TRUE(store.Add(2, 3, true, &added).ok());
  EXPECT_EQ(store.Holds(1, 3, false), std::optional<bool>(true));
  EXPECT_EQ(store.Holds(1, 3, true), std::optional<bool>(true));
  // Strict edge forbids the reverse.
  EXPECT_EQ(store.Holds(3, 1, false), std::optional<bool>(false));
}

TEST(TemporalOrderStoreTest, RejectsStrictCycle) {
  TemporalOrderStore store;
  bool added;
  ASSERT_TRUE(store.Add(1, 2, true, &added).ok());
  Status s = store.Add(2, 1, false, &added);
  EXPECT_EQ(s.code(), StatusCode::kConflict);
  s = store.Add(2, 1, true, &added);
  EXPECT_EQ(s.code(), StatusCode::kConflict);
}

TEST(TemporalOrderStoreTest, AllowsNonStrictCycle) {
  // t1 ⪯ t2 and t2 ⪯ t1 means "equally current" — valid (paper §4.1 only
  // rejects cycles that contradict a strict order).
  TemporalOrderStore store;
  bool added;
  ASSERT_TRUE(store.Add(1, 2, false, &added).ok());
  EXPECT_TRUE(store.Add(2, 1, false, &added).ok());
  EXPECT_EQ(store.Holds(2, 1, false), std::optional<bool>(true));
}

TEST(TemporalOrderStoreTest, StrictOnSelfConflicts) {
  TemporalOrderStore store;
  bool added;
  EXPECT_EQ(store.Add(4, 4, true, &added).code(), StatusCode::kConflict);
  EXPECT_TRUE(store.Add(4, 4, false, &added).ok());
  EXPECT_FALSE(added);  // reflexive ⪯ is implicit
}

class FixStoreTest : public ::testing::Test {
 protected:
  void SetUp() override { data_ = MakeEcommerceData(); }
  EcommerceData data_;
};

TEST_F(FixStoreTest, GroundTruthValidatesCells) {
  FixStore store(&data_.db);
  common::RoleGuard apply(store.apply_role());  // single-threaded test body
  int64_t tid = data_.db.relation(data_.person).tuple(0).tid;
  ASSERT_TRUE(store.AddGroundTruthTuple(data_.person, tid).ok());
  EXPECT_TRUE(store.IsValidated(data_.person, tid, 1));
  EXPECT_EQ(store.ValidatedValue(data_.person, tid, 1)->AsString(), "Jones");
  EXPECT_GT(store.num_ground_truth_cells(), 0u);
}

TEST_F(FixStoreTest, SetValueConflictsOnDisagreement) {
  FixStore store(&data_.db);
  common::RoleGuard apply(store.apply_role());
  int64_t tid = data_.db.relation(data_.person).tuple(0).tid;
  bool changed = false;
  ASSERT_TRUE(store
                  .SetValue(data_.person, tid, 4,
                            Value::String("5 Beijing West Road"), "r1",
                            &changed)
                  .ok());
  EXPECT_TRUE(changed);
  // Same value again: idempotent.
  ASSERT_TRUE(store
                  .SetValue(data_.person, tid, 4,
                            Value::String("5 Beijing West Road"), "r1",
                            &changed)
                  .ok());
  EXPECT_FALSE(changed);
  // Different value: conflict.
  Status s = store.SetValue(data_.person, tid, 4, Value::String("elsewhere"),
                            "r2", &changed);
  EXPECT_EQ(s.code(), StatusCode::kConflict);
}

TEST_F(FixStoreTest, ValueFixesAreTupleScoped) {
  // Person rows 1 and 2 share eid 102 (p2) but are distinct versions of
  // the entity: a fix through one tid must NOT leak to the other (temporal
  // versions may legitimately hold different values; see DESIGN.md).
  FixStore store(&data_.db);
  common::RoleGuard apply(store.apply_role());
  const Relation& person = data_.db.relation(data_.person);
  int64_t tid_row1 = person.tuple(1).tid;
  int64_t tid_row2 = person.tuple(2).tid;
  bool changed;
  ASSERT_TRUE(store
                  .SetValue(data_.person, tid_row1, 4,
                            Value::String("12 Beijing Road"), "r", &changed)
                  .ok());
  EXPECT_EQ(store.ValidatedValue(data_.person, tid_row1, 4)->AsString(),
            "12 Beijing Road");
  EXPECT_FALSE(store.ValidatedValue(data_.person, tid_row2, 4).has_value());
}

TEST_F(FixStoreTest, MergeUnifiesCanonicalEids) {
  FixStore store(&data_.db);
  common::RoleGuard apply(store.apply_role());
  const Relation& person = data_.db.relation(data_.person);
  int64_t tid_p4 = person.tuple(4).tid;  // eid 104
  bool changed;
  ASSERT_TRUE(store.MergeEids(103, 104, "er", &changed).ok());
  EXPECT_TRUE(changed);
  EXPECT_EQ(store.CanonicalEid(data_.person, tid_p4), 103);
  // Idempotent.
  ASSERT_TRUE(store.MergeEids(104, 103, "er", &changed).ok());
  EXPECT_FALSE(changed);
}

TEST_F(FixStoreTest, DistinctnessBlocksMerge) {
  FixStore store(&data_.db);
  common::RoleGuard apply(store.apply_role());
  bool changed;
  ASSERT_TRUE(store.AddEidDistinct(1, 2, "r", &changed).ok());
  Status s = store.MergeEids(1, 2, "er", &changed);
  EXPECT_EQ(s.code(), StatusCode::kConflict);
  // And the reverse: merging then distinct also conflicts.
  FixStore store2(&data_.db);
  common::RoleGuard apply2(store2.apply_role());
  ASSERT_TRUE(store2.MergeEids(1, 2, "er", &changed).ok());
  EXPECT_EQ(store2.AddEidDistinct(1, 2, "r", &changed).code(),
            StatusCode::kConflict);
}

TEST_F(FixStoreTest, PatchedTidsListsFixedTuples) {
  FixStore store(&data_.db);
  common::RoleGuard apply(store.apply_role());
  const Relation& person = data_.db.relation(data_.person);
  bool changed;
  ASSERT_TRUE(store
                  .SetValue(data_.person, person.tuple(1).tid, 4,
                            Value::String("x"), "r", &changed)
                  .ok());
  std::vector<int64_t> patched = store.PatchedTids(data_.person, 4);
  ASSERT_EQ(patched.size(), 1u);
  EXPECT_EQ(patched[0], person.tuple(1).tid);
}

TEST_F(FixStoreTest, PatchedListsHoldChangedCellsOnly) {
  FixStore store(&data_.db);
  common::RoleGuard apply(store.apply_role());
  const int rel = data_.person;
  const int attr = 1;
  const Tuple& same = data_.db.relation(rel).tuple(0);
  const Tuple& moved = data_.db.relation(rel).tuple(1);
  const Value raw = moved.value(attr);
  const Value fresh = Value::String(raw.AsString() + "-fixed");
  auto eq = [&](const Value& value) {
    return store.PatchedTidsEq(rel, attr, value.Hash());
  };
  using Tids = std::vector<int64_t>;

  // A Γ cell equal to its raw value is in neither list.
  ASSERT_TRUE(store.AddGroundTruthTuple(rel, same.tid).ok());
  EXPECT_EQ(store.PatchedTids(rel, attr), Tids{});
  EXPECT_EQ(eq(same.value(attr)), Tids{});

  // A differing cell is listed, and only under its new value's hash.
  bool changed = false;
  ASSERT_TRUE(
      store.SetValue(rel, moved.tid, attr, fresh, "r", &changed).ok());
  EXPECT_EQ(store.PatchedTids(rel, attr), Tids{moved.tid});
  EXPECT_EQ(eq(fresh), Tids{moved.tid});
  EXPECT_EQ(eq(raw), Tids{});

  // Replaced back to its raw value, the cell leaves both lists.
  ASSERT_TRUE(store.ReplaceValue(rel, moved.tid, attr, raw, "mc").ok());
  EXPECT_EQ(store.PatchedTids(rel, attr), Tids{});
  EXPECT_EQ(eq(fresh), Tids{});
  EXPECT_EQ(eq(raw), Tids{});
  EXPECT_EQ(*store.ValidatedValue(rel, moved.tid, attr), raw);
}

class ChaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = MakeEcommerceData();
    auto mer = std::make_shared<ml::SimilarityClassifier>(0.6);
    models_.RegisterPair("MER", mer);
    auto corr = std::make_shared<ml::CooccurrenceModel>();
    corr->TrainOnRelation(data_.db.relation(data_.trans));
    models_.RegisterCorrelation("Mc", corr);
    models_.RegisterPredictor("Md", corr);
  }

  Ree Parse(const std::string& text) {
    auto rule = ParseRee(text, data_.db.schema());
    EXPECT_TRUE(rule.ok()) << rule.status().ToString();
    Ree out = rule.ok() ? *rule : Ree{};
    out.id = text.substr(0, 24);
    return out;
  }

  EcommerceData data_;
  ml::MlLibrary models_;
};

// The paper's Example 7: ER helps CR helps TD helps MI helps ER, all in one
// chase. We reproduce the chain on the example database.
TEST_F(ChaseTest, Example7InteractionChain) {
  std::vector<Ree> rules;
  // φ1 (ER): same discount code, date, store => same buyer entity.
  rules.push_back(Parse(
      "Trans(t0) ^ Trans(t1) ^ MER(t0[com], t1[com]) ^ t0.date = t1.date ^ "
      "t0.sid = t1.sid -> t0.pid = t1.pid"));
  // φ13 (CR): same pid + same LN/FN/gender/status => same home.
  rules.push_back(Parse(
      "Person(t0) ^ Person(t1) ^ t0.pid = t1.pid ^ t0.LN = t1.LN ^ "
      "t0.FN = t1.FN ^ t0.status = t1.status -> t0.home = t1.home"));
  // φ14 (MI): spouse's more recent home fills a missing home.
  rules.push_back(Parse(
      "Person(t0) ^ Person(t1) ^ t0.spouse = t1.pid ^ "
      "null(t1.home) -> t1.home = t0.home"));
  // φ15 (ER): same name + home => same person.
  rules.push_back(Parse(
      "Person(t0) ^ Person(t1) ^ t0.LN = t1.LN ^ t0.FN = t1.FN ^ "
      "t0.home = t1.home ^ t0.gender = t1.gender -> t0.eid = t1.eid"));

  ChaseEngine engine(&data_.db, &data_.graph, &models_);
  ChaseResult result = engine.Run(rules);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.fixes_applied, 0u);

  // MI: p4 (row 4) home imputed from spouse p2 (t3: 12 Beijing Road).
  const Relation& person = data_.db.relation(data_.person);
  auto home = engine.fix_store().ValidatedValue(data_.person,
                                                person.tuple(4).tid, 4);
  ASSERT_TRUE(home.has_value());
  EXPECT_EQ(home->AsString(), "12 Beijing Road");

  // ER: p3 and p4 identified (George Smith at 12 Beijing Road).
  EXPECT_EQ(engine.fix_store().eids().Find(104), 103);
}

TEST_F(ChaseTest, ChaseIsChurchRosser) {
  // Shuffling rule order must converge to the same fix store contents.
  std::vector<Ree> rules;
  rules.push_back(Parse(
      "Trans(t0) ^ Trans(t1) ^ MER(t0[com], t1[com]) ^ t0.date = t1.date ^ "
      "t0.sid = t1.sid -> t0.pid = t1.pid"));
  rules.push_back(Parse(
      "Person(t0) ^ Person(t1) ^ t0.spouse = t1.pid ^ null(t1.home) -> "
      "t1.home = t0.home"));
  rules.push_back(Parse(
      "Person(t0) ^ Person(t1) ^ t0.LN = t1.LN ^ t0.FN = t1.FN ^ "
      "t0.home = t1.home ^ t0.gender = t1.gender -> t0.eid = t1.eid"));
  rules.push_back(
      Parse("Store(t0) ^ t0.location = 'Beijing' -> t0.area_code = '010'"));

  Rng rng(99);
  std::vector<std::string> baselines;
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Ree> shuffled = rules;
    rng.Shuffle(shuffled);
    ChaseEngine engine(&data_.db, &data_.graph, &models_);
    engine.Run(shuffled);
    // Canonical summary: all cell fixes + canonical eids.
    std::string summary;
    for (const CellFix& fix : engine.CellFixes()) {
      summary += std::to_string(fix.rel) + ":" + std::to_string(fix.tid) +
                 ":" + std::to_string(fix.attr) + "=" +
                 fix.new_value.ToString() + ";";
    }
    for (int64_t eid = 100; eid < 330; ++eid) {
      summary += std::to_string(engine.fix_store().eids().Find(eid)) + ",";
    }
    baselines.push_back(summary);
  }
  for (size_t i = 1; i < baselines.size(); ++i) {
    EXPECT_EQ(baselines[i], baselines[0]) << "trial " << i;
  }
}

TEST_F(ChaseTest, ConstantRuleFillsAreaCodes) {
  std::vector<Ree> rules = {
      Parse("Store(t0) ^ t0.location = 'Beijing' -> t0.area_code = '010'")};
  ChaseEngine engine(&data_.db, &data_.graph, &models_);
  ChaseResult result = engine.Run(rules);
  EXPECT_TRUE(result.converged);
  // Stores 0 and 2 are in Beijing with null area codes.
  std::vector<CellFix> fixes = engine.CellFixes();
  int area_fixes = 0;
  for (const CellFix& fix : fixes) {
    if (fix.rel == data_.store && fix.attr == 5) {
      EXPECT_EQ(fix.new_value.AsString(), "010");
      ++area_fixes;
    }
  }
  EXPECT_EQ(area_fixes, 2);
}

TEST_F(ChaseTest, CertainModeRequiresValidatedPremises) {
  std::vector<Ree> rules = {
      Parse("Store(t0) ^ t0.location = 'Beijing' -> t0.area_code = '010'")};
  ChaseOptions options;
  options.certain_fixes_only = true;
  ChaseEngine engine(&data_.db, &data_.graph, &models_, options);
  // Without ground truth nothing is validated, so nothing fires.
  ChaseResult result = engine.Run(rules);
  EXPECT_EQ(result.fixes_applied, 0u);

  // Validate store 0's location; now exactly one fix fires.
  ChaseEngine engine2(&data_.db, &data_.graph, &models_, options);
  const Relation& store = data_.db.relation(data_.store);
  {
    common::RoleGuard apply(engine2.fix_store().apply_role());
    ASSERT_TRUE(engine2.fix_store()
                    .AddGroundTruthValue(data_.store, store.tuple(0).tid, 3,
                                         Value::String("Beijing"))
                    .ok());
  }
  ChaseResult result2 = engine2.Run(rules);
  EXPECT_EQ(result2.fixes_applied, 1u);
}

TEST_F(ChaseTest, TemporalRulesDeduceOrders) {
  // φ4: single ⪯status married.
  std::vector<Ree> rules = {Parse(
      "Person(t0) ^ Person(t1) ^ t0.status = 'single' ^ "
      "t1.status = 'married' -> t0 <=[status] t1")};
  ChaseEngine engine(&data_.db, &data_.graph, &models_);
  ChaseResult result = engine.Run(rules);
  EXPECT_TRUE(result.converged);
  const Relation& person = data_.db.relation(data_.person);
  // Row 1 (single) ⪯status row 2 (married).
  auto holds = engine.fix_store().Holds(data_.person, 5,
                                        person.tuple(1).tid,
                                        person.tuple(2).tid, false);
  EXPECT_EQ(holds, std::optional<bool>(true));
}

TEST_F(ChaseTest, ComonotonicTdChain) {
  // φ4 then φ5: status order propagates to home order.
  std::vector<Ree> rules;
  rules.push_back(Parse(
      "Person(t0) ^ Person(t1) ^ t0.status = 'single' ^ "
      "t1.status = 'married' -> t0 <=[status] t1"));
  rules.push_back(Parse(
      "Person(t0) ^ Person(t1) ^ t0 <=[status] t1 -> t0 <=[home] t1"));
  ChaseEngine engine(&data_.db, &data_.graph, &models_);
  engine.Run(rules);
  const Relation& person = data_.db.relation(data_.person);
  auto holds = engine.fix_store().Holds(data_.person, 4,
                                        person.tuple(1).tid,
                                        person.tuple(2).tid, false);
  EXPECT_EQ(holds, std::optional<bool>(true));
}

TEST_F(ChaseTest, MiPredictionFillsMissingPrice) {
  // Seed Mc/Md with a price-bearing relation: prices correlate with com.
  std::vector<Ree> rules = {Parse(
      "Trans(t0) ^ null(t0.price) -> t0.price = Md(t0[com,mfg], price)")};
  ChaseEngine engine(&data_.db, &data_.graph, &models_);
  ChaseResult result = engine.Run(rules);
  EXPECT_TRUE(result.converged);
  const Relation& trans = data_.db.relation(data_.trans);
  // Row 4 (Mate X2, price null) gets the price co-occurring with Mate X2.
  auto price = engine.fix_store().ValidatedValue(data_.trans,
                                                 trans.tuple(4).tid, 4);
  ASSERT_TRUE(price.has_value());
  EXPECT_DOUBLE_EQ(price->AsDouble(), 5200.0);
}

TEST_F(ChaseTest, GraphExtractionFillsLocation) {
  auto her = std::make_shared<ml::HerModel>();
  her->IndexGraph(data_.graph);
  models_.RegisterHer(her);
  auto matcher = std::make_shared<ml::PathMatchModel>();
  matcher->AddSynonym("location", {"LocationAt"});
  models_.RegisterPathMatcher(matcher);

  std::vector<Ree> rules = {Parse(
      "Store(t0) ^ vertex(x0, G) ^ HER(t0, x0) ^ "
      "match(t0.location, x0.(LocationAt)) -> "
      "t0.location = val(x0.(LocationAt))")};
  ChaseEngine engine(&data_.db, &data_.graph, &models_);
  ChaseResult result = engine.Run(rules);
  EXPECT_TRUE(result.converged);
  // Store row 1 (Apple Taobao Flagship) had a null location; its graph
  // vertex points at Beijing.
  const Relation& store = data_.db.relation(data_.store);
  auto loc = engine.fix_store().ValidatedValue(data_.store,
                                               store.tuple(1).tid, 3);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->AsString(), "Beijing");
}

// A valuation is its tuple rows *and* its vertex bindings: when one tuple
// HER-matches two graph vertices, detection and the chase must see two
// valuations on every path, the incremental and lazy ones included.
TEST_F(ChaseTest, TwinVertexValuationsSurviveDeltaEnumeration) {
  // A twin of the "Apple Taobao Flagship" vertex, located elsewhere.
  const kg::VertexId twin = data_.graph.AddVertex("Apple Taobao Flagship");
  const kg::VertexId hangzhou = data_.graph.AddVertex("Hangzhou");
  ASSERT_TRUE(data_.graph.AddEdge(twin, "LocationAt", hangzhou).ok());
  auto her = std::make_shared<ml::HerModel>();
  her->IndexGraph(data_.graph);
  models_.RegisterHer(her);
  auto matcher = std::make_shared<ml::PathMatchModel>();
  matcher->AddSynonym("location", {"LocationAt"});
  models_.RegisterPathMatcher(matcher);
  std::vector<Ree> rules = {Parse(
      "Store(t0) ^ vertex(x0, G) ^ HER(t0, x0) ^ "
      "match(t0.location, x0.(LocationAt)) -> "
      "t0.location = val(x0.(LocationAt))")};
  const Relation& store = data_.db.relation(data_.store);
  const int64_t flagship = store.tuple(1).tid;  // null location
  std::vector<std::pair<int, int64_t>> all_stores;
  for (size_t row = 0; row < store.size(); ++row) {
    all_stores.emplace_back(data_.store, store.tuple(row).tid);
  }

  rules::EvalContext ctx;
  ctx.db = &data_.db;
  ctx.graph = &data_.graph;
  ctx.models = &models_;
  const detect::ErrorDetector detector(ctx);
  const detect::DetectionReport batch = detector.Detect(rules);
  size_t flagship_errors = 0;
  for (const detect::ErrorRecord& error : batch.errors) {
    if (error.cells[0].tid == flagship) ++flagship_errors;
  }
  ASSERT_EQ(flagship_errors, 2u);  // one per matched vertex
  EXPECT_TRUE(detector.DetectIncremental(rules, all_stores) == batch);
  const detect::DetectionReport one_tuple =
      detector.DetectIncremental(rules, {{data_.store, flagship}});
  EXPECT_EQ(one_tuple.violations, flagship_errors);

  // The twin's valuation conflicts with the location the original vertex
  // deduces, in the full round and in every lazy round alike.
  ChaseEngine full(&data_.db, &data_.graph, &models_);
  const ChaseResult full_result = full.Run(rules);
  ChaseEngine lazy(&data_.db, &data_.graph, &models_);
  const ChaseResult lazy_result = lazy.RunIncremental(rules, all_stores);
  ASSERT_FALSE(full_result.conflicts.empty());
  EXPECT_EQ(lazy_result.applications, full_result.applications);
  EXPECT_EQ(lazy_result.conflicts.size(), full_result.conflicts.size());
  EXPECT_EQ(lazy.CellFixes().size(), full.CellFixes().size());
  ChaseEngine one(&data_.db, &data_.graph, &models_);
  EXPECT_FALSE(
      one.RunIncremental(rules, {{data_.store, flagship}}).conflicts.empty());
}

TEST_F(ChaseTest, IncrementalChaseOnlyTouchesDelta) {
  std::vector<Ree> rules = {
      Parse("Store(t0) ^ t0.location = 'Beijing' -> t0.area_code = '010'")};
  // Insert a new Beijing store, then chase incrementally.
  Tuple t;
  t.values = {Value::String("s6"), Value::String("Xiaomi Home"),
              Value::String("Electron."), Value::String("Beijing"),
              Value::Double(1e6), Value::Null()};
  auto tid = data_.db.Insert(data_.store, t);
  ASSERT_TRUE(tid.ok());

  ChaseEngine engine(&data_.db, &data_.graph, &models_);
  ChaseResult result =
      engine.RunIncremental(rules, {{data_.store, *tid}});
  EXPECT_TRUE(result.converged);
  // Only the new store gets the fix; the two pre-existing Beijing stores
  // are untouched because they were not dirty.
  std::vector<CellFix> fixes = engine.CellFixes();
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_EQ(fixes[0].tid, *tid);
  EXPECT_EQ(fixes[0].new_value.AsString(), "010");
}

TEST_F(ChaseTest, IncrementalAgreesWithBatchOnDelta) {
  std::vector<Ree> rules;
  rules.push_back(Parse(
      "Person(t0) ^ Person(t1) ^ t0.spouse = t1.pid ^ null(t1.home) -> "
      "t1.home = t0.home"));
  // Batch baseline.
  ChaseEngine batch(&data_.db, &data_.graph, &models_);
  batch.Run(rules);
  auto batch_fixes = batch.CellFixes();

  // Incremental with the whole database marked dirty must agree.
  std::vector<std::pair<int, int64_t>> all_dirty;
  for (size_t rel = 0; rel < data_.db.num_relations(); ++rel) {
    const Relation& relation = data_.db.relation(static_cast<int>(rel));
    for (size_t row = 0; row < relation.size(); ++row) {
      all_dirty.emplace_back(static_cast<int>(rel),
                             relation.tuple(row).tid);
    }
  }
  ChaseEngine inc(&data_.db, &data_.graph, &models_);
  inc.RunIncremental(rules, all_dirty);
  auto inc_fixes = inc.CellFixes();
  ASSERT_EQ(batch_fixes.size(), inc_fixes.size());
  for (size_t i = 0; i < batch_fixes.size(); ++i) {
    EXPECT_EQ(batch_fixes[i].tid, inc_fixes[i].tid);
    EXPECT_EQ(batch_fixes[i].new_value, inc_fixes[i].new_value);
  }
}

TEST_F(ChaseTest, FixLogJustifiesEveryFix) {
  std::vector<Ree> rules = {
      Parse("Store(t0) ^ t0.location = 'Beijing' -> t0.area_code = '010'")};
  rules[0].id = "phi12";
  ChaseEngine engine(&data_.db, &data_.graph, &models_);
  engine.Run(rules);
  for (const FixRecord& record : engine.fix_store().fixes()) {
    EXPECT_EQ(record.rule_id, "phi12") << record.ToString();
  }
  EXPECT_EQ(engine.fix_store().fixes().size(), 2u);
}

TEST_F(ChaseTest, MaterializeAppliesAllFixes) {
  std::vector<Ree> rules = {
      Parse("Store(t0) ^ t0.location = 'Beijing' -> t0.area_code = '010'")};
  ChaseEngine engine(&data_.db, &data_.graph, &models_);
  engine.Run(rules);
  Database repaired = engine.MaterializeRepairs();
  const Relation& store = repaired.relation(data_.store);
  EXPECT_EQ(store.tuple(0).value(5).AsString(), "010");
  EXPECT_EQ(store.tuple(2).value(5).AsString(), "010");
  // Shanghai store untouched.
  EXPECT_EQ(store.tuple(3).value(5).AsString(), "021");
}

TEST_F(ChaseTest, EntityGroupsReportMerges) {
  std::vector<Ree> rules = {Parse(
      "Person(t0) ^ Person(t1) ^ t0.LN = t1.LN ^ t0.FN = t1.FN ^ "
      "t0.home = t1.home ^ t0.gender = t1.gender -> t0.eid = t1.eid")};
  ChaseEngine engine(&data_.db, &data_.graph, &models_);
  engine.Run(rules);
  // p3 and p4 do not merge yet (p4.home is null) — only the two p2 rows
  // share an entity already, and they were the same entity to begin with.
  auto groups = engine.EntityGroups();
  // Rows 1,2 share eid 102 from construction: one group of size 2.
  ASSERT_GE(groups.size(), 1u);
}

}  // namespace
}  // namespace rock::chase

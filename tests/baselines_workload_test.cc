#include <memory>

#include <gtest/gtest.h>

#include "src/baselines/baselines.h"
#include "src/common/strings.h"
#include "src/core/quality.h"
#include "src/discovery/evidence.h"
#include "src/ml/library.h"
#include "src/rules/parser.h"
#include "src/workload/ecommerce.h"
#include "src/workload/generator.h"
#include "src/workload/scoring.h"

namespace rock {
namespace {

using workload::GeneratorOptions;
using workload::InjectedError;

GeneratorOptions SmallOptions() {
  GeneratorOptions options;
  options.rows = 120;
  options.error_rate = 0.1;
  options.seed = 31;
  return options;
}

// ---------- Workload generators ----------

TEST(GeneratorTest, BankShapesAndInvariants) {
  auto data = workload::MakeBankData(SmallOptions());
  EXPECT_EQ(data.db.num_relations(), 3u);
  EXPECT_GT(data.db.TotalTuples(), 300u);
  // Payment totals: clean rows satisfy total = amount + fee + tax.
  const Relation& payment = data.db.relation(2);
  std::set<int64_t> corrupted;
  for (const auto& entry : data.errors) {
    if (entry.rel == 2) corrupted.insert(entry.tid);
  }
  for (size_t row = 0; row < payment.size(); ++row) {
    const Tuple& t = payment.tuple(row);
    if (corrupted.count(t.tid) || t.value(5).is_null()) continue;
    double expected = t.value(2).AsDouble() + t.value(3).AsDouble() +
                      t.value(4).AsDouble();
    EXPECT_NEAR(t.value(5).AsDouble(), expected, 0.01);
  }
}

TEST(GeneratorTest, ErrorLogMatchesData) {
  auto data = workload::MakeBankData(SmallOptions());
  for (const auto& entry : data.errors) {
    const Relation& relation = data.db.relation(entry.rel);
    int row = relation.RowOfTid(entry.tid);
    ASSERT_GE(row, 0);
    const Tuple& t = relation.tuple(static_cast<size_t>(row));
    switch (entry.type) {
      case InjectedError::kNull:
        EXPECT_TRUE(t.value(entry.attr).is_null());
        EXPECT_FALSE(entry.clean_value.is_null());
        break;
      case InjectedError::kConflict:
        EXPECT_FALSE(t.value(entry.attr) == entry.clean_value);
        break;
      case InjectedError::kDuplicate: {
        int orig = relation.RowOfTid(entry.tid2);
        ASSERT_GE(orig, 0);
        // The clone wrongly has its own entity.
        EXPECT_NE(t.eid, relation.tuple(static_cast<size_t>(orig)).eid);
        break;
      }
      case InjectedError::kStale: {
        int current = relation.RowOfTid(entry.tid2);
        ASSERT_GE(current, 0);
        // Versions share the entity; the stale one has the older stamp.
        EXPECT_EQ(t.eid, relation.tuple(static_cast<size_t>(current)).eid);
        EXPECT_LT(t.timestamp(entry.attr),
                  relation.tuple(static_cast<size_t>(current))
                      .timestamp(entry.attr));
        break;
      }
    }
  }
}

TEST(GeneratorTest, StaleLogSurvivesCustomerReallocation) {
  // The stale-version loop appends to Customer while it logs the current
  // version. A data set whose Customer relation crosses 512 tuples inside
  // that loop makes an append reallocate; every kStale entry must still log
  // the current tuple's city as generated.
  bool crossed = false;
  for (size_t rows = 400; rows <= 520 && !crossed; rows += 8) {
    GeneratorOptions options = SmallOptions();
    options.rows = rows;
    auto data = workload::MakeBankData(options);
    const Relation& customer = data.db.relation(0);
    size_t stale = 0;
    for (const auto& entry : data.errors) {
      if (entry.type == InjectedError::kStale) ++stale;
    }
    if (customer.size() - stale > 512 || customer.size() <= 512) continue;
    crossed = true;
    for (const auto& entry : data.errors) {
      if (entry.type != InjectedError::kStale) continue;
      int current = customer.RowOfTid(entry.tid2);
      ASSERT_GE(current, 0);
      const Value& city =
          customer.tuple(static_cast<size_t>(current)).value(entry.attr);
      EXPECT_TRUE(city == entry.clean_value)
          << "rows=" << rows << " tid2=" << entry.tid2 << ": "
          << city.ToString() << " vs " << entry.clean_value.ToString();
    }
  }
  EXPECT_TRUE(crossed) << "no size crossed 512 Customer tuples mid-loop";
}

TEST(GeneratorTest, CleanTuplesCarryNoErrors) {
  auto data = workload::MakeLogisticsData(SmallOptions());
  std::set<std::pair<int, int64_t>> truth = workload::TruthTuples(data);
  for (const auto& clean : data.clean_tuples) {
    EXPECT_EQ(truth.count(clean), 0u);
  }
}

TEST(GeneratorTest, DeterministicUnderSeed) {
  auto a = workload::MakeSalesData(SmallOptions());
  auto b = workload::MakeSalesData(SmallOptions());
  ASSERT_EQ(a.db.TotalTuples(), b.db.TotalTuples());
  ASSERT_EQ(a.errors.size(), b.errors.size());
  for (size_t i = 0; i < a.errors.size(); ++i) {
    EXPECT_EQ(a.errors[i].tid, b.errors[i].tid);
    EXPECT_EQ(static_cast<int>(a.errors[i].type),
              static_cast<int>(b.errors[i].type));
  }
}

TEST(GeneratorTest, RuleTextParsesForEveryApp) {
  for (const char* app : {"Bank", "Logistics", "Sales"}) {
    auto data = workload::MakeAppData(app, SmallOptions());
    auto rules = rules::ParseRules(data.rule_text, data.db.schema());
    ASSERT_TRUE(rules.ok()) << app << ": " << rules.status().ToString();
    EXPECT_GE(rules->size(), 5u) << app;
  }
}

TEST(GeneratorTest, TypoInjectionChangesString) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    std::string original = "James Smith 42";
    std::string typo = workload::InjectTypo(original, &rng);
    EXPECT_NE(typo, original);
    EXPECT_GT(JaroWinkler(original, typo), 0.8);
  }
}

// ---------- Scoring ----------

TEST(ScoringTest, PrfArithmetic) {
  workload::Prf prf;
  prf.true_positives = 8;
  prf.false_positives = 2;
  prf.false_negatives = 8;
  EXPECT_DOUBLE_EQ(prf.precision(), 0.8);
  EXPECT_DOUBLE_EQ(prf.recall(), 0.5);
  EXPECT_NEAR(prf.f1(), 0.6154, 1e-3);
  workload::Prf empty;
  EXPECT_DOUBLE_EQ(empty.f1(), 0.0);
}

TEST(ScoringTest, DetectionCountsFlaggedTruth) {
  auto data = workload::MakeBankData(SmallOptions());
  auto truth = workload::TruthTuples(data);
  // Flag exactly the truth: perfect score.
  workload::Prf perfect = workload::ScoreDetection(data, truth);
  EXPECT_DOUBLE_EQ(perfect.f1(), 1.0);
  // Flag nothing: recall 0.
  workload::Prf nothing = workload::ScoreDetection(data, {});
  EXPECT_DOUBLE_EQ(nothing.recall(), 0.0);
  // Flag one clean tuple: a false positive.
  std::set<std::pair<int, int64_t>> wrong = {data.clean_tuples[0]};
  workload::Prf fp = workload::ScoreDetection(data, wrong);
  EXPECT_EQ(fp.false_positives, 1u);
}

TEST(ScoringTest, TaskFilterRestrictsTruth) {
  auto data = workload::MakeBankData(SmallOptions());
  workload::TaskFilter task;
  task.name = "TPA";
  task.types = {InjectedError::kConflict, InjectedError::kNull};
  task.rels = {2};
  auto truth = workload::TruthTuples(data);
  workload::Prf prf = workload::ScoreDetectionTask(data, truth, task);
  // Flagging everything gives perfect recall on the task subset and no
  // false positives (other flags are out of the task's relations or on
  // known-dirty tuples).
  EXPECT_DOUBLE_EQ(prf.recall(), 1.0);
  EXPECT_EQ(prf.false_positives, 0u);
}

// ---------- Baselines ----------

TEST(T5sTest, FlagsImprobableTextAndNulls) {
  auto data = workload::MakeLogisticsData(SmallOptions());
  baselines::T5sModel::Options options;
  options.epochs = 2;  // keep the test fast
  baselines::T5sModel model(options);
  model.Train(data.db);
  EXPECT_GT(model.parameters_trained(), 100000u);
  auto report = model.Detect(data.db);
  EXPECT_GT(report.violations, 0u);
  // Every null cell scores rock-bottom.
  const Relation& shipment = data.db.relation(0);
  for (size_t row = 0; row < shipment.size() && row < 50; ++row) {
    const Tuple& t = shipment.tuple(row);
    for (size_t attr = 0; attr < t.values.size(); ++attr) {
      if (t.values[attr].is_null()) {
        EXPECT_LT(model.CellScore(0, t, static_cast<int>(attr)), -1e20);
      }
    }
  }
}

TEST(T5sTest, SuggestsNearbyFrequentValue) {
  auto data = workload::MakeLogisticsData(SmallOptions());
  baselines::T5sModel::Options options;
  options.epochs = 2;
  baselines::T5sModel model(options);
  model.Train(data.db);
  // A shipment with a typo'd seller name: the suggestion should be a
  // known value within small edit distance.
  for (const auto& entry : data.errors) {
    if (entry.type != InjectedError::kConflict || entry.attr != 7) continue;
    const Relation& rel = data.db.relation(entry.rel);
    int row = rel.RowOfTid(entry.tid);
    Value suggestion = model.SuggestCorrection(
        data.db, entry.rel, rel.tuple(static_cast<size_t>(row)), entry.attr);
    if (!suggestion.is_null()) {
      EXPECT_LE(EditDistance(suggestion.ToString(),
                             rel.tuple(static_cast<size_t>(row))
                                 .value(entry.attr).ToString()),
                3);
    }
    break;
  }
}

TEST(RbTest, SupervisedDetectionBeatsChance) {
  auto data = workload::MakeLogisticsData(SmallOptions());
  std::vector<std::pair<int, int64_t>> tuples;
  std::vector<std::tuple<int, int64_t, int>> errors;
  // Train on 60% of labels.
  size_t take = data.clean_tuples.size() * 6 / 10;
  for (size_t i = 0; i < take; ++i) tuples.push_back(data.clean_tuples[i]);
  for (size_t i = 0; i < data.errors.size() * 6 / 10; ++i) {
    const auto& entry = data.errors[i];
    if (entry.attr < 0) continue;
    tuples.emplace_back(entry.rel, entry.tid);
    errors.emplace_back(entry.rel, entry.tid, entry.attr);
  }
  baselines::RbCleaner::Options options;
  options.trees = 10;
  baselines::RbCleaner cleaner(options);
  cleaner.Train(data.db, tuples, errors);
  EXPECT_GT(cleaner.features_generated(), 0u);
  auto report = cleaner.Detect(data.db);
  workload::Prf prf = workload::ScoreDetection(data, report.DirtyTuples());
  EXPECT_GT(prf.f1(), 0.3);
}

TEST(SqlEngineTest, TranslatesReeToSql) {
  auto data = workload::MakeEcommerceData();
  auto rule = rules::ParseRee(
      "Trans(t0) ^ Trans(t1) ^ MER(t0[com], t1[com]) ^ t0.sid = t1.sid -> "
      "t0.mfg = t1.mfg",
      data.db.schema());
  ASSERT_TRUE(rule.ok());
  rules::EvalContext ctx;
  ctx.db = &data.db;
  baselines::NaiveSqlEngine engine(ctx);
  std::string sql = engine.ToSql(*rule);
  EXPECT_NE(sql.find("SELECT"), std::string::npos);
  EXPECT_NE(sql.find("FROM Trans t0, Trans t1"), std::string::npos);
  EXPECT_NE(sql.find("udf_MER(t0, t1)"), std::string::npos);
  EXPECT_NE(sql.find("NOT (t0.mfg = t1.mfg)"), std::string::npos);
}

TEST(SqlEngineTest, DetectMatchesRockWithoutBlocking) {
  auto data = workload::MakeEcommerceData();
  ml::MlLibrary models;
  models.RegisterPair("MER", std::make_shared<ml::SimilarityClassifier>(0.6));
  auto rule = rules::ParseRee(
      "Trans(t0) ^ Trans(t1) ^ t0.com = t1.com -> t0.mfg = t1.mfg",
      data.db.schema());
  ASSERT_TRUE(rule.ok());
  rules::EvalContext ctx;
  ctx.db = &data.db;
  ctx.models = &models;
  baselines::NaiveSqlEngine engine(ctx);
  auto report = engine.Detect({*rule});
  EXPECT_EQ(report.violations, 2u);
}

TEST(EsMinerTest, ExploresWithoutPruning) {
  auto data = workload::MakeLogisticsData(SmallOptions());
  rules::EvalContext ctx;
  ctx.db = &data.db;
  rules::Evaluator eval(ctx);
  discovery::PredicateSpaceOptions space_options;
  space_options.max_constants_per_attr = 0;
  auto space = discovery::BuildPairSpace(data.db, 0, space_options);
  baselines::EsMiner miner(0.9);
  auto rules = miner.Mine(eval, space);
  EXPECT_GT(miner.candidates_explored(), 100u);
  for (const auto& rule : rules) {
    EXPECT_GE(rule.confidence, 0.9);
  }
}

// ---------- Quality monitors ----------

TEST(QualityTest, CompletenessAndConsistency) {
  auto data = workload::MakeLogisticsData(SmallOptions());
  auto rules = rules::ParseRules(data.rule_text, data.db.schema());
  ASSERT_TRUE(rules.ok());
  // Drop rules needing models (no models registered in ctx).
  std::vector<rules::Ree> logic_rules;
  for (auto& rule : *rules) {
    if (!rule.UsesMl() && rule.num_vertex_vars == 0) {
      logic_rules.push_back(rule);
    }
  }
  rules::EvalContext ctx;
  ctx.db = &data.db;
  auto report = core::AssessQuality(data.db, logic_rules, ctx);
  EXPECT_FALSE(report.attributes.empty());
  EXPECT_LT(report.OverallCompleteness(), 1.0);  // nulls injected
  EXPECT_GT(report.OverallCompleteness(), 0.7);
  EXPECT_LT(report.consistency, 1.0);  // violations present
  EXPECT_GT(report.violations, 0u);
  // ship_id is unique: zero duplication; area repeats heavily.
  for (const auto& attr : report.attributes) {
    if (attr.name == "Shipment.ship_id") {
      // Only the duplicated shipments repeat an id.
      EXPECT_LT(attr.duplication, 0.1);
    }
    if (attr.name == "Shipment.area") {
      EXPECT_GT(attr.duplication, 0.5);
    }
  }
}

TEST(QualityTest, TemplatesEvaluatePerTuple) {
  auto data = workload::MakeBankData(SmallOptions());
  core::QualityTemplate positive_totals;
  positive_totals.name = "payment totals positive";
  positive_totals.rel = 2;
  positive_totals.check = [](const Tuple& t) {
    return !t.value(5).is_null() && t.value(5).AsDouble() > 0;
  };
  auto results = core::RunQualityTemplates(data.db, {positive_totals});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].checked, 0u);
  EXPECT_GT(results[0].pass_rate(), 0.8);
  EXPECT_LT(results[0].pass_rate(), 1.0);  // nulled totals fail
}

}  // namespace
}  // namespace rock

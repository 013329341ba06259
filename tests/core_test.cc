#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/mutex.h"
#include "src/common/strings.h"
#include "src/core/engine.h"
#include "src/workload/generator.h"
#include "src/workload/scoring.h"

namespace rock::core {
namespace {

using workload::GeneratedData;
using workload::GeneratorOptions;
using workload::InjectedError;

GeneratorOptions SmallOptions() {
  GeneratorOptions options;
  options.rows = 150;
  options.error_rate = 0.08;
  options.seed = 17;
  return options;
}

ModelTrainingSpec BankSpec() {
  ModelTrainingSpec spec;
  spec.rank_targets = {{"Customer", "city"}};
  spec.monotone_attrs = {{"Customer", "points"}};
  spec.path_synonyms = {{"area", {"AreaOf"}}};
  return spec;
}

class CoreBankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = workload::MakeBankData(SmallOptions());
  }
  GeneratedData data_;
};

TEST_F(CoreBankTest, GeneratorProducesErrorsAndCleanTuples) {
  EXPECT_GT(data_.errors.size(), 10u);
  EXPECT_GT(data_.clean_tuples.size(), 100u);
  // All four channels present.
  std::set<InjectedError> kinds;
  for (const auto& e : data_.errors) kinds.insert(e.type);
  EXPECT_EQ(kinds.size(), 4u);
}

TEST_F(CoreBankTest, CuratedRulesParse) {
  Rock rock(&data_.db, &data_.graph);
  auto rules = rock.LoadRules(data_.rule_text);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_GE(rules->size(), 5u);
}

TEST_F(CoreBankTest, NoMlVariantStripsMlRules) {
  RockOptions options;
  options.variant = Variant::kNoMl;
  Rock rock(&data_.db, &data_.graph, options);
  auto rules = rock.LoadRules(data_.rule_text);
  ASSERT_TRUE(rules.ok());
  for (const auto& rule : *rules) {
    EXPECT_FALSE(rule.UsesMl());
  }
}

TEST_F(CoreBankTest, NoMlKeepsGroundTruthOnMiConflict) {
  RockOptions options;
  options.variant = Variant::kNoMl;
  Rock rock(&data_.db, &data_.graph, options);
  rock.TrainModels(BankSpec());
  // Rock_noML trains no models, so no M_c can settle an MI conflict.
  EXPECT_EQ(rock.models()->FindCorrelation(ml::kMcModel), nullptr);

  // Γ validates one customer; a constant rule then deduces another status
  // for it.
  const Relation& customers = data_.db.relation(0);
  const Tuple* seeded = nullptr;
  for (size_t row = 0; row < customers.size() && seeded == nullptr; ++row) {
    const Tuple& t = customers.tuple(row);
    if (!t.value(0).is_null() && !t.value(6).is_null()) seeded = &t;
  }
  ASSERT_NE(seeded, nullptr);
  std::string text = "Customer(t0) ^ t0.cust_id = '";
  text += seeded->value(0).AsString();
  text += "' -> t0.status = 'contradicted'";
  auto rules = rock.LoadRules(text);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();

  CorrectionResult result;
  auto engine = rock.CorrectErrors(*rules, {{0, seeded->tid}}, &result);
  ASSERT_FALSE(result.chase.conflicts.empty());
  for (const chase::ConflictRecord& conflict : result.chase.conflicts) {
    EXPECT_EQ(conflict.resolution, "kept_existing");
  }
  EXPECT_EQ(engine->fix_store().ValidatedValue(0, seeded->tid, 6),
            seeded->value(6));
}

TEST_F(CoreBankTest, DistinctEntitiesScoreNoDuplicateFalsePositive) {
  Rock rock(&data_.db, &data_.graph);
  chase::ChaseEngine engine(&data_.db, &data_.graph, rock.models());
  // The first two customers are different true entities (duplicates are
  // appended after the originals), so t.EID != s.EID between them holds.
  const Relation& customers = data_.db.relation(0);
  const int64_t a = customers.tuple(0).eid;
  const int64_t b = customers.tuple(1).eid;
  ASSERT_NE(a, b);
  bool changed = false;
  {
    common::RoleGuard apply(engine.fix_store().apply_role());
    ASSERT_TRUE(engine.fix_store()
                    .AddEidDistinct(a, b, "distinct", &changed, nullptr)
                    .ok());
  }
  ASSERT_TRUE(changed);
  const chase::FixRecord& record = engine.fix_store().fixes().back();
  EXPECT_EQ(record.kind, chase::FixRecord::Kind::kDistinctEid);
  EXPECT_EQ(record.ToString(),
            StrFormat("[distinct] eid %lld != %lld",
                      static_cast<long long>(a), static_cast<long long>(b)));

  workload::CorrectionScore score = workload::ScoreCorrection(data_, engine);
  EXPECT_EQ(score.overall.false_positives, 0u);
  EXPECT_EQ(
      score.by_type[workload::InjectedError::kDuplicate].false_positives, 0u);
}

TEST_F(CoreBankTest, DetectionFindsMostInjectedErrors) {
  Rock rock(&data_.db, &data_.graph);
  rock.TrainModels(BankSpec());
  rock.DiscoverPolynomials();
  auto rules = rock.LoadRules(data_.rule_text);
  ASSERT_TRUE(rules.ok());
  auto report = rock.DetectErrors(*rules);
  EXPECT_GT(report.violations, 0u);
  workload::Prf prf = workload::ScoreDetection(data_, report.DirtyTuples());
  EXPECT_GT(prf.f1(), 0.5) << "P=" << prf.precision()
                           << " R=" << prf.recall();
}

TEST_F(CoreBankTest, PolynomialDiscoveryFindsTotal) {
  Rock rock(&data_.db, &data_.graph);
  const std::vector<rules::Ree>& polys = rock.DiscoverPolynomials();
  // Payment.total = amount + fee + tax must be discovered, as the rule
  // Payment(t0) ^ t0.total != poly(...) -> t0.total = poly(...).
  const rules::Ree* total = nullptr;
  for (const rules::Ree& rule : polys) {
    if (rule.id == "poly_2_5") total = &rule;
  }
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->tuple_vars, std::vector<int>{2});
  EXPECT_EQ(total->Task(), rules::RuleTask::kCr);
  ASSERT_EQ(total->precondition.size(), 1u);
  const rules::Predicate& misfit = total->precondition[0];
  EXPECT_EQ(misfit.kind, rules::PredicateKind::kPoly);
  EXPECT_EQ(misfit.op, rules::CmpOp::kNe);
  EXPECT_EQ(misfit.attr, 5);
  EXPECT_EQ(total->consequence.op, rules::CmpOp::kEq);
  EXPECT_EQ(total->consequence.poly, misfit.poly);
  // Its inputs are amount (2) and fee (3), linear, with weight ≈ 1 on fee;
  // tax (4) is 6% of amount, so the fit may fold it into amount's weight.
  std::set<int> inputs;
  for (const rules::Polynomial::Term& term : misfit.poly.terms) {
    EXPECT_LT(term.attr_b, 0);
    inputs.insert(term.attr_a);
    if (term.attr_a == 3) {
      EXPECT_NEAR(term.weight, 1.0, 1e-3);
    }
  }
  EXPECT_TRUE(inputs.count(2) > 0 && inputs.count(3) > 0);
  // The fit is strict: it reproduces total to within 0.1% on the great
  // majority of payments (the rest are the injected errors).
  const Relation& payments = data_.db.relation(2);
  size_t evaluated = 0;
  size_t fitted = 0;
  for (size_t row = 0; row < payments.size(); ++row) {
    const Tuple& t = payments.tuple(row);
    auto value = misfit.poly.Evaluate([&t](int attr) { return t.value(attr); });
    if (!value.ok() || t.value(5).is_null()) continue;
    ++evaluated;
    const double error = std::abs(t.value(5).AsDouble() - *value);
    if (error <= 1e-3 * std::max(1.0, std::abs(*value))) ++fitted;
  }
  ASSERT_GT(evaluated, 100u);
  EXPECT_GT(fitted, evaluated * 9 / 10) << fitted << " of " << evaluated;
}

TEST_F(CoreBankTest, CorrectionRecoversErrors) {
  Rock rock(&data_.db, &data_.graph);
  rock.TrainModels(BankSpec());
  rock.DiscoverPolynomials();
  auto rules = rock.LoadRules(data_.rule_text);
  ASSERT_TRUE(rules.ok());

  CorrectionResult result;
  auto engine = rock.CorrectErrors(*rules, data_.clean_tuples, &result);
  EXPECT_TRUE(result.chase.converged);
  auto score = workload::ScoreCorrection(data_, *engine);
  EXPECT_GT(score.overall.f1(), 0.6)
      << "P=" << score.overall.precision()
      << " R=" << score.overall.recall()
      << " TP=" << score.overall.true_positives
      << " FP=" << score.overall.false_positives
      << " FN=" << score.overall.false_negatives;
}

TEST_F(CoreBankTest, VariantsOrderAsInPaper) {
  // F1(Rock) >= F1(Rock_noML) and F1(Rock) > F1(Rock_noC) (paper §6
  // ablations: ML predicates and task interaction both help).
  auto run = [this](Variant variant) {
    GeneratedData data = workload::MakeBankData(SmallOptions());
    RockOptions options;
    options.variant = variant;
    Rock rock(&data.db, &data.graph, options);
    rock.TrainModels(BankSpec());
    rock.DiscoverPolynomials();
    auto rules = rock.LoadRules(data.rule_text);
    EXPECT_TRUE(rules.ok());
    CorrectionResult result;
    auto engine = rock.CorrectErrors(*rules, data.clean_tuples, &result);
    return workload::ScoreCorrection(data, *engine).overall.f1();
  };
  double rock_f1 = run(Variant::kRock);
  double noml_f1 = run(Variant::kNoMl);
  double noc_f1 = run(Variant::kNoChase);
  double seq_f1 = run(Variant::kSequential);
  EXPECT_GE(rock_f1 + 1e-9, noml_f1);
  EXPECT_GT(rock_f1, noc_f1);
  EXPECT_NEAR(rock_f1, seq_f1, 0.05);  // same fixpoint, same accuracy
}

// Both per-task variants report the engine's conflicts and count their
// sweeps over the four tasks.
TEST_F(CoreBankTest, PerTaskVariantsReportConflictsAndRounds) {
  for (Variant variant : {Variant::kSequential, Variant::kNoChase}) {
    RockOptions options;
    options.variant = variant;
    Rock rock(&data_.db, &data_.graph, options);
    auto rules = rock.LoadRules(data_.rule_text);
    ASSERT_TRUE(rules.ok());
    CorrectionResult result;
    auto engine = rock.CorrectErrors(*rules, data_.clean_tuples, &result);
    const std::vector<chase::ConflictRecord>& conflicts = engine->conflicts();
    EXPECT_FALSE(conflicts.empty()) << VariantName(variant);
    ASSERT_EQ(result.chase.conflicts.size(), conflicts.size())
        << VariantName(variant);
    for (size_t i = 0; i < conflicts.size(); ++i) {
      EXPECT_EQ(result.chase.conflicts[i].ToJson(), conflicts[i].ToJson())
          << VariantName(variant) << " #" << i;
    }
    EXPECT_GE(result.chase.rounds, 1) << VariantName(variant);
    if (variant == Variant::kNoChase) {
      EXPECT_EQ(result.chase.rounds, 1);
    }
  }
}

// The parallel facade runs the variant's own passes, each with a pooled
// round 0, and reaches the serial facade's fixpoint.
TEST_F(CoreBankTest, ParallelCorrectionHonoursEveryVariant) {
  auto fixes_of = [](const chase::ChaseEngine& engine) {
    std::string out;
    for (const chase::CellFix& fix : engine.CellFixes()) {
      out += std::to_string(fix.rel) + ":" + std::to_string(fix.tid) + ":" +
             std::to_string(fix.attr) + "=" + fix.new_value.ToString() + ";";
    }
    return out;
  };
  for (Variant variant : {Variant::kRock, Variant::kNoMl,
                          Variant::kSequential, Variant::kNoChase}) {
    RockOptions options;
    options.variant = variant;
    Rock rock(&data_.db, &data_.graph, options);
    rock.TrainModels(BankSpec());
    rock.DiscoverPolynomials();
    auto rules = rock.LoadRules(data_.rule_text);
    ASSERT_TRUE(rules.ok());
    CorrectionResult serial_result;
    auto serial = rock.CorrectErrors(*rules, data_.clean_tuples,
                                     &serial_result);
    CorrectionResult parallel_result;
    auto parallel = rock.CorrectErrorsParallel(*rules, data_.clean_tuples, 2,
                                               &parallel_result);
    EXPECT_EQ(fixes_of(*parallel), fixes_of(*serial)) << VariantName(variant);
    EXPECT_EQ(parallel->EntityGroups(), serial->EntityGroups())
        << VariantName(variant);
    EXPECT_EQ(parallel_result.passes, serial_result.passes)
        << VariantName(variant);
  }
}

TEST(CoreLogisticsTest, ImputationViaGraphWorks) {
  auto data = workload::MakeLogisticsData(SmallOptions());
  Rock rock(&data.db, &data.graph);
  ModelTrainingSpec spec;
  spec.path_synonyms = {{"area", {"AreaOf"}}, {"city", {"CityOf"}}};
  rock.TrainModels(spec);
  auto rules = rock.LoadRules(data.rule_text);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  CorrectionResult result;
  auto engine = rock.CorrectErrors(*rules, data.clean_tuples, &result);
  auto score = workload::ScoreCorrection(data, *engine);
  // Nulls dominate logistics errors; most must be recovered.
  auto it = score.by_type.find(InjectedError::kNull);
  ASSERT_NE(it, score.by_type.end());
  EXPECT_GT(it->second.recall(), 0.6)
      << "TP=" << it->second.true_positives
      << " FN=" << it->second.false_negatives;
}

TEST(CoreSalesTest, EndToEndPerTaskScores) {
  auto data = workload::MakeSalesData(SmallOptions());
  Rock rock(&data.db, &data.graph);
  ModelTrainingSpec spec;
  spec.rank_targets = {{"Client", "discount"}};
  spec.monotone_attrs = {{"Client", "lifetime_value"}};
  rock.TrainModels(spec);
  rock.DiscoverPolynomials();
  auto rules = rock.LoadRules(data.rule_text);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  CorrectionResult result;
  auto engine = rock.CorrectErrors(*rules, data.clean_tuples, &result);
  auto score = workload::ScoreCorrection(data, *engine);
  EXPECT_GT(score.overall.f1(), 0.5)
      << "P=" << score.overall.precision() << " R=" << score.overall.recall();
  // TD must be exercised: stale versions ordered below current.
  auto stale = score.by_type.find(InjectedError::kStale);
  ASSERT_NE(stale, score.by_type.end());
  EXPECT_GT(stale->second.recall(), 0.5)
      << "TP=" << stale->second.true_positives
      << " FN=" << stale->second.false_negatives;
}

TEST(CoreDiscoveryTest, MinerRecoversCuratedDependencies) {
  GeneratorOptions options = SmallOptions();
  options.rows = 120;
  auto data = workload::MakeLogisticsData(options);
  Rock rock(&data.db, &data.graph);
  discovery::PredicateSpaceOptions space;
  space.max_constants_per_attr = 0;
  auto mined = rock.DiscoverRules(space);
  // zip -> area (or street/city) must be among the mined rules.
  bool found = false;
  for (const auto& rule : mined) {
    std::string text = rule.rule.ToString(data.db.schema());
    if (text.find("t0.zip = t1.zip") != std::string::npos &&
        text.find("-> t0.area = t1.area") != std::string::npos) {
      found = true;
      EXPECT_GT(rule.confidence, 0.85);
    }
  }
  EXPECT_TRUE(found) << "mined " << mined.size() << " rules";
}

}  // namespace
}  // namespace rock::core

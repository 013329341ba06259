#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/discovery/evidence.h"
#include "src/discovery/miner.h"
#include "src/discovery/poly.h"
#include "src/discovery/topk.h"
#include "src/rules/eval.h"
#include "src/workload/generator.h"

namespace rock::discovery {
namespace {

/// A relation with clean FDs: zip -> area (5 zips), plus noise-free rows so
/// mined statistics are exact.
Database FdDatabase(int rows, int corrupt_every = 0) {
  DatabaseSchema schema;
  Status s = schema.AddRelation(Schema("T", {{"zip", ValueType::kString},
                                             {"area", ValueType::kString},
                                             {"city", ValueType::kString}}));
  EXPECT_TRUE(s.ok());
  Database db(std::move(schema));
  const char* areas[] = {"A0", "A1", "A2", "A3", "A4"};
  const char* cities[] = {"C0", "C1"};
  for (int i = 0; i < rows; ++i) {
    int z = i % 5;
    Tuple t;
    const char* area = areas[z];
    if (corrupt_every > 0 && i % corrupt_every == corrupt_every - 1) {
      area = areas[(z + 1) % 5];
    }
    t.values = {Value::String(StrFormat("Z%d", z)),
                Value::String(area), Value::String(cities[z % 2])};
    EXPECT_TRUE(db.Insert(0, t).ok());
  }
  return db;
}

TEST(EvidenceTest, PairSpaceContainsEqualityAndEr) {
  Database db = FdDatabase(20);
  PredicateSpaceOptions options;
  PredicateSpace space = BuildPairSpace(db, 0, options);
  EXPECT_EQ(space.tuple_vars, (std::vector<int>{0, 0}));
  // 3 equality predicates + constants + ER consequence.
  EXPECT_GE(space.predicates.size(), 4u);
  EXPECT_FALSE(space.consequence_candidates.empty());
}

TEST(EvidenceTest, TableCountsMatchSemantics) {
  Database db = FdDatabase(10);
  rules::EvalContext ctx;
  ctx.db = &db;
  rules::Evaluator eval(ctx);
  PredicateSpaceOptions options;
  options.max_constants_per_attr = 0;
  options.include_er_consequence = false;
  PredicateSpace space = BuildPairSpace(db, 0, options);
  Rng rng(1);
  EvidenceTable table = EvidenceTable::Build(eval, space, 0, &rng);
  // 10*9 ordered non-reflexive pairs.
  EXPECT_EQ(table.num_rows(), 90u);
  // zip equality (predicate 0): each zip has 2 rows -> 2 ordered pairs per
  // zip, 5 zips = 10.
  EXPECT_EQ(table.CountAll({0}), 10u);
  // zip-eq AND area-eq: the FD holds, so identical count.
  EXPECT_EQ(table.CountAllPlus({0}, 1), 10u);
}

TEST(EvidenceTest, SamplingReducesRows) {
  Database db = FdDatabase(60);
  rules::EvalContext ctx;
  ctx.db = &db;
  rules::Evaluator eval(ctx);
  PredicateSpaceOptions options;
  options.max_constants_per_attr = 0;
  PredicateSpace space = BuildPairSpace(db, 0, options);
  Rng rng(2);
  EvidenceTable table = EvidenceTable::Build(eval, space, 500, &rng);
  EXPECT_LT(table.num_rows(), 1000u);
  EXPECT_GT(table.num_rows(), 200u);
  EXPECT_LT(table.sample_ratio(), 1.0);
}

TEST(MinerTest, FindsCleanFd) {
  Database db = FdDatabase(50);
  rules::EvalContext ctx;
  ctx.db = &db;
  rules::Evaluator eval(ctx);
  PredicateSpaceOptions space_options;
  space_options.max_constants_per_attr = 0;
  space_options.include_er_consequence = false;
  PredicateSpace space = BuildPairSpace(db, 0, space_options);
  RuleMiner miner;
  auto mined = miner.Mine(eval, space);
  bool found = false;
  for (const MinedRule& rule : mined) {
    std::string text = rule.rule.ToString(db.schema());
    if (text == "T(t0) ^ T(t1) ^ t0.zip = t1.zip -> t0.area = t1.area") {
      found = true;
      EXPECT_DOUBLE_EQ(rule.confidence, 1.0);
      EXPECT_GT(rule.support, 0.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(MinerTest, ConfidenceReflectsNoise) {
  // Corrupt every 10th row: zip->area confidence ~0.8 (ordered pairs), so
  // a 0.9 bar rejects it and a 0.5 bar accepts it.
  Database db = FdDatabase(50, /*corrupt_every=*/10);
  rules::EvalContext ctx;
  ctx.db = &db;
  rules::Evaluator eval(ctx);
  PredicateSpaceOptions space_options;
  space_options.max_constants_per_attr = 0;
  space_options.include_er_consequence = false;
  PredicateSpace space = BuildPairSpace(db, 0, space_options);

  auto contains_fd = [&db](const std::vector<MinedRule>& rules) {
    for (const MinedRule& rule : rules) {
      if (rule.rule.ToString(db.schema()) ==
          "T(t0) ^ T(t1) ^ t0.zip = t1.zip -> t0.area = t1.area") {
        return true;
      }
    }
    return false;
  };

  MinerOptions strict;
  strict.min_confidence = 0.95;
  RuleMiner strict_miner(strict);
  EXPECT_FALSE(contains_fd(strict_miner.Mine(eval, space)));

  MinerOptions lenient;
  lenient.min_confidence = 0.5;
  RuleMiner lenient_miner(lenient);
  EXPECT_TRUE(contains_fd(lenient_miner.Mine(eval, space)));
}

TEST(MinerTest, MinimalityNoSupersets) {
  Database db = FdDatabase(50);
  rules::EvalContext ctx;
  ctx.db = &db;
  rules::Evaluator eval(ctx);
  PredicateSpaceOptions space_options;
  space_options.max_constants_per_attr = 0;
  space_options.include_er_consequence = false;
  PredicateSpace space = BuildPairSpace(db, 0, space_options);
  RuleMiner miner;
  auto mined = miner.Mine(eval, space);
  // If zip->area is mined, zip+city->area (a superset precondition with
  // the same consequence) must not be.
  bool base = false, superset = false;
  for (const MinedRule& rule : mined) {
    std::string text = rule.rule.ToString(db.schema());
    if (text.find("-> t0.area = t1.area") == std::string::npos) continue;
    bool has_zip = text.find("t0.zip = t1.zip") != std::string::npos;
    bool has_city = text.find("t0.city = t1.city") != std::string::npos;
    if (has_zip && !has_city) base = true;
    if (has_zip && has_city) superset = true;
  }
  EXPECT_TRUE(base);
  EXPECT_FALSE(superset);
}

TEST(MinerTest, PruningExploresFewerCandidates) {
  Database db = FdDatabase(40);
  rules::EvalContext ctx;
  ctx.db = &db;
  rules::Evaluator eval(ctx);
  PredicateSpaceOptions space_options;
  PredicateSpace space = BuildPairSpace(db, 0, space_options);

  MinerOptions pruned_options;
  RuleMiner pruned(pruned_options);
  pruned.Mine(eval, space);

  MinerOptions exhaustive_options;
  exhaustive_options.disable_pruning = true;
  RuleMiner exhaustive(exhaustive_options);
  exhaustive.Mine(eval, space);

  EXPECT_LT(pruned.candidates_explored(),
            exhaustive.candidates_explored());
}

TEST(MinerTest, HoeffdingBoundFormula) {
  // m >= ln(2/δ)/(2ε²): spot values.
  EXPECT_EQ(HoeffdingSampleSize(0.1, 0.05), 185u);
  EXPECT_GT(HoeffdingSampleSize(0.01, 0.05), 18000u);
  EXPECT_LT(HoeffdingSampleSize(0.2, 0.2), 50u);
}

// ---------- Top-k / anytime ----------

std::vector<MinedRule> FakeRules() {
  std::vector<MinedRule> rules;
  for (int i = 0; i < 6; ++i) {
    MinedRule rule;
    rule.rule.id = StrFormat("r%d", i);
    rule.rule.tuple_vars = {0, 0};
    rule.rule.consequence =
        rules::Predicate::AttrCompare(0, i % 3, rules::CmpOp::kEq, 1, i % 3);
    rule.support = 0.1 * (i + 1);
    rule.confidence = 1.0 - 0.05 * i;
    rules.push_back(std::move(rule));
  }
  return rules;
}

TEST(TopKTest, ObjectiveFallbackOrdersByConfidence) {
  auto rules = FakeRules();
  RuleScoringModel scorer;
  auto top = SelectTopK(rules, 3, scorer, /*diversify=*/false);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].rule.id, "r0");  // highest confidence
  EXPECT_EQ(top[1].rule.id, "r1");
}

TEST(TopKTest, LearnedPreferenceOverridesObjective) {
  auto rules = FakeRules();
  // The user likes low-confidence/high-support rules (subjective measure).
  RuleScoringModel scorer;
  std::vector<int> labels = {0, 0, 0, 1, 1, 1};
  scorer.Train(rules, labels);
  auto top = SelectTopK(rules, 2, scorer, false);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_TRUE(top[0].rule.id == "r5" || top[0].rule.id == "r4" ||
              top[0].rule.id == "r3")
      << top[0].rule.id;
}

TEST(AnytimeTest, StreamsAllRulesOnce) {
  auto rules = FakeRules();
  RuleScoringModel scorer;
  AnytimeRuleStream stream(rules, &scorer);
  std::set<std::string> seen;
  while (auto rule = stream.Next()) {
    EXPECT_TRUE(seen.insert(rule->rule.id).second);
  }
  EXPECT_EQ(seen.size(), rules.size());
  EXPECT_EQ(stream.remaining(), 0u);
}

TEST(AnytimeTest, FeedbackReranksRemainder) {
  auto rules = FakeRules();
  RuleScoringModel scorer;
  AnytimeRuleStream stream(rules, &scorer);
  auto first = stream.Next();
  ASSERT_TRUE(first.has_value());
  // Strong negative feedback on the leader's shape; the model adapts and
  // the stream still returns everything exactly once.
  stream.Feedback(*first, 0);
  std::set<std::string> seen = {first->rule.id};
  while (auto rule = stream.Next()) {
    EXPECT_TRUE(seen.insert(rule->rule.id).second);
  }
  EXPECT_EQ(seen.size(), rules.size());
}

TEST(TopKTest, DiversificationPrefersCoverage) {
  // Build evidence over a clean FD database and diversify: two rules with
  // disjoint supporting rows should both be picked over a redundant twin
  // of the first.
  Database db = FdDatabase(40);
  rules::EvalContext ctx;
  ctx.db = &db;
  rules::Evaluator eval(ctx);
  PredicateSpaceOptions space_options;
  space_options.max_constants_per_attr = 0;
  space_options.include_er_consequence = false;
  PredicateSpace space = BuildPairSpace(db, 0, space_options);
  Rng rng(1);
  EvidenceTable table = EvidenceTable::Build(eval, space, 0, &rng);

  RuleMiner miner;
  auto mined = miner.Mine(eval, space);
  ASSERT_GE(mined.size(), 2u);
  // Supporting rows per rule: the evidence rows satisfying X ∧ p0. The
  // mined predicates reference space indices, so recompute via counting.
  std::vector<std::vector<uint32_t>> rule_rows;
  for (const MinedRule& rule : mined) {
    std::vector<int> indices;
    for (const auto& p : rule.rule.precondition) {
      for (size_t i = 0; i < space.predicates.size(); ++i) {
        if (space.predicates[i] == p) indices.push_back(static_cast<int>(i));
      }
    }
    for (size_t i = 0; i < space.predicates.size(); ++i) {
      if (space.predicates[i] == rule.rule.consequence) {
        indices.push_back(static_cast<int>(i));
      }
    }
    rule_rows.push_back(table.RowsSatisfying(indices));
  }
  RuleScoringModel scorer;
  auto diversified = SelectTopK(mined, 2, scorer, /*diversify=*/true,
                                &table, &rule_rows);
  ASSERT_EQ(diversified.size(), 2u);
  // The two picks must not share the same consequence (redundant twins
  // cover the same rows and are down-weighted).
  EXPECT_FALSE(diversified[0].rule.consequence ==
               diversified[1].rule.consequence);
}

// ---------- Polynomials ----------

Relation MoneyRelation(int rows, bool with_outliers) {
  Relation relation(Schema("Pay", {{"amount", ValueType::kDouble},
                                   {"fee", ValueType::kDouble},
                                   {"total", ValueType::kDouble}}));
  Rng rng(9);
  for (int i = 0; i < rows; ++i) {
    double amount = 100 + static_cast<double>(rng.NextBounded(5000));
    double fee = 5 + static_cast<double>(rng.NextBounded(50));
    double total = amount + fee;
    if (with_outliers && i % 12 == 0) total *= 1.8;
    Tuple t;
    t.values = {Value::Double(amount), Value::Double(fee),
                Value::Double(total)};
    EXPECT_TRUE(relation.Append(std::move(t)).ok());
  }
  return relation;
}

TEST(PolyTest, ExactLinearInvariant) {
  Relation relation = MoneyRelation(120, false);
  PolyOptions options;
  auto expr = DiscoverPolynomial(relation, 2, options);
  ASSERT_TRUE(expr.ok());
  EXPECT_GT(expr->r_squared, 0.9999);
  EXPECT_GT(expr->exact_support, 0.99);
  // Evaluate on a fresh tuple.
  Tuple t;
  t.values = {Value::Double(1000), Value::Double(20), Value::Null()};
  auto predicted =
      expr->poly.Evaluate([&t](int attr) { return t.value(attr); });
  ASSERT_TRUE(predicted.ok());
  EXPECT_NEAR(*predicted, 1020.0, 0.5);
}

TEST(PolyTest, RobustToInjectedOutliers) {
  Relation relation = MoneyRelation(120, true);
  PolyOptions options;
  auto expr = DiscoverPolynomial(relation, 2, options);
  ASSERT_TRUE(expr.ok());
  EXPECT_GT(expr->r_squared, 0.9999);
  // ~8% corrupted rows are excluded from exact support.
  EXPECT_GT(expr->exact_support, 0.85);
  EXPECT_LT(expr->exact_support, 0.99);
}

TEST(PolyTest, ProductTerms) {
  Relation relation(Schema("O", {{"qty", ValueType::kDouble},
                                 {"price", ValueType::kDouble},
                                 {"total", ValueType::kDouble}}));
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    double qty = 1 + static_cast<double>(rng.NextBounded(9));
    double price = 10 + static_cast<double>(rng.NextBounded(500));
    Tuple t;
    t.values = {Value::Double(qty), Value::Double(price),
                Value::Double(qty * price)};
    ASSERT_TRUE(relation.Append(std::move(t)).ok());
  }
  PolyOptions options;
  auto expr = DiscoverPolynomial(relation, 2, options);
  ASSERT_TRUE(expr.ok());
  EXPECT_GT(expr->exact_support, 0.99);
  bool has_product = false;
  for (const auto& term : expr->poly.terms) {
    if (term.attr_b >= 0) has_product = true;
  }
  EXPECT_TRUE(has_product);
}

TEST(PolyTest, RejectsNonNumericTargetAndTinyData) {
  Relation relation(Schema("T", {{"name", ValueType::kString},
                                 {"x", ValueType::kDouble}}));
  PolyOptions options;
  EXPECT_EQ(DiscoverPolynomial(relation, 0, options).status().code(),
            StatusCode::kInvalidArgument);
  Tuple t;
  t.values = {Value::String("a"), Value::Double(1)};
  ASSERT_TRUE(relation.Append(std::move(t)).ok());
  EXPECT_EQ(DiscoverPolynomial(relation, 1, options).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PolyTest, NullInputsSkipEvaluation) {
  Relation relation = MoneyRelation(50, false);
  PolyOptions options;
  auto expr = DiscoverPolynomial(relation, 2, options);
  ASSERT_TRUE(expr.ok());
  Tuple t;
  t.values = {Value::Null(), Value::Double(20), Value::Null()};
  EXPECT_EQ(expr->poly.Evaluate([&t](int attr) { return t.value(attr); })
                .status()
                .code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace rock::discovery

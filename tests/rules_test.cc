#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/ml/correlation.h"
#include "src/ml/her.h"
#include "src/ml/library.h"
#include "src/rules/eval.h"
#include "src/rules/parser.h"
#include "src/rules/ree.h"
#include "src/workload/ecommerce.h"

namespace rock::rules {
namespace {

using workload::EcommerceData;
using workload::MakeEcommerceData;

class RulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = MakeEcommerceData();
    // An ER model over commodity descriptions: matches when the two
    // commodity strings share most tokens (e.g. the same discount code).
    auto mer = std::make_shared<ml::SimilarityClassifier>(0.6);
    models_.RegisterPair("MER", mer);
    auto her = std::make_shared<ml::HerModel>();
    her->IndexGraph(data_.graph);
    models_.RegisterHer(her);
    auto matcher = std::make_shared<ml::PathMatchModel>();
    matcher->AddSynonym("location", {"LocationAt"});
    matcher->AddSynonym("type", {"TypeOf"});
    models_.RegisterPathMatcher(matcher);
    auto corr = std::make_shared<ml::CooccurrenceModel>();
    corr->TrainOnRelation(data_.db.relation(data_.trans));
    models_.RegisterCorrelation("Mc", corr);
    models_.RegisterPredictor("Md", corr);
  }

  EvalContext Ctx() {
    EvalContext ctx;
    ctx.db = &data_.db;
    ctx.graph = &data_.graph;
    ctx.models = &models_;
    return ctx;
  }

  Ree Parse(const std::string& text) {
    auto rule = ParseRee(text, data_.db.schema());
    EXPECT_TRUE(rule.ok()) << rule.status().ToString() << " for " << text;
    return rule.ok() ? *rule : Ree{};
  }

  Relation& out_trans() { return data_.db.relation(data_.trans); }

  EcommerceData data_;
  ml::MlLibrary models_;
};

// ---------- Parser ----------

TEST_F(RulesTest, ParsesPhi2CfdStyle) {
  Ree rule =
      Parse("Trans(t0) ^ Trans(t1) ^ t0.com = t1.com -> t0.mfg = t1.mfg");
  EXPECT_EQ(rule.tuple_vars.size(), 2u);
  ASSERT_EQ(rule.precondition.size(), 1u);
  EXPECT_EQ(rule.precondition[0].kind, PredicateKind::kAttrCompare);
  EXPECT_EQ(rule.Task(), RuleTask::kCr);
  EXPECT_FALSE(rule.UsesMl());
}

TEST_F(RulesTest, ParsesPhi1WithMlPredicate) {
  Ree rule = Parse(
      "Trans(t0) ^ Trans(t1) ^ MER(t0[com], t1[com]) ^ t0.date = t1.date ^ "
      "t0.sid = t1.sid -> t0.pid = t1.pid");
  ASSERT_EQ(rule.precondition.size(), 3u);
  EXPECT_EQ(rule.precondition[0].kind, PredicateKind::kMlPair);
  EXPECT_EQ(rule.precondition[0].model, "MER");
  EXPECT_TRUE(rule.UsesMl());
}

TEST_F(RulesTest, ParsesEidConsequence) {
  Ree rule = Parse(
      "Person(t0) ^ Person(t1) ^ t0.LN = t1.LN ^ t0.FN = t1.FN ^ "
      "t0.home = t1.home -> t0.eid = t1.eid");
  EXPECT_EQ(rule.consequence.attr, kEidAttr);
  EXPECT_EQ(rule.Task(), RuleTask::kEr);
}

TEST_F(RulesTest, ParsesConstantPredicate) {
  Ree rule = Parse(
      "Store(t0) ^ t0.location = 'Beijing' -> t0.area_code = '010'");
  ASSERT_EQ(rule.precondition.size(), 1u);
  EXPECT_EQ(rule.precondition[0].kind, PredicateKind::kConstant);
  EXPECT_EQ(rule.precondition[0].constant.AsString(), "Beijing");
  EXPECT_EQ(rule.Task(), RuleTask::kCr);
}

TEST_F(RulesTest, ParsesTemporalPredicates) {
  Ree rule = Parse(
      "Person(t0) ^ Person(t1) ^ t0.status = 'single' ^ "
      "t1.status = 'married' -> t0 <=[status] t1");
  EXPECT_EQ(rule.consequence.kind, PredicateKind::kTemporal);
  EXPECT_FALSE(rule.consequence.strict);
  EXPECT_EQ(rule.Task(), RuleTask::kTd);

  Ree strict = Parse("Person(t0) ^ Person(t1) ^ t0 <[home] t1 -> "
                     "t0 <[status] t1");
  EXPECT_TRUE(strict.consequence.strict);
  ASSERT_EQ(strict.precondition.size(), 1u);
  EXPECT_TRUE(strict.precondition[0].strict);
}

TEST_F(RulesTest, ParsesRankerBackedTemporal) {
  Ree rule = Parse(
      "Person(t0) ^ Person(t1) ^ Mrank(t0, t1, <=[LN]) -> t0 <=[LN] t1");
  ASSERT_EQ(rule.precondition.size(), 1u);
  EXPECT_EQ(rule.precondition[0].kind, PredicateKind::kTemporal);
  EXPECT_EQ(rule.precondition[0].model, "Mrank");
  EXPECT_TRUE(rule.UsesMl());
}

TEST_F(RulesTest, ParsesKnowledgeGraphPredicates) {
  Ree rule = Parse(
      "Store(t0) ^ vertex(x0, G) ^ HER(t0, x0) ^ "
      "match(t0.location, x0.(LocationAt)) -> "
      "t0.location = val(x0.(LocationAt))");
  EXPECT_EQ(rule.num_vertex_vars, 1);
  ASSERT_EQ(rule.precondition.size(), 2u);
  EXPECT_EQ(rule.precondition[0].kind, PredicateKind::kHer);
  EXPECT_EQ(rule.precondition[1].kind, PredicateKind::kPathMatch);
  EXPECT_EQ(rule.consequence.kind, PredicateKind::kValExtract);
  EXPECT_EQ(rule.Task(), RuleTask::kMi);
}

TEST_F(RulesTest, ParsesCorrelationAndPrediction) {
  Ree rule = Parse(
      "Trans(t0) ^ Mc(t0[com,mfg], t0.price) >= 0.8 -> "
      "t0.price = Md(t0[com,mfg], price)");
  ASSERT_EQ(rule.precondition.size(), 1u);
  EXPECT_EQ(rule.precondition[0].kind, PredicateKind::kCorrelation);
  EXPECT_DOUBLE_EQ(rule.precondition[0].threshold, 0.8);
  EXPECT_EQ(rule.consequence.kind, PredicateKind::kPredictValue);
  EXPECT_EQ(rule.Task(), RuleTask::kMi);
}

TEST_F(RulesTest, ParsesCorrelationWithConstant) {
  Ree rule = Parse(
      "Store(t0) ^ Mc(t0[name], t0.location='Beijing') >= 0.7 -> "
      "t0.location = 'Beijing'");
  ASSERT_EQ(rule.precondition.size(), 1u);
  EXPECT_TRUE(rule.precondition[0].has_constant);
  EXPECT_EQ(rule.precondition[0].constant.AsString(), "Beijing");
}

TEST_F(RulesTest, ParsesNullGuard) {
  Ree rule = Parse(
      "Trans(t0) ^ null(t0.price) -> t0.price = Md(t0[com,mfg], price)");
  ASSERT_EQ(rule.precondition.size(), 1u);
  EXPECT_EQ(rule.precondition[0].kind, PredicateKind::kIsNull);
  EXPECT_EQ(rule.Task(), RuleTask::kMi);
}

TEST_F(RulesTest, RoundTripsThroughToString) {
  const char* kRules[] = {
      "Trans(t0) ^ Trans(t1) ^ t0.com = t1.com -> t0.mfg = t1.mfg",
      "Trans(t0) ^ Trans(t1) ^ MER(t0[com], t1[com]) ^ t0.date = t1.date -> "
      "t0.pid = t1.pid",
      "Person(t0) ^ Person(t1) ^ t0.status = 'single' -> t0 <=[status] t1",
      "Store(t0) ^ vertex(x0, G) ^ HER(t0, x0) -> "
      "t0.location = val(x0.(LocationAt))",
      "Trans(t0) ^ null(t0.price) -> t0.price = Md(t0[com], price)",
  };
  for (const char* text : kRules) {
    Ree rule = Parse(text);
    std::string printed = rule.ToString(data_.db.schema());
    auto reparsed = ParseRee(printed, data_.db.schema());
    ASSERT_TRUE(reparsed.ok())
        << printed << " => " << reparsed.status().ToString();
    EXPECT_TRUE(rule.SameRule(*reparsed)) << printed;
  }
}

TEST_F(RulesTest, RejectsBadRules) {
  EXPECT_FALSE(ParseRee("Trans(t0) ^ t0.com = t1.com", data_.db.schema()).ok());
  EXPECT_FALSE(
      ParseRee("Trans(t0) -> t0.nosuch = 'x'", data_.db.schema()).ok());
  EXPECT_FALSE(
      ParseRee("Nope(t0) -> t0.com = 'x'", data_.db.schema()).ok());
  EXPECT_FALSE(ParseRee("Trans(t0) ^ t1.com = 'x' -> t0.mfg = 'y'",
                        data_.db.schema())
                   .ok());
}

// poly(...) prints every coefficient with %.17g, so the parser reads back
// the same bits: non-round weights, a product term and an exponent that
// carries its own '+'.
TEST_F(RulesTest, PolynomialRoundTripsBitForBit) {
  const int trans = data_.trans;
  const int price = data_.db.schema().relation(trans).AttributeIndex("price");
  Polynomial poly;
  poly.bias = -0.1;
  poly.terms = {{price, -1, 1.0 / 3.0},
                {price, price, 2.5e-7},
                {price, -1, 1.2345678901234567e+20}};
  Ree rule;
  rule.tuple_vars = {trans};
  rule.precondition = {
      Predicate::Poly(0, price, CmpOp::kNe, poly, 0.015000000000000001)};
  rule.consequence = rule.precondition[0];
  rule.consequence.op = CmpOp::kEq;

  const std::string printed = rule.ToString(data_.db.schema());
  auto reparsed = ParseRee(printed, data_.db.schema());
  ASSERT_TRUE(reparsed.ok()) << printed << " => "
                             << reparsed.status().ToString();
  EXPECT_EQ(reparsed->ToString(data_.db.schema()), printed);
  ASSERT_TRUE(rule.SameRule(*reparsed)) << printed;
  EXPECT_EQ(reparsed->Task(), RuleTask::kCr);
  auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  for (const Predicate* p : {&reparsed->precondition[0],
                             &reparsed->consequence}) {
    EXPECT_EQ(p->kind, PredicateKind::kPoly);
    EXPECT_EQ(bits(p->threshold), bits(0.015000000000000001));
    EXPECT_EQ(bits(p->poly.bias), bits(poly.bias));
    ASSERT_EQ(p->poly.terms.size(), poly.terms.size());
    for (size_t i = 0; i < poly.terms.size(); ++i) {
      EXPECT_EQ(bits(p->poly.terms[i].weight), bits(poly.terms[i].weight));
      EXPECT_EQ(p->poly.terms[i].attr_a, poly.terms[i].attr_a);
      EXPECT_EQ(p->poly.terms[i].attr_b, poly.terms[i].attr_b);
    }
  }
}

TEST_F(RulesTest, RejectsMalformedPolynomials) {
  for (const char* rhs : {
           "poly(0 + 1*t0.price)",                  // no tolerance
           "poly(0 + 1*t0.price; x)",               // tolerance not a number
           "poly(0 + 1*t0.price; -0.5)",            // negative tolerance
           "poly(1*t0.price; 0.02)",                // no constant first
           "poly(0 + 2; 0.02)",                     // a second constant
           "poly(0 + t0.price; 0.02)",              // no coefficient
           "poly(0 + 1*t0.nosuch; 0.02)",           // unknown attribute
           "poly(0 + 1*t1.price; 0.02)",            // another tuple
           "poly(0 + 1*t0.eid; 0.02)",              // not an attribute
           "poly(0 + 1*t0.price*t0.price*t0.price; 0.02)",  // degree 3
           "poly(0 + 1*t0.price +; 0.02)",          // dangling '+'
           "poly(0 1*t0.price; 0.02)",              // no '+'
       }) {
    const std::string text =
        std::string("Trans(t0) ^ Trans(t1) -> t0.price = ") + rhs;
    auto rule = ParseRee(text, data_.db.schema());
    ASSERT_FALSE(rule.ok()) << text;
    EXPECT_EQ(rule.status().code(), StatusCode::kInvalidArgument) << text;
  }
  auto ordered = ParseRee("Trans(t0) -> t0.price < poly(0 + 1*t0.price; 0)",
                          data_.db.schema());
  ASSERT_FALSE(ordered.ok());
  EXPECT_EQ(ordered.status().code(), StatusCode::kInvalidArgument);
}

// = holds within the relative tolerance over non-null cells; != is its
// negation over non-null inputs, so a null target misfits and a null input
// satisfies neither.
TEST(PolyPredicateTest, EqualsFitsAndNotEqualsMisfits) {
  DatabaseSchema schema;
  ASSERT_TRUE(schema
                  .AddRelation(Schema("Pay", {{"amount", ValueType::kDouble},
                                              {"fee", ValueType::kDouble},
                                              {"total", ValueType::kDouble}}))
                  .ok());
  Database db(std::move(schema));
  auto row = [&db](Value amount, Value fee, Value total) {
    Tuple t;
    t.values = {std::move(amount), std::move(fee), std::move(total)};
    EXPECT_TRUE(db.Insert(0, std::move(t)).ok());
  };
  row(Value::Double(100), Value::Double(5), Value::Double(105.5));  // fits
  row(Value::Double(100), Value::Double(5), Value::Double(150));    // misfit
  row(Value::Double(100), Value::Double(5), Value::Null());         // missing
  row(Value::Null(), Value::Double(5), Value::Double(105));         // no input
  auto rule = ParseRee(
      "Pay(t0) ^ t0.total != poly(0 + 1*t0.amount + 1*t0.fee; 0.01) -> "
      "t0.total = poly(0 + 1*t0.amount + 1*t0.fee; 0.01)",
      db.schema());
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EvalContext ctx;
  ctx.db = &db;
  Evaluator eval(ctx);
  const bool kEq[] = {true, false, false, false};
  const bool kNe[] = {false, true, true, false};
  for (int r = 0; r < 4; ++r) {
    Valuation v;
    v.rows = {r};
    EXPECT_EQ(eval.Satisfies(*rule, v, rule->consequence), kEq[r]) << r;
    EXPECT_EQ(eval.Satisfies(*rule, v, rule->precondition[0]), kNe[r]) << r;
  }
  // The misfit and the missing total are the violations.
  std::vector<int> violations;
  eval.ForEachViolation(*rule, [&](const Valuation& v) {
    violations.push_back(v.rows[0]);
    return true;
  });
  EXPECT_EQ(violations, (std::vector<int>{1, 2}));
}

TEST_F(RulesTest, ParsesRuleList) {
  auto rules = ParseRules(
      "# comment\n"
      "Trans(t0) ^ Trans(t1) ^ t0.com = t1.com -> t0.mfg = t1.mfg\n"
      "\n"
      "Store(t0) ^ t0.location = 'Beijing' -> t0.area_code = '010'\n",
      data_.db.schema());
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules->size(), 2u);
  EXPECT_EQ((*rules)[0].id, "r0");
}

// ---------- Evaluation semantics ----------

TEST_F(RulesTest, Phi2FindsTheManufactoryConflict) {
  // φ2: same commodity => same manufactory. Rows 3 (Huawei) and 4 (Apple)
  // share "Mate X2 (Limited Sold)" — a violation in each direction.
  Ree rule =
      Parse("Trans(t0) ^ Trans(t1) ^ t0.com = t1.com -> t0.mfg = t1.mfg");
  Evaluator eval(Ctx());
  int violations = 0;
  eval.ForEachViolation(rule, [&](const Valuation& v) {
    EXPECT_NE(v.rows[0], v.rows[1]);
    ++violations;
    return true;
  });
  EXPECT_EQ(violations, 2);
}

TEST_F(RulesTest, Phi1IdentifiesDiscountCodeUsers) {
  // φ1: MER-matched commodities, same date + store => same person.
  // Rows 1 and 2 (IPhone 14 Discount ID/Code 41) violate: p1 vs p2.
  Ree rule = Parse(
      "Trans(t0) ^ Trans(t1) ^ MER(t0[com], t1[com]) ^ t0.date = t1.date ^ "
      "t0.sid = t1.sid ^ t0.pid != t1.pid -> t0.eid = t1.eid");
  Evaluator eval(Ctx());
  int violations = 0;
  eval.ForEachViolation(rule, [&](const Valuation& v) {
    int lo = std::min(v.rows[0], v.rows[1]);
    int hi = std::max(v.rows[0], v.rows[1]);
    EXPECT_EQ(lo, 1);
    EXPECT_EQ(hi, 2);
    ++violations;
    return true;
  });
  EXPECT_EQ(violations, 2);  // both orientations
}

TEST_F(RulesTest, NullComparisonsNeverSatisfy) {
  // t5's home is null: equality against it must not hold.
  Ree rule = Parse(
      "Person(t0) ^ Person(t1) ^ t0.home = t1.home -> t0.eid = t1.eid");
  Evaluator eval(Ctx());
  eval.ForEachSatisfying(rule, [&](const Valuation& v) {
    EXPECT_NE(v.rows[0], 4);
    EXPECT_NE(v.rows[1], 4);
    return true;
  });
}

TEST_F(RulesTest, TimestampsDriveTemporalPredicates) {
  // Transactions carry dates in `date`; give rows timestamps on price and
  // check ⪯price via timestamps.
  Relation& trans = out_trans();
  for (size_t row = 0; row < trans.size(); ++row) {
    Tuple& t = trans.mutable_tuple(row);
    t.timestamps.assign(trans.schema().num_attributes(), kNoTimestamp);
    t.timestamps[4] = static_cast<int64_t>(row);  // price confirmed later
  }
  Ree rule =
      Parse("Trans(t0) ^ Trans(t1) ^ t0 <=[price] t1 -> t0 <=[price] t1");
  Evaluator eval(Ctx());
  Valuation v;
  v.rows = {0, 3};
  EXPECT_TRUE(eval.SatisfiesPrecondition(rule, v));
  v.rows = {3, 0};
  EXPECT_FALSE(eval.SatisfiesPrecondition(rule, v));
  v.rows = {2, 2};
  EXPECT_TRUE(eval.SatisfiesPrecondition(rule, v));  // reflexive for ⪯
  Ree strict =
      Parse("Trans(t0) ^ Trans(t1) ^ t0 <[price] t1 -> t0 <[price] t1");
  EXPECT_FALSE(eval.SatisfiesPrecondition(strict, v));  // irreflexive for ≺
}

TEST_F(RulesTest, Phi7ExtractsLocationFromGraph) {
  // φ7: HER + match => location = val(x.(LocationAt)). The Huawei Flagship
  // store (row 2) matches its graph vertex whose LocationAt is Beijing; its
  // stored location is already Beijing so the rule is satisfied, while the
  // Nike store (row 4, Shanghai) is satisfied via its own vertex.
  Ree rule = Parse(
      "Store(t0) ^ vertex(x0, G) ^ HER(t0, x0) ^ "
      "match(t0.location, x0.(LocationAt)) -> "
      "t0.location = val(x0.(LocationAt))");
  Evaluator eval(Ctx());
  int satisfied = 0;
  int violated = 0;
  eval.ForEachSatisfying(rule, [&](const Valuation& v) {
    if (eval.Satisfies(rule, v, rule.consequence)) {
      ++satisfied;
    } else {
      ++violated;
      // Violations are stores whose location cell is null or wrong.
    }
    return true;
  });
  EXPECT_GE(satisfied, 2);
}

TEST_F(RulesTest, CorrelationPredicateThresholds) {
  // Mate X2 co-occurs with Huawei (row 3) once and Apple (row 4) once in
  // the training relation; IPhone 13 co-occurs only with Apple.
  Ree rule = Parse(
      "Trans(t0) ^ Mc(t0[com], t0.mfg) >= 0.45 -> t0.mfg = t0.mfg");
  Evaluator eval(Ctx());
  Valuation v;
  v.rows = {0};
  EXPECT_TRUE(eval.SatisfiesPrecondition(rule, v));  // IPhone 13 -> Apple
  v.rows = {3};
  // Mate X2 -> Huawei has probability ~0.5: below a higher threshold.
  Ree tight = Parse(
      "Trans(t0) ^ Mc(t0[com], t0.mfg) >= 0.75 -> t0.mfg = t0.mfg");
  EXPECT_FALSE(eval.SatisfiesPrecondition(tight, v));
}

TEST_F(RulesTest, CountSupportMatchesManualCounts) {
  // t0.com = t1.com (distinct rows t0!=t1 not required; reflexive pairs
  // count). 5 reflexive + 2 cross pairs (rows 3,4 both ways) = 7; the
  // consequence holds on 5 reflexive pairs only.
  Ree rule =
      Parse("Trans(t0) ^ Trans(t1) ^ t0.com = t1.com -> t0.mfg = t1.mfg");
  Evaluator eval(Ctx());
  auto [support_x, support_both] = eval.CountSupport(rule);
  EXPECT_EQ(support_x, 7u);
  EXPECT_EQ(support_both, 5u);
}

TEST_F(RulesTest, EarlyStopRespectsCallback) {
  Ree rule = Parse("Trans(t0) ^ Trans(t1) ^ t0.date = t1.date -> "
                   "t0.pid = t1.pid");
  Evaluator eval(Ctx());
  int seen = 0;
  eval.ForEachSatisfying(rule, [&](const Valuation&) {
    ++seen;
    return seen < 3;
  });
  EXPECT_EQ(seen, 3);
}

TEST_F(RulesTest, MentionsTracksMlAttributeVectors) {
  Ree rule = Parse(
      "Trans(t0) ^ Trans(t1) ^ MER(t0[com,mfg], t1[com,mfg]) -> "
      "t0.pid = t1.pid");
  const Predicate& ml = rule.precondition[0];
  int com = data_.db.schema().relation(data_.trans).AttributeIndex("com");
  int price = data_.db.schema().relation(data_.trans).AttributeIndex("price");
  EXPECT_TRUE(ml.Mentions(0, com));
  EXPECT_TRUE(ml.Mentions(1, com));
  EXPECT_FALSE(ml.Mentions(0, price));
}

// REE++s subsume CFDs, DCs and MDs (paper §2.1 Properties): encode one of
// each and check the expected violation counts.
TEST_F(RulesTest, SubsumesCfd) {
  // CFD: Store(location='Beijing' -> area_code='010'); stores 0 and 2 are
  // in Beijing with null area codes => 2 violations.
  Ree cfd =
      Parse("Store(t0) ^ t0.location = 'Beijing' -> t0.area_code = '010'");
  Evaluator eval(Ctx());
  int violations = 0;
  eval.ForEachViolation(cfd, [&](const Valuation&) {
    ++violations;
    return true;
  });
  EXPECT_EQ(violations, 2);
}

TEST_F(RulesTest, SubsumesDc) {
  // DC: no two stores in the same location may have area codes that differ
  // (¬(t0.location = t1.location ∧ t0.area_code != t1.area_code)); encoded
  // with consequence t0.area_code = t1.area_code.
  Ree dc = Parse(
      "Store(t0) ^ Store(t1) ^ t0.location = t1.location -> "
      "t0.area_code = t1.area_code");
  Evaluator eval(Ctx());
  int violations = 0;
  eval.ForEachViolation(dc, [&](const Valuation&) {
    ++violations;
    return true;
  });
  // Stores 3 and 4 share Shanghai/021: consequence holds. The two Beijing
  // stores (rows 0, 2) have null area codes, so the consequence never
  // holds for the pairs (0,2), (2,0) and the reflexive pairs (0,0), (2,2):
  // 4 violations (all flagging the same missing-value defect).
  EXPECT_EQ(violations, 4);
}

TEST_F(RulesTest, SubsumesMd) {
  // MD: similar commodity descriptions (ML predicate) in the same store
  // identify the buyers — the matching-dependency shape of φ1.
  Ree md = Parse(
      "Trans(t0) ^ Trans(t1) ^ MER(t0[com], t1[com]) ^ t0.sid = t1.sid -> "
      "t0.eid = t1.eid");
  Evaluator eval(Ctx());
  int violations = 0;
  eval.ForEachViolation(md, [&](const Valuation&) {
    ++violations;
    return true;
  });
  EXPECT_EQ(violations, 2);  // rows (1,2) and (2,1)
}

}  // namespace
}  // namespace rock::rules

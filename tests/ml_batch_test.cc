#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/detect/detector.h"
#include "src/ml/batch.h"
#include "src/ml/library.h"
#include "src/rules/parser.h"
#include "src/workload/ecommerce.h"

namespace rock {
namespace {

using ml::MlScoreCache;
using workload::EcommerceData;
using workload::MakeEcommerceData;

// ---------------------------------------------------------------------------
// MlScoreCache semantics.

TEST(MlScoreCacheTest, FirstInsertWinsAndStatsTrack) {
  MlScoreCache cache;
  std::vector<Value> a = {Value::String("x")};
  std::vector<Value> b = {Value::String("y")};
  const MlScoreCache::Key key = MlScoreCache::MakeKey("m", a, b);
  EXPECT_EQ(MlScoreCache::MakeKey("m", a, b), key);
  EXPECT_FALSE(MlScoreCache::MakeKey("other", a, b) == key);
  EXPECT_FALSE(MlScoreCache::MakeKey("m", b, a) == key);

  double score = -1.0;
  EXPECT_FALSE(cache.Lookup(key, &score));
  EXPECT_EQ(cache.size(), 0u);
  cache.Insert(key, 0.25);
  cache.Insert(key, 0.75);  // loses: first insert wins
  ASSERT_TRUE(cache.Lookup(key, &score));
  EXPECT_EQ(score, 0.25);
  EXPECT_EQ(cache.size(), 1u);

  const MlScoreCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(key, &score));
}

// ---------------------------------------------------------------------------
// Detection equivalence: a score memo must not change any report.

class MlBatchDetectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = MakeEcommerceData();
    models_.RegisterPair("MER",
                         std::make_shared<ml::SimilarityClassifier>(0.6));
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
    out.id = std::string(1, 't');
    return out;
  }

  std::vector<rules::Ree> MlRules() {
    return {
        // Blocking-eligible ER rule (ML link, no equality join).
        Parse("Trans(t0) ^ Trans(t1) ^ MER(t0[com], t1[com]) -> "
              "t0.eid = t1.eid"),
        // Equality-joined ER rule: exhaustive path, the ML predicate
        // checked after the two equalities.
        Parse("Trans(t0) ^ Trans(t1) ^ MER(t0[com], t1[com]) ^ "
              "t0.date = t1.date ^ t0.sid = t1.sid -> t0.eid = t1.eid"),
        // Non-ML rule rides along unchanged.
        Parse("Trans(t0) ^ Trans(t1) ^ t0.com = t1.com -> t0.mfg = t1.mfg"),
    };
  }

  EcommerceData data_;
  ml::MlLibrary models_;
};

void ExpectSameReport(const detect::DetectionReport& x,
                      const detect::DetectionReport& y) {
  EXPECT_EQ(x.violations, y.violations);
  EXPECT_EQ(x.blocked_pairs_checked, y.blocked_pairs_checked);
  EXPECT_EQ(x.exhaustive_pairs_checked, y.exhaustive_pairs_checked);
  ASSERT_EQ(x.errors.size(), y.errors.size());
  for (size_t i = 0; i < x.errors.size(); ++i) {
    EXPECT_EQ(x.errors[i].error_class, y.errors[i].error_class);
    EXPECT_EQ(x.errors[i].rule_id, y.errors[i].rule_id);
    EXPECT_EQ(x.errors[i].cells, y.errors[i].cells);
  }
}

TEST_F(MlBatchDetectTest, MemoDetectMatchesPlainDetect) {
  std::vector<rules::Ree> rules = MlRules();
  detect::ErrorDetector plain_detector(Ctx());
  const auto plain_report = plain_detector.Detect(rules);
  ASSERT_GT(plain_report.violations, 0u);

  MlScoreCache memo;
  detect::DetectorOptions with_memo;
  with_memo.ml_cache = &memo;
  detect::ErrorDetector memo_detector(Ctx(), with_memo);
  ExpectSameReport(memo_detector.Detect(rules), plain_report);
  EXPECT_GT(memo.size(), 0u);
}

TEST_F(MlBatchDetectTest, MemoParallelMatchesPlainAcrossWorkerCounts) {
  std::vector<rules::Ree> rules = MlRules();
  detect::ErrorDetector plain_detector(Ctx());
  const auto plain_report = plain_detector.Detect(rules);
  for (int workers : {1, 2, 5}) {
    ExpectSameReport(plain_detector.DetectParallel(rules, workers, nullptr),
                     plain_report);
    MlScoreCache memo;
    detect::DetectorOptions with_memo;
    with_memo.ml_cache = &memo;
    detect::ErrorDetector memo_detector(Ctx(), with_memo);
    ExpectSameReport(memo_detector.DetectParallel(rules, workers, nullptr),
                     plain_report);
  }
}

TEST_F(MlBatchDetectTest, MemoIncrementalMatchesPlain) {
  std::vector<rules::Ree> rules = MlRules();
  std::vector<std::pair<int, int64_t>> dirty;
  for (size_t row = 0; row < data_.db.relation(data_.trans).size(); row += 2) {
    dirty.emplace_back(data_.trans,
                       data_.db.relation(data_.trans).tuple(row).tid);
  }
  detect::ErrorDetector plain_detector(Ctx());
  MlScoreCache memo;
  detect::DetectorOptions with_memo;
  with_memo.ml_cache = &memo;
  detect::ErrorDetector memo_detector(Ctx(), with_memo);
  ExpectSameReport(memo_detector.DetectIncremental(rules, dirty),
                   plain_detector.DetectIncremental(rules, dirty));
}

TEST_F(MlBatchDetectTest, PrewarmedShuffledCacheYieldsIdenticalReports) {
  // Property: the report must not depend on the order (or origin) of cache
  // entries. Seed an external cache by running parallel detection with 4
  // workers (nondeterministic arrival order), then reuse it for a serial
  // run and compare against a cold serial run.
  std::vector<rules::Ree> rules = MlRules();
  MlScoreCache shared;
  detect::DetectorOptions warm_opts;
  warm_opts.ml_cache = &shared;
  detect::ErrorDetector warmer(Ctx(), warm_opts);
  (void)warmer.DetectParallel(rules, 4, nullptr);
  EXPECT_GT(shared.size(), 0u);

  detect::ErrorDetector warm_detector(Ctx(), warm_opts);
  detect::ErrorDetector cold_detector(Ctx());
  const auto warm_report = warm_detector.Detect(rules);
  const auto cold_report = cold_detector.Detect(rules);
  ExpectSameReport(warm_report, cold_report);
  // The warmed run should have answered its ML predicates from the memo.
  const MlScoreCache::Stats stats = shared.GetStats();
  EXPECT_GT(stats.hits, 0u);
}

TEST_F(MlBatchDetectTest, MemoFilledBySatisfiesNeverChangesAResult) {
  std::vector<rules::Ree> rules = MlRules();
  MlScoreCache memo;
  rules::EvalContext ctx = Ctx();
  ctx.ml_cache = &memo;
  const rules::Evaluator with_memo(ctx);
  const rules::Evaluator plain(Ctx());
  auto enumerate = [](const rules::Evaluator& eval, const rules::Ree& rule) {
    std::vector<rules::Valuation> out;
    eval.Enumerate(rule, rules::Scope{}, nullptr,
                   [&](const rules::Valuation& v) { out.push_back(v); });
    return out;
  };
  for (size_t r = 0; r < rules.size(); ++r) {
    const rules::Ree& rule = rules[r];
    const std::vector<rules::Valuation> expected = enumerate(plain, rule);
    // The first walk fills the memo through Satisfies, the second answers
    // from it: both emit exactly the plain evaluator's valuations.
    EXPECT_EQ(enumerate(with_memo, rule), expected) << "rule " << r;
    const uint64_t hits_before = memo.GetStats().hits;
    EXPECT_EQ(enumerate(with_memo, rule), expected) << "rule " << r;
    if (r < 2) {  // the two rules with an ML predicate
      EXPECT_GT(memo.GetStats().hits, hits_before) << "rule " << r;
    }
    for (const rules::Valuation& v : expected) {
      EXPECT_TRUE(with_memo.SatisfiesPrecondition(rule, v));
    }
  }
  EXPECT_GT(memo.size(), 0u);
}

}  // namespace
}  // namespace rock

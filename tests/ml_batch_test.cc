#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/detect/detector.h"
#include "src/ml/batch.h"
#include "src/ml/library.h"
#include "src/rules/parser.h"
#include "src/workload/ecommerce.h"

namespace rock {
namespace {

using ml::BatchScratch;
using ml::MlScoreCache;
using ml::PairBatch;
using workload::EcommerceData;
using workload::MakeEcommerceData;

// ---------------------------------------------------------------------------
// Batch-vs-scalar bitwise equivalence across model types and batch sizes.

std::vector<Value> RandomRecord(Rng& rng, int num_attrs) {
  static const char* kWords[] = {"iphone", "galaxy", "pixel", "discount",
                                 "store",  "north",  "west",  "14 pro"};
  std::vector<Value> out;
  out.reserve(static_cast<size_t>(num_attrs));
  for (int i = 0; i < num_attrs; ++i) {
    const uint64_t kind = rng.NextBounded(10);
    if (kind == 0) {
      out.push_back(Value::Null());
    } else if (kind <= 2) {
      out.push_back(Value::Double(rng.NextDouble() * 100.0));
    } else {
      std::string s(kWords[rng.NextBounded(8)]);
      if (rng.NextBernoulli(0.5)) {
        s += " ";
        s += kWords[rng.NextBounded(8)];
      }
      if (rng.NextBernoulli(0.3)) s[rng.NextBounded(s.size())] = 'x';
      out.push_back(Value::String(std::move(s)));
    }
  }
  return out;
}

PairBatch MakeBatch(Rng& rng, size_t size, int num_attrs) {
  PairBatch batch;
  for (size_t i = 0; i < size; ++i) {
    std::vector<Value> a = RandomRecord(rng, num_attrs);
    // Half the pairs are near-duplicates so both predicate outcomes and
    // the scratch's value-reuse paths are exercised.
    std::vector<Value> b =
        rng.NextBernoulli(0.5) ? a : RandomRecord(rng, num_attrs);
    batch.Add(std::move(a), std::move(b));
  }
  return batch;
}

std::vector<std::unique_ptr<ml::PairClassifier>> AllModelTypes(
    int num_attrs) {
  std::vector<std::unique_ptr<ml::PairClassifier>> models;
  models.push_back(std::make_unique<ml::SimilarityClassifier>(0.6));

  // Trained models: labels from a threshold on the similarity signal, so
  // training sees both classes.
  Rng rng(99);
  std::vector<std::pair<std::vector<Value>, std::vector<Value>>> pairs;
  std::vector<int> labels;
  ml::SimilarityClassifier labeler(0.6);
  for (int i = 0; i < 80; ++i) {
    std::vector<Value> a = RandomRecord(rng, num_attrs);
    std::vector<Value> b =
        rng.NextBernoulli(0.5) ? a : RandomRecord(rng, num_attrs);
    labels.push_back(labeler.Score(a, b) >= 0.6 ? 1 : 0);
    pairs.emplace_back(std::move(a), std::move(b));
  }
  auto logistic = std::make_unique<ml::LogisticPairClassifier>(num_attrs);
  EXPECT_TRUE(logistic->Train(pairs, labels).ok());
  models.push_back(std::move(logistic));

  auto boosted = std::make_unique<ml::BoostedPairClassifier>(num_attrs);
  EXPECT_TRUE(boosted->Train(pairs, labels).ok());
  models.push_back(std::move(boosted));
  return models;
}

TEST(MlBatchTest, ScoreBatchMatchesScalarBitwise) {
  constexpr int kAttrs = 3;
  auto models = AllModelTypes(kAttrs);
  Rng rng(1);
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
    PairBatch batch = MakeBatch(rng, batch_size, kAttrs);
    for (const auto& model : models) {
      BatchScratch scratch;
      std::vector<double> scores;
      model->ScoreBatch(batch, &scratch, &scores);
      ASSERT_EQ(scores.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        // EXPECT_EQ, not NEAR: the contract is bitwise identity.
        EXPECT_EQ(scores[i], model->Score(batch.a[i], batch.b[i]))
            << "batch_size=" << batch_size << " row=" << i;
      }
      // The nullptr-scratch fallback must agree as well.
      std::vector<double> fallback;
      model->ScoreBatch(batch, nullptr, &fallback);
      EXPECT_EQ(scores, fallback);
    }
  }
}

TEST(MlBatchTest, ShuffledBatchOrderDoesNotChangeScores) {
  constexpr int kAttrs = 3;
  auto models = AllModelTypes(kAttrs);
  Rng rng(2);
  PairBatch batch = MakeBatch(rng, 64, kAttrs);

  std::vector<size_t> order(batch.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng shuffler(3);
  shuffler.Shuffle(order);
  PairBatch shuffled;
  for (size_t i : order) shuffled.Add(batch.a[i], batch.b[i]);

  for (const auto& model : models) {
    BatchScratch scratch;
    std::vector<double> scores;
    model->ScoreBatch(batch, &scratch, &scores);
    scratch.Reset();
    std::vector<double> shuffled_scores;
    model->ScoreBatch(shuffled, &scratch, &shuffled_scores);
    for (size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(shuffled_scores[i], scores[order[i]]);
    }
  }
}

TEST(MlBatchTest, ScratchMemoizesTokenizations) {
  BatchScratch scratch;
  const uint32_t id1 = scratch.InternString("apple store");
  const uint32_t id2 = scratch.InternString("apple shop");
  EXPECT_EQ(scratch.InternString("apple store"), id1);
  EXPECT_EQ(scratch.num_interned(), 2u);
  EXPECT_EQ(scratch.RawTokens(id1).size(), 2u);
  EXPECT_EQ(scratch.SortedTokens(id2).front(), "apple");
  scratch.Reset();
  EXPECT_EQ(scratch.num_interned(), 0u);
  EXPECT_EQ(scratch.InternString("other"), 0u);
}

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
  EXPECT_FALSE(cache.Contains(key));
  cache.Insert(key, 0.25);
  cache.Insert(key, 0.75);  // loses: first insert wins
  ASSERT_TRUE(cache.Lookup(key, &score));
  EXPECT_EQ(score, 0.25);
  EXPECT_TRUE(cache.Contains(key));
  EXPECT_EQ(cache.size(), 1u);

  const MlScoreCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Contains(key));
}

TEST(MlScoreCacheTest, InsertBatchGroupsByShardAndKeepsFirst) {
  MlScoreCache cache;
  std::vector<MlScoreCache::Key> keys;
  std::vector<double> scores;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    std::vector<Value> a = {Value::Int(i)};
    std::vector<Value> b = {Value::Int(static_cast<int>(rng.NextBounded(50)))};
    keys.push_back(MlScoreCache::MakeKey("m", a, b));
    scores.push_back(static_cast<double>(i));
  }
  cache.InsertBatch(keys, scores);
  // Re-inserting different values must not overwrite.
  std::vector<double> other(scores.size(), -1.0);
  cache.InsertBatch(keys, other);
  for (size_t i = 0; i < keys.size(); ++i) {
    double score = -2.0;
    ASSERT_TRUE(cache.Lookup(keys[i], &score));
    // Duplicate keys keep the first batch's first occurrence.
    EXPECT_GE(score, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Detection equivalence: batched predicates must not change any report.

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
        // Equality-joined ER rule: exhaustive path with a deepest-var ML
        // predicate (warm-eligible).
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

TEST_F(MlBatchDetectTest, BatchedDetectMatchesScalarDetect) {
  std::vector<rules::Ree> rules = MlRules();
  detect::DetectorOptions scalar;
  scalar.batch_ml_predicates = false;
  detect::ErrorDetector scalar_detector(Ctx(), scalar);
  const auto scalar_report = scalar_detector.Detect(rules);
  ASSERT_GT(scalar_report.violations, 0u);

  detect::DetectorOptions batched;
  batched.batch_ml_predicates = true;
  detect::ErrorDetector batched_detector(Ctx(), batched);
  ExpectSameReport(batched_detector.Detect(rules), scalar_report);
}

TEST_F(MlBatchDetectTest, BatchedParallelMatchesScalarAcrossWorkerCounts) {
  std::vector<rules::Ree> rules = MlRules();
  detect::DetectorOptions scalar;
  scalar.batch_ml_predicates = false;
  detect::ErrorDetector scalar_detector(Ctx(), scalar);
  const auto scalar_report = scalar_detector.DetectParallel(rules, 1,
                                                           nullptr);
  for (int workers : {1, 4}) {
    detect::DetectorOptions batched;
    batched.batch_ml_predicates = true;
    detect::ErrorDetector batched_detector(Ctx(), batched);
    ExpectSameReport(batched_detector.DetectParallel(rules, workers, nullptr),
                     scalar_report);
  }
}

TEST_F(MlBatchDetectTest, BatchedIncrementalMatchesScalar) {
  std::vector<rules::Ree> rules = MlRules();
  std::vector<std::pair<int, int64_t>> dirty;
  for (size_t row = 0; row < data_.db.relation(data_.trans).size(); row += 2) {
    dirty.emplace_back(data_.trans,
                       data_.db.relation(data_.trans).tuple(row).tid);
  }
  detect::DetectorOptions scalar;
  scalar.batch_ml_predicates = false;
  detect::ErrorDetector scalar_detector(Ctx(), scalar);
  detect::DetectorOptions batched;
  batched.batch_ml_predicates = true;
  detect::ErrorDetector batched_detector(Ctx(), batched);
  ExpectSameReport(batched_detector.DetectIncremental(rules, dirty),
                   scalar_detector.DetectIncremental(rules, dirty));
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

TEST_F(MlBatchDetectTest, WarmMlCachePopulatesAndNeverChangesSatisfies) {
  std::vector<rules::Ree> rules = MlRules();
  MlScoreCache cache;
  rules::EvalContext ctx = Ctx();
  ctx.ml_cache = &cache;
  rules::Evaluator eval(ctx);
  BatchScratch scratch;
  // Rule 1 is warm-eligible (ML predicate binds at the deepest var).
  const size_t scored = eval.WarmMlCache(rules[1], &scratch);
  EXPECT_GT(scored, 0u);
  EXPECT_EQ(cache.size(), scored);
  // Warming twice adds nothing: everything is already memoized.
  EXPECT_EQ(eval.WarmMlCache(rules[1], &scratch), 0u);

  // Satisfies answers from the memo and matches an uncached evaluator.
  rules::Evaluator uncached(Ctx());
  eval.ForEachSatisfying(rules[1], [&](const rules::Valuation& v) {
    EXPECT_TRUE(uncached.SatisfiesPrecondition(rules[1], v));
    return true;
  });
}

}  // namespace
}  // namespace rock

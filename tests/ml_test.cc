#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/ml/correlation.h"
#include "src/ml/feature.h"
#include "src/ml/her.h"
#include "src/ml/library.h"
#include "src/ml/linear.h"
#include "src/ml/lsh.h"
#include "src/ml/ranking.h"
#include "src/ml/tree.h"
#include "src/workload/ecommerce.h"

namespace rock::ml {
namespace {

// ---------- Features ----------

TEST(PairFeaturizerTest, LayoutAndExactMatch) {
  PairFeaturizer featurizer(2);
  EXPECT_EQ(featurizer.dimension(), 12);
  std::vector<Value> a = {Value::String("apple"), Value::Int(5)};
  std::vector<Value> b = {Value::String("apple"), Value::Int(10)};
  FeatureVector f = featurizer.Extract(a, b);
  EXPECT_DOUBLE_EQ(f[0], 1.0);  // exact match on attr 0
  EXPECT_DOUBLE_EQ(f[6], 0.0);  // not exact on attr 1
  EXPECT_GT(f[11], 0.0);        // numeric closeness populated
}

TEST(PairFeaturizerTest, NullHandling) {
  PairFeaturizer featurizer(1);
  FeatureVector both_null =
      featurizer.Extract({Value::Null()}, {Value::Null()});
  EXPECT_DOUBLE_EQ(both_null[1], 1.0);
  FeatureVector one_null =
      featurizer.Extract({Value::String("x")}, {Value::Null()});
  for (double v : one_null) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(HashedTextFeaturizerTest, SimilarTextsShareBuckets) {
  HashedTextFeaturizer featurizer(128);
  FeatureVector a = featurizer.ExtractNormalized("Beijing West Road");
  FeatureVector b = featurizer.ExtractNormalized("Beijing West Rd");
  FeatureVector c = featurizer.ExtractNormalized("quantum flux");
  EXPECT_GT(Cosine(a, b), Cosine(a, c));
  EXPECT_NEAR(Dot(a, a), 1.0, 1e-9);  // normalized
}

TEST(FeatureMathTest, CosineEdgeCases) {
  EXPECT_DOUBLE_EQ(Cosine({0, 0}, {1, 1}), 0.0);
  EXPECT_NEAR(Cosine({1, 0}, {1, 0}), 1.0, 1e-12);
  EXPECT_NEAR(Cosine({1, 0}, {0, 1}), 0.0, 1e-12);
}

// ---------- Logistic regression ----------

TEST(LogisticRegressionTest, LearnsLinearlySeparableData) {
  Rng rng(3);
  std::vector<FeatureVector> x;
  std::vector<int> y;
  for (int i = 0; i < 400; ++i) {
    double a = rng.NextDouble() * 2 - 1;
    double b = rng.NextDouble() * 2 - 1;
    x.push_back({a, b});
    y.push_back(a + b > 0 ? 1 : 0);
  }
  LogisticRegression model;
  model.Train(x, y);
  int correct = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    correct += model.Predict(x[i]) == (y[i] == 1);
  }
  EXPECT_GT(correct, 380);
}

TEST(LogisticRegressionTest, UntrainedScoresHalf) {
  LogisticRegression model;
  EXPECT_FALSE(model.trained());
  EXPECT_DOUBLE_EQ(model.Score({1.0, 2.0}), 0.5);
}

// ---------- LASSO ----------

TEST(LassoTest, RecoversSparseLinearModel) {
  Rng rng(7);
  std::vector<FeatureVector> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    FeatureVector row = {rng.NextDouble(), rng.NextDouble(),
                         rng.NextDouble(), rng.NextDouble()};
    x.push_back(row);
    y.push_back(3.0 * row[1] - 2.0 * row[3] + 0.5);
  }
  Lasso::Options options;
  options.lambda = 0.001;
  Lasso lasso(options);
  lasso.Train(x, y);
  EXPECT_NEAR(lasso.weights()[1], 3.0, 0.1);
  EXPECT_NEAR(lasso.weights()[3], -2.0, 0.1);
  EXPECT_NEAR(lasso.bias(), 0.5, 0.1);
  // Irrelevant features shrink to (near) zero.
  EXPECT_LT(std::abs(lasso.weights()[0]), 0.05);
  EXPECT_LT(std::abs(lasso.weights()[2]), 0.05);
}

TEST(LassoTest, StrongPenaltyZeroesEverything) {
  std::vector<FeatureVector> x = {{1}, {2}, {3}, {4}};
  std::vector<double> y = {1, 2, 3, 4};
  Lasso::Options options;
  options.lambda = 100.0;
  Lasso lasso(options);
  lasso.Train(x, y);
  EXPECT_TRUE(lasso.SelectedFeatures().empty());
  // Prediction collapses to the mean.
  EXPECT_NEAR(lasso.Predict({2.5}), 2.5, 1e-6);
}

// ---------- Trees ----------

TEST(DecisionTreeTest, FitsStepFunction) {
  std::vector<FeatureVector> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(i < 50 ? 1.0 : 5.0);
  }
  DecisionTree tree;
  tree.Train(x, y);
  EXPECT_NEAR(tree.Predict({10}), 1.0, 1e-9);
  EXPECT_NEAR(tree.Predict({90}), 5.0, 1e-9);
  EXPECT_GT(tree.feature_gain()[0], 0.0);
}

TEST(GbdtTest, LearnsAdditiveFunction) {
  Rng rng(13);
  std::vector<FeatureVector> x;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    double a = rng.NextDouble() * 10;
    double b = rng.NextDouble() * 10;
    x.push_back({a, b});
    y.push_back(2 * a + 7 * b);
  }
  GradientBoostedTrees gbt;
  gbt.Train(x, y);
  double err = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    err += std::abs(gbt.Predict(x[i]) - y[i]);
  }
  EXPECT_LT(err / static_cast<double>(x.size()), 6.0);
  // b contributes more variance, so it should dominate importance.
  auto importance = gbt.FeatureImportance();
  EXPECT_GT(importance[1], importance[0]);
  EXPECT_NEAR(importance[0] + importance[1], 1.0, 1e-9);
}

TEST(GbdtTest, UntrainedPredictsZero) {
  GradientBoostedTrees gbt;
  EXPECT_FALSE(gbt.trained());
  EXPECT_DOUBLE_EQ(gbt.Predict({1, 2}), 0.0);
}

// ---------- MinHash / LSH ----------

TEST(MinHashTest, SimilarityTracksJaccard) {
  MinHash minhash(128);
  std::vector<std::string> a = {"a", "b", "c", "d"};
  std::vector<std::string> b = {"a", "b", "c", "e"};   // jaccard 0.6
  std::vector<std::string> c = {"x", "y", "z", "w"};   // jaccard 0
  auto sa = minhash.Signature(a);
  auto sb = minhash.Signature(b);
  auto sc = minhash.Signature(c);
  EXPECT_NEAR(MinHash::Similarity(sa, sb), 0.6, 0.15);
  EXPECT_LT(MinHash::Similarity(sa, sc), 0.1);
  EXPECT_DOUBLE_EQ(MinHash::Similarity(sa, sa), 1.0);
}

TEST(LshBlockerTest, NearDuplicatesBecomeCandidates) {
  LshBlocker blocker;
  blocker.Add(1, {"james", "smith", "beijing"});
  blocker.Add(2, {"james", "smith", "beijin"});
  blocker.Add(3, {"unrelated", "tokens", "here"});
  auto candidates = blocker.Candidates({"james", "smith", "beijing"});
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 1),
            candidates.end());
  // The unrelated record should not surface.
  EXPECT_EQ(std::find(candidates.begin(), candidates.end(), 3),
            candidates.end());
}

// Incremental detection probes the index with a delta row's own tokens
// for pairs in either orientation, which is exact only because band
// collision is symmetric.
TEST(LshBlockerTest, ProbesAreSymmetricSortedAndDeduped) {
  const std::vector<std::vector<std::string>> records = {
      {"shared", "tokens", "block"},
      {"shared", "tokens", "blocks"},
      {"shared", "tokens", "block"},
      {"james", "smith", "beijing"},
      {"james", "smith", "beijin"},
      {"unrelated", "tokens", "here"},
  };
  LshBlocker blocker;
  for (size_t id = 0; id < records.size(); ++id) {
    blocker.Add(static_cast<int64_t>(id), records[id]);
  }
  auto proposes = [&](size_t a, size_t b) {
    std::vector<int64_t> ids = blocker.Candidates(records[a]);
    return std::binary_search(ids.begin(), ids.end(), static_cast<int64_t>(b));
  };
  for (size_t a = 0; a < records.size(); ++a) {
    std::vector<int64_t> ids = blocker.Candidates(records[a]);
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
    for (size_t b = 0; b < records.size(); ++b) {
      EXPECT_EQ(proposes(a, b), proposes(b, a)) << a << " vs " << b;
    }
  }
  EXPECT_GE(blocker.Candidates(records[0]).size(), 2u);  // 0 and 2 equal
}

TEST(SimHashTest, SimilarVectorsHaveCloseHashes) {
  HashedTextFeaturizer featurizer(128);
  uint64_t a = SimHash64(featurizer.Extract("Beijing West Road"));
  uint64_t b = SimHash64(featurizer.Extract("Beijing West Rd"));
  uint64_t c = SimHash64(featurizer.Extract("totally different"));
  EXPECT_LT(__builtin_popcountll(a ^ b), __builtin_popcountll(a ^ c));
}

// ---------- Pair classifiers + library ----------

TEST(SimilarityClassifierTest, TypoPairsMatchUnrelatedDoNot) {
  SimilarityClassifier model(0.8);
  EXPECT_TRUE(model.Predict({Value::String("James Smith 42")},
                            {Value::String("Jmaes Smith 42")}));
  EXPECT_FALSE(model.Predict({Value::String("James Smith 42")},
                             {Value::String("Elena Rossi 7")}));
}

TEST(LogisticPairClassifierTest, TrainsOnLabeledPairs) {
  Rng rng(5);
  std::vector<std::pair<std::vector<Value>, std::vector<Value>>> pairs;
  std::vector<int> labels;
  const char* names[] = {"alpha corp", "beta ltd", "gamma inc",
                         "delta group"};
  for (int i = 0; i < 200; ++i) {
    std::string base = names[rng.NextBounded(4)];
    if (rng.NextBernoulli(0.5)) {
      std::string variant = base;
      variant[1 + rng.NextBounded(3)] = 'z';
      pairs.push_back({{Value::String(base)}, {Value::String(variant)}});
      labels.push_back(1);
    } else {
      pairs.push_back({{Value::String(base)},
                       {Value::String(names[rng.NextBounded(4)] +
                                      std::string(" other"))}});
      labels.push_back(0);
    }
  }
  LogisticPairClassifier model(1);
  ASSERT_TRUE(model.Train(pairs, labels).ok());
  EXPECT_TRUE(model.trained());
  EXPECT_TRUE(model.Predict({Value::String("alpha corp")},
                            {Value::String("alpha zorp")}));
  EXPECT_FALSE(model.Predict({Value::String("alpha corp")},
                             {Value::String("delta group other")}));
}

TEST(MlLibraryTest, RegistryRoundTrips) {
  MlLibrary library;
  EXPECT_EQ(library.FindPair("MER"), nullptr);
  library.RegisterPair("MER", std::make_shared<SimilarityClassifier>());
  EXPECT_NE(library.FindPair("MER"), nullptr);
  EXPECT_EQ(library.FindRanker("Mrank"), nullptr);
  EXPECT_EQ(library.her(), nullptr);
  EXPECT_EQ(library.PairModelNames(), std::vector<std::string>{"MER"});
}

// ---------- Ranking model ----------

Schema VersionSchema() {
  return Schema("V", {{"status", ValueType::kString},
                      {"points", ValueType::kDouble}});
}

Tuple VersionTuple(int64_t eid, const char* status, double points,
                   int64_t ts = kNoTimestamp) {
  Tuple t;
  t.eid = eid;
  t.values = {Value::String(status), Value::Double(points)};
  t.timestamps = {ts, kNoTimestamp};
  return t;
}

TEST(RankingModelTest, TimestampsDominate) {
  RankingModel model(VersionSchema(), 0);
  Tuple older = VersionTuple(1, "standard", 10, 100);
  Tuple newer = VersionTuple(1, "premium", 20, 200);
  EXPECT_DOUBLE_EQ(model.Confidence(older, newer, 0, false), 1.0);
  EXPECT_DOUBLE_EQ(model.Confidence(newer, older, 0, false), 0.0);
  EXPECT_DOUBLE_EQ(model.Confidence(older, newer, 0, true), 1.0);
}

TEST(RankingModelTest, CreatorCriticLearnsMonotoneSignal) {
  // Entities have two versions: the one with more points is newer, and
  // its status text is "premium" vs "standard". The critic knows the
  // monotone attribute; the creator generalizes to unstamped pairs.
  Relation relation(VersionSchema());
  Rng rng(21);
  for (int e = 0; e < 60; ++e) {
    double base = 10 + static_cast<double>(rng.NextBounded(100));
    ASSERT_TRUE(relation
                    .Append(VersionTuple(e, "standard", base))
                    .ok());
    ASSERT_TRUE(relation
                    .Append(VersionTuple(e, "premium", base * 2))
                    .ok());
  }
  std::vector<CurrencyConstraint> constraints;
  constraints.push_back(
      {"points-monotone",
       [](const Schema&, const Tuple& t1, const Tuple& t2, int) {
         if (t1.eid != t2.eid) return 0;
         int cmp = t1.values[1].Compare(t2.values[1]);
         return cmp == 0 ? 0 : (cmp < 0 ? 1 : -1);
       }});
  RankingModel model(VersionSchema(), 0);
  model.TrainCreatorCritic(relation, constraints);

  // Unseen pair with no timestamps and an unseen entity: the learned
  // embedding/numeric signal must still order standard ⪯ premium.
  Tuple standard = VersionTuple(999, "standard", 40);
  Tuple premium = VersionTuple(999, "premium", 80);
  EXPECT_GT(model.Confidence(standard, premium, 0, false), 0.5);
  EXPECT_LT(model.Confidence(premium, standard, 0, false), 0.5);
}

TEST(RankingModelTest, StrictOnEqualValuesIsFalse) {
  RankingModel model(VersionSchema(), 0);
  Tuple a = VersionTuple(1, "same", 1);
  Tuple b = VersionTuple(2, "same", 1);
  EXPECT_DOUBLE_EQ(model.Confidence(a, b, 0, true), 0.0);
}

// ---------- Correlation models ----------

TEST(CooccurrenceModelTest, StrengthFollowsConditionalFrequency) {
  Relation relation(Schema("T", {{"com", ValueType::kString},
                                 {"mfg", ValueType::kString}}));
  auto add = [&relation](const char* com, const char* mfg) {
    Tuple t;
    t.values = {Value::String(com), Value::String(mfg)};
    ASSERT_TRUE(relation.Append(std::move(t)).ok());
  };
  for (int i = 0; i < 9; ++i) add("iphone", "Apple");
  add("iphone", "Huawei");  // one corrupted pairing
  CooccurrenceModel model;
  model.TrainOnRelation(relation);

  std::vector<Value> tuple = {Value::String("iphone"), Value::Null()};
  double apple = model.Strength(tuple, {0}, 1, Value::String("Apple"));
  double huawei = model.Strength(tuple, {0}, 1, Value::String("Huawei"));
  EXPECT_GT(apple, 0.7);
  EXPECT_GT(apple, huawei * 2);
}

TEST(CooccurrenceModelTest, PredictValueReturnsDominantPairing) {
  Relation relation(Schema("T", {{"city", ValueType::kString},
                                 {"code", ValueType::kString}}));
  auto add = [&relation](const char* a, const char* b) {
    Tuple t;
    t.values = {Value::String(a), Value::String(b)};
    ASSERT_TRUE(relation.Append(std::move(t)).ok());
  };
  for (int i = 0; i < 5; ++i) add("Beijing", "010");
  for (int i = 0; i < 5; ++i) add("Shanghai", "021");
  CooccurrenceModel model;
  model.TrainOnRelation(relation);
  std::vector<Value> tuple = {Value::String("Beijing"), Value::Null()};
  auto predicted = model.PredictValue(tuple, {0}, 1);
  ASSERT_TRUE(predicted.ok());
  EXPECT_EQ(predicted->AsString(), "010");
  // No evidence at all -> NotFound.
  std::vector<Value> unknown = {Value::String("Atlantis"), Value::Null()};
  EXPECT_FALSE(model.PredictValue(unknown, {0}, 1).ok());
}

TEST(CooccurrenceModelTest, GraphTrainingAddsCandidates) {
  kg::KnowledgeGraph graph;
  auto z = graph.AddVertex("Z10001");
  auto area = graph.AddVertex("Chaoyang");
  ASSERT_TRUE(graph.AddEdge(z, "AreaOf", area).ok());
  CooccurrenceModel model;
  model.TrainOnGraph(graph, /*subject_attr=*/0, /*object_attr=*/1);
  std::vector<Value> tuple = {Value::String("Z10001"), Value::Null()};
  auto predicted = model.PredictValue(tuple, {0}, 1);
  ASSERT_TRUE(predicted.ok());
  EXPECT_EQ(predicted->AsString(), "Chaoyang");
}

// PredictValue's value as text, or "<none>" when there is no candidate.
std::string PredictedText(const CooccurrenceModel& model,
                          const std::vector<Value>& values,
                          const std::vector<int>& attrs, int attr_b) {
  Result<Value> predicted = model.PredictValue(values, attrs, attr_b);
  return predicted.ok() ? predicted->ToString() : std::string("<none>");
}

TEST(CooccurrenceModelTest, StrengthAndPredictValueArePinned) {
  // Exact outputs on a fixed relation plus graph. Every sum runs over an
  // ordered value map, so a change to how the counts are stored must
  // reproduce each double bit for bit (hex literals; EXPECT_EQ, not NEAR).
  Relation relation(Schema("T", {{"zip", ValueType::kString},
                                 {"area", ValueType::kString},
                                 {"city", ValueType::kString}}));
  auto add = [&relation](int copies, const char* zip, const char* area,
                         const char* city) {
    for (int i = 0; i < copies; ++i) {
      Tuple t;
      t.values = {Value::String(zip),
                  area == nullptr ? Value::Null() : Value::String(area),
                  Value::String(city)};
      ASSERT_TRUE(relation.Append(std::move(t)).ok());
    }
  };
  add(4, "Z1", "Chaoyang", "Beijing");
  add(1, "Z1", "Haidian", "Beijing");
  add(3, "Z2", "Haidian", "Beijing");
  add(1, "Z2", "Pudong", "Shanghai");
  add(3, "Z3", "Pudong", "Shanghai");
  add(1, "Z3", nullptr, "Shanghai");
  add(2, "Z4", "Xuhui", "Shanghai");
  kg::KnowledgeGraph graph;
  const kg::VertexId z1 = graph.AddVertex("Z1");
  const kg::VertexId z5 = graph.AddVertex("Z5");
  ASSERT_TRUE(graph.AddEdge(z1, "AreaOf", graph.AddVertex("Chaoyang")).ok());
  ASSERT_TRUE(graph.AddEdge(z5, "AreaOf", graph.AddVertex("Minhang")).ok());
  CooccurrenceModel model;
  model.TrainOnRelation(relation);
  model.TrainOnGraph(graph, /*subject_attr=*/0, /*object_attr=*/1);

  const std::vector<Value> beijing = {Value::String("Z1"), Value::Null(),
                                      Value::String("Beijing")};
  const std::vector<Value> shanghai = {Value::String("Z3"),
                                       Value::String("Pudong"), Value::Null()};
  const std::vector<Value> minhang = {Value::String("Z5"), Value::Null(),
                                      Value::Null()};
  const std::vector<double> strengths = {
      model.Strength(beijing, {0, 2}, 1, Value::String("Chaoyang")),
      model.Strength(beijing, {0, 2}, 1, Value::String("Haidian")),
      model.Strength(beijing, {0, 2}, 1, Value::String("Pudong")),
      model.Strength(beijing, {0, 2}, 1, Value::String("Atlantis")),
      model.Strength(shanghai, {0, 1}, 2, Value::String("Shanghai")),
      model.Strength(shanghai, {0, 1}, 2, Value::String("Beijing")),
      model.Strength(minhang, {0}, 1, Value::String("Minhang")),
      model.Strength(minhang, {0}, 1, Value::String("Xuhui")),
  };
  const std::vector<std::string> predicted = {
      PredictedText(model, beijing, {0, 2}, 1),
      PredictedText(model, shanghai, {0, 1}, 2),
      PredictedText(model, {Value::String("Z2"), Value::Null(),
                            Value::String("Beijing")}, {0, 2}, 1),
      PredictedText(model, minhang, {0}, 1),
      PredictedText(model, minhang, {0}, 2),
  };
  const std::vector<double> pinned = {
      0x1.3c2397c5003fep-1, 0x1.71f81f81f81f8p-2, 0x1.76fcb942831f9p-4,
      0x1.a25baf57423a4p-4, 0x1.d4c4b7c85ace2p-1, 0x1.9a9ef3662559bp-4,
      0x1.6c8eb95455c1p-1,  0x1.0da740da740dbp-3,
  };
  ASSERT_EQ(strengths.size(), pinned.size());
  for (size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(strengths[i], pinned[i]) << "case " << i;
  }
  EXPECT_EQ(predicted, (std::vector<std::string>{"Chaoyang", "Shanghai",
                                                 "Haidian", "Minhang",
                                                 "<none>"}));
}

// ---------- HER + path matcher ----------

TEST(HerModelTest, MatchesTupleToItsVertex) {
  workload::EcommerceData data = workload::MakeEcommerceData();
  HerModel her;
  her.IndexGraph(data.graph);
  const Relation& store = data.db.relation(data.store);
  const Schema& schema = store.schema();
  // Row 2 is "Huawei Flagship": it must match its own vertex and not
  // Nike's.
  std::vector<Value> values = store.tuple(2).values;
  EXPECT_TRUE(her.Match(values, schema, data.graph,
                        data.huawei_store_vertex));
  EXPECT_FALSE(her.Match(values, schema, data.graph,
                         data.nike_store_vertex));
  // Blocking candidates include the matching vertex.
  auto candidates = her.Candidates(values, schema);
  EXPECT_NE(std::find(candidates.begin(), candidates.end(),
                      data.huawei_store_vertex),
            candidates.end());
}

TEST(PathMatchModelTest, SynonymsAndEmbeddingScore) {
  PathMatchModel model;
  model.AddSynonym("location", {"LocationAt"});
  EXPECT_TRUE(model.Matches("location", {"LocationAt"}));
  EXPECT_DOUBLE_EQ(model.Score("location", {"LocationAt"}), 1.0);
  // Char-ngram backoff: similar names score higher than unrelated ones.
  EXPECT_GT(model.Score("area", {"AreaOf"}),
            model.Score("area", {"ManufacturedBy"}));
}

}  // namespace
}  // namespace rock::ml

// Why-provenance: witness capture in the chase, proof-tree expansion, the
// Explain API, conflict-record derivation links, and the JSON round-trip of
// the audit trail.

#include <algorithm>
#include <bit>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/chase/chase.h"
#include "src/chase/fix_store.h"
#include "src/common/json.h"
#include "src/common/mutex.h"
#include "src/core/engine.h"
#include "src/ml/batch.h"
#include "src/ml/correlation.h"
#include "src/ml/her.h"
#include "src/ml/library.h"
#include "src/ml/ranking.h"
#include "src/obs/provenance.h"
#include "src/rules/parser.h"
#include "src/workload/ecommerce.h"
#include "src/workload/generator.h"

namespace rock {
namespace {

using chase::ChaseEngine;
using chase::ChaseOptions;
using chase::ConflictRecord;
using chase::FixRecord;
using chase::FixStore;
using rules::Ree;

Ree MustParse(const std::string& text, const DatabaseSchema& schema,
              const std::string& id) {
  auto rule = rules::ParseRee(text, schema);
  EXPECT_TRUE(rule.ok()) << rule.status().ToString() << " for " << text;
  Ree out = *rule;
  out.id = id;
  return out;
}

// ---------- ProvenanceGraph unit tests ----------

obs::ProvenanceNode MakeNode(obs::ProvKind kind, const std::string& rule_id,
                             std::vector<int64_t> upstream) {
  obs::ProvenanceNode node;
  node.kind = kind;
  node.rule_id = rule_id;
  node.target = rule_id + " target";
  node.upstream = std::move(upstream);
  return node;
}

TEST(ProvenanceGraphTest, DepthAndBoundedExpansion) {
  obs::ProvenanceGraph graph;
  int64_t leaf = graph.Add(MakeNode(obs::ProvKind::kGroundTruth, "Γ", {}));
  int64_t mid = graph.Add(MakeNode(obs::ProvKind::kFix, "r1", {leaf}));
  int64_t top = graph.Add(MakeNode(obs::ProvKind::kFix, "r2", {mid}));

  EXPECT_EQ(graph.ProofDepth(leaf), 1u);
  EXPECT_EQ(graph.ProofDepth(top), 3u);

  obs::ProofTree full = graph.Expand(top);
  ASSERT_FALSE(full.empty());
  ASSERT_EQ(full.root.children.size(), 1u);
  ASSERT_EQ(full.root.children[0].children.size(), 1u);
  EXPECT_EQ(full.root.children[0].children[0].node->kind,
            obs::ProvKind::kGroundTruth);
  EXPECT_FALSE(full.root.truncated);

  obs::ProofTree bounded = graph.Expand(top, /*max_depth=*/2);
  ASSERT_EQ(bounded.root.children.size(), 1u);
  EXPECT_TRUE(bounded.root.children[0].truncated);
  EXPECT_TRUE(bounded.root.children[0].children.empty());
  EXPECT_NE(bounded.ToText().find("depth bound"), std::string::npos);
}

TEST(ProvenanceGraphTest, AddSanitizesUpstream) {
  obs::ProvenanceGraph graph;
  int64_t leaf = graph.Add(MakeNode(obs::ProvKind::kGroundTruth, "Γ", {}));
  // Forward references, negatives and duplicates cannot enter the DAG —
  // ProofDepth's recursion relies on upstream ids being strictly smaller.
  int64_t id = graph.Add(
      MakeNode(obs::ProvKind::kFix, "r", {leaf, leaf, -4, 99}));
  ASSERT_NE(graph.Get(id), nullptr);
  EXPECT_EQ(graph.Get(id)->upstream, std::vector<int64_t>{leaf});
}

TEST(ProvenanceGraphTest, MergeForestExplainsTransitivePath) {
  obs::ProvenanceGraph graph;
  int64_t m12 = graph.Add(MakeNode(obs::ProvKind::kFix, "m12", {}));
  int64_t m23 = graph.Add(MakeNode(obs::ProvKind::kFix, "m23", {}));
  graph.LinkMerge(1, 2, m12);
  graph.LinkMerge(2, 3, m23);

  std::vector<int64_t> path = graph.MergePath(1, 3);
  std::sort(path.begin(), path.end());
  EXPECT_EQ(path, (std::vector<int64_t>{m12, m23}));
  EXPECT_TRUE(graph.MergePath(1, 7).empty());

  obs::ProofTree tree = graph.ExplainMerge(1, 3);
  ASSERT_FALSE(tree.empty());
  EXPECT_EQ(tree.root.node, nullptr);  // synthetic root
  EXPECT_EQ(tree.root.children.size(), 2u);
  EXPECT_TRUE(graph.ExplainMerge(1, 7).empty());
}

// ---------- Witness capture through the chase ----------

class KvDb {
 public:
  // S(k: string, v: string, w: string, o: int)
  KvDb() {
    DatabaseSchema schema;
    Status s = schema.AddRelation(Schema("S",
                                         {{"k", ValueType::kString},
                                          {"v", ValueType::kString},
                                          {"w", ValueType::kString},
                                          {"o", ValueType::kInt}}));
    EXPECT_TRUE(s.ok());
    db = Database(std::move(schema));
  }

  int64_t Insert(const char* k, const char* v, const char* w, int64_t o) {
    Tuple t;
    t.values = {k == nullptr ? Value::Null() : Value::String(k),
                v == nullptr ? Value::Null() : Value::String(v),
                w == nullptr ? Value::Null() : Value::String(w),
                Value::Int(o)};
    auto tid = db.Insert(0, std::move(t));
    EXPECT_TRUE(tid.ok());
    return *tid;
  }

  Database db;
};

TEST(ChaseProvenanceTest, CertainFixProofReachesGroundTruth) {
  KvDb data;
  int64_t dirty = data.Insert("x", nullptr, "-", 0);
  int64_t trusted = data.Insert("x", "good", "-", 0);

  ChaseOptions options;
  options.certain_fixes_only = true;
  ml::MlLibrary models;
  ChaseEngine engine(&data.db, nullptr, &models, options);
  {
    common::RoleGuard apply(engine.fix_store().apply_role());
    ASSERT_TRUE(engine.fix_store().AddGroundTruthTuple(0, trusted).ok());
    ASSERT_TRUE(
        engine.fix_store()
            .AddGroundTruthValue(0, dirty, 0, Value::String("x"))
            .ok());
  }

  Ree rule = MustParse("S(t0) ^ S(t1) ^ t0.k = t1.k -> t0.v = t1.v",
                       data.db.schema(), "cr1");
  chase::ChaseResult result = engine.Run({rule});
  EXPECT_GT(result.fixes_applied, 0u);

  obs::ProofTree tree = engine.Explain(0, dirty, 1);
  ASSERT_FALSE(tree.empty());
  ASSERT_NE(tree.root.node, nullptr);
  EXPECT_EQ(tree.root.node->kind, obs::ProvKind::kFix);
  EXPECT_EQ(tree.root.node->rule_id, "cr1");
  EXPECT_FALSE(tree.root.node->witness.tuples.empty());
  // Every premise the precondition read is ground truth, and the proof
  // recurses to Γ leaves.
  ASSERT_FALSE(tree.root.node->witness.premises.empty());
  for (const obs::PremiseCell& premise : tree.root.node->witness.premises) {
    EXPECT_EQ(premise.source, obs::PremiseSource::kGroundTruth)
        << "attr " << premise.attr;
    EXPECT_GE(premise.upstream, 0);
  }
  ASSERT_FALSE(tree.root.children.empty());
  for (const auto& child : tree.root.children) {
    EXPECT_EQ(child.node->kind, obs::ProvKind::kGroundTruth);
    EXPECT_EQ(child.node->rule_id, "Γ");
  }

  obs::ProvenanceSummary summary = engine.ProvenanceSummary();
  EXPECT_GE(summary.max_depth, 2u);
  EXPECT_GT(summary.premises_ground_truth, 0u);
  EXPECT_EQ(summary.fixes_by_rule.count("cr1"), 1u);
}

TEST(ChaseProvenanceTest, PriorFixChainLinksUpstream) {
  KvDb data;
  int64_t tid = data.Insert("x", nullptr, nullptr, 0);

  ml::MlLibrary models;
  ChaseEngine engine(&data.db, nullptr, &models);
  std::vector<Ree> rules = {
      MustParse("S(t0) ^ t0.k = 'x' -> t0.v = 'a'", data.db.schema(), "r1"),
      MustParse("S(t0) ^ t0.v = 'a' -> t0.w = 'b'", data.db.schema(), "r2"),
  };
  chase::ChaseResult result = engine.Run(rules);
  EXPECT_GE(result.fixes_applied, 2u);

  obs::ProofTree tree = engine.Explain(0, tid, 2);
  ASSERT_FALSE(tree.empty());
  EXPECT_EQ(tree.root.node->rule_id, "r2");
  ASSERT_EQ(tree.root.children.size(), 1u);
  EXPECT_EQ(tree.root.children[0].node->rule_id, "r1");
  bool found_prior_fix = false;
  for (const obs::PremiseCell& premise : tree.root.node->witness.premises) {
    if (premise.source == obs::PremiseSource::kPriorFix) {
      found_prior_fix = true;
      EXPECT_EQ(premise.upstream, tree.root.children[0].node->id);
    }
  }
  EXPECT_TRUE(found_prior_fix);
  EXPECT_NE(tree.ToText().find("prior_fix"), std::string::npos);

  // The JSON rendering parses back and carries the same shape.
  auto parsed = json::Parse(tree.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("rule_id"), "r2");
  const json::Value* children = parsed->Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->AsArray().size(), 1u);
  EXPECT_EQ(children->AsArray()[0].GetString("rule_id"), "r1");
}

TEST(ChaseProvenanceTest, ExplainMergeCoversTransitiveMerges) {
  KvDb data;
  int64_t a = data.Insert("x", "1", "-", 0);
  int64_t b = data.Insert("x", "2", "-", 0);
  int64_t c = data.Insert("x", "3", "-", 0);
  (void)b;

  ml::MlLibrary models;
  ChaseEngine engine(&data.db, nullptr, &models);
  Ree rule = MustParse("S(t0) ^ S(t1) ^ t0.k = t1.k -> t0.eid = t1.eid",
                       data.db.schema(), "er1");
  engine.Run({rule});
  EXPECT_EQ(engine.fix_store().CanonicalEid(0, c),
            engine.fix_store().CanonicalEid(0, a));

  // Tuples inherit eid = tid here, so the merge proof is queried on eids.
  obs::ProofTree tree = engine.ExplainMerge(a, c);
  ASSERT_FALSE(tree.empty());
  ASSERT_FALSE(tree.root.children.empty());
  for (const auto& step : tree.root.children) {
    EXPECT_EQ(step.node->kind, obs::ProvKind::kFix);
    EXPECT_EQ(step.node->rule_id, "er1");
    EXPECT_FALSE(step.node->witness.tuples.empty());
  }
  EXPECT_GE(engine.fix_store().ProvOfMerge(a, c), 0);
  // Unrelated eids have no merge proof.
  EXPECT_TRUE(engine.ExplainMerge(a, 424242).empty());
}

TEST(ChaseProvenanceTest, ProofsIdenticalAcrossWorkerCountsAndSerial) {
  auto rules_for = [](const Database& db) {
    return std::vector<Ree>{
        MustParse("Trans(t0) ^ Trans(t1) ^ t0.com = t1.com -> t0.mfg = t1.mfg",
                  db.schema(), "p1"),
        MustParse("Store(t0) ^ t0.location = 'Beijing' -> "
                  "t0.area_code = '010'",
                  db.schema(), "p2"),
        MustParse("Person(t0) ^ Person(t1) ^ t0.spouse = t1.pid ^ "
                  "null(t1.home) -> t1.home = t0.home",
                  db.schema(), "p3"),
    };
  };

  workload::EcommerceData serial_data = workload::MakeEcommerceData();
  ml::MlLibrary models;
  ChaseEngine serial(&serial_data.db, nullptr, &models);
  serial.Run(rules_for(serial_data.db));
  std::vector<std::string> serial_texts;
  for (const chase::CellFix& fix : serial.CellFixes()) {
    serial_texts.push_back(serial.Explain(fix.rel, fix.tid, fix.attr).ToText());
  }
  std::sort(serial_texts.begin(), serial_texts.end());
  ASSERT_FALSE(serial_texts.empty());

  for (int workers : {1, 3, 6}) {
    workload::EcommerceData data = workload::MakeEcommerceData();
    ChaseEngine engine(&data.db, nullptr, &models);
    par::ScheduleReport schedule;
    engine.RunParallel(rules_for(data.db), workers, &schedule);
    std::vector<std::string> texts;
    for (const chase::CellFix& fix : engine.CellFixes()) {
      texts.push_back(engine.Explain(fix.rel, fix.tid, fix.attr).ToText());
    }
    std::sort(texts.begin(), texts.end());
    EXPECT_EQ(texts, serial_texts) << "workers=" << workers;
  }
}

// ---------- The Rock facade ----------

TEST(RockExplainTest, EndToEndExplainAfterCorrectErrors) {
  workload::EcommerceData data = workload::MakeEcommerceData();
  core::Rock rock(&data.db, &data.graph);

  // Before any correction there is nothing to explain.
  EXPECT_TRUE(rock.Explain(0, 0, 0).empty());
  EXPECT_TRUE(rock.ExplainMerge(101, 102).empty());
  EXPECT_EQ(rock.ProvenanceSummary().nodes, 0u);

  core::ModelTrainingSpec spec;
  spec.mer_threshold = 0.6;
  spec.path_synonyms = {{"location", {"LocationAt"}}, {"type", {"TypeOf"}}};
  rock.TrainModels(spec);
  auto rules = rock.LoadRules(
      "Store(t0) ^ t0.location = 'Beijing' -> t0.area_code = '010'\n"
      "Person(t0) ^ Person(t1) ^ t0.spouse = t1.pid ^ null(t1.home) -> "
      "t1.home = t0.home\n");
  ASSERT_TRUE(rules.ok());
  core::CorrectionResult result;
  auto engine = rock.CorrectErrors(*rules, {}, &result);
  ASSERT_NE(engine, nullptr);
  ASSERT_NE(rock.last_engine(), nullptr);
  ASSERT_GT(result.chase.fixes_applied, 0u);


  // Every repaired cell in the audit trail explains itself with a
  // non-empty proof tree carrying rule text and witness tuples.
  std::vector<chase::CellFix> fixes = engine->CellFixes();
  ASSERT_FALSE(fixes.empty());
  for (const chase::CellFix& fix : fixes) {
    obs::ProofTree tree = rock.Explain(fix.rel, fix.tid, fix.attr);
    ASSERT_FALSE(tree.empty())
        << "rel " << fix.rel << " tid " << fix.tid << " attr " << fix.attr;
    EXPECT_FALSE(tree.root.node->witness.rule_text.empty());
    EXPECT_FALSE(tree.root.node->witness.tuples.empty());
    EXPECT_NE(tree.ToText().find("rule:"), std::string::npos);
  }
  EXPECT_GT(rock.ProvenanceSummary().nodes, 0u);
}

// A polynomial fix is an ordinary rule application: its proof cites the
// discovered rule's text and the input cells the prediction read.
TEST(RockExplainTest, PolynomialFixCitesItsRuleAndInputCells) {
  workload::GeneratorOptions options;
  options.rows = 150;
  options.seed = 17;
  workload::GeneratedData data = workload::MakeBankData(options);
  core::Rock rock(&data.db, &data.graph);
  const std::vector<Ree>& polys = rock.DiscoverPolynomials();
  const auto total = std::find_if(polys.begin(), polys.end(), [](const Ree& r) {
    return r.id == "poly_2_5";
  });
  ASSERT_NE(total, polys.end());
  const int kPayment = 2, kAmount = 2, kFee = 3, kTotal = 5;

  core::CorrectionResult result;
  auto engine = rock.CorrectErrors({}, data.clean_tuples, &result);
  size_t explained = 0;
  for (const chase::CellFix& fix : engine->CellFixes()) {
    if (fix.rel != kPayment || fix.attr != kTotal) continue;
    const obs::ProofTree tree = rock.Explain(fix.rel, fix.tid, fix.attr);
    ASSERT_NE(tree.root.node, nullptr);
    const obs::ProvenanceNode& node = *tree.root.node;
    EXPECT_EQ(node.rule_id, "poly_2_5");
    EXPECT_EQ(node.witness.rule_text, total->ToString(data.db.schema()));
    ASSERT_EQ(node.witness.tuples.size(), 1u);
    EXPECT_EQ(node.witness.tuples[0].tid, fix.tid);
    const Relation& payments = data.db.relation(kPayment);
    const Tuple& t =
        payments.tuple(static_cast<size_t>(payments.RowOfTid(fix.tid)));
    for (int attr : {kAmount, kFee}) {
      const auto premise = std::find_if(
          node.witness.premises.begin(), node.witness.premises.end(),
          [&](const obs::PremiseCell& cell) { return cell.attr == attr; });
      ASSERT_NE(premise, node.witness.premises.end()) << "attr " << attr;
      EXPECT_EQ(premise->rel, kPayment);
      EXPECT_EQ(premise->tid, fix.tid);
      EXPECT_EQ(premise->value, t.value(attr).ToString());
    }
    // The target is what the rule judges, not one of its premises.
    for (const obs::PremiseCell& cell : node.witness.premises) {
      EXPECT_NE(cell.attr, kTotal);
    }
    ++explained;
  }
  EXPECT_GT(explained, 0u);
}

// ---------- Satellite: ReplaceValue hash-index regression ----------

TEST(FixStoreHashIndexTest, ReplaceValueErasesStaleHashEntry) {
  KvDb data;
  int64_t tid = data.Insert("x", nullptr, nullptr, 0);
  FixStore store(&data.db);
  common::RoleGuard apply(store.apply_role());  // single-threaded test body
  bool changed = false;
  ASSERT_TRUE(
      store.SetValue(0, tid, 1, Value::String("old"), "r1", &changed).ok());
  ASSERT_TRUE(store.ReplaceValue(0, tid, 1, Value::String("new"), "mc").ok());

  // The superseded value's hash bucket must no longer serve the tid.
  std::vector<int64_t> stale =
      store.PatchedTidsEq(0, 1, Value::String("old").Hash());
  EXPECT_TRUE(std::find(stale.begin(), stale.end(), tid) == stale.end());
  std::vector<int64_t> fresh =
      store.PatchedTidsEq(0, 1, Value::String("new").Hash());
  EXPECT_TRUE(std::find(fresh.begin(), fresh.end(), tid) != fresh.end());
  EXPECT_EQ(store.ValidatedValue(0, tid, 1)->AsString(), "new");
}

TEST(FixStoreHashIndexTest, PatchedTidsEqNeverServesMismatchedValues) {
  // Regression sweep: after a chain of SetValue/ReplaceValue, every tid an
  // equality probe returns must re-verify against its validated value.
  KvDb data;
  std::vector<int64_t> tids;
  for (int i = 0; i < 6; ++i) {
    tids.push_back(data.Insert("x", nullptr, nullptr, i));
  }
  FixStore store(&data.db);
  common::RoleGuard apply(store.apply_role());
  bool changed = false;
  std::vector<Value> candidates = {Value::String("a"), Value::String("b"),
                                   Value::String("c")};
  for (size_t i = 0; i < tids.size(); ++i) {
    ASSERT_TRUE(store
                    .SetValue(0, tids[i], 1, candidates[i % 3],
                              "r", &changed)
                    .ok());
  }
  for (size_t i = 0; i < tids.size(); i += 2) {
    ASSERT_TRUE(
        store.ReplaceValue(0, tids[i], 1, candidates[(i + 1) % 3], "mc").ok());
  }
  for (const Value& probe : candidates) {
    for (int64_t tid : store.PatchedTidsEq(0, 1, probe.Hash())) {
      auto validated = store.ValidatedValue(0, tid, 1);
      ASSERT_TRUE(validated.has_value());
      EXPECT_EQ(validated->Hash(), probe.Hash())
          << "tid " << tid << " served for " << probe.ToString()
          << " but holds " << validated->ToString();
    }
  }
}

// ---------- Satellite: JSON round-trip + golden file ----------

std::vector<FixRecord> GoldenFixRecords() {
  std::vector<FixRecord> records;
  FixRecord merge;
  merge.kind = FixRecord::Kind::kMergeEid;
  merge.rule_id = "φ1";
  merge.prov_id = 7;
  merge.eid_a = 101;
  merge.eid_b = 102;
  records.push_back(merge);

  FixRecord set;
  set.kind = FixRecord::Kind::kSetValue;
  set.rule_id = "φ12";
  set.rel = 1;
  set.attr = 5;
  set.eid = 211;
  set.tid1 = 5;
  set.value = Value::String("010");
  records.push_back(set);

  FixRecord time_fix;
  time_fix.kind = FixRecord::Kind::kSetValue;
  time_fix.rule_id = "Γ";
  time_fix.prov_id = 0;
  time_fix.rel = 0;
  time_fix.attr = 2;
  time_fix.eid = 9;
  time_fix.tid1 = 9;
  time_fix.value = Value::Time(1700000000);
  records.push_back(time_fix);

  FixRecord temporal;
  temporal.kind = FixRecord::Kind::kTemporalOrder;
  temporal.rule_id = "φ4";
  temporal.prov_id = 3;
  temporal.rel = 0;
  temporal.attr = 5;
  temporal.tid1 = 2;
  temporal.tid2 = 3;
  temporal.strict = false;
  records.push_back(temporal);
  return records;
}

ConflictRecord GoldenConflictRecord() {
  ConflictRecord conflict;
  conflict.kind = ConflictRecord::Kind::kValue;
  conflict.rule_id = "φ8";
  conflict.description = "MI candidates 4200 vs 9000";
  conflict.resolution = "mc_argmax:existing";
  conflict.prov_existing = 4;
  conflict.prov_candidate = 11;
  return conflict;
}

TEST(AuditJsonTest, MatchesGoldenFile) {
  std::ifstream golden(std::string(ROCK_TEST_SRCDIR) +
                       "/golden/fix_records.json");
  ASSERT_TRUE(golden.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(golden, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  std::vector<std::string> produced;
  for (const FixRecord& record : GoldenFixRecords()) {
    produced.push_back(record.ToJson());
  }
  produced.push_back(GoldenConflictRecord().ToJson());
  EXPECT_EQ(lines, produced);
}

TEST(AuditJsonTest, FixRecordRoundTrips) {
  for (const FixRecord& record : GoldenFixRecords()) {
    auto doc = json::Parse(record.ToJson());
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    auto back = FixRecord::FromJson(*doc);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->kind, record.kind);
    EXPECT_EQ(back->rule_id, record.rule_id);
    EXPECT_EQ(back->prov_id, record.prov_id);
    EXPECT_EQ(back->eid_a, record.eid_a);
    EXPECT_EQ(back->eid_b, record.eid_b);
    EXPECT_EQ(back->rel, record.rel);
    EXPECT_EQ(back->attr, record.attr);
    EXPECT_EQ(back->eid, record.eid);
    EXPECT_EQ(back->tid1, record.tid1);
    EXPECT_EQ(back->tid2, record.tid2);
    EXPECT_EQ(back->strict, record.strict);
    EXPECT_EQ(back->value.type(), record.value.type());
    EXPECT_TRUE(back->value == record.value)
        << back->value.ToString() << " vs " << record.value.ToString();
  }
}

TEST(AuditJsonTest, ValueVariantsRoundTrip) {
  std::vector<Value> values = {Value::Null(), Value::Int(-42),
                               Value::Double(12.5),
                               Value::String("with \"quotes\" and \n"),
                               Value::Time(1700000123)};
  for (const Value& value : values) {
    FixRecord record;
    record.kind = FixRecord::Kind::kSetValue;
    record.rule_id = "r";
    record.value = value;
    auto doc = json::Parse(record.ToJson());
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    auto back = FixRecord::FromJson(*doc);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->value.type(), value.type());
    EXPECT_TRUE(back->value == value)
        << back->value.ToString() << " vs " << value.ToString();
  }
}

TEST(AuditJsonTest, ConflictRecordRoundTrips) {
  ConflictRecord record = GoldenConflictRecord();
  auto doc = json::Parse(record.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto back = ConflictRecord::FromJson(*doc);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->kind, record.kind);
  EXPECT_EQ(back->rule_id, record.rule_id);
  EXPECT_EQ(back->description, record.description);
  EXPECT_EQ(back->resolution, record.resolution);
  EXPECT_EQ(back->prov_existing, record.prov_existing);
  EXPECT_EQ(back->prov_candidate, record.prov_candidate);
}

TEST(AuditJsonTest, FromJsonRejectsMalformedRecords) {
  auto bad_kind = json::Parse(R"({"kind":"no_such_kind","rule_id":"r"})");
  ASSERT_TRUE(bad_kind.ok());
  EXPECT_FALSE(FixRecord::FromJson(*bad_kind).ok());
  auto no_value = json::Parse(R"({"kind":"set_value","rule_id":"r"})");
  ASSERT_TRUE(no_value.ok());
  EXPECT_FALSE(FixRecord::FromJson(*no_value).ok());
}

// ---------- Satellite: conflict resolutions link both derivations ----------

class MiConflictTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tid_ = data_.Insert("x", nullptr, nullptr, 0);
    rules_ = {
        MustParse("S(t0) ^ t0.k = 'x' -> t0.v = 'A'", data_.db.schema(),
                  "first"),
        MustParse("S(t0) ^ t0.k = 'x' -> t0.v = 'B'", data_.db.schema(),
                  "second"),
    };
  }

  KvDb data_;
  int64_t tid_ = -1;
  std::vector<Ree> rules_;
};

TEST_F(MiConflictTest, KeptExistingLinksBothDerivations) {
  ml::MlLibrary models;  // no Mc: resolution falls back to kept_existing
  ChaseEngine engine(&data_.db, nullptr, &models);
  chase::ChaseResult result = engine.Run(rules_);
  ASSERT_FALSE(result.conflicts.empty());
  const ConflictRecord& conflict = result.conflicts[0];
  EXPECT_EQ(conflict.resolution, "kept_existing");
  EXPECT_EQ(engine.fix_store().ValidatedValue(0, tid_, 1)->AsString(), "A");
  // The existing derivation is the first rule's fix node; the losing
  // application is preserved as a conflict-candidate node with a witness.
  ASSERT_GE(conflict.prov_existing, 0);
  ASSERT_GE(conflict.prov_candidate, 0);
  const obs::ProvenanceGraph& graph = engine.fix_store().provenance();
  EXPECT_EQ(graph.Get(conflict.prov_existing)->rule_id, "first");
  EXPECT_EQ(graph.Get(conflict.prov_candidate)->kind,
            obs::ProvKind::kConflictCandidate);
  EXPECT_EQ(graph.Get(conflict.prov_candidate)->rule_id, "second");
  EXPECT_FALSE(
      graph.Get(conflict.prov_candidate)->witness.premises.empty());
}

// Forces the M_c argmax to a fixed preference.
class StubCorrelation : public ml::CorrelationModel {
 public:
  explicit StubCorrelation(std::string preferred)
      : preferred_(std::move(preferred)) {}
  double Strength(const std::vector<Value>&, const std::vector<int>&, int,
                  const Value& candidate) const override {
    return candidate.ToString() == preferred_ ? 0.9 : 0.1;
  }

 private:
  std::string preferred_;
};

TEST_F(MiConflictTest, McArgmaxCandidateReplacesAndRelinksProvenance) {
  ml::MlLibrary models;
  models.RegisterCorrelation("Mc", std::make_shared<StubCorrelation>("B"));
  ChaseEngine engine(&data_.db, nullptr, &models);
  // M_c needs at least one validated attribute to condition on.
  {
    common::RoleGuard apply(engine.fix_store().apply_role());
    ASSERT_TRUE(
        engine.fix_store()
            .AddGroundTruthValue(0, tid_, 0, Value::String("x"))
            .ok());
  }
  chase::ChaseResult result = engine.Run(rules_);
  ASSERT_FALSE(result.conflicts.empty());
  const ConflictRecord& conflict = result.conflicts[0];
  EXPECT_EQ(conflict.resolution, "mc_argmax:candidate");
  EXPECT_EQ(engine.fix_store().ValidatedValue(0, tid_, 1)->AsString(), "B");
  ASSERT_GE(conflict.prov_existing, 0);
  ASSERT_GE(conflict.prov_candidate, 0);
  // After the replacement, the cell's provenance points at the winning
  // (replacing) derivation, not the overwritten one.
  int64_t current = engine.fix_store().ProvOfCell(0, tid_, 1);
  ASSERT_GE(current, 0);
  EXPECT_EQ(engine.fix_store().provenance().Get(current)->rule_id, "second");
  EXPECT_NE(current, conflict.prov_existing);
}

TEST_F(MiConflictTest, McArgmaxExistingKeepsCellAndProvenance) {
  ml::MlLibrary models;
  models.RegisterCorrelation("Mc", std::make_shared<StubCorrelation>("A"));
  ChaseEngine engine(&data_.db, nullptr, &models);
  {
    common::RoleGuard apply(engine.fix_store().apply_role());
    ASSERT_TRUE(
        engine.fix_store()
            .AddGroundTruthValue(0, tid_, 0, Value::String("x"))
            .ok());
  }
  chase::ChaseResult result = engine.Run(rules_);
  ASSERT_FALSE(result.conflicts.empty());
  EXPECT_EQ(result.conflicts[0].resolution, "mc_argmax:existing");
  EXPECT_EQ(engine.fix_store().ValidatedValue(0, tid_, 1)->AsString(), "A");
  EXPECT_EQ(engine.fix_store().ProvOfCell(0, tid_, 1),
            result.conflicts[0].prov_existing);
}

TEST(UserQueueProvenanceTest, QueuedConflictCarriesCandidateWitness) {
  KvDb data;
  data.Insert("x", "Acme Ltd", "-", 0);
  data.Insert("x", "Acme Ltd.", "-", 0);
  ml::MlLibrary models;
  ChaseEngine engine(&data.db, nullptr, &models);
  Ree rule = MustParse("S(t0) ^ S(t1) ^ t0.k = t1.k -> t0.v = t1.v",
                       data.db.schema(), "cr");
  chase::ChaseResult result = engine.Run({rule});
  ASSERT_FALSE(result.conflicts.empty());
  const ConflictRecord& conflict = result.conflicts[0];
  EXPECT_EQ(conflict.resolution, "user_queue");
  // Both sides are raw reads of one valuation: no validated existing
  // derivation exists, but the candidate witness is preserved for review.
  EXPECT_EQ(conflict.prov_existing, -1);
  ASSERT_GE(conflict.prov_candidate, 0);
  const obs::ProvenanceNode* node =
      engine.fix_store().provenance().Get(conflict.prov_candidate);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->kind, obs::ProvKind::kConflictCandidate);
  EXPECT_FALSE(node->witness.premises.empty());
}

TEST(UserQueueProvenanceTest, UserResolvedConflictKeepsCandidateNode) {
  KvDb data;
  data.Insert("x", "Acme Ltd", "-", 0);
  data.Insert("x", "Acme Ltd.", "-", 0);
  ChaseOptions options;
  options.user_resolver = [](const ConflictRecord&, const Value& a,
                             const Value& b) -> std::optional<Value> {
    return a.ToString().size() > b.ToString().size() ? a : b;
  };
  ml::MlLibrary models;
  ChaseEngine engine(&data.db, nullptr, &models, options);
  Ree rule = MustParse("S(t0) ^ S(t1) ^ t0.k = t1.k -> t0.v = t1.v",
                       data.db.schema(), "cr");
  chase::ChaseResult result = engine.Run({rule});
  bool resolved = false;
  for (const ConflictRecord& conflict : result.conflicts) {
    if (conflict.resolution.rfind("user_resolved:", 0) == 0) {
      resolved = true;
      EXPECT_GE(conflict.prov_candidate, 0);
    }
  }
  EXPECT_TRUE(resolved);
}

// Forces the TD ranker confidence.
class StubRanker : public ml::TemporalRanker {
 public:
  explicit StubRanker(double confidence) : confidence_(confidence) {}
  double Confidence(const Tuple&, const Tuple&, int, bool) const override {
    return confidence_;
  }

 private:
  double confidence_;
};

class TdConflictTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_.Insert("a", "-", "-", 1);
    data_.Insert("b", "-", "-", 2);
    rules_ = {
        MustParse("S(t0) ^ S(t1) ^ t0.k = 'a' ^ t1.k = 'b' -> t0 <[o] t1",
                  data_.db.schema(), "td1"),
        MustParse("S(t0) ^ S(t1) ^ t0.k = 'a' ^ t1.k = 'b' -> t1 <[o] t0",
                  data_.db.schema(), "td2"),
    };
  }

  const ConflictRecord& RunAndGetConflict(ChaseEngine& engine) {
    result_ = engine.Run(rules_);
    EXPECT_FALSE(result_.conflicts.empty());
    return result_.conflicts.front();
  }

  KvDb data_;
  std::vector<Ree> rules_;
  chase::ChaseResult result_;
};

TEST_F(TdConflictTest, KeptExistingWithoutRanker) {
  ml::MlLibrary models;
  ChaseEngine engine(&data_.db, nullptr, &models);
  const ConflictRecord& conflict = RunAndGetConflict(engine);
  EXPECT_EQ(conflict.kind, ConflictRecord::Kind::kTemporal);
  EXPECT_EQ(conflict.resolution, "kept_existing");
  // The stored direction's deduction and the losing one are both linked.
  ASSERT_GE(conflict.prov_existing, 0);
  ASSERT_GE(conflict.prov_candidate, 0);
  const obs::ProvenanceGraph& graph = engine.fix_store().provenance();
  EXPECT_EQ(graph.Get(conflict.prov_existing)->rule_id, "td1");
  EXPECT_EQ(graph.Get(conflict.prov_candidate)->rule_id, "td2");
}

TEST_F(TdConflictTest, ConfidencePrefersNewRecordsDecision) {
  ml::MlLibrary models;
  models.RegisterRanker("Mrank", std::make_shared<StubRanker>(0.9));
  ChaseEngine engine(&data_.db, nullptr, &models);
  const ConflictRecord& conflict = RunAndGetConflict(engine);
  EXPECT_EQ(conflict.resolution, "confidence_prefers_new(kept_existing)");
  EXPECT_GE(conflict.prov_existing, 0);
  EXPECT_GE(conflict.prov_candidate, 0);
}

TEST_F(TdConflictTest, ConfidenceConfirmsExisting) {
  ml::MlLibrary models;
  models.RegisterRanker("Mrank", std::make_shared<StubRanker>(0.1));
  ChaseEngine engine(&data_.db, nullptr, &models);
  const ConflictRecord& conflict = RunAndGetConflict(engine);
  EXPECT_EQ(conflict.resolution, "confidence_confirms_existing");
}

TEST(EidConflictTest, BlockedMergeLinksDistinctnessDerivation) {
  KvDb data;
  data.Insert("a", "-", "-", 0);
  data.Insert("b", "-", "-", 0);
  ml::MlLibrary models;
  ChaseEngine engine(&data.db, nullptr, &models);
  std::vector<Ree> rules = {
      MustParse("S(t0) ^ S(t1) ^ t0.k = 'a' ^ t1.k = 'b' -> "
                "t0.eid != t1.eid",
                data.db.schema(), "neq"),
      MustParse("S(t0) ^ S(t1) ^ t0.k = 'a' ^ t1.k = 'b' -> "
                "t0.eid = t1.eid",
                data.db.schema(), "eq"),
  };
  chase::ChaseResult result = engine.Run(rules);
  ASSERT_FALSE(result.conflicts.empty());
  const ConflictRecord& conflict = result.conflicts.front();
  EXPECT_EQ(conflict.kind, ConflictRecord::Kind::kEid);
  ASSERT_GE(conflict.prov_existing, 0);
  ASSERT_GE(conflict.prov_candidate, 0);
  const obs::ProvenanceGraph& graph = engine.fix_store().provenance();
  EXPECT_EQ(graph.Get(conflict.prov_existing)->rule_id, "neq");
  EXPECT_EQ(graph.Get(conflict.prov_candidate)->rule_id, "eq");
}

// ---------- Metrics export and the bench provenance block ----------

TEST(ProvenanceMetricsTest, ChaseExportsDeltaAndBlockRendersJson) {
  obs::MetricsRegistry::Global().Reset();
  KvDb data;
  data.Insert("x", nullptr, nullptr, 0);
  ml::MlLibrary models;
  ChaseEngine engine(&data.db, nullptr, &models);
  std::vector<Ree> rules = {
      MustParse("S(t0) ^ t0.k = 'x' -> t0.v = 'a'", data.db.schema(), "m1"),
      MustParse("S(t0) ^ t0.v = 'a' -> t0.w = 'b'", data.db.schema(), "m2"),
  };
  engine.Run(rules);

  obs::MetricsRegistry::Snapshot snap = obs::MetricsRegistry::Global().Snap();
  EXPECT_EQ(snap.CounterValue("rock_prov_nodes_total"),
            engine.fix_store().provenance().size());
  EXPECT_GE(snap.CounterValue(obs::ProvRuleCounterName("m1")), 1u);
  EXPECT_GE(snap.CounterValue(obs::ProvRuleCounterName("m2")), 1u);
  EXPECT_GT(snap.CounterValue("rock_prov_premises_raw_total"), 0u);
  EXPECT_GT(snap.CounterValue("rock_prov_premises_prior_fix_total"), 0u);

  // Running again must not double-count (watermark delta export).
  uint64_t before = snap.CounterValue("rock_prov_nodes_total");
  engine.Run(rules);
  obs::MetricsRegistry::Snapshot again = obs::MetricsRegistry::Global().Snap();
  EXPECT_EQ(again.CounterValue("rock_prov_nodes_total"),
            before + (engine.fix_store().provenance().size() - before));

  obs::JsonWriter w;
  w.BeginObject();
  obs::AppendProvenanceBlock(again, &w);
  w.EndObject();
  auto doc = json::Parse(w.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* block = doc->Find("provenance");
  ASSERT_NE(block, nullptr);
  EXPECT_TRUE(block->GetBool("enabled"));
  EXPECT_GT(block->GetInt("nodes"), 0);
  EXPECT_GE(block->GetInt("max_depth"), 2);
  const json::Value* by_rule = block->Find("fixes_by_rule");
  ASSERT_NE(by_rule, nullptr);
  EXPECT_NE(by_rule->Find("m1"), nullptr);
  const json::Value* premises = block->Find("premises");
  ASSERT_NE(premises, nullptr);
  EXPECT_GT(premises->GetInt("raw"), 0);
}

TEST(ProvenanceMetricsTest, DroppedSpanGaugeIsExported) {
  obs::TelemetrySnapshot snap = obs::CaptureGlobalTelemetry();
  bool found = false;
  for (const auto& gauge : snap.metrics.gauges) {
    if (gauge.name == "rock_obs_dropped_spans") {
      found = true;
      EXPECT_EQ(gauge.value, static_cast<int64_t>(snap.dropped_spans));
    }
  }
  EXPECT_TRUE(found);
  // A quiescent test process must not be dropping spans.
  EXPECT_EQ(snap.dropped_spans, 0u);
}

// ---------- The check that decides writes the witness ----------

// Counting fakes with fixed, non-round scores, so a bitwise comparison
// tells a recorded score from a recomputed or rounded one.
class CountingPair : public ml::PairClassifier {
 public:
  double Score(const std::vector<Value>&,
               const std::vector<Value>&) const override {
    ++calls;
    return 0.7310585786300049;
  }
  mutable size_t calls = 0;
};

class CountingRanker : public ml::TemporalRanker {
 public:
  double Confidence(const Tuple&, const Tuple&, int, bool) const override {
    ++calls;
    return 0.6224593312018546;
  }
  mutable size_t calls = 0;
};

class CountingCorrelation : public ml::CorrelationModel {
 public:
  double Strength(const std::vector<Value>&, const std::vector<int>&, int,
                  const Value&) const override {
    ++calls;
    return 0.8175744761936437;
  }
  mutable size_t calls = 0;
};

class CountingPredictor : public ml::ValuePredictor {
 public:
  Result<Value> PredictValue(const std::vector<Value>& values,
                             const std::vector<int>&,
                             int attr_b) const override {
    ++calls;
    return values[static_cast<size_t>(attr_b)];  // always right
  }
  std::vector<Value> Candidates(const std::vector<Value>&,
                                const std::vector<int>&, int) const override {
    return {};
  }
  mutable size_t calls = 0;
};

/// An overlay that repairs nothing and counts the cells read through it.
class CountingOverlay : public rules::CellOverlay {
 public:
  std::optional<Value> GetCell(int, int64_t, int) const override {
    ++cell_reads;
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
  mutable size_t cell_reads = 0;
};

class WitnessContentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    models_.RegisterPair("MER", pair_);
    models_.RegisterRanker("Mrank", ranker_);
    models_.RegisterCorrelation("Mc", correlation_);
    models_.RegisterPredictor("Md", predictor_);
    auto her = std::make_shared<ml::HerModel>();
    her->IndexGraph(data_.graph);
    models_.RegisterHer(her);
  }

  rules::EvalContext Context() {
    rules::EvalContext ctx;
    ctx.db = &data_.db;
    ctx.graph = &data_.graph;
    ctx.models = &models_;
    return ctx;
  }

  /// Decides `rule`'s last precondition predicate (its one model-scored
  /// one) with a record, captures the witness, and expects the witness's
  /// one model call to be exactly the one the check recorded. Returns it.
  obs::MlInvocation ExpectWitnessIsTheCheck(const rules::Evaluator& eval,
                                            const Ree& rule,
                                            const rules::Valuation& v) {
    const rules::Predicate& p = rule.precondition.back();
    obs::Witness decided;
    const bool verdict = eval.Satisfies(rule, v, p, &decided);
    const obs::Witness witness = eval.CaptureWitness(rule, v, "text");
    EXPECT_EQ(decided.ml_calls.size(), 1u);
    EXPECT_EQ(witness.ml_calls.size(), 1u);
    if (decided.ml_calls.size() != 1 || witness.ml_calls.size() != 1) {
      return {};
    }
    const obs::MlInvocation& want = decided.ml_calls[0];
    const obs::MlInvocation& got = witness.ml_calls[0];
    EXPECT_EQ(got.model, want.model);
    EXPECT_EQ(got.detail, rules::PredicateToString(p, rule, data_.db.schema()));
    EXPECT_EQ(got.detail, want.detail);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.score),
              std::bit_cast<uint64_t>(want.score));
    EXPECT_EQ(std::bit_cast<uint64_t>(got.threshold),
              std::bit_cast<uint64_t>(want.threshold));
    EXPECT_EQ(got.passed, verdict);
    EXPECT_EQ(want.passed, verdict);
    return got;
  }

  Ree Parse(const std::string& text) {
    return MustParse(text, data_.db.schema(), "w");
  }

  workload::EcommerceData data_ = workload::MakeEcommerceData();
  ml::MlLibrary models_;
  std::shared_ptr<CountingPair> pair_ = std::make_shared<CountingPair>();
  std::shared_ptr<CountingRanker> ranker_ =
      std::make_shared<CountingRanker>();
  std::shared_ptr<CountingCorrelation> correlation_ =
      std::make_shared<CountingCorrelation>();
  std::shared_ptr<CountingPredictor> predictor_ =
      std::make_shared<CountingPredictor>();
};

TEST_F(WitnessContentTest, MlPairRecordsItsScoreOnce) {
  const Ree rule = Parse(
      "Trans(t0) ^ Trans(t1) ^ t0.mfg = t1.mfg ^ "
      "MER(t0[com], t1[com]) -> t0.price = t1.price");
  const rules::Evaluator eval(Context());
  const rules::Valuation v{{0, 1}, {}};
  const obs::MlInvocation call = ExpectWitnessIsTheCheck(eval, rule, v);
  EXPECT_EQ(call.model, "MER");
  EXPECT_EQ(call.score, 0.7310585786300049);
  EXPECT_EQ(call.threshold, 0.5);
  EXPECT_TRUE(call.passed);
  const size_t before = pair_->calls;
  eval.CaptureWitness(rule, v, "text");
  EXPECT_EQ(pair_->calls, before + 1);
}

TEST_F(WitnessContentTest, MemoizedMlPairRecordsTheMemoizedScore) {
  const Ree rule = Parse(
      "Trans(t0) ^ Trans(t1) ^ MER(t0[com], t1[com]) -> t0.price = t1.price");
  ml::MlScoreCache cache;
  rules::EvalContext ctx = Context();
  ctx.ml_cache = &cache;
  const rules::Evaluator eval(ctx);
  const rules::Valuation v{{0, 1}, {}};
  // The first capture scores the pair once and fills the memo; the check
  // and later captures read the memo and score nothing.
  const obs::Witness first = eval.CaptureWitness(rule, v, "text");
  EXPECT_EQ(pair_->calls, 1u);
  EXPECT_EQ(cache.size(), 1u);
  const obs::MlInvocation call = ExpectWitnessIsTheCheck(eval, rule, v);
  EXPECT_EQ(pair_->calls, 1u);
  ASSERT_EQ(first.ml_calls.size(), 1u);
  EXPECT_EQ(std::bit_cast<uint64_t>(first.ml_calls[0].score),
            std::bit_cast<uint64_t>(call.score));
}

TEST_F(WitnessContentTest, HerRecordsItsMatchOnce) {
  const Ree rule = Parse(
      "Store(t0) ^ vertex(x0, G) ^ HER(t0, x0) -> "
      "t0.location = val(x0.(LocationAt))");
  const Relation& store = data_.db.relation(data_.store);
  int row = -1;
  for (size_t r = 0; r < store.size(); ++r) {
    if (store.tuple(r).value(1) == Value::String("Huawei Flagship")) {
      row = static_cast<int>(r);
    }
  }
  ASSERT_GE(row, 0);
  CountingOverlay overlay;
  rules::EvalContext ctx = Context();
  ctx.overlay = &overlay;
  const rules::Evaluator eval(ctx);
  const rules::Valuation v{{row}, {data_.huawei_store_vertex}};
  const obs::MlInvocation call = ExpectWitnessIsTheCheck(eval, rule, v);
  EXPECT_EQ(call.model, "HER");
  EXPECT_EQ(call.score, 1.0);
  EXPECT_EQ(call.threshold, 0.5);
  EXPECT_TRUE(call.passed);
  // HER lists no premise cells, and its one Match reads each of the
  // tuple's cells once: the capture ran the model once.
  overlay.cell_reads = 0;
  const obs::Witness witness = eval.CaptureWitness(rule, v, "text");
  EXPECT_TRUE(witness.premises.empty());
  EXPECT_EQ(overlay.cell_reads,
            data_.db.schema().relation(data_.store).num_attributes());
}

TEST_F(WitnessContentTest, RankerBackedTemporalRecordsItsConfidenceOnce) {
  const Ree rule = Parse(
      "Person(t0) ^ Person(t1) ^ Mrank(t0, t1, <=[status]) -> "
      "t0 <=[status] t1");
  const rules::Evaluator eval(Context());
  const rules::Valuation v{{0, 1}, {}};
  const obs::MlInvocation call = ExpectWitnessIsTheCheck(eval, rule, v);
  EXPECT_EQ(call.model, "Mrank");
  EXPECT_EQ(call.score, 0.6224593312018546);
  EXPECT_EQ(call.threshold, ml::TemporalRanker::kThreshold);
  EXPECT_TRUE(call.passed);
  const size_t before = ranker_->calls;
  const obs::Witness witness = eval.CaptureWitness(rule, v, "text");
  EXPECT_EQ(ranker_->calls, before + 1);
  ASSERT_EQ(witness.premises.size(), 2u);  // both order cells, by oracle
  EXPECT_EQ(witness.premises[0].source, obs::PremiseSource::kOracle);
}

TEST_F(WitnessContentTest, CorrelationRecordsItsStrengthOnce) {
  const Ree rule = Parse(
      "Trans(t0) ^ Mc(t0[com,mfg], t0.price) >= 0.9 -> t0.date = t0.date");
  const rules::Evaluator eval(Context());
  const rules::Valuation v{{0}, {}};
  const obs::MlInvocation call = ExpectWitnessIsTheCheck(eval, rule, v);
  EXPECT_EQ(call.model, "Mc");
  EXPECT_EQ(call.score, 0.8175744761936437);
  EXPECT_EQ(call.threshold, 0.9);
  EXPECT_FALSE(call.passed);  // the witness records a failed check too
  const size_t before = correlation_->calls;
  eval.CaptureWitness(rule, v, "text");
  EXPECT_EQ(correlation_->calls, before + 1);
}

TEST_F(WitnessContentTest, ValuePredictionRecordsAFixedEntryOnce) {
  const Ree rule = Parse(
      "Trans(t0) ^ t0.price = Md(t0[com,mfg], price) -> t0.date = t0.date");
  const rules::Evaluator eval(Context());
  const rules::Valuation v{{0}, {}};
  const obs::MlInvocation call = ExpectWitnessIsTheCheck(eval, rule, v);
  EXPECT_EQ(call.model, "Md");
  EXPECT_EQ(call.score, 1.0);
  EXPECT_EQ(call.threshold, 0.0);
  EXPECT_TRUE(call.passed);
  const size_t before = predictor_->calls;
  const obs::Witness witness = eval.CaptureWitness(rule, v, "text");
  EXPECT_EQ(predictor_->calls, before + 1);
  EXPECT_EQ(witness.premises.size(), 2u);  // com, mfg
}

TEST_F(WitnessContentTest, MissingModelRecordsCellsButNoCall) {
  const Ree rule = Parse(
      "Trans(t0) ^ Trans(t1) ^ MER(t0[com], t1[com]) -> t0.price = t1.price");
  ml::MlLibrary empty;
  rules::EvalContext ctx = Context();
  ctx.models = &empty;
  const rules::Evaluator eval(ctx);
  const obs::Witness witness =
      eval.CaptureWitness(rule, rules::Valuation{{0, 1}, {}}, "text");
  EXPECT_EQ(witness.premises.size(), 2u);  // listed without the model
  EXPECT_TRUE(witness.ml_calls.empty());
}

// Certain-fix mode admits an application only when its kRaw premise cells
// are validated — but null(t[A]) reads a missing value, which is never
// validated, so it does not gate admission. The witness still lists it.
TEST(CertainFixGateTest, NullTestIsListedButNeverGates) {
  KvDb data;
  const int64_t trusted_key = data.Insert("x", nullptr, "-", 0);
  const int64_t raw_key = data.Insert("x", nullptr, "-", 1);
  ChaseOptions options;
  options.certain_fixes_only = true;
  ml::MlLibrary models;
  ChaseEngine engine(&data.db, nullptr, &models, options);
  {
    common::RoleGuard apply(engine.fix_store().apply_role());
    ASSERT_TRUE(engine.fix_store()
                    .AddGroundTruthValue(0, trusted_key, 0, Value::String("x"))
                    .ok());
  }
  const Ree rule = MustParse("S(t0) ^ t0.k = 'x' ^ null(t0.v) -> t0.v = 'a'",
                             data.db.schema(), "mi1");
  engine.Run({rule});
  EXPECT_EQ(engine.fix_store().ValidatedValue(0, trusted_key, 1),
            std::optional<Value>(Value::String("a")));
  EXPECT_FALSE(engine.fix_store().IsValidated(0, raw_key, 1));

  const obs::ProofTree tree = engine.Explain(0, trusted_key, 1);
  ASSERT_NE(tree.root.node, nullptr);
  const std::vector<obs::PremiseCell>& premises =
      tree.root.node->witness.premises;
  ASSERT_EQ(premises.size(), 2u);
  EXPECT_EQ(premises[0].attr, 0);
  EXPECT_EQ(premises[0].source, obs::PremiseSource::kGroundTruth);
  EXPECT_EQ(premises[1].attr, 1);
  EXPECT_EQ(premises[1].source, obs::PremiseSource::kRaw);
}

}  // namespace
}  // namespace rock

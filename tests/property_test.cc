// Cross-module property tests, parameterized over applications, seeds and
// worker counts (TEST_P sweeps). These pin the invariants DESIGN.md lists:
// Church-Rosser convergence, batch ≡ incremental, serial ≡ parallel,
// rule-language round-trips, and certain-fix justification.

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/chase/chase.h"
#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/detect/detector.h"
#include "src/obs/metrics.h"
#include "src/par/fault.h"
#include "src/rules/parser.h"
#include "src/workload/generator.h"
#include "src/workload/scoring.h"

namespace rock {
namespace {

struct AppParam {
  const char* app;
  uint64_t seed;
};

std::ostream& operator<<(std::ostream& os, const AppParam& p) {
  return os << p.app << "_seed" << p.seed;
}

workload::GeneratedData MakeData(const AppParam& param, size_t rows = 100) {
  workload::GeneratorOptions options;
  options.rows = rows;
  options.error_rate = 0.1;
  options.seed = param.seed;
  return workload::MakeAppData(param.app, options);
}

core::ModelTrainingSpec SpecFor(const std::string& app) {
  core::ModelTrainingSpec spec;
  if (app == "Bank") {
    spec.rank_targets = {{"Customer", "city"}};
    spec.monotone_attrs = {{"Customer", "points"}};
  } else if (app == "Sales") {
    spec.rank_targets = {{"Client", "discount"}};
    spec.monotone_attrs = {{"Client", "lifetime_value"}};
  } else {
    spec.path_synonyms = {{"area", {"AreaOf"}}, {"city", {"CityOf"}}};
  }
  return spec;
}

/// (rel, tid) of every tuple in `db`.
std::vector<std::pair<int, int64_t>> AllTuples(const Database& db) {
  std::vector<std::pair<int, int64_t>> out;
  for (size_t rel = 0; rel < db.num_relations(); ++rel) {
    const Relation& relation = db.relation(static_cast<int>(rel));
    for (size_t row = 0; row < relation.size(); ++row) {
      out.emplace_back(static_cast<int>(rel), relation.tuple(row).tid);
    }
  }
  return out;
}

/// Canonical serialization of a chase outcome for equality comparison.
std::string FixStoreDigest(const chase::ChaseEngine& engine,
                           const Database& db) {
  std::string digest;
  for (const chase::CellFix& fix : engine.CellFixes()) {
    digest += std::to_string(fix.rel) + ":" + std::to_string(fix.tid) +
              ":" + std::to_string(fix.attr) + "=" +
              fix.new_value.ToString() + ";";
  }
  for (size_t rel = 0; rel < db.num_relations(); ++rel) {
    const Relation& relation = db.relation(static_cast<int>(rel));
    for (size_t row = 0; row < relation.size(); ++row) {
      digest += std::to_string(
                    engine.fix_store().eids().Find(relation.tuple(row).eid)) +
                ",";
    }
  }
  return digest;
}

// ---------------- Church-Rosser across apps and seeds ----------------

class ChurchRosserTest : public ::testing::TestWithParam<AppParam> {};

TEST_P(ChurchRosserTest, ShuffledRuleOrdersConvergeInCertainMode) {
  // Church-Rosser is guaranteed under §4.1's condition (1): an REE++ is
  // applied only when its premises are validated by U. Relaxed "deep
  // cleaning" mode may read not-yet-repaired cells, so its outcome can
  // depend on rule order (observed empirically); the guarantee — and this
  // test — applies to certain-fix mode.
  workload::GeneratedData data = MakeData(GetParam());
  core::Rock rock(&data.db, &data.graph);
  rock.TrainModels(SpecFor(GetParam().app));
  auto rules = rock.LoadRules(data.rule_text);
  ASSERT_TRUE(rules.ok());

  chase::ChaseOptions options;
  options.certain_fixes_only = true;
  std::string baseline;
  Rng rng(GetParam().seed ^ 0xC0DE);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<rules::Ree> shuffled = *rules;
    rng.Shuffle(shuffled);
    chase::ChaseEngine engine(&data.db, &data.graph, rock.models(),
                              options);
    for (const auto& [rel, tid] : data.clean_tuples) {
      Status ignored = engine.fix_store().AddGroundTruthTuple(rel, tid);
      (void)ignored;
    }
    chase::ChaseResult result = engine.Run(shuffled);
    EXPECT_TRUE(result.converged);
    std::string digest = FixStoreDigest(engine, data.db);
    if (trial == 0) {
      baseline = digest;
      EXPECT_GT(result.fixes_applied, 0u);
    } else {
      EXPECT_EQ(digest, baseline) << "trial " << trial;
    }
  }
}

TEST_P(ChurchRosserTest, EveryFixIsJustifiedByARule) {
  workload::GeneratedData data = MakeData(GetParam());
  core::Rock rock(&data.db, &data.graph);
  rock.TrainModels(SpecFor(GetParam().app));
  auto rules = rock.LoadRules(data.rule_text);
  ASSERT_TRUE(rules.ok());
  rock.DiscoverPolynomials();

  core::CorrectionResult result;
  auto engine = rock.CorrectErrors(*rules, data.clean_tuples, &result);
  std::set<std::string> known_ids = {"Γ"};
  for (const rules::Ree& rule : *rules) known_ids.insert(rule.id);
  for (const rules::Ree& rule : rock.poly_rules()) known_ids.insert(rule.id);
  for (const chase::FixRecord& fix : engine->fix_store().fixes()) {
    EXPECT_TRUE(known_ids.count(fix.rule_id) > 0)
        << "unjustified fix: " << fix.ToString();
  }
}

TEST_P(ChurchRosserTest, CertainModeIsConservativeAndPrecise) {
  // Certain-fix mode admits a subset of rule applications: it can never
  // deduce more fixes than relaxed mode, and the fixes it does deduce are
  // backed by validated premises, so precision stays high in absolute
  // terms.
  workload::GeneratedData data = MakeData(GetParam());
  core::Rock rock(&data.db, &data.graph);
  rock.TrainModels(SpecFor(GetParam().app));
  auto rules = rock.LoadRules(data.rule_text);
  ASSERT_TRUE(rules.ok());

  core::RockOptions certain_options;
  certain_options.chase.certain_fixes_only = true;
  core::Rock certain_rock(&data.db, &data.graph, certain_options);
  certain_rock.TrainModels(SpecFor(GetParam().app));

  core::CorrectionResult full_result, certain_result;
  auto full = rock.CorrectErrors(*rules, data.clean_tuples, &full_result);
  auto certain = certain_rock.CorrectErrors(*rules, data.clean_tuples,
                                            &certain_result);
  (void)full;
  EXPECT_LE(certain_result.chase.fixes_applied,
            full_result.chase.fixes_applied);
  auto certain_score = workload::ScoreCorrection(data, *certain);
  EXPECT_GT(certain_score.overall.precision(), 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    AppsAndSeeds, ChurchRosserTest,
    ::testing::Values(AppParam{"Bank", 101}, AppParam{"Bank", 202},
                      AppParam{"Logistics", 101}, AppParam{"Logistics", 303},
                      AppParam{"Sales", 101}, AppParam{"Sales", 404}));

// ---------------- Batch ≡ incremental detection ----------------

class IncrementalEquivalenceTest
    : public ::testing::TestWithParam<AppParam> {};

TEST_P(IncrementalEquivalenceTest, AllDirtyIncrementalEqualsBatch) {
  workload::GeneratedData data = MakeData(GetParam());
  core::Rock rock(&data.db, &data.graph);
  rock.TrainModels(SpecFor(GetParam().app));
  auto rules = rock.LoadRules(data.rule_text);
  ASSERT_TRUE(rules.ok());

  rock.DiscoverPolynomials();

  auto batch = rock.DetectErrors(*rules);
  const std::vector<std::pair<int, int64_t>> everything = AllTuples(data.db);
  auto incremental = rock.DetectErrorsIncremental(*rules, everything);
  // Field for field, polynomial violations included.
  EXPECT_EQ(incremental.violations, batch.violations);
  EXPECT_TRUE(incremental == batch);
}

// Polynomial rules run through the one enumerator on every entry point:
// serial, 1, 2 and 5 workers, a faulted plan and incremental detection
// report the same polynomial violations.
TEST_P(IncrementalEquivalenceTest, PolynomialViolationsEqualOnEveryEntryPoint) {
  workload::GeneratedData data = MakeData(GetParam());
  core::Rock rock(&data.db, &data.graph);
  rock.TrainModels(SpecFor(GetParam().app));
  auto rules = rock.LoadRules(data.rule_text);
  ASSERT_TRUE(rules.ok());
  rock.DiscoverPolynomials();
  // The polynomial errors of `report`, kept when `keep(tid)` holds.
  auto poly_errors = [](const detect::DetectionReport& report,
                        const std::function<bool(int64_t)>& keep) {
    std::vector<detect::ErrorRecord> out;
    for (const detect::ErrorRecord& error : report.errors) {
      if (error.rule_id.starts_with("poly_") && keep(error.cells[0].tid)) {
        out.push_back(error);
      }
    }
    return out;
  };
  auto all = [](int64_t) { return true; };

  const detect::DetectionReport serial = rock.DetectErrors(*rules);
  const std::vector<detect::ErrorRecord> expected = poly_errors(serial, all);
  if (std::string(GetParam().app) == "Bank") {
    EXPECT_FALSE(expected.empty());
  }
  for (int workers : {1, 2, 5}) {
    par::ScheduleReport schedule;
    EXPECT_EQ(poly_errors(rock.DetectErrorsParallel(*rules, workers,
                                                    &schedule),
                          all),
              expected)
        << workers << " workers";
  }
  auto plan = par::FaultPlan::Parse("crash:3@1;flaky:5x1;flaky:9x2");
  ASSERT_TRUE(plan.ok());
  par::RetryPolicy retry;
  retry.backoff_base_seconds = 1e-4;
  rock.SetFaultInjection(&*plan, retry);
  par::ScheduleReport faulted;
  EXPECT_EQ(poly_errors(rock.DetectErrorsParallel(*rules, 2, &faulted), all),
            expected);
  rock.SetFaultInjection(nullptr);

  // Incremental over every third tuple: exactly those tuples' errors.
  std::vector<std::pair<int, int64_t>> every_third;
  std::set<int64_t> dirty_tids;
  for (const auto& [rel, tid] : AllTuples(data.db)) {
    if (tid % 3 != 0) continue;
    every_third.emplace_back(rel, tid);
    dirty_tids.insert(tid);
  }
  auto dirty = [&dirty_tids](int64_t tid) { return dirty_tids.count(tid) > 0; };
  EXPECT_EQ(poly_errors(rock.DetectErrorsIncremental(*rules, every_third),
                        all),
            poly_errors(serial, dirty));
}

INSTANTIATE_TEST_SUITE_P(
    Apps, IncrementalEquivalenceTest,
    ::testing::Values(AppParam{"Bank", 11}, AppParam{"Logistics", 11},
                      AppParam{"Sales", 11}));

// ---------------- Blocked ML-only rules: splits and run modes ----------------

/// A pure-ML ER rule per application: qualifies for LSH blocking.
std::string MlOnlyErRule(const std::string& app) {
  if (app == "Bank") {
    return "Customer(t0) ^ Customer(t1) ^ MER(t0[name], t1[name]) -> "
           "t0.eid = t1.eid";
  }
  if (app == "Sales") {
    return "Client(t0) ^ Client(t1) ^ MER(t0[name], t1[name]) -> "
           "t0.eid = t1.eid";
  }
  return "Shipment(t0) ^ Shipment(t1) ^ MER(t0[recipient], t1[recipient]) "
         "-> t0.eid = t1.eid";
}

std::map<std::string, size_t> ViolationsByRule(
    const detect::DetectionReport& report) {
  std::map<std::string, size_t> out;
  for (const detect::ErrorRecord& error : report.errors) ++out[error.rule_id];
  return out;
}

class MlOnlyRuleTest : public ::testing::TestWithParam<AppParam> {};

TEST_P(MlOnlyRuleTest, RestPlusDeltaDetectionEqualsWhole) {
  workload::GeneratedData data = MakeData(GetParam(), 120);
  core::Rock rock(&data.db, &data.graph);
  rock.TrainModels(SpecFor(GetParam().app));
  auto rules = rock.LoadRules(data.rule_text + MlOnlyErRule(GetParam().app));
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();

  // D = D0 ∪ Δ at random; D0 keeps each tuple's tid and EID.
  Rng rng(GetParam().seed ^ 0x5B117);
  Database rest(data.db.schema());
  std::vector<std::pair<int, int64_t>> delta;
  for (size_t rel = 0; rel < data.db.num_relations(); ++rel) {
    const Relation& relation = data.db.relation(static_cast<int>(rel));
    for (size_t row = 0; row < relation.size(); ++row) {
      const Tuple& t = relation.tuple(row);
      if (rng.NextBernoulli(0.3)) {
        delta.emplace_back(static_cast<int>(rel), t.tid);
      } else {
        ASSERT_TRUE(rest.relation(static_cast<int>(rel)).Append(t).ok());
      }
    }
  }
  ASSERT_FALSE(delta.empty());

  rules::EvalContext ctx;
  ctx.db = &data.db;
  ctx.graph = &data.graph;
  ctx.models = rock.models();
  rules::EvalContext rest_ctx = ctx;
  rest_ctx.db = &rest;
  const detect::ErrorDetector detector(ctx);
  const auto whole = ViolationsByRule(detector.Detect(*rules));
  const detect::DetectionReport incremental =
      detector.DetectIncremental(*rules, delta);
  auto combined =
      ViolationsByRule(detect::ErrorDetector(rest_ctx).Detect(*rules));
  for (const auto& [rule_id, count] : ViolationsByRule(incremental)) {
    combined[rule_id] += count;
  }
  ASSERT_GT(whole.count(rules->back().id), 0u);
  EXPECT_EQ(combined, whole);

  // Δ's order and duplicates do not matter.
  std::vector<std::pair<int, int64_t>> shuffled = delta;
  shuffled.insert(shuffled.end(), delta.begin(),
                  delta.begin() + static_cast<long>(delta.size() / 2));
  rng.Shuffle(shuffled);
  EXPECT_TRUE(detector.DetectIncremental(*rules, shuffled) == incremental);
}

// The chase blocks the same rules detection does; its batch, lazy and
// parallel runs must still reach one fixpoint.
TEST_P(MlOnlyRuleTest, ChaseAgreesAcrossRunModes) {
  workload::GeneratedData data = MakeData(GetParam(), 80);
  core::Rock rock(&data.db, &data.graph);
  rock.TrainModels(SpecFor(GetParam().app));
  auto rules = rock.LoadRules(data.rule_text + MlOnlyErRule(GetParam().app));
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  rules::EvalContext ctx;
  ctx.db = &data.db;
  ctx.models = rock.models();
  ASSERT_NE(rules::Blocking::For(rules->back(), ctx), nullptr);

  const std::vector<std::pair<int, int64_t>> everything = AllTuples(data.db);
  auto chase = [&](int mode) {
    chase::ChaseEngine engine(&data.db, &data.graph, rock.models());
    for (const auto& [rel, tid] : data.clean_tuples) {
      Status ignored = engine.fix_store().AddGroundTruthTuple(rel, tid);
      (void)ignored;
    }
    par::ScheduleReport schedule;
    if (mode == 0) engine.Run(*rules);
    if (mode == 1) engine.RunIncremental(*rules, everything);
    if (mode == 2) engine.RunParallel(*rules, 3, &schedule);
    return FixStoreDigest(engine, data.db);
  };
  const std::string serial = chase(0);
  EXPECT_EQ(chase(1), serial);
  EXPECT_EQ(chase(2), serial);
}

INSTANTIATE_TEST_SUITE_P(
    AppsAndSeeds, MlOnlyRuleTest,
    ::testing::Values(AppParam{"Bank", 11}, AppParam{"Logistics", 5},
                      AppParam{"Logistics", 23}, AppParam{"Sales", 11},
                      AppParam{"Sales", 29}));

// ---------------- Serial ≡ parallel across worker counts ----------------

class ParallelEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalenceTest, DetectionIndependentOfWorkerCount) {
  workload::GeneratedData data = MakeData({"Logistics", 7}, 80);
  core::Rock rock(&data.db, &data.graph);
  rock.TrainModels(SpecFor("Logistics"));
  auto rules = rock.LoadRules(data.rule_text);
  ASSERT_TRUE(rules.ok());

  rules::EvalContext ctx;
  ctx.db = &data.db;
  ctx.graph = &data.graph;
  ctx.models = rock.models();
  detect::ErrorDetector serial(ctx);
  const detect::DetectionReport expected = serial.Detect(*rules);

  // Field for field: errors in order, violations and both pair counters.
  detect::ErrorDetector parallel(ctx);
  par::ScheduleReport schedule;
  auto report = parallel.DetectParallel(*rules, GetParam(), &schedule);
  EXPECT_EQ(report.violations, expected.violations);
  EXPECT_TRUE(report == expected);
  EXPECT_EQ(schedule.num_workers, GetParam());
}

TEST_P(ParallelEquivalenceTest, ChaseIndependentOfWorkerCount) {
  workload::GeneratedData serial_data = MakeData({"Logistics", 7}, 80);
  core::Rock serial_rock(&serial_data.db, &serial_data.graph);
  serial_rock.TrainModels(SpecFor("Logistics"));
  auto rules = serial_rock.LoadRules(serial_data.rule_text);
  ASSERT_TRUE(rules.ok());
  chase::ChaseEngine serial_engine(&serial_data.db, &serial_data.graph,
                                   serial_rock.models());
  for (const auto& [rel, tid] : serial_data.clean_tuples) {
    Status ignored = serial_engine.fix_store().AddGroundTruthTuple(rel, tid);
    (void)ignored;
  }
  serial_engine.Run(*rules);
  std::string expected = FixStoreDigest(serial_engine, serial_data.db);

  workload::GeneratedData parallel_data = MakeData({"Logistics", 7}, 80);
  core::Rock parallel_rock(&parallel_data.db, &parallel_data.graph);
  parallel_rock.TrainModels(SpecFor("Logistics"));
  chase::ChaseEngine parallel_engine(&parallel_data.db, &parallel_data.graph,
                                     parallel_rock.models());
  for (const auto& [rel, tid] : parallel_data.clean_tuples) {
    Status ignored = parallel_engine.fix_store().AddGroundTruthTuple(rel, tid);
    (void)ignored;
  }
  par::ScheduleReport schedule;
  parallel_engine.RunParallel(*rules, GetParam(), &schedule);
  EXPECT_EQ(FixStoreDigest(parallel_engine, parallel_data.db), expected);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ParallelEquivalenceTest,
                         ::testing::Values(1, 2, 5, 9, 16));

// ---------------- Metamorphic: execution order never matters ----------------

/// Greedy shrinker for failing fault plans: repeatedly tries dropping each
/// entry, keeping any removal after which `fails` still holds, until no
/// single entry can be removed. The result is a locally minimal plan whose
/// ToSpec() string replays the failure via ROCK_FAULT_PLAN.
par::FaultPlan ShrinkFaultPlan(
    par::FaultPlan plan,
    const std::function<bool(const par::FaultPlan&)>& fails) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (auto it = plan.crash_at_attempt.begin();
         it != plan.crash_at_attempt.end(); ++it) {
      par::FaultPlan candidate = plan;
      candidate.crash_at_attempt.erase(it->first);
      if (fails(candidate)) {
        plan = candidate;
        shrunk = true;
        break;
      }
    }
    if (shrunk) continue;
    for (auto it = plan.delay_seconds.begin(); it != plan.delay_seconds.end();
         ++it) {
      par::FaultPlan candidate = plan;
      candidate.delay_seconds.erase(it->first);
      if (fails(candidate)) {
        plan = candidate;
        shrunk = true;
        break;
      }
    }
    if (shrunk) continue;
    for (auto it = plan.transient_failures.begin();
         it != plan.transient_failures.end(); ++it) {
      par::FaultPlan candidate = plan;
      candidate.transient_failures.erase(it->first);
      if (fails(candidate)) {
        plan = candidate;
        shrunk = true;
        break;
      }
    }
  }
  return plan;
}

TEST(FaultPlanShrinkTest, ShrinkerFindsMinimalFailingPlan) {
  // Synthetic failure predicate: the "bug" triggers iff the plan delays
  // unit 3 AND fails unit 5 transiently. The shrinker must strip all noise
  // and keep exactly those two entries.
  auto fails = [](const par::FaultPlan& p) {
    return p.delay_seconds.count(3) > 0 && p.transient_failures.count(5) > 0;
  };
  par::FaultPlan noisy = par::FaultPlan::FromSeed(42, 30, 4);
  noisy.delay_seconds[3] = 0.001;
  noisy.transient_failures[5] = 2;
  ASSERT_TRUE(fails(noisy));
  par::FaultPlan minimal = ShrinkFaultPlan(noisy, fails);
  EXPECT_TRUE(fails(minimal));
  EXPECT_EQ(minimal.size(), 2u) << minimal.ToSpec();
  EXPECT_EQ(minimal.ToSpec(), "delay:3=1000us;flaky:5x2");
}

class DelayPermutationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DelayPermutationTest, UnitOrderPermutationsNeverChangeChaseOutput) {
  // Metamorphic property: seeded straggler delays permute the order in
  // which workers pick up and finish units — a different interleaving of
  // the same work. Because unit buffers merge in unit order at the
  // barrier, the chase output must be invariant under every such
  // permutation. On failure, the offending plan is shrunk to a locally
  // minimal replayable spec.
  workload::GeneratedData data = MakeData({"Logistics", 7}, 80);
  core::Rock rock(&data.db, &data.graph);
  rock.TrainModels(SpecFor("Logistics"));
  auto rules = rock.LoadRules(data.rule_text);
  ASSERT_TRUE(rules.ok());

  auto digest_under = [&](const par::FaultPlan* plan) {
    workload::GeneratedData run_data = MakeData({"Logistics", 7}, 80);
    core::Rock run_rock(&run_data.db, &run_data.graph);
    run_rock.TrainModels(SpecFor("Logistics"));
    chase::ChaseOptions options;
    options.fault_plan = plan;
    chase::ChaseEngine engine(&run_data.db, &run_data.graph,
                              run_rock.models(), options);
    for (const auto& [rel, tid] : run_data.clean_tuples) {
      Status ignored = engine.fix_store().AddGroundTruthTuple(rel, tid);
      (void)ignored;
    }
    par::ScheduleReport schedule;
    engine.RunParallel(*rules, /*num_workers=*/4, &schedule);
    return FixStoreDigest(engine, run_data.db);
  };
  std::string expected = digest_under(nullptr);

  // Delay-only plans: pure execution-order permutations (no retries, no
  // deaths), several per seed to vary which units straggle.
  Rng rng(GetParam() ^ 0xDE1A);
  for (int trial = 0; trial < 3; ++trial) {
    par::FaultPlan plan;
    size_t stragglers = 2 + rng.NextBounded(5);
    for (size_t i = 0; i < stragglers; ++i) {
      plan.delay_seconds[rng.NextBounded(48)] =
          0.0002 + 0.0015 * rng.NextDouble();
    }
    if (digest_under(&plan) != expected) {
      auto fails = [&](const par::FaultPlan& p) {
        return digest_under(&p) != expected;
      };
      par::FaultPlan minimal = ShrinkFaultPlan(plan, fails);
      FAIL() << "chase output changed under delay permutation; minimal "
                "replayable plan (set ROCK_FAULT_PLAN to reproduce): "
             << minimal.ToSpec();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DelayPermutationTest,
                         ::testing::Values(1u, 2u, 3u));

// ---------------- Rule-language round-trips ----------------

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, CuratedRulesRoundTripThroughTheParser) {
  workload::GeneratedData data = MakeData({GetParam(), 5}, 40);
  auto rules = rules::ParseRules(data.rule_text, data.db.schema());
  ASSERT_TRUE(rules.ok());
  for (const rules::Ree& rule : *rules) {
    std::string printed = rule.ToString(data.db.schema());
    auto reparsed = rules::ParseRee(printed, data.db.schema());
    ASSERT_TRUE(reparsed.ok())
        << printed << " => " << reparsed.status().ToString();
    EXPECT_TRUE(rule.SameRule(*reparsed)) << printed;
  }
}

TEST_P(RoundTripTest, MinedRulesRoundTripThroughTheParser) {
  workload::GeneratedData data = MakeData({GetParam(), 5}, 60);
  core::Rock rock(&data.db, &data.graph);
  discovery::PredicateSpaceOptions space;
  space.max_constants_per_attr = 1;
  auto mined = rock.DiscoverRules(space);
  size_t checked = 0;
  for (const auto& rule : mined) {
    if (checked++ > 40) break;  // bound the sweep
    std::string printed = rule.rule.ToString(data.db.schema());
    auto reparsed = rules::ParseRee(printed, data.db.schema());
    ASSERT_TRUE(reparsed.ok())
        << printed << " => " << reparsed.status().ToString();
    EXPECT_TRUE(rule.rule.SameRule(*reparsed)) << printed;
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Apps, RoundTripTest,
                         ::testing::Values("Bank", "Logistics", "Sales"));

// ---------------- Enumerate against a brute-force oracle ----------------

/// Rules beyond the curated ones: three variables (the first two linked
/// only to the third), a constant, a cross-relation join and an EID join
/// written right to left.
std::vector<std::string> ExtraOracleRules(const std::string& app) {
  if (app == "Bank") {
    return {"Customer(t0) ^ Customer(t1) ^ Customer(t2) ^ t0.eid = t2.eid ^ "
            "t1.city = t2.city -> t0.city = t1.city",
            "Customer(t0) ^ Customer(t1) ^ Customer(t2) ^ t0.city = t2.city ^ "
            "t1.branch = t2.branch -> t0.city = t1.city",
            "Customer(t0) ^ Payment(t1) ^ t0.city = 'Beijing' ^ "
            "t1.cust_id = t0.cust_id -> t1.fee = t1.tax",
            "Customer(t0) ^ Customer(t1) ^ t1.eid = t0.eid ^ "
            "t0.branch = t1.branch -> t0.city = t1.city"};
  }
  if (app == "Sales") {
    return {"Client(t0) ^ Client(t1) ^ Client(t2) ^ t0.eid = t2.eid ^ "
            "t1.region = t2.region -> t0.region = t1.region",
            "Client(t0) ^ Client(t1) ^ Client(t2) ^ t0.region = t2.region ^ "
            "t1.company = t2.company -> t0.region = t1.region",
            "Order(t0) ^ Product(t1) ^ t0.prod_id = t1.prod_id -> "
            "t0.total = t0.price"};
  }
  return {"Shipment(t0) ^ Shipment(t1) ^ Shipment(t2) ^ t0.eid = t2.eid ^ "
          "t1.zip = t2.zip -> t0.zip = t1.zip",
          "Shipment(t0) ^ Shipment(t1) ^ Shipment(t2) ^ t0.city = t2.city ^ "
          "t1.seller_id = t2.seller_id -> t0.zip = t1.zip",
          "Shipment(t0) ^ Shipment(t1) ^ t0.city = 'Beijing' ^ "
          "t1.eid = t0.eid -> t0.area = t1.area"};
}

/// Fills `store` with random EID merges, Γ tuples (validated to their raw
/// values) and value patches: a third equal to the raw value, the rest
/// copied from another row so equality probes meet them; then replaces a
/// few patches, some back to the raw value.
void RandomOverlay(const Database& db, uint64_t seed, chase::FixStore* store) {
  common::RoleGuard apply(store->apply_role());
  Rng rng(seed ^ 0x5EEDull);
  bool changed = false;
  for (size_t r = 0; r < db.num_relations(); ++r) {
    const int rel = static_cast<int>(r);
    const Relation& relation = db.relation(rel);
    const size_t n = relation.size();
    if (n < 2) continue;
    const uint64_t attrs = relation.schema().num_attributes();
    auto pick = [&]() -> const Tuple& {
      return relation.tuple(static_cast<size_t>(rng.NextBounded(n)));
    };
    for (size_t k = 0; k < n / 3; ++k) {
      Status merged =
          store->MergeEids(pick().eid, pick().eid, "merge", &changed);
      const Tuple& t = pick();
      const int attr = static_cast<int>(rng.NextBounded(attrs));
      const Value value =
          rng.NextBounded(3) == 0 ? t.value(attr) : pick().value(attr);
      Status set = store->SetValue(rel, t.tid, attr, value, "patch", &changed);
      (void)merged;
      (void)set;
    }
    for (size_t k = 0; k < n / 10; ++k) {
      Status gamma = store->AddGroundTruthTuple(rel, pick().tid);
      const Tuple& t = pick();
      const int attr = static_cast<int>(rng.NextBounded(attrs));
      if (store->IsValidated(rel, t.tid, attr)) {
        const Value value =
            rng.NextBounded(2) == 0 ? t.value(attr) : pick().value(attr);
        Status replaced = store->ReplaceValue(rel, t.tid, attr, value, "mc");
        (void)replaced;
      }
      (void)gamma;
    }
  }
}

using RowLists = std::vector<std::vector<int>>;

/// Plain nested loops over all rows in variable order, keeping the rows
/// `allowed` admits and the valuations satisfying the precondition.
void NestedLoops(const rules::Evaluator& eval, const rules::Ree& rule,
                 const std::function<bool(size_t, int)>& allowed,
                 rules::Valuation* v, size_t depth, RowLists* out) {
  if (depth == rule.tuple_vars.size()) {
    if (eval.SatisfiesPrecondition(rule, *v)) out->push_back(v->rows);
    return;
  }
  const Relation& relation =
      eval.context().db->relation(rule.tuple_vars[depth]);
  for (int row = 0; row < static_cast<int>(relation.size()); ++row) {
    if (!allowed(depth, row)) continue;
    v->rows[depth] = row;
    NestedLoops(eval, rule, allowed, v, depth + 1, out);
  }
}

/// The valuations `scope` defines, by definition: the row slice of
/// variable 0, or — semi-naive, literally — for each variable i and each
/// ΔD row r of it, ascending: variable i = r, earlier variables off ΔD,
/// later ones anywhere.
RowLists OracleValuations(const rules::Evaluator& eval, const rules::Ree& rule,
                          const rules::Scope& scope) {
  RowLists out;
  rules::Valuation v;
  v.rows.assign(rule.tuple_vars.size(), -1);
  if (scope.delta == nullptr) {
    NestedLoops(eval, rule,
                [&](size_t depth, int row) {
                  return depth != 0 || (row >= scope.begin && row < scope.end);
                },
                &v, 0, &out);
    return out;
  }
  for (size_t seed = 0; seed < rule.tuple_vars.size(); ++seed) {
    for (int seed_row : scope.delta->rows(rule.tuple_vars[seed])) {
      NestedLoops(eval, rule,
                  [&](size_t depth, int row) {
                    if (depth == seed) return row == seed_row;
                    return depth > seed || !scope.delta->Contains(
                                               rule.tuple_vars[depth], row);
                  },
                  &v, 0, &out);
    }
  }
  return out;
}

RowLists Enumerated(const rules::Evaluator& eval, const rules::Ree& rule,
                    const rules::Scope& scope) {
  RowLists out;
  eval.Enumerate(rule, scope, /*blocking=*/nullptr,
                 [&](const rules::Valuation& v) { out.push_back(v.rows); });
  return out;
}

bool HasEidJoin(const rules::Ree& rule) {
  for (const rules::Predicate& p : rule.precondition) {
    if (p.kind == rules::PredicateKind::kAttrCompare &&
        p.op == rules::CmpOp::kEq && p.attr == rules::kEidAttr) {
      return true;
    }
  }
  return false;
}

rules::EvalContext PlainContext(const workload::GeneratedData& data,
                                core::Rock& rock) {
  rules::EvalContext ctx;
  ctx.db = &data.db;
  ctx.graph = &data.graph;
  ctx.models = rock.models();
  return ctx;
}

/// A random quarter of the tuples, as ΔD.
std::vector<std::pair<int, int64_t>> RandomDelta(const Database& db,
                                                 uint64_t seed) {
  Rng rng(seed ^ 0xDE17Aull);
  std::vector<std::pair<int, int64_t>> out;
  for (const auto& tuple : AllTuples(db)) {
    if (rng.NextBounded(4) == 0) out.push_back(tuple);
  }
  return out;
}

class EnumerateOracleTest : public ::testing::TestWithParam<AppParam> {};

TEST_P(EnumerateOracleTest, EmitsTheNestedLoopSequenceInEveryScope) {
  const AppParam param = GetParam();
  workload::GeneratedData data = MakeData(param, 50);
  core::Rock rock(&data.db, &data.graph);
  rock.TrainModels(SpecFor(param.app));
  std::string text = data.rule_text;
  for (const std::string& rule : ExtraOracleRules(param.app)) {
    text += rule + "\n";
  }
  auto rules = rock.LoadRules(text);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();

  chase::FixStore store(&data.db);
  RandomOverlay(data.db, param.seed, &store);
  const rules::EvalContext plain = PlainContext(data, rock);
  rules::EvalContext repaired = plain;
  repaired.overlay = &store;
  repaired.temporal = &store;
  const rules::DeltaRows delta(data.db, RandomDelta(data.db, param.seed));

  Rng rng(param.seed ^ 0x0AC1Eull);
  size_t eid_join_valuations = 0;
  size_t var1_seeded_valuations = 0;
  for (const rules::EvalContext& ctx : {plain, repaired}) {
    const rules::Evaluator eval(ctx);
    for (const rules::Ree& rule : *rules) {
      if (rule.num_vertex_vars != 0) continue;
      const uint64_t n = data.db.relation(rule.tuple_vars[0]).size();
      const int begin = static_cast<int>(rng.NextBounded(n));
      const int end = begin + static_cast<int>(rng.NextBounded(n - begin + 1));
      for (const rules::Scope& scope :
           {rules::Scope{}, rules::Scope::Rows(begin, end),
            rules::Scope::Delta(delta)}) {
        const RowLists expected = OracleValuations(eval, rule, scope);
        EXPECT_EQ(Enumerated(eval, rule, scope), expected)
            << rule.id << " overlay=" << (ctx.overlay != nullptr)
            << " delta=" << (scope.delta != nullptr) << " rows [" << begin
            << ", " << end << ")";
        if (HasEidJoin(rule)) eid_join_valuations += expected.size();
        if (scope.delta == nullptr || rule.tuple_vars.size() < 2) continue;
        for (const std::vector<int>& rows : expected) {
          if (delta.Contains(rule.tuple_vars[1], rows[1]) &&
              !delta.Contains(rule.tuple_vars[0], rows[0])) {
            ++var1_seeded_valuations;
          }
        }
      }
    }
  }
  // The sweep reaches the EID-joined rules and variable-1 seeds.
  EXPECT_GT(eid_join_valuations, 0u);
  EXPECT_GT(var1_seeded_valuations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, EnumerateOracleTest,
    ::testing::Values(AppParam{"Bank", 5}, AppParam{"Bank", 19},
                      AppParam{"Logistics", 5}, AppParam{"Logistics", 19},
                      AppParam{"Sales", 5}, AppParam{"Sales", 19}));

TEST(EnumerateIndexTest, BankCuratedRulesTryNoUnindexedRow) {
  workload::GeneratedData data = MakeData(AppParam{"Bank", 3}, 120);
  core::Rock rock(&data.db, &data.graph);
  rock.TrainModels(SpecFor("Bank"));
  auto rules = rock.LoadRules(data.rule_text);
  ASSERT_TRUE(rules.ok());
  ASSERT_EQ(rules->size(), 8u);

  chase::FixStore store(&data.db);
  RandomOverlay(data.db, 3, &store);
  const rules::EvalContext plain = PlainContext(data, rock);
  rules::EvalContext repaired = plain;
  repaired.overlay = &store;
  repaired.temporal = &store;
  const rules::DeltaRows delta(data.db, RandomDelta(data.db, 3));
  size_t emitted = 0;
  for (const rules::EvalContext& ctx : {plain, repaired}) {
    const rules::Evaluator eval(ctx);
    for (const rules::Ree& rule : *rules) {
      for (const rules::Scope& scope :
           {rules::Scope{}, rules::Scope::Delta(delta)}) {
        const rules::EnumerateStats stats =
            eval.Enumerate(rule, scope, nullptr,
                           [&](const rules::Valuation&) { ++emitted; });
        EXPECT_EQ(stats.unindexed_rows, 0u)
            << rule.id << " overlay=" << (ctx.overlay != nullptr)
            << " delta=" << (scope.delta != nullptr);
      }
    }
  }
  EXPECT_GT(emitted, 0u);

  // A rule with no equality join scans variable 1 once per variable-0 row,
  // and the exported counter sees every such row.
  auto cross = rules::ParseRee(
      "Customer(t0) ^ Customer(t1) ^ t0.points <= t1.points -> "
      "t0.city = t1.city",
      data.db.schema());
  ASSERT_TRUE(cross.ok());
  const obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "rock_eval_unindexed_rows_total");
  const uint64_t before = counter->Value();
  const size_t n = data.db.relation(cross->tuple_vars[0]).size();
  const rules::EnumerateStats stats = rules::Evaluator(plain).Enumerate(
      *cross, rules::Scope{}, nullptr, [](const rules::Valuation&) {});
  EXPECT_EQ(stats.unindexed_rows, n * n);
  EXPECT_EQ(counter->Value() - before, stats.unindexed_rows);
}

// ---------------- Repairs never corrupt clean ground truth ----------------

class RepairSafetyTest : public ::testing::TestWithParam<AppParam> {};

TEST_P(RepairSafetyTest, GroundTruthCellsAreNeverRewritten) {
  workload::GeneratedData data = MakeData(GetParam());
  core::Rock rock(&data.db, &data.graph);
  rock.TrainModels(SpecFor(GetParam().app));
  auto rules = rock.LoadRules(data.rule_text);
  ASSERT_TRUE(rules.ok());
  core::CorrectionResult result;
  auto engine = rock.CorrectErrors(*rules, data.clean_tuples, &result);
  Database repaired = engine->MaterializeRepairs();
  for (const auto& [rel, tid] : data.clean_tuples) {
    const Relation& before = data.db.relation(rel);
    const Relation& after = repaired.relation(rel);
    int row = before.RowOfTid(tid);
    ASSERT_GE(row, 0);
    for (size_t attr = 0; attr < before.schema().num_attributes(); ++attr) {
      EXPECT_EQ(after.tuple(static_cast<size_t>(row)).value(
                    static_cast<int>(attr)),
                before.tuple(static_cast<size_t>(row)).value(
                    static_cast<int>(attr)))
          << "rel " << rel << " tid " << tid << " attr " << attr;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Apps, RepairSafetyTest,
    ::testing::Values(AppParam{"Bank", 77}, AppParam{"Logistics", 77},
                      AppParam{"Sales", 77}));

}  // namespace
}  // namespace rock

// Equivalence harness for deterministic fault injection (DESIGN.md "Fault
// injection & recovery"): under any seeded FaultPlan — stragglers,
// transient failures with retry/backoff, worker crashes with hash-ring
// re-placement, exhausted attempt budgets replayed from the round
// checkpoint — detection reports, final fix stores and provenance
// summaries stay byte-identical to the fault-free serial run, across
// worker counts and seeds, in the threaded pool and in its replay.

#include <atomic>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/chase/chase.h"
#include "src/core/engine.h"
#include "src/detect/detector.h"
#include "src/obs/metrics.h"
#include "src/par/executor.h"
#include "src/par/fault.h"
#include "src/rules/parser.h"
#include "src/workload/generator.h"

namespace rock {
namespace {

// Serializes everything a DetectionReport carries, in order, so two
// reports can be compared bitwise.
std::string ReportFingerprint(const detect::DetectionReport& report) {
  std::ostringstream out;
  out << report.violations << "|" << report.exhaustive_pairs_checked << "\n";
  for (const detect::ErrorRecord& error : report.errors) {
    out << error.rule_id << ":" << detect::ErrorClassName(error.error_class);
    for (const auto& cell : error.cells) {
      out << " (" << cell.rel << "," << cell.tid << "," << cell.attr << ")";
    }
    out << "\n";
  }
  return out.str();
}

std::string FixStoreDigest(const chase::ChaseEngine& engine,
                           const Database& db) {
  std::string digest;
  for (const chase::CellFix& fix : engine.CellFixes()) {
    digest += std::to_string(fix.rel) + ":" + std::to_string(fix.tid) + ":" +
              std::to_string(fix.attr) + "=" + fix.new_value.ToString() + ";";
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

// Canonical serialization of a ProvenanceSummary: recovery must preserve
// not just the fixes but the entire witness structure behind them.
std::string ProvenanceFingerprint(const obs::ProvenanceSummary& s) {
  std::ostringstream out;
  out << s.nodes << "|" << s.conflict_candidates << "|" << s.max_depth << "|"
      << s.ml_calls << "|" << s.premises_ground_truth << "|"
      << s.premises_prior_fix << "|" << s.premises_raw << "|"
      << s.premises_oracle << "\n";
  for (const auto& [rule, count] : s.fixes_by_rule) {
    out << rule << "=" << count << ";";
  }
  out << "\n";
  for (uint64_t d : s.depth_histogram) out << d << ",";
  return out.str();
}

workload::GeneratedData MakeData(uint64_t seed, size_t rows = 80) {
  workload::GeneratorOptions options;
  options.rows = rows;
  options.error_rate = 0.1;
  options.seed = seed;
  return workload::MakeAppData("Logistics", options);
}

std::vector<par::WorkUnit> MakeUnits(int count, int rule_index = 0) {
  std::vector<par::WorkUnit> units;
  for (int i = 0; i < count; ++i) {
    par::WorkUnit unit;
    unit.rule_index = rule_index;
    unit.rows = {0, i, i + 1};
    units.push_back(unit);
  }
  return units;
}

par::FaultPlan MustParse(const std::string& spec) {
  auto plan = par::FaultPlan::Parse(spec);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? *plan : par::FaultPlan();
}

// ---------------- Plan determinism & round-trips ----------------

TEST(FaultPlanTest, SpecRoundTripsThroughParse) {
  par::FaultPlan plan = MustParse("crash:5@1;delay:3=20000us;flaky:7x2");
  EXPECT_EQ(plan.crash_at_attempt.at(5), 1);
  EXPECT_NEAR(plan.delay_seconds.at(3), 0.02, 1e-9);
  EXPECT_EQ(plan.transient_failures.at(7), 2);
  par::FaultPlan reparsed = MustParse(plan.ToSpec());
  EXPECT_EQ(reparsed.ToSpec(), plan.ToSpec());
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(par::FaultPlan::Parse("crash:5").ok());
  EXPECT_FALSE(par::FaultPlan::Parse("delay:3=20000").ok());
  EXPECT_FALSE(par::FaultPlan::Parse("flaky:x2").ok());
  EXPECT_FALSE(par::FaultPlan::Parse("meteor:1@1").ok());
}

TEST(FaultPlanTest, FromSeedIsDeterministicAndRecoverable) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 99ull}) {
    par::FaultPlan a = par::FaultPlan::FromSeed(seed, 40, 4);
    par::FaultPlan b = par::FaultPlan::FromSeed(seed, 40, 4);
    EXPECT_EQ(a.ToSpec(), b.ToSpec()) << seed;
    EXPECT_FALSE(a.empty()) << seed;
    // Seeded plans stay below the default attempt budget: the pool alone
    // recovers them, no checkpoint replay needed.
    par::RetryPolicy retry;
    for (size_t unit = 0; unit < 40; ++unit) {
      EXPECT_FALSE(a.Unrecoverable(unit, retry)) << seed << ":" << unit;
    }
    // Crashes stay below the worker count so one worker always survives.
    EXPECT_LT(a.crash_at_attempt.size(), 4u) << seed;
  }
}

TEST(FaultPlanTest, BackoffIsCappedExponential) {
  par::RetryPolicy retry;
  retry.backoff_base_seconds = 0.001;
  retry.backoff_cap_seconds = 0.004;
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(1), 0.001);
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(2), 0.002);
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(3), 0.004);
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(10), 0.004);
}

TEST(FaultPlanTest, FromEnvReadsSeedAndPlan) {
  // Tests are single-threaded at this point; nothing races the environment.
  ASSERT_EQ(setenv("ROCK_FAULT_PLAN", "flaky:1x2", 1), 0);  // NOLINT(concurrency-mt-unsafe)
  auto plan = par::FaultPlan::FromEnv(10, 4);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->transient_failures.at(1), 2);
  ASSERT_EQ(unsetenv("ROCK_FAULT_PLAN"), 0);  // NOLINT(concurrency-mt-unsafe)

  ASSERT_EQ(setenv("ROCK_FAULT_SEED", "7", 1), 0);  // NOLINT(concurrency-mt-unsafe)
  auto seeded = par::FaultPlan::FromEnv(10, 4);
  ASSERT_TRUE(seeded.has_value());
  EXPECT_EQ(seeded->ToSpec(), par::FaultPlan::FromSeed(7, 10, 4).ToSpec());
  ASSERT_EQ(unsetenv("ROCK_FAULT_SEED"), 0);  // NOLINT(concurrency-mt-unsafe)

  EXPECT_FALSE(par::FaultPlan::FromEnv(10, 4).has_value());
}

// ---------------- Pool-level exactly-once under faults ----------------

TEST(FaultPoolTest, EveryUnitRunsExactlyOnceUnderSeededFaults) {
  const int kUnits = 120;
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    std::vector<par::WorkUnit> units = MakeUnits(kUnits);
    par::FaultPlan plan = par::FaultPlan::FromSeed(seed, kUnits, 6);
    par::PoolOptions options;
    options.fault_plan = &plan;
    std::vector<std::atomic<int>> executed(kUnits);
    for (auto& e : executed) e.store(0);
    par::WorkerPool pool(6, options);
    auto report = pool.Execute(
        units, [&](const par::WorkUnit&, size_t unit_index, int) {
          executed[unit_index].fetch_add(1);
        });
    for (const auto& e : executed) EXPECT_EQ(e.load(), 1) << seed;
    EXPECT_GT(report.faults.injected, 0) << seed;
    EXPECT_TRUE(report.faults.unrecovered_units.empty()) << seed;
  }
}

TEST(FaultPoolTest, CrashDuringStealRedistributesWithoutLoss) {
  // Fully skewed placement: every unit lands on one worker, so the other
  // workers acquire exclusively by stealing — and the crash victim is
  // whichever worker acquires the crash unit, stolen or not. Slow units
  // guarantee thieves are active when the crash fires.
  std::vector<par::WorkUnit> units;
  for (int i = 0; i < 48; ++i) {
    par::WorkUnit unit;
    unit.rule_index = 7;
    unit.rows = {0, 0, 0};  // identical block coordinates
    units.push_back(unit);
  }
  par::FaultPlan plan = MustParse("crash:20@1;crash:31@1");
  par::PoolOptions options;
  options.fault_plan = &plan;
  std::vector<std::atomic<int>> executed(units.size());
  for (auto& e : executed) e.store(0);
  par::WorkerPool pool(4, options);
  auto report = pool.Execute(
      units, [&](const par::WorkUnit&, size_t unit_index, int) {
        executed[unit_index].fetch_add(1);
        volatile double x = 0;
        for (int i = 0; i < 50000; ++i) x = x + i * 0.5;
      });
  int max_initial = 0;
  for (int c : report.initial_units) max_initial = std::max(max_initial, c);
  ASSERT_EQ(max_initial, 48) << "placement should be fully skewed";
  for (const auto& e : executed) EXPECT_EQ(e.load(), 1);
  EXPECT_EQ(report.faults.worker_deaths + report.faults.crashes_suppressed,
            2);
  EXPECT_GT(report.faults.units_reassigned, 0);
  EXPECT_TRUE(report.faults.unrecovered_units.empty());
}

TEST(FaultPoolTest, AllWorkersButOneDie) {
  // Three crash units across four workers: exactly three deaths (a crash
  // unit kills at most one worker, and suppression requires a single
  // survivor, which requires all three prior deaths). The survivor drains
  // everything.
  const int kUnits = 40;
  std::vector<par::WorkUnit> units = MakeUnits(kUnits);
  par::FaultPlan plan = MustParse("crash:3@1;crash:17@1;crash:29@1");
  par::PoolOptions options;
  options.fault_plan = &plan;
  std::vector<std::atomic<int>> executed(kUnits);
  for (auto& e : executed) e.store(0);
  par::WorkerPool pool(4, options);
  auto report = pool.Execute(
      units, [&](const par::WorkUnit&, size_t unit_index, int) {
        executed[unit_index].fetch_add(1);
      });
  for (const auto& e : executed) EXPECT_EQ(e.load(), 1);
  EXPECT_EQ(report.faults.worker_deaths, 3);
  EXPECT_EQ(report.faults.crashes_suppressed, 0);
  int run = 0;
  for (int c : report.executed_units) run += c;
  EXPECT_EQ(run, kUnits);
}

TEST(FaultPoolTest, LastWorkerCrashIsSuppressed) {
  std::vector<par::WorkUnit> units = MakeUnits(10);
  par::FaultPlan plan = MustParse("crash:4@1");
  par::PoolOptions options;
  options.fault_plan = &plan;
  std::vector<std::atomic<int>> executed(10);
  for (auto& e : executed) e.store(0);
  par::WorkerPool pool(1, options);
  auto report = pool.Execute(
      units, [&](const par::WorkUnit&, size_t unit_index, int) {
        executed[unit_index].fetch_add(1);
      });
  for (const auto& e : executed) EXPECT_EQ(e.load(), 1);
  EXPECT_EQ(report.faults.worker_deaths, 0);
  EXPECT_EQ(report.faults.crashes_suppressed, 1);
}

TEST(FaultPoolTest, ExhaustedBudgetIsReportedAndReplayable) {
  // flaky:6x9 fails more attempts than the budget allows: the pool gives
  // the unit up, reports it, and ReplayUnrecovered runs it exactly once.
  const int kUnits = 20;
  std::vector<par::WorkUnit> units = MakeUnits(kUnits);
  par::FaultPlan plan = MustParse("flaky:6x9;flaky:11x1");
  par::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.backoff_base_seconds = 1e-4;
  par::PoolOptions options;
  options.fault_plan = &plan;
  options.retry = retry;
  ASSERT_TRUE(plan.Unrecoverable(6, retry));
  ASSERT_FALSE(plan.Unrecoverable(11, retry));
  std::vector<std::atomic<int>> executed(kUnits);
  for (auto& e : executed) e.store(0);
  par::WorkerPool pool(3, options);
  auto body = [&](const par::WorkUnit&, size_t unit_index, int) {
    executed[unit_index].fetch_add(1);
  };
  auto report = pool.Execute(units, body);
  ASSERT_EQ(report.faults.unrecovered_units, std::vector<size_t>{6});
  EXPECT_EQ(executed[6].load(), 0);
  EXPECT_GT(report.faults.retries, 0);
  EXPECT_GT(report.faults.backoff_seconds, 0.0);
  EXPECT_EQ(par::WorkerPool::ReplayUnrecovered(units, &report, body), 1u);
  EXPECT_TRUE(report.faults.unrecovered_units.empty());
  for (const auto& e : executed) EXPECT_EQ(e.load(), 1);
}

TEST(FaultPoolTest, FaultAccountingMatchesReplay) {
  // The report's fault counters are functions of the plan, not of thread
  // timing: replaying a threaded run under the same plan must agree
  // exactly.
  const int kUnits = 60;
  for (uint64_t seed : {5ull, 6ull}) {
    std::vector<par::WorkUnit> units = MakeUnits(kUnits);
    par::FaultPlan plan = par::FaultPlan::FromSeed(seed, kUnits, 4);
    par::PoolOptions options;
    options.fault_plan = &plan;
    par::WorkerPool pool(4, options);
    auto a = pool.Execute(units, [](const par::WorkUnit&, size_t, int) {});
    auto b = pool.Replay(a);
    EXPECT_EQ(a.faults.injected, b.faults.injected) << seed;
    EXPECT_EQ(a.faults.retries, b.faults.retries) << seed;
    EXPECT_EQ(a.faults.worker_deaths, b.faults.worker_deaths) << seed;
    EXPECT_EQ(a.faults.unrecovered_units, b.faults.unrecovered_units)
        << seed;
    EXPECT_NEAR(a.faults.backoff_seconds, b.faults.backoff_seconds, 1e-12)
        << seed;
  }
}

TEST(FaultPoolTest, RetriedUnitStaysWithItsWorkerThroughBackoff) {
  // Both units land on one worker; the first acquisition fails once. The
  // failing worker holds its unit through the 50 ms backoff, so the peer
  // steals the other unit and then waits instead of taking the held one:
  // one unit per worker, and the makespan covers backoff plus the unit.
  par::ScheduleReport measured;
  for (int i = 0; i < 2; ++i) {
    measured.placement_keys.push_back("same-slice");
    measured.unit_seconds.push_back(0.01);
    measured.serial_seconds += 0.01;
  }
  par::FaultPlan plan = MustParse("flaky:0x1");
  par::PoolOptions options;
  options.fault_plan = &plan;
  options.retry.backoff_base_seconds = 0.05;
  options.retry.backoff_cap_seconds = 0.05;
  par::ScheduleReport replayed = par::WorkerPool(2, options).Replay(measured);
  EXPECT_EQ(replayed.executed_units, (std::vector<int>{1, 1}));
  EXPECT_EQ(replayed.stolen_units, 1);
  EXPECT_EQ(replayed.faults.retries, 1);
  EXPECT_GE(replayed.makespan_seconds, 0.05 + 0.01);
}

TEST(FaultPoolTest, RetriedUnitThatCrashesRunsOnceInBothDrivers) {
  // Unit 5 fails its first attempt, and the worker that acquires it again
  // dies: the backoff hand-back and the crash drain meet on one unit.
  const int kUnits = 24;
  std::vector<par::WorkUnit> units = MakeUnits(kUnits);
  par::FaultPlan plan = MustParse("flaky:5x1;crash:5@2");
  for (int workers : {2, 4}) {
    par::PoolOptions options;
    options.fault_plan = &plan;
    options.retry.backoff_base_seconds = 1e-3;
    par::WorkerPool pool(workers, options);
    std::vector<std::atomic<int>> executed(kUnits);
    for (auto& e : executed) e.store(0);
    par::ScheduleReport threaded = pool.Execute(
        units, [&](const par::WorkUnit&, size_t unit_index, int) {
          executed[unit_index].fetch_add(1);
        });
    for (const auto& e : executed) EXPECT_EQ(e.load(), 1) << workers;
    par::ScheduleReport replayed = pool.Replay(threaded);
    for (const par::ScheduleReport* report : {&threaded, &replayed}) {
      int run = 0;
      for (int c : report->executed_units) run += c;
      EXPECT_EQ(run, kUnits) << workers;
      EXPECT_TRUE(report->faults.unrecovered_units.empty()) << workers;
      EXPECT_EQ(report->faults.worker_deaths, 1) << workers;
    }
    EXPECT_EQ(threaded.faults.injected, replayed.faults.injected) << workers;
    EXPECT_EQ(threaded.faults.retries, replayed.faults.retries) << workers;
    EXPECT_EQ(threaded.faults.crashes_suppressed,
              replayed.faults.crashes_suppressed)
        << workers;
    EXPECT_DOUBLE_EQ(threaded.faults.backoff_seconds,
                     replayed.faults.backoff_seconds)
        << workers;
  }
}

// ---------------- End-to-end equivalence: detector & chase ----------------

struct FaultCase {
  const char* label;
  const char* spec;  // nullptr = derive from seed
  uint64_t seed = 0;
};

std::ostream& operator<<(std::ostream& os, const FaultCase& c) {
  return os << c.label;
}

par::FaultPlan PlanFor(const FaultCase& c, size_t num_units,
                       int num_workers) {
  if (c.spec != nullptr) return MustParse(c.spec);
  return par::FaultPlan::FromSeed(c.seed, num_units, num_workers);
}

class FaultEquivalenceTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultEquivalenceTest, DetectionSurvivesFaultsBitIdentically) {
  workload::GeneratedData data = MakeData(7);
  core::Rock rock(&data.db, &data.graph);
  auto rules = rock.LoadRules(data.rule_text);
  ASSERT_TRUE(rules.ok());

  rules::EvalContext ctx;
  ctx.db = &data.db;
  ctx.graph = &data.graph;
  ctx.models = rock.models();
  // Fault-free baseline: the serial report, which the fault-free parallel
  // run must reproduce field for field.
  detect::ErrorDetector serial(ctx);
  const detect::DetectionReport serial_report = serial.Detect(*rules);
  std::string expected = ReportFingerprint(serial_report);
  detect::ErrorDetector clean(ctx);
  par::ScheduleReport clean_schedule;
  EXPECT_TRUE(clean.DetectParallel(*rules, 2, &clean_schedule) ==
              serial_report);

  for (int workers : {2, 3, 5}) {
    par::FaultPlan plan = PlanFor(GetParam(), 64, workers);
    detect::DetectorOptions options;
    options.pool.fault_plan = &plan;
    options.pool.retry.backoff_base_seconds = 1e-4;
    detect::ErrorDetector faulty(ctx, options);
    par::ScheduleReport schedule;
    auto report = faulty.DetectParallel(*rules, workers, &schedule);
    EXPECT_EQ(ReportFingerprint(report), expected)
        << GetParam() << " x" << workers << " plan=" << plan.ToSpec();
    // Recovery leaves nothing behind.
    EXPECT_TRUE(schedule.faults.unrecovered_units.empty());
  }
}

TEST_P(FaultEquivalenceTest, ChaseSurvivesFaultsBitIdentically) {
  // Fault-free serial baseline: digest + provenance fingerprint.
  workload::GeneratedData serial_data = MakeData(7);
  core::Rock serial_rock(&serial_data.db, &serial_data.graph);
  auto rules = serial_rock.LoadRules(serial_data.rule_text);
  ASSERT_TRUE(rules.ok());
  chase::ChaseEngine serial_engine(&serial_data.db, &serial_data.graph,
                                   serial_rock.models());
  for (const auto& [rel, tid] : serial_data.clean_tuples) {
    Status ignored = serial_engine.fix_store().AddGroundTruthTuple(rel, tid);
    (void)ignored;
  }
  serial_engine.Run(*rules);
  std::string expected_digest =
      FixStoreDigest(serial_engine, serial_data.db);
  std::string expected_prov =
      ProvenanceFingerprint(serial_engine.ProvenanceSummary());

  for (int workers : {2, 3, 5}) {
    workload::GeneratedData data = MakeData(7);
    core::Rock rock(&data.db, &data.graph);
    par::FaultPlan plan = PlanFor(GetParam(), 64, workers);
    chase::ChaseOptions options;
    options.pool.fault_plan = &plan;
    options.pool.retry.backoff_base_seconds = 1e-4;
    chase::ChaseEngine engine(&data.db, &data.graph, rock.models(),
                              options);
    for (const auto& [rel, tid] : data.clean_tuples) {
      Status ignored = engine.fix_store().AddGroundTruthTuple(rel, tid);
      (void)ignored;
    }
    par::ScheduleReport schedule;
    auto result = engine.RunParallel(*rules, workers, &schedule);
    EXPECT_EQ(FixStoreDigest(engine, data.db), expected_digest)
        << GetParam() << " x" << workers << " plan=" << plan.ToSpec();
    EXPECT_EQ(ProvenanceFingerprint(engine.ProvenanceSummary()),
              expected_prov)
        << GetParam() << " x" << workers;
    EXPECT_TRUE(schedule.faults.unrecovered_units.empty());
    if (plan.transient_failures.count(0) ||
        plan.crash_at_attempt.count(0) || plan.delay_seconds.count(0)) {
      EXPECT_GT(schedule.faults.injected, 0);
    }
    (void)result;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Plans, FaultEquivalenceTest,
    ::testing::Values(
        FaultCase{"none", ""},
        FaultCase{"delays", "delay:0=300us;delay:3=800us;delay:9=200us"},
        FaultCase{"transient", "flaky:0x2;flaky:5x1;flaky:12x3"},
        FaultCase{"unrecoverable", "flaky:0x6;flaky:7x8"},
        FaultCase{"crashes", "crash:0@1;crash:8@1"},
        FaultCase{"mixed", "crash:1@1;delay:4=500us;flaky:2x2;flaky:9x7"},
        FaultCase{"seeded1", nullptr, 1}, FaultCase{"seeded2", nullptr, 2},
        FaultCase{"seeded3", nullptr, 3}));

// ---------------- Telemetry: recovery reaches the registry ----------------

// Every round, the pooled round 0 included, publishes its progress.
TEST(FaultTelemetryTest, ChaseRoundsCounterMatchesResultRounds) {
  for (bool parallel : {false, true}) {
    workload::GeneratedData data = MakeData(7);
    core::Rock rock(&data.db, &data.graph);
    auto rules = rock.LoadRules(data.rule_text);
    ASSERT_TRUE(rules.ok());
    chase::ChaseEngine engine(&data.db, &data.graph, rock.models());
    for (const auto& [rel, tid] : data.clean_tuples) {
      Status ignored = engine.fix_store().AddGroundTruthTuple(rel, tid);
      (void)ignored;
    }
    auto rounds_total = [] {
      return obs::MetricsRegistry::Global().Snap().CounterValue(
          "rock_chase_rounds_total");
    };
    const uint64_t before = rounds_total();
    par::ScheduleReport schedule;
    chase::ChaseResult result = parallel
                                    ? engine.RunParallel(*rules, 2, &schedule)
                                    : engine.Run(*rules);
    EXPECT_GT(result.rounds, 1) << parallel;
    EXPECT_EQ(rounds_total() - before, static_cast<uint64_t>(result.rounds))
        << parallel;
    EXPECT_EQ(obs::MetricsRegistry::Global().Snap().GaugeValue(
                  "rock_chase_current_round"),
              0);
  }
}

TEST(FaultTelemetryTest, RetryAndRecoveryCountersAreExported) {
  obs::MetricsRegistry::Global().Reset();
  workload::GeneratedData data = MakeData(7, 40);
  core::Rock rock(&data.db, &data.graph);
  auto rules = rock.LoadRules(data.rule_text);
  ASSERT_TRUE(rules.ok());

  // flaky:0x8 exhausts the default budget (4 attempts) -> checkpoint
  // replay; flaky:2x2 retries within budget; a crash kills one worker.
  par::FaultPlan plan = MustParse("flaky:0x8;flaky:2x2;crash:1@1");
  par::RetryPolicy retry;
  retry.backoff_base_seconds = 1e-4;
  rock.SetFaultInjection(&plan, retry);

  core::CorrectionResult result;
  auto engine = rock.CorrectErrorsParallel(*rules, data.clean_tuples,
                                           /*num_workers=*/3, &result);
  ASSERT_NE(engine, nullptr);
  EXPECT_GT(result.chase.replayed_units, 0u);

  auto snap = obs::MetricsRegistry::Global().Snap();
  EXPECT_GT(snap.CounterValue("rock_par_faults_injected_total"), 0u);
  EXPECT_GT(snap.CounterValue("rock_par_unit_retries_total"), 0u);
  EXPECT_GT(snap.CounterValue("rock_par_backoff_micros_total"), 0u);
  EXPECT_EQ(snap.CounterValue("rock_par_worker_deaths_total"), 1u);
  EXPECT_GT(snap.CounterValue("rock_chase_checkpoints_total"), 0u);
  EXPECT_GT(snap.CounterValue("rock_chase_checkpoint_restores_total"), 0u);
  // The recovery layers settled every abandoned unit.
  EXPECT_EQ(snap.GaugeValue("rock_faults_unrecovered_units"), 0);
}

}  // namespace
}  // namespace rock

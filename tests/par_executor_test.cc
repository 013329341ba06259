// Tests for the threaded WorkerPool executor: determinism of merged
// results across worker counts, real work stealing under skewed
// placement, stress cases that give TSan genuine interleavings, and the
// purity of WorkerPool::Replay.

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/detect/detector.h"
#include "src/ml/library.h"
#include "src/obs/exporters.h"
#include "src/par/executor.h"
#include "src/rules/parser.h"
#include "src/workload/ecommerce.h"
#include "src/workload/generator.h"

namespace rock {
namespace {

using workload::EcommerceData;
using workload::MakeEcommerceData;

// Serializes everything a DetectionReport carries, in order, so two
// reports can be compared bitwise.
std::string ReportFingerprint(const detect::DetectionReport& report) {
  std::ostringstream out;
  out << report.violations << "|" << report.blocked_pairs_checked << "|"
      << report.exhaustive_pairs_checked << "\n";
  for (const detect::ErrorRecord& error : report.errors) {
    out << error.rule_id << ":"
        << detect::ErrorClassName(error.error_class);
    for (const auto& cell : error.cells) {
      out << " (" << cell.rel << "," << cell.tid << "," << cell.attr << ")";
    }
    out << "\n";
  }
  return out.str();
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

TEST(IdleAccountingTest, ClampedIdleSecondsNeverNegative) {
  // Regression: idle = wall - busy went negative for straggler workers
  // whose busy time (their own clock) exceeded the pool's wall clock.
  EXPECT_DOUBLE_EQ(par::ClampedIdleSeconds(1.0, 0.25), 0.75);
  EXPECT_DOUBLE_EQ(par::ClampedIdleSeconds(1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(par::ClampedIdleSeconds(1.0, 1.5), 0.0);
  EXPECT_DOUBLE_EQ(par::ClampedIdleSeconds(0.0, 0.0), 0.0);
}

TEST(IdleAccountingTest, ExecuteReportsPerWorkerBreakdownsClampedAtZero) {
  // Oversubscribe workers so per-worker busy clocks race the wall clock;
  // every idle entry must still come out non-negative.
  const int kUnits = 64;
  const int kWorkers = 8;
  std::vector<par::WorkUnit> units = MakeUnits(kUnits);
  par::WorkerPool pool(kWorkers);
  auto report = pool.Execute(
      units, [&](const par::WorkUnit&, size_t, int) {
        volatile double acc = 0;
        for (int i = 0; i < 20000; ++i) acc = acc + i;
      });
  ASSERT_EQ(report.busy_seconds.size(), static_cast<size_t>(kWorkers));
  ASSERT_EQ(report.wait_seconds.size(), static_cast<size_t>(kWorkers));
  ASSERT_EQ(report.idle_seconds.size(), static_cast<size_t>(kWorkers));
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_GE(report.busy_seconds[w], 0.0);
    EXPECT_GE(report.wait_seconds[w], 0.0);
    EXPECT_GE(report.idle_seconds[w], 0.0) << "worker " << w;
  }
}

TEST(IdleAccountingTest, ExecutePublishesScheduleBreakdown) {
  obs::ScheduleBreakdowns::Global().Reset();
  std::vector<par::WorkUnit> units = MakeUnits(16);
  par::WorkerPool pool(2);
  pool.Execute(units, [](const par::WorkUnit&, size_t, int) {});
  std::vector<obs::WorkerBreakdown> breakdowns =
      obs::ScheduleBreakdowns::Global().Snapshot();
  ASSERT_FALSE(breakdowns.empty());
  const obs::WorkerBreakdown& last = breakdowns.back();
  EXPECT_EQ(last.mode, "threads");
  EXPECT_EQ(last.workers, 2);
  EXPECT_EQ(last.busy_seconds.size(), 2u);
  EXPECT_EQ(last.wait_seconds.size(), 2u);
  EXPECT_EQ(last.idle_seconds.size(), 2u);
  EXPECT_GT(last.wall_seconds, 0.0);
}

TEST(ThreadedPoolTest, ExecutesEveryUnitExactlyOnce) {
  const int kUnits = 200;
  std::vector<par::WorkUnit> units = MakeUnits(kUnits);
  std::vector<std::atomic<int>> executed(kUnits);
  for (auto& e : executed) e.store(0);
  par::WorkerPool pool(8);
  auto report = pool.Execute(
      units, [&](const par::WorkUnit&, size_t unit_index, int worker) {
        ASSERT_GE(worker, 0);
        ASSERT_LT(worker, 8);
        executed[unit_index].fetch_add(1);
      });
  for (const auto& e : executed) EXPECT_EQ(e.load(), 1);
  EXPECT_GT(report.wall_seconds, 0.0);
  ASSERT_EQ(report.unit_seconds.size(), static_cast<size_t>(kUnits));
  ASSERT_EQ(report.placement_keys.size(), static_cast<size_t>(kUnits));
  EXPECT_EQ(report.placement_keys[3], units[3].PlacementKey());
  int placed = 0, run = 0;
  for (int c : report.initial_units) placed += c;
  for (int c : report.executed_units) run += c;
  EXPECT_EQ(placed, kUnits);
  EXPECT_EQ(run, kUnits);
}

TEST(ThreadedPoolTest, StealsUnderSkewedPlacement) {
  // Every unit shares one placement key, so hash placement drops the whole
  // batch on a single worker; the other workers' only source of work is
  // stealing. Units are slow enough that the owner cannot drain its queue
  // before the thieves arrive.
  std::vector<par::WorkUnit> units;
  for (int i = 0; i < 64; ++i) {
    par::WorkUnit unit;
    unit.rule_index = 7;
    unit.rows = {0, 0, 0};  // identical block coordinates
    units.push_back(unit);
  }
  par::WorkerPool pool(4);
  auto report = pool.Execute(units, [](const par::WorkUnit&, size_t, int) {
    volatile double x = 0;
    for (int i = 0; i < 200000; ++i) x = x + i * 0.5;
  });
  int max_initial = 0;
  for (int c : report.initial_units) max_initial = std::max(max_initial, c);
  ASSERT_EQ(max_initial, 64) << "placement should be fully skewed";
  EXPECT_GT(report.stolen_units, 0);
  int run = 0;
  for (int c : report.executed_units) run += c;
  EXPECT_EQ(run, 64);
}

TEST(ThreadedPoolTest, RepeatedRunsStress) {
  // Many small units over many iterations: a TSan target in which fresh
  // threads each round contend for the pool's one scheduling lock while
  // bodies run outside it.
  for (int round = 0; round < 20; ++round) {
    const int kUnits = 100;
    std::vector<par::WorkUnit> units = MakeUnits(kUnits, round);
    std::vector<std::atomic<int>> executed(kUnits);
    for (auto& e : executed) e.store(0);
    par::WorkerPool pool(6);
    pool.Execute(units,
                 [&](const par::WorkUnit&, size_t unit_index, int) {
                   executed[unit_index].fetch_add(1);
                 });
    for (const auto& e : executed) ASSERT_EQ(e.load(), 1) << round;
  }
}

TEST(ThreadedPoolTest, StealRacesDrainOnWorkerDeathStress) {
  // A crash drain racing thieves: the whole batch sits on one worker
  // (identical placement keys), which crashes on its first unit while slow
  // bodies keep the thieves stealing from its deque. The drain and every
  // steal are steps of the one schedule under its one lock, so a thief
  // sees the deque either before the death or after the drain, never in
  // between. Run under TSan in CI's fault-matrix job; exactly-once
  // execution proves no unit is lost or duplicated across the handoff.
  par::FaultPlan plan;
  plan.crash_at_attempt[0] = 1;
  for (int round = 0; round < 10; ++round) {
    const int kUnits = 48;
    std::vector<par::WorkUnit> units;
    for (int i = 0; i < kUnits; ++i) {
      par::WorkUnit unit;
      unit.rule_index = round;
      unit.rows = {0, 0, 0};  // identical block coordinates
      units.push_back(unit);
    }
    std::vector<std::atomic<int>> executed(kUnits);
    for (auto& e : executed) e.store(0);
    par::PoolOptions options;
    options.fault_plan = &plan;
    par::WorkerPool pool(4, options);
    auto report = pool.Execute(
        units, [&](const par::WorkUnit&, size_t unit_index, int) {
          executed[unit_index].fetch_add(1);
          volatile double x = 0;
          for (int i = 0; i < 20000; ++i) x = x + i * 0.5;
        });
    for (const auto& e : executed) ASSERT_EQ(e.load(), 1) << round;
    EXPECT_EQ(report.faults.worker_deaths, 1u) << round;
    // The acquired unit re-places without counting as a steal; everything
    // else drained from the dead worker's deque counts as both.
    EXPECT_EQ(report.faults.steals_on_death + 1,
              report.faults.units_reassigned)
        << round;
    EXPECT_GE(report.faults.units_reassigned, 1u) << round;
    EXPECT_TRUE(report.faults.unrecovered_units.empty()) << round;
  }
}

TEST(ReplayTest, ReplayIsDeterministicAndFillsBreakdowns) {
  // Replay is a pure function of the report and the pool: two replays of
  // one measured run agree field for field, and replaying at the measured
  // worker count reproduces the makespan Execute reported.
  std::vector<par::WorkUnit> units = MakeUnits(50);
  // An explicit (empty) plan keeps ROCK_FAULT_SEED out of the measured run.
  par::FaultPlan no_faults;
  par::PoolOptions measure_options;
  measure_options.fault_plan = &no_faults;
  par::WorkerPool measure(3, measure_options);
  par::ScheduleReport measured =
      measure.Execute(units, [](const par::WorkUnit& unit, size_t, int) {
        volatile double x = 0;
        for (int i = 0; i < 2000 * (unit.rows.begin % 5 + 1); ++i) {
          x = x + i;
        }
      });
  EXPECT_DOUBLE_EQ(measure.Replay(measured).makespan_seconds,
                   measured.makespan_seconds);

  par::FaultPlan plan = par::FaultPlan::FromSeed(5, units.size(), 5);
  par::PoolOptions options;
  options.fault_plan = &plan;
  par::WorkerPool pool(5, options);
  par::ScheduleReport a = pool.Replay(measured);
  par::ScheduleReport b = pool.Replay(measured);
  EXPECT_EQ(a.num_workers, 5);
  EXPECT_EQ(a.initial_units, b.initial_units);
  EXPECT_EQ(a.executed_units, b.executed_units);
  EXPECT_EQ(a.stolen_units, b.stolen_units);
  EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_EQ(a.busy_seconds, b.busy_seconds);
  EXPECT_EQ(a.wait_seconds, b.wait_seconds);
  EXPECT_EQ(a.idle_seconds, b.idle_seconds);
  EXPECT_EQ(a.faults.injected, b.faults.injected);
  EXPECT_EQ(a.faults.units_reassigned, b.faults.units_reassigned);
  EXPECT_EQ(a.faults.unrecovered_units, b.faults.unrecovered_units);
  EXPECT_GT(a.faults.injected, 0);
  EXPECT_DOUBLE_EQ(a.serial_seconds, measured.serial_seconds);
  ASSERT_EQ(a.busy_seconds.size(), 5u);
  ASSERT_EQ(a.wait_seconds.size(), 5u);
  ASSERT_EQ(a.idle_seconds.size(), 5u);
  for (int w = 0; w < 5; ++w) {
    EXPECT_GE(a.idle_seconds[w], 0.0);
    EXPECT_GE(a.wait_seconds[w], 0.0);
  }
}

TEST(ReplayTest, FaultFreeReplayIsPinned) {
  // The scale benches' ratchet floors rest on the fault-free replay, so
  // for a fixed measured report its schedule is pinned bit for bit.
  par::ScheduleReport measured;
  for (int i = 0; i < 40; ++i) {
    par::WorkUnit unit;
    unit.rule_index = i % 3;
    unit.rows = {0, i / 3, i / 3 + 1};
    measured.placement_keys.push_back(unit.PlacementKey());
    // Integer microseconds, one rounding: the same doubles on every target.
    measured.unit_seconds.push_back(
        static_cast<double>(1000 * (1 + (i * 7) % 5) + 10 * i) / 1e6);
    measured.serial_seconds += measured.unit_seconds.back();
  }
  struct Pinned {
    int workers;
    double makespan;
    int stolen;
    std::vector<int> initial, executed;
    std::vector<double> busy, wait, idle;
  };
  const Pinned pinned[] = {
      {3, 0.044230000000000005, 9,
       {19, 5, 16},
       {15, 14, 11},
       {0.04308, 0.044230000000000005, 0.040489999999999998},
       {0.27614000000000005, 0.24929000000000001, 0.2049},
       {0.0011500000000000052, 0, 0.0037400000000000072}},
      {5, 0.028040000000000002, 12,
       {7, 4, 13, 14, 2},
       {8, 8, 7, 8, 9},
       {0.023570000000000001, 0.028040000000000002, 0.02383,
        0.024729999999999999, 0.027629999999999998},
       {0.076250000000000012, 0.078770000000000007, 0.06470999999999999,
        0.091609999999999997, 0.09910999999999999},
       {0.0044700000000000017, 0, 0.0042100000000000019, 0.0033100000000000039,
        0.00041000000000000411}},
  };
  for (const Pinned& p : pinned) {
    par::ScheduleReport r = par::WorkerPool(p.workers).Replay(measured);
    EXPECT_EQ(r.makespan_seconds, p.makespan) << p.workers;
    EXPECT_EQ(r.stolen_units, p.stolen) << p.workers;
    EXPECT_EQ(r.initial_units, p.initial) << p.workers;
    EXPECT_EQ(r.executed_units, p.executed) << p.workers;
    EXPECT_EQ(r.busy_seconds, p.busy) << p.workers;
    EXPECT_EQ(r.wait_seconds, p.wait) << p.workers;
    EXPECT_EQ(r.idle_seconds, p.idle) << p.workers;
  }
}

class ParDetectTest : public ::testing::Test {
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
    out.id = "t";
    return out;
  }

  EcommerceData data_;
  ml::MlLibrary models_;
};

TEST_F(ParDetectTest, ReportIdenticalAcrossWorkerCounts) {
  // The acceptance bar for the threaded executor: the full report —
  // violation counts, error records, cell lists, in order — is bitwise
  // identical for 1 vs. N workers, because per-unit reports merge in unit
  // order.
  std::vector<rules::Ree> rules = {
      Parse("Trans(t0) ^ Trans(t1) ^ t0.com = t1.com -> t0.mfg = t1.mfg"),
      Parse("Store(t0) ^ t0.location = 'Beijing' -> t0.area_code = '010'"),
      Parse("Store(t0) ^ Store(t1) ^ t0.location = t1.location -> "
            "t0.area_code = t1.area_code")};
  std::string baseline;
  for (int workers : {1, 2, 4, 7}) {
    detect::ErrorDetector detector(Ctx());
    par::ScheduleReport schedule;
    auto report = detector.DetectParallel(rules, workers, &schedule);
    std::string fingerprint = ReportFingerprint(report);
    if (baseline.empty()) {
      baseline = fingerprint;
      EXPECT_GT(report.violations, 0u);
    } else {
      EXPECT_EQ(fingerprint, baseline) << " x" << workers;
    }
  }
}

TEST_F(ParDetectTest, ThreadedStressOverGeneratedWorkload) {
  // Larger generated workload, small blocks, several worker counts and
  // repetitions: real contention for TSan on the detector path (shared
  // pair-frequency cache, per-worker evaluators, per-unit reports).
  workload::GeneratorOptions options;
  options.rows = 60;
  options.error_rate = 0.1;
  options.seed = 13;
  workload::GeneratedData data =
      workload::MakeAppData("Logistics", options);
  auto rules = rules::ParseRules(data.rule_text, data.db.schema());
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();

  rules::EvalContext ctx;
  ctx.db = &data.db;
  ctx.graph = &data.graph;

  std::string baseline;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (int workers : {2, 5}) {
      detect::ErrorDetector detector(ctx);
      par::ScheduleReport schedule;
      auto report = detector.DetectParallel(*rules, workers, &schedule);
      std::string fingerprint = ReportFingerprint(report);
      if (baseline.empty()) {
        baseline = fingerprint;
      } else {
        EXPECT_EQ(fingerprint, baseline) << workers << "@" << repeat;
      }
    }
  }
}

}  // namespace
}  // namespace rock

#include <algorithm>
#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/detect/detector.h"
#include "src/ml/library.h"
#include "src/par/executor.h"
#include "src/rules/parser.h"
#include "src/workload/ecommerce.h"
#include "src/workload/generator.h"

namespace rock {
namespace {

using workload::EcommerceData;
using workload::MakeEcommerceData;

class DetectTest : public ::testing::Test {
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

TEST_F(DetectTest, CrViolationFlagsCells) {
  // φ2: same commodity, different manufactory (rows 3 vs 4).
  std::vector<rules::Ree> rules = {
      Parse("Trans(t0) ^ Trans(t1) ^ t0.com = t1.com -> t0.mfg = t1.mfg")};
  detect::ErrorDetector detector(Ctx());
  auto report = detector.Detect(rules);
  EXPECT_EQ(report.violations, 2u);  // both orientations
  for (const auto& error : report.errors) {
    EXPECT_EQ(error.error_class, detect::ErrorClass::kConflict);
  }
  // Majority-side flagging has no guard info to split a 1-vs-1 tie; both
  // mfg cells are implicated.
  EXPECT_GE(report.DirtyCells().size(), 2u);
}

TEST_F(DetectTest, MissingValueClassification) {
  std::vector<rules::Ree> rules = {Parse(
      "Store(t0) ^ Store(t1) ^ t0.location = t1.location -> "
      "t0.area_code = t1.area_code")};
  detect::ErrorDetector detector(Ctx());
  auto report = detector.Detect(rules);
  // Beijing stores have null area codes: flagged as missing, and only the
  // null cells are implicated.
  bool any_missing = false;
  for (const auto& error : report.errors) {
    if (error.error_class == detect::ErrorClass::kMissing) {
      any_missing = true;
      for (const auto& cell : error.cells) {
        const Relation& rel = data_.db.relation(cell.rel);
        int row = rel.RowOfTid(cell.tid);
        EXPECT_TRUE(rel.tuple(static_cast<size_t>(row))
                        .value(cell.attr).is_null());
      }
    }
  }
  EXPECT_TRUE(any_missing);
}

TEST_F(DetectTest, ErViolationFlagsTuplePairs) {
  std::vector<rules::Ree> rules = {Parse(
      "Trans(t0) ^ Trans(t1) ^ MER(t0[com], t1[com]) ^ t0.date = t1.date ^ "
      "t0.sid = t1.sid -> t0.eid = t1.eid")};
  detect::ErrorDetector detector(Ctx());
  auto report = detector.Detect(rules);
  EXPECT_GE(report.violations, 2u);
  for (const auto& error : report.errors) {
    EXPECT_EQ(error.error_class, detect::ErrorClass::kDuplicate);
    for (const auto& cell : error.cells) EXPECT_EQ(cell.attr, -1);
  }
}

TEST_F(DetectTest, BlockingPathMatchesExhaustive) {
  // A pure-ML rule (no equality join): the blocking path must find the
  // same violations as the exhaustive path.
  std::vector<rules::Ree> rules = {Parse(
      "Trans(t0) ^ Trans(t1) ^ MER(t0[com], t1[com]) -> t0.mfg = t1.mfg")};

  detect::DetectorOptions with;
  with.use_ml_blocking = true;
  detect::ErrorDetector blocking(Ctx(), with);
  auto blocked = blocking.Detect(rules);
  EXPECT_GT(blocked.blocked_pairs_checked, 0u);

  detect::DetectorOptions without;
  without.use_ml_blocking = false;
  detect::ErrorDetector exhaustive(Ctx(), without);
  auto full = exhaustive.Detect(rules);

  EXPECT_EQ(blocked.DirtyCells(), full.DirtyCells());
  // And the candidate set is smaller than the cross product.
  size_t n = data_.db.relation(data_.trans).size();
  EXPECT_LT(blocked.blocked_pairs_checked, n * (n - 1));
}

TEST_F(DetectTest, IncrementalOnlySeesDelta) {
  std::vector<rules::Ree> rules = {
      Parse("Trans(t0) ^ Trans(t1) ^ t0.com = t1.com -> t0.mfg = t1.mfg")};
  detect::ErrorDetector detector(Ctx());
  // Dirty set = one clean tuple: no violation involves it.
  const Relation& trans = data_.db.relation(data_.trans);
  auto report = detector.DetectIncremental(
      rules, {{data_.trans, trans.tuple(0).tid}});
  EXPECT_EQ(report.violations, 0u);
  // Dirty set = the conflicting tuple: both orientations reported.
  report = detector.DetectIncremental(
      rules, {{data_.trans, trans.tuple(4).tid}});
  EXPECT_EQ(report.violations, 2u);
}

TEST_F(DetectTest, ParallelMatchesSerial) {
  std::vector<rules::Ree> rules = {
      Parse("Trans(t0) ^ Trans(t1) ^ t0.com = t1.com -> t0.mfg = t1.mfg"),
      Parse("Store(t0) ^ t0.location = 'Beijing' -> t0.area_code = '010'"),
      Parse("Trans(t0) ^ Trans(t1) ^ MER(t0[com], t1[com]) -> "
            "t0.mfg = t1.mfg")};
  detect::ErrorDetector detector(Ctx());
  auto serial = detector.Detect(rules);
  EXPECT_GT(serial.blocked_pairs_checked, 0u);
  EXPECT_GT(serial.exhaustive_pairs_checked, 0u);
  for (int workers : {1, 3, 8}) {
    par::ScheduleReport schedule;
    detect::ErrorDetector parallel(Ctx());
    auto report = parallel.DetectParallel(rules, workers, &schedule);
    // Field for field: errors in order, violations and both pair counters.
    EXPECT_EQ(report.violations, serial.violations) << " x" << workers;
    EXPECT_EQ(report.blocked_pairs_checked, serial.blocked_pairs_checked);
    EXPECT_EQ(report.exhaustive_pairs_checked,
              serial.exhaustive_pairs_checked);
    EXPECT_TRUE(report == serial) << " x" << workers;
    EXPECT_EQ(schedule.num_workers, workers);
    EXPECT_GT(schedule.makespan_seconds, 0.0);
    EXPECT_LE(schedule.makespan_seconds, schedule.serial_seconds + 1e-9);
    EXPECT_GT(schedule.wall_seconds, 0.0);
  }
}

TEST_F(DetectTest, PairFrequencyCacheSafeUnderConcurrentFirstUse) {
  // Regression for the pair-frequency cache's check-then-insert: the first
  // DetectParallel run populates the (rel, guard, cons) table from several
  // worker threads at once. Fresh detectors each iteration keep the cache
  // cold so every run exercises the racy first-miss path; the report
  // must match the serial one every time (under TSan this also
  // proves the double-checked insert is race-free).
  std::vector<rules::Ree> rules = {
      Parse("Trans(t0) ^ Trans(t1) ^ t0.com = t1.com -> t0.mfg = t1.mfg")};
  detect::ErrorDetector serial_detector(Ctx());
  auto serial = serial_detector.Detect(rules);
  ASSERT_FALSE(serial.DirtyCells().empty());
  for (int iteration = 0; iteration < 20; ++iteration) {
    par::ScheduleReport schedule;
    // Trans has fewer rows than kMaxRowSlices: one-row units, so the
    // workers really contend.
    detect::ErrorDetector parallel(Ctx());
    auto report = parallel.DetectParallel(rules, 8, &schedule);
    ASSERT_TRUE(report == serial) << "iteration " << iteration;
  }
}

// ---------- par ----------

TEST(RowUnitsTest, SlicesCoverRowsOnceInOrder) {
  for (size_t rows : {size_t{1}, size_t{5}, size_t{64}, size_t{65},
                      size_t{1000}}) {
    auto units = par::BuildRowUnits(3, 2, rows);
    ASSERT_EQ(units.size(), std::min<size_t>(rows, par::kMaxRowSlices));
    int next = 0;
    for (const par::WorkUnit& unit : units) {
      EXPECT_EQ(unit.rule_index, 3);
      EXPECT_EQ(unit.rows.rel, 2);
      EXPECT_EQ(unit.rows.begin, next) << rows;
      EXPECT_GT(unit.rows.end, unit.rows.begin) << rows;
      next = unit.rows.end;
    }
    EXPECT_EQ(next, static_cast<int>(rows));
  }
}

TEST(RowUnitsTest, EmptyRelationYieldsOneEmptyUnit) {
  auto units = par::BuildRowUnits(0, 0, 0);
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0].rows.begin, 0);
  EXPECT_EQ(units[0].rows.end, 0);
}

TEST(WorkerPoolTest, ExecutesEveryUnitOnce) {
  std::vector<par::WorkUnit> units;
  for (int i = 0; i < 40; ++i) {
    par::WorkUnit unit;
    unit.rule_index = i;
    unit.rows = {0, i, i + 1};
    units.push_back(unit);
  }
  std::vector<int> executed(40, 0);
  par::WorkerPool pool(6);
  auto report =
      pool.Execute(units, [&](const par::WorkUnit& unit, size_t, int) {
        executed[static_cast<size_t>(unit.rule_index)]++;
      });
  for (int count : executed) EXPECT_EQ(count, 1);
  int placed = 0, run = 0;
  for (int c : report.initial_units) placed += c;
  for (int c : report.executed_units) run += c;
  EXPECT_EQ(placed, 40);
  EXPECT_EQ(run, 40);
}

// A measured report as Execute leaves it, with synthetic durations: every
// unit took `seconds`. Replay reads only the per-unit vectors.
par::ScheduleReport EqualDurations(const std::vector<par::WorkUnit>& units,
                                   double seconds) {
  par::ScheduleReport report;
  for (const par::WorkUnit& unit : units) {
    report.unit_seconds.push_back(seconds);
    report.placement_keys.push_back(unit.PlacementKey());
    report.serial_seconds += seconds;
  }
  return report;
}

TEST(WorkerPoolTest, ReplayedMakespanShrinksWithWorkers) {
  std::vector<par::WorkUnit> units;
  for (int i = 0; i < 64; ++i) {
    par::WorkUnit unit;
    unit.rule_index = i;
    unit.rows = {0, i, i + 1};
    units.push_back(unit);
  }
  // Equal units and stealing keep every worker busy until the queues
  // drain: the makespan is exactly units / workers unit durations (d is a
  // power of two, so the virtual clock sums exactly).
  const double d = 0.25;
  par::ScheduleReport measured = EqualDurations(units, d);
  EXPECT_DOUBLE_EQ(par::WorkerPool(2).Replay(measured).makespan_seconds,
                   32 * d);
  EXPECT_DOUBLE_EQ(par::WorkerPool(8).Replay(measured).makespan_seconds,
                   8 * d);
}

TEST(WorkerPoolTest, ReplayedStealingKeepsWorkersBusy) {
  // Many units sharing one rule hash unevenly onto ten workers; replayed
  // stealing must bound every worker's executed count by a fair share
  // plus slack.
  std::vector<par::WorkUnit> units;
  for (int i = 0; i < 100; ++i) {
    par::WorkUnit unit;
    unit.rule_index = 0;  // same rule
    unit.rows = {0, i, i + 1};
    units.push_back(unit);
  }
  auto report = par::WorkerPool(10).Replay(EqualDurations(units, 1e-3));
  int max_initial = 0, max_executed = 0, run = 0;
  for (int c : report.initial_units) max_initial = std::max(max_initial, c);
  for (int c : report.executed_units) {
    max_executed = std::max(max_executed, c);
    run += c;
  }
  EXPECT_EQ(run, 100);
  EXPECT_GT(max_initial, 11) << "placement should be uneven";
  EXPECT_GT(report.stolen_units, 0);
  EXPECT_LE(max_executed, 100 / 10 + 1);
}

// The Logistics rule set with the KG rule r4 (a vertex variable reached
// through the HER blocking index) and a pure-ML ER rule (LSH blocking): the
// parallel and incremental paths must reproduce serial detection field for
// field on both.
TEST(DetectParallelLogisticsTest, KgAndPureMlRulesMatchSerialFieldForField) {
  workload::GeneratorOptions options;
  options.rows = 200;
  options.error_rate = 0.08;
  options.seed = 5;
  workload::GeneratedData data = workload::MakeLogisticsData(options);
  core::Rock rock(&data.db, &data.graph);
  core::ModelTrainingSpec spec;
  spec.path_synonyms = {{"area", {"AreaOf"}}, {"city", {"CityOf"}}};
  rock.TrainModels(spec);
  auto rules = rock.LoadRules(data.rule_text);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  auto ml_only = rules::ParseRee(
      "Shipment(t0) ^ Shipment(t1) ^ MER(t0[recipient], t1[recipient]) "
      "-> t0.eid = t1.eid",
      data.db.schema());
  ASSERT_TRUE(ml_only.ok()) << ml_only.status().ToString();
  ml_only->id = "ml_only_er";
  rules->push_back(std::move(*ml_only));

  rules::EvalContext ctx;
  ctx.db = &data.db;
  ctx.graph = &data.graph;
  ctx.models = rock.models();
  const detect::DetectionReport serial =
      detect::ErrorDetector(ctx).Detect(*rules);
  std::map<std::string, size_t> errors_by_rule;
  for (const detect::ErrorRecord& error : serial.errors) {
    ++errors_by_rule[error.rule_id];
  }
  ASSERT_GT(errors_by_rule["r4"], 0u);
  ASSERT_GT(errors_by_rule["ml_only_er"], 0u);
  ASSERT_GT(serial.blocked_pairs_checked, 0u);

  for (int workers : {1, 2, 5}) {
    par::ScheduleReport schedule;
    auto report =
        detect::ErrorDetector(ctx).DetectParallel(*rules, workers, &schedule);
    EXPECT_EQ(report.violations, serial.violations) << " x" << workers;
    EXPECT_TRUE(report == serial) << " x" << workers;
  }

  // Incremental detection seeded with every tuple, shuffled and with
  // duplicates, is batch detection: blocking included, each valuation once.
  std::vector<std::pair<int, int64_t>> everything;
  for (size_t rel = 0; rel < data.db.num_relations(); ++rel) {
    const Relation& relation = data.db.relation(static_cast<int>(rel));
    for (size_t row = 0; row < relation.size(); ++row) {
      everything.emplace_back(static_cast<int>(rel), relation.tuple(row).tid);
    }
  }
  const std::vector<std::pair<int, int64_t>> repeated(
      everything.begin(), everything.begin() + 40);
  everything.insert(everything.end(), repeated.begin(), repeated.end());
  Rng rng(5);
  rng.Shuffle(everything);
  auto incremental =
      detect::ErrorDetector(ctx).DetectIncremental(*rules, everything);
  EXPECT_EQ(incremental.violations, serial.violations);
  EXPECT_TRUE(incremental == serial);

  par::FaultPlan plan = par::FaultPlan::FromSeed(11, 64, 2);
  detect::DetectorOptions faulty;
  faulty.pool.fault_plan = &plan;
  faulty.pool.retry.backoff_base_seconds = 1e-4;
  par::ScheduleReport schedule;
  auto report = detect::ErrorDetector(ctx, faulty)
                    .DetectParallel(*rules, 2, &schedule);
  EXPECT_GT(schedule.faults.injected, 0) << plan.ToSpec();
  EXPECT_TRUE(report == serial) << plan.ToSpec();
}

}  // namespace
}  // namespace rock

#include <memory>

#include <gtest/gtest.h>

#include "src/detect/detector.h"
#include "src/ml/library.h"
#include "src/par/executor.h"
#include "src/rules/parser.h"
#include "src/workload/ecommerce.h"

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
      Parse("Store(t0) ^ t0.location = 'Beijing' -> t0.area_code = '010'")};
  detect::ErrorDetector detector(Ctx());
  auto serial = detector.Detect(rules);
  for (int workers : {1, 3, 8}) {
    par::ScheduleReport schedule;
    detect::DetectorOptions options;
    options.block_rows = 2;
    detect::ErrorDetector parallel(Ctx(), options);
    auto report = parallel.DetectParallel(rules, workers, &schedule);
    EXPECT_EQ(report.DirtyCells(), serial.DirtyCells()) << " x" << workers;
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
  // cold so every run exercises the racy first-miss path; the reported
  // cells must match the serial result every time (under TSan this also
  // proves the double-checked insert is race-free).
  std::vector<rules::Ree> rules = {
      Parse("Trans(t0) ^ Trans(t1) ^ t0.com = t1.com -> t0.mfg = t1.mfg")};
  detect::ErrorDetector serial_detector(Ctx());
  auto serial = serial_detector.Detect(rules);
  ASSERT_FALSE(serial.DirtyCells().empty());
  for (int iteration = 0; iteration < 20; ++iteration) {
    par::ScheduleReport schedule;
    detect::DetectorOptions options;
    options.block_rows = 1;  // many small units -> real thread contention
    detect::ErrorDetector parallel(Ctx(), options);
    auto report = parallel.DetectParallel(rules, 8, &schedule);
    ASSERT_EQ(report.DirtyCells(), serial.DirtyCells())
        << "iteration " << iteration;
  }
}

// ---------- par ----------

TEST(HyperCubeTest, UnitsCoverCrossProduct) {
  EcommerceData data = MakeEcommerceData();
  auto units = par::BuildHyperCubeUnits(data.db, 0, {0, 0}, 2);
  // Person has 5 rows -> 3 blocks per variable -> 9 units.
  EXPECT_EQ(units.size(), 9u);
  // Every (row_a, row_b) combination is covered exactly once.
  std::vector<std::vector<int>> covered(5, std::vector<int>(5, 0));
  for (const auto& unit : units) {
    for (int a = unit.ranges[0].begin; a < unit.ranges[0].end; ++a) {
      for (int b = unit.ranges[1].begin; b < unit.ranges[1].end; ++b) {
        covered[static_cast<size_t>(a)][static_cast<size_t>(b)]++;
      }
    }
  }
  for (const auto& row : covered) {
    for (int count : row) EXPECT_EQ(count, 1);
  }
}

TEST(HyperCubeTest, EmptyRelationYieldsEmptyUnit) {
  DatabaseSchema schema;
  ASSERT_TRUE(
      schema.AddRelation(Schema("E", {{"x", ValueType::kInt}})).ok());
  Database db(std::move(schema));
  auto units = par::BuildHyperCubeUnits(db, 0, {0}, 4);
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0].ranges[0].begin, units[0].ranges[0].end);
}

TEST(WorkerPoolTest, ExecutesEveryUnitOnce) {
  std::vector<par::WorkUnit> units;
  for (int i = 0; i < 40; ++i) {
    par::WorkUnit unit;
    unit.rule_index = i;
    unit.ranges.push_back({0, i, i + 1});
    units.push_back(unit);
  }
  std::vector<int> executed(40, 0);
  par::WorkerPool pool(6);
  auto report = pool.Execute(units, [&](const par::WorkUnit& unit) {
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
    unit.ranges.push_back({0, i, i + 1});
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
    unit.ranges.push_back({0, i, i + 1});
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

TEST(CostModelTest, JoinSelectivityDiscountsCost) {
  EcommerceData data = MakeEcommerceData();
  DatabaseStats stats = DatabaseStats::Compute(data.db);
  par::CostModel model(&stats);
  par::WorkUnit unit;
  unit.ranges.push_back({data.trans, 0, 5});
  unit.ranges.push_back({data.trans, 0, 5});
  double cross = model.Estimate(unit, -1);
  double joined = model.Estimate(unit, 2);  // join on com (4 distinct)
  EXPECT_GT(cross, joined);
  EXPECT_DOUBLE_EQ(cross, 25.0);
}

}  // namespace
}  // namespace rock

// Reproduces Figure 4(g): error-detection running time per application —
// Rock vs Rock_noML / T5s / RB / SparkSQL / Presto.
//
// Paper shape: Rock beats every baseline except Rock_noML; the SQL engines
// (REE++s translated to SQL with ML predicates as UDFs, no blocking, no
// partial-valuation reuse) and the per-cell ML scorers are far slower.

#include "bench/bench_common.h"

namespace rock::bench {
namespace {

void RunApp(const std::string& name, size_t rows) {
  AppContext app = MakeApp(name, rows);

  RockSetup rock_setup = PrepareRock(app, core::Variant::kRock);
  // Add a pure-ML matching rule (no equality join): the shape whose cost
  // is governed by blocking — exactly what generic SQL engines lack.
  {
    const Schema& schema = app.data.db.schema().relation(0);
    std::string attr = schema.AttributeIndex("name") >= 0 ? "name"
                       : schema.AttributeIndex("recipient") >= 0
                           ? "recipient"
                           : schema.AttributeName(1);
    std::string text = schema.name() + "(t0) ^ " + schema.name() +
                       "(t1) ^ MER(t0[" + attr + "], t1[" + attr +
                       "]) -> t0.eid = t1.eid";
    auto rule = rules::ParseRee(text, app.data.db.schema());
    if (rule.ok()) {
      rule->id = "ml_only_er";
      rock_setup.rules.push_back(std::move(*rule));
    }
  }
  Timer rock_timer;
  auto rock_report = rock_setup.rock->DetectErrors(rock_setup.rules);
  double rock_time = rock_timer.ElapsedSeconds();

  RockSetup noml_setup = PrepareRock(app, core::Variant::kNoMl);
  Timer noml_timer;
  noml_setup.rock->DetectErrors(noml_setup.rules);
  double noml_time = noml_timer.ElapsedSeconds();

  baselines::T5sModel t5s;
  t5s.Train(app.data.db);
  Timer t5s_timer;
  t5s.Detect(app.data.db);
  double t5s_time = t5s_timer.ElapsedSeconds();

  std::vector<std::pair<int, int64_t>> tuples;
  std::vector<std::tuple<int, int64_t, int>> errors;
  LabeledSample(app.data, 0.5, &tuples, &errors);
  baselines::RbCleaner rb;
  rb.Train(app.data.db, tuples, errors);
  Timer rb_timer;
  rb.Detect(app.data.db);
  double rb_time = rb_timer.ElapsedSeconds();

  // SparkSQL stand-in: generic SQL engine — hash joins, ML UDFs evaluated
  // exhaustively (no blocking).
  rules::EvalContext ctx;
  ctx.db = &app.data.db;
  ctx.graph = &app.data.graph;
  ctx.models = rock_setup.rock->models();
  baselines::NaiveSqlEngine spark(ctx);
  Timer spark_timer;
  spark.Detect(rock_setup.rules);
  double spark_time = spark_timer.ElapsedSeconds();

  // Presto stand-in: same queries via nested-loop execution (a federated
  // engine without local index structures).
  baselines::NestedLoopEngine presto(ctx);
  Timer presto_timer;
  presto.Detect(rock_setup.rules);
  double presto_time = presto_timer.ElapsedSeconds();

  PrintRow(app.name, {rock_time, noml_time, t5s_time, rb_time, spark_time,
                      presto_time}, "%10.2f");
  (void)rock_report;
}

}  // namespace
}  // namespace rock::bench

int main() {
  rock::bench::PrintHeader(
      "Figure 4(g)",
      "Error detection time (s): Rock vs baselines and SQL engines");
  rock::bench::PrintColumns(
      {"Rock", "Rock_noML", "T5s", "RB", "SparkSQL", "Presto"});
  rock::bench::RunApp("Bank", 500);
  rock::bench::RunApp("Logistics", 700);
  rock::bench::RunApp("Sales", 500);
  std::printf("\nExpected shape: Rock fastest (except Rock_noML); SQL "
              "engines slowest (no ML blocking / no indexes).\n");
  return 0;
}

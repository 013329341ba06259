// rock_digest: prints every observable output of detection and correction
// as plain text, so two builds can be diffed line by line.
//
// For Logistics-300, Bank-150 and Sales-150 at seeds 1-3 it prints
//  - every DetectionReport field and error, from serial detection,
//    DetectErrorsParallel at 1, 2 and 5 workers, the 2-worker run under a
//    fixed fault plan, and incremental detection over every third tuple;
//  - for relaxed and certain-fix chases (serial, 2 and 5 workers, and the
//    faulted 2-worker run): the correction counters, every FixRecord JSON,
//    every CellFixes entry with its Explain text, every conflict, every
//    entity group, and every provenance node with its premises and ML
//    calls (scores and thresholds as exact hex doubles).
//
// Usage: rock_digest [output-file]   (stdout when omitted)
// scripts/compare_digests.sh builds it against two revisions and diffs.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/par/fault.h"

namespace rock::bench {
namespace {

constexpr const char* kFaultSpec =
    "crash:3@1;flaky:5x1;flaky:9x2;delay:2=1000us";

void PrintReport(std::FILE* out, const std::string& label,
                 const detect::DetectionReport& report) {
  std::fprintf(out, "detect %s violations=%zu blocked=%zu exhaustive=%zu "
               "errors=%zu\n",
               label.c_str(), report.violations, report.blocked_pairs_checked,
               report.exhaustive_pairs_checked, report.errors.size());
  for (const detect::ErrorRecord& error : report.errors) {
    std::fprintf(out, "  %s %s", detect::ErrorClassName(error.error_class),
                 error.rule_id.c_str());
    for (const detect::ErrorRecord::Cell& cell : error.cells) {
      std::fprintf(out, " (%d,%lld,%d)", cell.rel,
                   static_cast<long long>(cell.tid), cell.attr);
    }
    std::fprintf(out, "\n");
  }
}

void PrintProvenance(std::FILE* out, const obs::ProvenanceGraph& graph) {
  for (const obs::ProvenanceNode& node : graph.nodes()) {
    std::fprintf(out, "  node %lld %s %s | %s | tuples",
                 static_cast<long long>(node.id), obs::ProvKindName(node.kind),
                 node.rule_id.c_str(), node.target.c_str());
    for (const obs::WitnessTuple& t : node.witness.tuples) {
      std::fprintf(out, " t%d=(%d,%lld)", t.var, t.rel,
                   static_cast<long long>(t.tid));
    }
    std::fprintf(out, " | upstream");
    for (int64_t up : node.upstream) {
      std::fprintf(out, " %lld", static_cast<long long>(up));
    }
    std::fprintf(out, "\n");
    for (const obs::PremiseCell& cell : node.witness.premises) {
      std::fprintf(out, "    premise (%d,%lld,%d)=%s %s up=%lld\n", cell.rel,
                   static_cast<long long>(cell.tid), cell.attr,
                   cell.value.c_str(), obs::PremiseSourceName(cell.source),
                   static_cast<long long>(cell.upstream));
    }
    for (const obs::MlInvocation& call : node.witness.ml_calls) {
      std::fprintf(out, "    ml %s %s score=%a threshold=%a passed=%d\n",
                   call.model.c_str(), call.detail.c_str(), call.score,
                   call.threshold, call.passed ? 1 : 0);
    }
  }
}

void PrintChase(std::FILE* out, const std::string& label,
                const core::CorrectionResult& result,
                const chase::ChaseEngine& engine) {
  const chase::ChaseResult& chase = result.chase;
  std::fprintf(out, "correct %s rounds=%d fixes=%zu applications=%zu "
               "converged=%d conflicts=%zu passes=%d\n",
               label.c_str(), chase.rounds, chase.fixes_applied,
               chase.applications, chase.converged ? 1 : 0,
               chase.conflicts.size(), result.passes);
  for (const chase::FixRecord& fix : engine.fix_store().fixes()) {
    std::fprintf(out, "  fix %s\n", fix.ToJson().c_str());
  }
  for (const chase::CellFix& fix : engine.CellFixes()) {
    std::fprintf(out, "  cell (%d,%lld,%d) %s -> %s\n", fix.rel,
                 static_cast<long long>(fix.tid), fix.attr,
                 fix.old_value.ToString().c_str(),
                 fix.new_value.ToString().c_str());
    std::fprintf(out, "%s\n", engine.fix_store()
                                  .ExplainCell(fix.rel, fix.tid, fix.attr)
                                  .ToText()
                                  .c_str());
  }
  for (const chase::ConflictRecord& conflict : engine.conflicts()) {
    std::fprintf(out, "  conflict %s\n", conflict.ToJson().c_str());
  }
  for (const auto& group : engine.EntityGroups()) {
    std::fprintf(out, "  entity");
    for (const auto& [rel, tid] : group) {
      std::fprintf(out, " (%d,%lld)", rel, static_cast<long long>(tid));
    }
    std::fprintf(out, "\n");
  }
  PrintProvenance(out, engine.fix_store().provenance());
}

std::unique_ptr<core::Rock> MakeRock(AppContext& app, bool certain,
                                     std::vector<rules::Ree>* rules) {
  core::RockOptions options;
  options.chase.certain_fixes_only = certain;
  auto rock = std::make_unique<core::Rock>(&app.data.db, &app.data.graph,
                                           options);
  rock->TrainModels(app.spec);
  rock->DiscoverPolynomials();
  auto loaded = rock->LoadRules(app.data.rule_text);
  if (loaded.ok()) *rules = std::move(*loaded);
  return rock;
}

void DigestApp(std::FILE* out, const std::string& name, size_t rows,
               uint64_t seed, const par::FaultPlan& plan) {
  AppContext app = MakeApp(name, rows);
  workload::GeneratorOptions gen = DefaultGeneratorOptions(rows);
  gen.seed = seed;
  app.data = workload::MakeAppData(name, gen);
  std::fprintf(out, "== %s-%zu seed %llu\n", name.c_str(), rows,
               static_cast<unsigned long long>(seed));

  std::vector<rules::Ree> rules;
  std::unique_ptr<core::Rock> rock = MakeRock(app, /*certain=*/false, &rules);
  std::fprintf(out, "rules %zu\n", rules.size());
  PrintReport(out, "serial", rock->DetectErrors(rules));
  for (int workers : {1, 2, 5}) {
    par::ScheduleReport schedule;
    PrintReport(out, StrFormat("parallel-%d", workers),
                rock->DetectErrorsParallel(rules, workers, &schedule));
  }
  rock->SetFaultInjection(&plan);
  {
    par::ScheduleReport schedule;
    PrintReport(out, "faulted-2", rock->DetectErrorsParallel(rules, 2,
                                                             &schedule));
  }
  rock->SetFaultInjection(nullptr);
  std::vector<std::pair<int, int64_t>> every_third;
  for (size_t rel = 0; rel < app.data.db.num_relations(); ++rel) {
    const Relation& relation = app.data.db.relation(static_cast<int>(rel));
    for (size_t row = 0; row < relation.size(); row += 3) {
      every_third.emplace_back(static_cast<int>(rel), relation.tuple(row).tid);
    }
  }
  PrintReport(out, "incremental",
              rock->DetectErrorsIncremental(rules, every_third));

  for (bool certain : {false, true}) {
    if (certain) rock = MakeRock(app, /*certain=*/true, &rules);
    const std::string mode = certain ? "certain" : "relaxed";
    const auto& gamma = app.data.clean_tuples;
    core::CorrectionResult result;
    auto engine = rock->CorrectErrors(rules, gamma, &result);
    PrintChase(out, mode + "-serial", result, *engine);
    for (int workers : {2, 5}) {
      core::CorrectionResult par_result;
      engine = rock->CorrectErrorsParallel(rules, gamma, workers, &par_result);
      PrintChase(out, StrFormat("%s-parallel-%d", mode.c_str(), workers),
                 par_result, *engine);
    }
    rock->SetFaultInjection(&plan);
    core::CorrectionResult faulted;
    engine = rock->CorrectErrorsParallel(rules, gamma, 2, &faulted);
    PrintChase(out, mode + "-faulted-2", faulted, *engine);
    rock->SetFaultInjection(nullptr);
  }
}

}  // namespace
}  // namespace rock::bench

int main(int argc, char** argv) {
  std::FILE* out = stdout;
  if (argc > 1) {
    out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
  }
  auto plan = rock::par::FaultPlan::Parse(rock::bench::kFaultSpec);
  if (!plan.ok()) {
    std::fprintf(stderr, "bad fault plan: %s\n",
                 plan.status().message().c_str());
    return 1;
  }
  const std::vector<std::pair<std::string, size_t>> apps = {
      {"Logistics", 300}, {"Bank", 150}, {"Sales", 150}};
  for (const auto& [name, rows] : apps) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      rock::bench::DigestApp(out, name, rows, seed, *plan);
    }
  }
  if (out != stdout) std::fclose(out);
  return 0;
}

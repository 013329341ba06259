// The two batch workloads and their layer probes.
//
// logistics-detect: each iteration runs Rock::DetectErrors and then
//   Rock::DetectErrorsParallel(rules, 2). Detection, rule enumeration, ML
//   scoring, LSH blocking, knowledge-graph matching and the worker pool do
//   the work; the chase and serve do none.
// bank-correct: each iteration runs Rock::CorrectErrors and then
//   Rock::CorrectErrorsParallel(..., 2). The chase, fix store, provenance
//   capture and conflict resolution do the work; batch detection does none.

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/chase/chase.h"
#include "src/common/mutex.h"
#include "src/detect/detector.h"
#include "src/ml/batch.h"
#include "src/workload/scoring.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rock::chase::ChaseEngine;
using rock::core::CorrectionResult;
using rock::detect::DetectionReport;
using rock::par::ScheduleReport;
using Cells = std::set<rock::detect::ErrorRecord::Cell>;
using FixDigest = std::vector<std::tuple<int, int64_t, int, std::string>>;

FixDigest DigestFixes(const ChaseEngine& engine) {
  FixDigest digest;
  for (const rock::chase::CellFix& fix : engine.CellFixes()) {
    digest.emplace_back(fix.rel, fix.tid, fix.attr, fix.new_value.ToString());
  }
  std::sort(digest.begin(), digest.end());
  return digest;
}

struct CellDiff {
  size_t only_a = 0;
  size_t only_b = 0;
};

CellDiff Diff(const Cells& a, const Cells& b) {
  CellDiff diff;
  for (const auto& cell : a) diff.only_a += b.count(cell) == 0;
  for (const auto& cell : b) diff.only_b += a.count(cell) == 0;
  return diff;
}

// Dirty cells of each rule, by rule id.
std::map<std::string, Cells> CellsByRule(const DetectionReport& report) {
  std::map<std::string, Cells> by_rule;
  for (const rock::detect::ErrorRecord& error : report.errors) {
    by_rule[error.rule_id].insert(error.cells.begin(), error.cells.end());
  }
  return by_rule;
}

// Rules whose serial and 2-worker dirty cells differ today (ROADMAP item
// 2): the parallel path reports none of the knowledge-graph rule r4's
// violations, and it scores ml_only_er over every pair instead of the
// LSH-blocked candidates. Every other rule must agree.
bool PathsDifferToday(const std::string& rule_id) {
  return rule_id == "r4" || rule_id == "ml_only_er";
}

rock::rules::EvalContext Context(App* app) {
  rock::rules::EvalContext ctx;
  ctx.db = &app->data.db;
  ctx.graph = &app->data.graph;
  ctx.models = app->rock->models();
  return ctx;
}

void AddScheduleMetrics(const std::string& prefix, const ScheduleReport& s,
                        Outcome* out) {
  double busy = 0, wait = 0, idle = 0;
  for (double v : s.busy_seconds) busy += v;
  for (double v : s.wait_seconds) wait += v;
  for (double v : s.idle_seconds) idle += v;
  int units = 0;
  for (int v : s.executed_units) units += v;
  out->Add(prefix + ".busy_s", busy, "s");
  out->Add(prefix + ".wait_s", wait, "s");
  out->Add(prefix + ".idle_s", idle, "s");
  out->Add(prefix + ".units", units, "count");
  out->Add(prefix + ".stolen_units", s.stolen_units, "count");
  out->Add(prefix + ".cpu_over_wall",
           s.wall_seconds > 0 ? s.serial_seconds / s.wall_seconds : 0,
           "ratio");
}

// The end-to-end metrics shared by both batch workloads, in the order
// BENCHMARK.json lists them. `rates` holds each iteration's ops per second
// of op time.
void AddBatchMetrics(const std::vector<SetupTimes>& setups,
                     const std::vector<double>& serial_ms,
                     const std::vector<double>& par_ms, double f1,
                     const std::vector<double>& rates, Outcome* out) {
  out->Add("setup_s", SetupStep(setups, nullptr), "s");
  out->Add("peak_rss_mb", PeakRssMb(), "MiB");
  out->Add("ok_ratio", out->ok_ratio(), "ratio");
  out->Add("f1", f1, "ratio");
  out->Add("op_ms", Midhinge(serial_ms), "ms");
  out->Add("alt_op_ms", Midhinge(par_ms), "ms");
  out->Add("ops_per_s", Median(rates), "1/s");
}

void NoteCommon(const std::vector<SetupTimes>& setups, const HostProbe& host,
                Outcome* out) {
  out->Note(Format("setup_s                  %10.4f s   (n=%zu set-ups)",
                   SetupStep(setups, nullptr), setups.size()));
  out->Note(Format("peak_rss_mb              %10.1f MiB", PeakRssMb()));
  out->Note(Format("fail_ratio               %10.4f ratio (%llu of %llu ops)",
                   1.0 - out->ok_ratio(),
                   static_cast<unsigned long long>(out->failed),
                   static_cast<unsigned long long>(out->attempted)));
  out->Note(Format("host.usable_cores        %10.2f cores", host.usable_cores));
  out->Note(Format("host.steal_ratio         %10.4f ratio", host.steal_ratio));
}

}  // namespace

Outcome RunLogisticsDetect(const Options& options) {
  Outcome out;
  HostProbe host;
  host.Start();
  const size_t rows = options.sizes.logistics_rows;
  SetupTimes first;  // the first set-up in a process runs slow: unmeasured
  auto app = SetUpApp(AppKind::kLogistics, rows, options.seed, &first);
  const rock::core::Rock& rock = *app->rock;
  const auto& rules = app->rules();

  // Warm-up: the first report of each path is that path's reference, and
  // the two must find the same dirty cells rule by rule, except on the
  // rules where the paths are known to differ; those are reported, not
  // counted as failures. Each measured op must then repeat its reference.
  DetectionReport reference = rock.DetectErrors(rules);
  const Cells reference_cells = reference.DirtyCells();
  ScheduleReport schedule;
  DetectionReport parallel = rock.DetectErrorsParallel(rules, 2, &schedule);
  const Cells parallel_cells = parallel.DirtyCells();
  std::map<std::string, Cells> serial_by_rule = CellsByRule(reference);
  std::map<std::string, Cells> parallel_by_rule = CellsByRule(parallel);
  std::string disagreeing;
  for (const rock::rules::Ree& rule : rules) {
    if (PathsDifferToday(rule.id)) continue;
    const bool same = serial_by_rule[rule.id] == parallel_by_rule[rule.id];
    out.Count(same);
    if (!same) disagreeing += " " + rule.id;
  }
  if (!disagreeing.empty()) {
    out.Note("FAIL: serial and 2-worker dirty cells differ on rules" +
             disagreeing);
  }

  // Each iteration: two set-ups (together about a second per run), then
  // serial, 2-worker and serial detection; the serial op runs twice since
  // it is much shorter.
  std::vector<SetupTimes> setups;
  std::vector<double> serial_ms, par_ms, rates;
  auto serial = [&] {
    DetectionReport report;
    serial_ms.push_back(
        1e3 * Timed("rock.detect", [&] { report = rock.DetectErrors(rules); }));
    out.Count(report.DirtyCells() == reference_cells);
    return serial_ms.back();
  };
  const double start = Now();
  while (Now() - start < options.seconds) {
    TimedSetUp(AppKind::kLogistics, rows, options.seed, &setups);
    TimedSetUp(AppKind::kLogistics, rows, options.seed, &setups);
    double op_ms = serial();
    par_ms.push_back(1e3 * Timed("rock.detect_parallel", [&] {
                       parallel = rock.DetectErrorsParallel(rules, 2, &schedule);
                     }));
    out.Count(parallel.DirtyCells() == parallel_cells);
    op_ms += par_ms.back() + serial();
    rates.push_back(3e3 / op_ms);
  }
  host.Finish();

  const double f1 =
      rock::workload::ScoreDetection(app->data, reference.DirtyTuples()).f1();
  AddBatchMetrics(setups, serial_ms, par_ms, f1, rates, &out);
  out.Note(SampleLine("detect_p50_ms", serial_ms));
  out.Note(SampleLine("detect_par_p50_ms", par_ms));
  out.Note(Format("detect_f1                %10.4f ratio", f1));
  NoteCommon(setups, host, &out);
  out.Note(Format("detect.violations        %10zu count (dirty cells %zu)",
                  reference.violations, reference_cells.size()));
  out.Note(Format("detect.par_violations    %10zu count (differs today; "
                  "not a failure)",
                  parallel.violations));
  const CellDiff diff = Diff(reference_cells, parallel_cells);
  out.Note(Format("detect.par_cell_diff     %10zu count (%zu cells only serial, "
                  "%zu only 2-worker; differs today, not a failure)",
                  diff.only_a + diff.only_b, diff.only_a, diff.only_b));
  return out;
}

Outcome RunBankCorrect(const Options& options) {
  Outcome out;
  HostProbe host;
  host.Start();
  const size_t rows = options.sizes.bank_rows;
  SetupTimes first;  // the first set-up in a process runs slow: unmeasured
  auto app = SetUpApp(AppKind::kBank, rows, options.seed, &first);
  rock::core::Rock& rock = *app->rock;
  const auto& rules = app->rules();
  const auto& gamma = app->data.clean_tuples;

  // Warm-up: the serial fix set is the reference.
  CorrectionResult result;
  auto engine = rock.CorrectErrors(rules, gamma, &result);
  const FixDigest reference = DigestFixes(*engine);
  const double f1 =
      rock::workload::ScoreCorrection(app->data, *engine).overall.f1();
  const size_t serial_applications = result.chase.applications;
  ScheduleReport schedule;
  engine = rock.CorrectErrorsParallel(rules, gamma, 2, &result, &schedule);
  out.Count(DigestFixes(*engine) == reference);

  std::vector<SetupTimes> setups;
  std::vector<double> serial_ms, par_ms, rates;
  const double start = Now();
  while (Now() - start < options.seconds) {
    TimedSetUp(AppKind::kBank, rows, options.seed, &setups);
    serial_ms.push_back(1e3 * Timed("rock.correct", [&] {
                          engine = rock.CorrectErrors(rules, gamma, &result);
                        }));
    out.Count(DigestFixes(*engine) == reference);
    par_ms.push_back(1e3 * Timed("rock.correct_parallel", [&] {
                       engine = rock.CorrectErrorsParallel(rules, gamma, 2,
                                                           &result, &schedule);
                     }));
    out.Count(DigestFixes(*engine) == reference);
    rates.push_back(2e3 / (serial_ms.back() + par_ms.back()));
  }
  host.Finish();

  AddBatchMetrics(setups, serial_ms, par_ms, f1, rates, &out);
  out.Note(SampleLine("correct_p50_ms", serial_ms));
  out.Note(SampleLine("correct_par_p50_ms", par_ms));
  out.Note(Format("correct_f1               %10.4f ratio", f1));
  NoteCommon(setups, host, &out);
  out.Note(Format("chase.applications       %10zu count (fixes %zu)",
                  serial_applications, reference.size()));
  out.Note(Format("chase.par_applications   %10zu count (differs today; "
                  "not a failure)",
                  result.chase.applications));
  return out;
}

void TraceDetectLayers(const Options& options, Outcome* out) {
  ScopedSpan span("trace.detect_layers");
  SetupTimes times;
  auto app = SetUpApp(AppKind::kLogistics, options.sizes.logistics_rows,
                      options.seed, &times);
  const rock::core::Rock& rock = *app->rock;
  const auto& rules = app->rules();
  const rock::rules::EvalContext ctx = Context(app.get());
  constexpr int kReps = 3;

  DetectionReport whole;
  std::vector<double> whole_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    whole_ms.push_back(
        1e3 * Timed("rock.detect", [&] { whole = rock.DetectErrors(rules); }));
  }

  // Per-rule split: each rule alone on a fresh detector, so no rule
  // inherits another's warm ML memo or pair-frequency tables.
  double rule_sum_ms = 0;
  size_t blocked_violations = 0, blocked_pairs = 0;
  for (const rock::rules::Ree& rule : rules) {
    std::vector<double> ms;
    DetectionReport alone;
    for (int rep = 0; rep < kReps; ++rep) {
      rock::detect::ErrorDetector detector(ctx);
      ms.push_back(1e3 * Timed("detect.rule." + rule.id,
                               [&] { alone = detector.Detect({rule}); }));
    }
    out->Add("detect.rule_ms." + rule.id, Median(ms), "ms");
    rule_sum_ms += Median(ms);
    if (alone.blocked_pairs_checked > 0) {
      blocked_violations += alone.violations;
      blocked_pairs += alone.blocked_pairs_checked;
    }
  }
  out->Add("detect.rule_sum_ratio", rule_sum_ms / Median(whole_ms), "ratio");
  out->Add("detect.violations", whole.violations, "count");
  out->Add("detect.dirty_cells", whole.DirtyCells().size(), "count");
  out->Add("detect.blocked_pairs", whole.blocked_pairs_checked, "count");
  out->Add("detect.exhaustive_pairs", whole.exhaustive_pairs_checked,
           "count");
  out->Add("detect.blocking_yield",
           blocked_pairs == 0 ? 0
                              : static_cast<double>(blocked_violations) /
                                    static_cast<double>(blocked_pairs),
           "ratio");

  // ML score memo, read through an external cache.
  rock::ml::MlScoreCache cache;
  rock::detect::DetectorOptions detector_options;
  detector_options.ml_cache = &cache;
  rock::detect::ErrorDetector cached(ctx, detector_options);
  Timed("detect.ml_cached", [&] { cached.Detect(rules); });
  const rock::ml::MlScoreCache::Stats stats = cache.GetStats();
  const double lookups = static_cast<double>(stats.hits + stats.misses);
  const double computed = static_cast<double>(stats.inserts);
  out->Add("ml.scores_computed", computed, "count");
  out->Add("ml.score_lookups", lookups, "count");
  out->Add("ml.reuse_ratio", computed == 0 ? 0 : lookups / computed, "ratio");

  ScheduleReport schedule;
  DetectionReport parallel;
  Timed("rock.detect_parallel", [&] {
    parallel = rock.DetectErrorsParallel(rules, 2, &schedule);
  });
  out->Add("detect.par_violations", parallel.violations, "count");
  const CellDiff diff = Diff(whole.DirtyCells(), parallel.DirtyCells());
  out->Add("detect.serial_only_cells", diff.only_a, "count");
  out->Add("detect.par_only_cells", diff.only_b, "count");
  AddScheduleMetrics("par.detect", schedule, out);
}

void TraceCorrectLayers(const Options& options, Outcome* out) {
  ScopedSpan span("trace.correct_layers");
  SetupTimes times;
  auto app = SetUpApp(AppKind::kBank, options.sizes.bank_rows, options.seed,
                      &times);
  rock::core::Rock& rock = *app->rock;
  const auto& rules = app->rules();
  const auto& gamma = app->data.clean_tuples;
  constexpr int kReps = 3;

  CorrectionResult result;
  std::shared_ptr<ChaseEngine> engine;
  std::vector<double> correct_ms, chase_ms, explain_us;
  for (int rep = 0; rep < kReps; ++rep) {
    correct_ms.push_back(1e3 * Timed("rock.correct", [&] {
                           engine = rock.CorrectErrors(rules, gamma, &result);
                         }));
    // The chase alone, on an engine the benchmark seeds with Γ: no
    // polynomial fixes, no facade.
    ChaseEngine chase(&app->data.db, &app->data.graph, rock.models(),
                      rock.options().chase);
    {
      rock::common::RoleGuard apply(chase.fix_store().apply_role());
      for (const auto& [rel, tid] : gamma) {
        (void)chase.fix_store().AddGroundTruthTuple(rel, tid);
      }
    }
    chase_ms.push_back(1e3 * Timed("chase.run", [&] { chase.Run(rules); }));
  }
  const std::vector<rock::chase::CellFix> fixes = engine->CellFixes();
  for (int rep = 0; rep < kReps; ++rep) {
    double seconds = Timed("obs.explain_all", [&] {
      for (const rock::chase::CellFix& fix : fixes) {
        rock.Explain(fix.rel, fix.tid, fix.attr);
      }
    });
    explain_us.push_back(fixes.empty() ? 0 : 1e6 * seconds / fixes.size());
  }

  const rock::chase::ChaseResult& chase = result.chase;
  out->Add("chase.run_ms", Median(chase_ms), "ms");
  out->Add("chase.correct_ms", Median(correct_ms), "ms");
  out->Add("chase.rounds", chase.rounds, "count");
  out->Add("chase.applications", chase.applications, "count");
  out->Add("chase.fixes_applied", chase.fixes_applied, "count");
  out->Add("chase.conflicts", chase.conflicts.size(), "count");
  out->Add("chase.useful_ratio",
           chase.applications == 0
               ? 0
               : static_cast<double>(chase.fixes_applied) /
                     static_cast<double>(chase.applications),
           "ratio");
  out->Add("fix_store.value_fixes", fixes.size(), "count");
  out->Add("fix_store.merges", engine->fix_store().TakeCheckpoint().merges,
           "count");
  out->Add("obs.provenance_nodes", rock.ProvenanceSummary().nodes, "count");
  out->Add("obs.explain_us_per_cell", Median(explain_us), "us");

  ScheduleReport schedule;
  Timed("rock.correct_parallel", [&] {
    rock.CorrectErrorsParallel(rules, gamma, 2, &result, &schedule);
  });
  out->Add("chase.par_applications", result.chase.applications, "count");
  AddScheduleMetrics("par.correct", schedule, out);
}

}  // namespace perfbench

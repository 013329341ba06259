// Reproduces Figure 4(h): parallel scalability of error detection on the
// Logistics workload, varying the number of workers n = 4..20.
//
// Paper shape: running time decreases monotonically; Rock is 3.36× faster
// at n=20 than at n=4 (parallel scalability). Two sections:
//
//  1. Replayed schedule — each curve point runs the work units on one
//     worker (serially, in unit order) to measure their durations, then
//     WorkerPool(n).Replay replays the n-worker schedule (consistent-hash
//     placement + work stealing) from those durations, so the curve *shape*
//     is hardware independent and reproducible on a 1-core CI runner (see
//     DESIGN.md's substitution table). One untimed warm-up run fills the
//     ML score memo and the pair-frequency tables first; one measured run
//     then feeds every point, so all points replay the same warm units.
//  2. Threaded execution — the same units run under n real worker threads;
//     measured wall-clock is reported next to the replayed makespan so the
//     model can be checked against reality on multi-core hosts.

#include <thread>

#include "bench/bench_common.h"
#include "bench/bench_telemetry.h"

namespace rock::bench {
namespace {

detect::ErrorDetector MakeDetector(AppContext& app, RockSetup& setup) {
  rules::EvalContext ctx;
  ctx.db = &app.data.db;
  ctx.graph = &app.data.graph;
  ctx.models = setup.rock->models();
  return detect::ErrorDetector(ctx);
}

void RunReplayed(AppContext& app, RockSetup& setup,
                 BenchTelemetry* telemetry) {
  detect::ErrorDetector detector = MakeDetector(app, setup);
  std::printf("-- replayed schedule (deterministic curve shape) --\n");
  std::printf("%8s %14s %14s %10s %8s\n", "workers", "makespan(s)",
              "serial(s)", "speedup", "stolen");
  detector.DetectParallel(setup.rules, /*num_workers=*/1, nullptr);  // warm
  par::ScheduleReport measured;
  detector.DetectParallel(setup.rules, /*num_workers=*/1, &measured);
  double t4 = 0.0, t20 = 0.0;
  for (int workers : {4, 8, 12, 16, 20}) {
    par::ScheduleReport schedule = par::WorkerPool(workers).Replay(measured);
    telemetry->AddSchedule("replay", schedule);
    std::printf("%8d %14.4f %14.4f %9.2fx %8d\n", workers,
                schedule.makespan_seconds, schedule.serial_seconds,
                schedule.speedup(), schedule.stolen_units);
    if (workers == 4) t4 = schedule.makespan_seconds;
    if (workers == 20) t20 = schedule.makespan_seconds;
  }
  double scaling = t20 > 0 ? t4 / t20 : 0.0;
  telemetry->AddResult("simulated_speedup_n4_to_n20", scaling);
  std::printf("\nSpeedup from n=4 to n=20: %.2fx (paper reports 3.36x)\n",
              scaling);
}

void RunThreaded(AppContext& app, RockSetup& setup,
                 BenchTelemetry* telemetry) {
  unsigned cores = std::thread::hardware_concurrency();
  std::printf(
      "\n-- threaded execution (measured wall-clock; host has %u cores) "
      "--\n",
      cores);
  std::printf("%8s %14s %14s %12s %12s %8s\n", "workers", "wall(s)",
              "serial(s)", "measured", "replayed", "stolen");
  double wall1 = 0.0, wall4 = 0.0;
  for (int workers : {1, 2, 4, 8}) {
    detect::ErrorDetector detector = MakeDetector(app, setup);
    par::ScheduleReport schedule;
    detector.DetectParallel(setup.rules, workers, &schedule);
    telemetry->AddSchedule("threads", schedule);
    std::printf("%8d %14.4f %14.4f %11.2fx %11.2fx %8d\n", workers,
                schedule.wall_seconds, schedule.serial_seconds,
                schedule.measured_speedup(), schedule.speedup(),
                schedule.stolen_units);
    if (workers == 1) wall1 = schedule.wall_seconds;
    if (workers == 4) wall4 = schedule.wall_seconds;
  }
  double measured = wall4 > 0 ? wall1 / wall4 : 0.0;
  telemetry->AddResult("threaded_speedup_w1_to_w4", measured);
  std::printf(
      "\nMeasured wall-clock speedup, 4 vs 1 workers: %.2fx "
      "(expect > 1.5x on a 4+ core host; ~1x on a 1-core runner)\n",
      measured);
}

void Run() {
  BenchTelemetry telemetry("fig4_scale_ed");
  Timer total;
  Timer phase;
  AppContext app = MakeApp("Logistics", 500);
  RockSetup setup = PrepareRock(app, core::Variant::kRock);
  telemetry.AddPhase("prepare", phase.ElapsedSeconds());
  phase.Reset();
  RunReplayed(app, setup, &telemetry);
  telemetry.AddPhase("replay", phase.ElapsedSeconds());
  phase.Reset();
  RunThreaded(app, setup, &telemetry);
  telemetry.AddPhase("threaded", phase.ElapsedSeconds());
  telemetry.AddPhase("total", total.ElapsedSeconds());
  telemetry.Emit();
}

}  // namespace
}  // namespace rock::bench

int main(int argc, char** argv) {
  rock::bench::ServeGuard serve(&argc, argv);
  rock::bench::PrintHeader(
      "Figure 4(h)", "Logistics-ED parallel scalability, n = 4..20 workers");
  rock::bench::Run();
  return 0;
}

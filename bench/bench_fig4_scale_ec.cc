// Reproduces Figure 4(l): parallel scalability of error correction on the
// Logistics workload, varying the number of workers n = 4..20.
//
// Paper shape: Rock's chase is parallelly scalable; 3.12× faster at n=20
// than at n=4. The first (dominant) chase round is partitioned into work
// units, one per (rule, row slice of its first tuple variable), executed
// under the worker pool. Two sections, as in Fig 4(h):
//
//  1. Replayed schedule — one chase of fresh data on one worker (round-0
//     units run serially, in unit order) measures the unit durations, and
//     WorkerPool(n).Replay replays the n-worker schedule from that one
//     measurement for every n: a hardware-independent curve shape whose
//     points differ only in the worker count.
//  2. Threaded execution — fresh data chased on n real worker threads,
//     measured wall-clock next to the replayed makespan.
//
// See DESIGN.md for the measurement methodology.

#include <thread>

#include "bench/bench_common.h"
#include "bench/bench_telemetry.h"

namespace rock::bench {
namespace {

par::ScheduleReport RunOnce(int workers) {
  // Fresh data per configuration: the chase mutates its fix store.
  AppContext app = MakeApp("Logistics", 400);
  RockSetup setup = PrepareRock(app, core::Variant::kRock);
  chase::ChaseEngine engine(&app.data.db, &app.data.graph,
                            setup.rock->models());
  for (const auto& [rel, tid] : app.data.clean_tuples) {
    Status ignored = engine.fix_store().AddGroundTruthTuple(rel, tid);
    (void)ignored;
  }
  par::ScheduleReport schedule;
  engine.RunParallel(setup.rules, workers, &schedule);
  return schedule;
}

void Run() {
  BenchTelemetry telemetry("fig4_scale_ec");
  Timer total;
  Timer phase;
  std::printf("-- replayed schedule (deterministic curve shape) --\n");
  std::printf("%8s %14s %14s %10s %8s\n", "workers", "makespan(s)",
              "serial(s)", "speedup", "stolen");
  const par::ScheduleReport measured = RunOnce(/*workers=*/1);
  double t4 = 0.0, t20 = 0.0;
  for (int workers : {4, 8, 12, 16, 20}) {
    par::ScheduleReport schedule = par::WorkerPool(workers).Replay(measured);
    telemetry.AddSchedule("replay", schedule);
    std::printf("%8d %14.4f %14.4f %9.2fx %8d\n", workers,
                schedule.makespan_seconds, schedule.serial_seconds,
                schedule.speedup(), schedule.stolen_units);
    if (workers == 4) t4 = schedule.makespan_seconds;
    if (workers == 20) t20 = schedule.makespan_seconds;
  }
  double scaling = t20 > 0 ? t4 / t20 : 0.0;
  telemetry.AddResult("simulated_speedup_n4_to_n20", scaling);
  telemetry.AddPhase("replay", phase.ElapsedSeconds());
  phase.Reset();
  std::printf("\nSpeedup from n=4 to n=20: %.2fx (paper reports 3.12x)\n",
              scaling);

  std::printf(
      "\n-- threaded execution (measured wall-clock; host has %u cores) "
      "--\n",
      std::thread::hardware_concurrency());
  std::printf("%8s %14s %14s %12s %12s %8s\n", "workers", "wall(s)",
              "serial(s)", "measured", "replayed", "stolen");
  for (int workers : {1, 2, 4, 8}) {
    par::ScheduleReport schedule = RunOnce(workers);
    telemetry.AddSchedule("threads", schedule);
    std::printf("%8d %14.4f %14.4f %11.2fx %11.2fx %8d\n", workers,
                schedule.wall_seconds, schedule.serial_seconds,
                schedule.measured_speedup(), schedule.speedup(),
                schedule.stolen_units);
  }
  telemetry.AddPhase("threaded", phase.ElapsedSeconds());
  telemetry.AddPhase("total", total.ElapsedSeconds());
  telemetry.Emit();
}

}  // namespace
}  // namespace rock::bench

int main(int argc, char** argv) {
  rock::bench::ServeGuard serve(&argc, argv);
  rock::bench::PrintHeader(
      "Figure 4(l)", "Logistics-EC parallel scalability, n = 4..20 workers");
  rock::bench::Run();
  return 0;
}

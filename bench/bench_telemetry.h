#pragma once

// Machine-readable bench output. Every bench binary keeps its human-readable
// stdout tables and additionally emits BENCH_<name>.json with per-phase
// timings, schedule reports and the process telemetry (counters, histograms,
// span aggregates) captured over the run. CI's bench-smoke step validates
// these files with scripts/check_bench_json.py.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/timer.h"
#include "src/obs/exporters.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/provenance.h"
#include "src/obs/server.h"
#include "src/obs/trace.h"
#include "src/par/executor.h"

namespace rock::bench {

/// Collects one bench run's results and writes BENCH_<name>.json on Emit().
/// Construction resets the process-wide metrics registry and tracer so the
/// exported telemetry covers exactly this run.
class BenchTelemetry {
 public:
  explicit BenchTelemetry(std::string name) : name_(std::move(name)) {
    obs::MetricsRegistry::Global().Reset();
    obs::Tracer::Global().Reset();
    obs::ScheduleBreakdowns::Global().Reset();
    // Name the bench driver thread in trace exports; workers name
    // themselves when the pool spawns them.
    obs::Tracer::Global().SetThisThreadName("main");
  }

  /// Records a named phase duration (seconds).
  void AddPhase(const std::string& phase, double seconds) {
    phases_.emplace_back(phase, seconds);
  }

  /// Records one worker-pool schedule row (one bench table line), labeled
  /// "<mode>/w<workers>". `mode` is "threads" for a measured Execute and
  /// "replay" for a WorkerPool::Replay of one.
  void AddSchedule(const std::string& mode,
                   const par::ScheduleReport& report) {
    schedules_.emplace_back(mode, report);
  }

  /// Records a scalar result (speedups, F1 scores, row counts, ...).
  void AddResult(const std::string& key, double value) {
    results_.emplace_back(key, value);
  }

  /// Attaches a pre-rendered JSON value as a top-level block, keyed by
  /// `key` (e.g. the serve bench's "serve" latency/throughput block built
  /// with its own JsonWriter). Emitted verbatim after "results".
  void AddBlock(const std::string& key, std::string raw_json) {
    blocks_.emplace_back(key, std::move(raw_json));
  }

  /// Writes BENCH_<name>.json into $ROCK_BENCH_JSON_DIR (or the working
  /// directory) and returns the path. Prints a one-line pointer to stdout so
  /// harness logs show where the JSON went.
  std::string Emit() const {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("bench").String(name_);
    w.Key("schema_version").Int(1);
    w.Key("phases").BeginObject();
    for (const auto& [phase, seconds] : phases_) {
      w.Key(phase).Number(seconds);
    }
    w.EndObject();
    w.Key("schedules").BeginArray();
    for (const auto& [mode, report] : schedules_) {
      AppendSchedule(mode, report, &w);
    }
    w.EndArray();
    w.Key("results").BeginObject();
    for (const auto& [key, value] : results_) {
      w.Key(key).Number(value);
    }
    w.EndObject();
    for (const auto& [key, json] : blocks_) {
      w.Key(key).Raw(json);
    }
    obs::TelemetrySnapshot snap = obs::CaptureGlobalTelemetry();
    w.Key("telemetry").BeginObject();
    obs::AppendTelemetryFields(snap.metrics, snap.spans, snap.dropped_spans,
                               &w, snap.breakdowns);
    w.EndObject();
    AppendProfileBlock(&w);
    // Whole-run provenance aggregate (fix counts by rule, proof-depth
    // histogram, premise-source mix) distilled from the rock_prov_* metrics
    // exported by the chase. check_bench_json.py validates this block.
    obs::AppendProvenanceBlock(snap.metrics, &w);
    // Fault-injection/recovery accounting (all zero on fault-free runs);
    // bench-smoke gates on faults.unrecovered == 0.
    obs::AppendFaultsBlock(snap.metrics, &w);
    w.EndObject();

    std::string path = OutputPath();
    Status status = obs::WriteFile(path, w.str() + "\n");
    if (status.ok()) {
      std::printf("\n[bench-json] wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "[bench-json] FAILED writing %s: %s\n",
                   path.c_str(), status.message().c_str());
    }

    // Folded stacks as their own artifact, ready for
    // `flamegraph.pl PROFILE_<name>.folded > flame.svg`.
    obs::ProfileSnapshot profile = obs::CpuProfiler::Global().TakeSnapshot();
    if (profile.samples > 0) {
      std::string folded_path = OutputPrefix() + "PROFILE_" + name_ +
                                ".folded";
      Status folded_status =
          obs::WriteFile(folded_path, obs::CpuProfiler::Global().Folded());
      if (folded_status.ok()) {
        std::printf("[bench-json] wrote %s\n", folded_path.c_str());
      } else {
        std::fprintf(stderr, "[bench-json] FAILED writing %s: %s\n",
                     folded_path.c_str(), folded_status.message().c_str());
      }
    }

    // Companion Perfetto timeline over the same run: load TRACE_<name>.json
    // at https://ui.perfetto.dev (or chrome://tracing). CI validates it
    // with scripts/check_bench_json.py --trace.
    std::string trace_path = OutputPrefix() + "TRACE_" + name_ + ".json";
    Status trace_status =
        obs::WriteFile(trace_path, snap.ToChromeTrace() + "\n");
    if (trace_status.ok()) {
      std::printf("[bench-json] wrote %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "[bench-json] FAILED writing %s: %s\n",
                   trace_path.c_str(), trace_status.message().c_str());
    }
    return path;
  }

 private:
  /// Emits the "profile" block: the sampling profiler's folded stacks.
  static void AppendProfileBlock(obs::JsonWriter* w) {
    w->Key("profile").BeginObject();
    obs::ProfileSnapshot profile = obs::CpuProfiler::Global().TakeSnapshot();
    w->Key("enabled").Bool(true);
    w->Key("running").Bool(profile.running);
    w->Key("sample_hz").Int(profile.sample_hz);
    w->Key("samples").Uint(profile.samples);
    w->Key("dropped").Uint(profile.dropped);
    w->Key("duration_seconds").Number(profile.duration_seconds);
    w->Key("stacks").BeginArray();
    for (const auto& [stack, count] : profile.folded) {
      w->BeginObject();
      w->Key("stack").String(stack);
      w->Key("count").Uint(count);
      w->EndObject();
    }
    w->EndArray();
    w->EndObject();
  }

  static std::string OutputPrefix() {
    // Benches are single-threaded at report time; nothing calls setenv.
    const char* dir = std::getenv("ROCK_BENCH_JSON_DIR");  // NOLINT(concurrency-mt-unsafe)
    return (dir != nullptr && *dir != '\0') ? std::string(dir) + "/"
                                            : std::string();
  }

  std::string OutputPath() const {
    return OutputPrefix() + "BENCH_" + name_ + ".json";
  }

  static void AppendSchedule(const std::string& mode,
                             const par::ScheduleReport& report,
                             obs::JsonWriter* w) {
    w->BeginObject();
    w->Key("label").String(mode + "/w" + std::to_string(report.num_workers));
    w->Key("mode").String(mode);
    w->Key("workers").Int(report.num_workers);
    w->Key("serial_seconds").Number(report.serial_seconds);
    w->Key("makespan_seconds").Number(report.makespan_seconds);
    w->Key("wall_seconds").Number(report.wall_seconds);
    w->Key("stolen_units").Int(report.stolen_units);
    w->Key("speedup").Number(report.speedup());
    w->Key("measured_speedup").Number(report.measured_speedup());
    w->Key("initial_units").BeginArray();
    for (int units : report.initial_units) w->Int(units);
    w->EndArray();
    w->Key("executed_units").BeginArray();
    for (int units : report.executed_units) w->Int(units);
    w->EndArray();
    // Per-worker wait-vs-run attribution (submit->dequeue wait, unit
    // execution, clamped wall remainder), parallel to the unit arrays.
    w->Key("busy_seconds").BeginArray();
    for (double s : report.busy_seconds) w->Number(s);
    w->EndArray();
    w->Key("wait_seconds").BeginArray();
    for (double s : report.wait_seconds) w->Number(s);
    w->EndArray();
    w->Key("idle_seconds").BeginArray();
    for (double s : report.idle_seconds) w->Number(s);
    w->EndArray();
    w->EndObject();
  }

  std::string name_;
  std::vector<std::pair<std::string, double>> phases_;
  std::vector<std::pair<std::string, par::ScheduleReport>> schedules_;
  std::vector<std::pair<std::string, double>> results_;
  std::vector<std::pair<std::string, std::string>> blocks_;
};

/// Opt-in live telemetry for bench binaries. Scans argv for
///
///   --serve[=PORT]             start obs::TelemetryServer (0/default =
///                              ephemeral port)
///   --serve-port-file=PATH     write the bound port to PATH (CI polls it)
///   --serve-linger-seconds=N   keep serving N seconds after the bench
///                              body finishes (default 0)
///   --profile[=HZ]             start the sampling CPU profiler for the
///                              whole run (default 97 Hz); folded stacks
///                              land in BENCH/PROFILE artifacts and at
///                              /profile.folded when also serving
///
/// and strips those flags so downstream parsers (google-benchmark's
/// Initialize rejects unknown flags) never see them. Construct before any
/// other argv consumer; the destructor lingers, then stops the server.
class ServeGuard {
 public:
  ServeGuard(int* argc, char** argv) {
    int kept = 1;
    for (int i = 1; i < *argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--serve") {
        serve_ = true;
      } else if (arg.rfind("--serve=", 0) == 0) {
        serve_ = true;
        port_ = std::atoi(arg.c_str() + 8);
      } else if (arg.rfind("--serve-port-file=", 0) == 0) {
        port_file_ = arg.substr(18);
      } else if (arg.rfind("--serve-linger-seconds=", 0) == 0) {
        linger_seconds_ = std::atof(arg.c_str() + 23);
      } else if (arg == "--profile") {
        profile_ = true;
      } else if (arg.rfind("--profile=", 0) == 0) {
        profile_ = true;
        profile_hz_ = std::atoi(arg.c_str() + 10);
      } else {
        argv[kept++] = argv[i];
      }
    }
    *argc = kept;

    if (profile_) {
      obs::ProfileOptions options;
      if (profile_hz_ > 0) options.sample_hz = profile_hz_;
      Status status = obs::CpuProfiler::Global().Start(options);
      if (status.ok()) {
        std::printf("[profile] sampling at %d Hz\n", options.sample_hz);
      } else {
        std::fprintf(stderr, "[profile] FAILED: %s\n",
                     status.message().c_str());
        profile_ = false;
      }
    }

    if (!serve_) return;

    obs::TelemetryServer::Options options;
    options.port = port_;
    options.build_info = "rock bench";
    auto server = obs::TelemetryServer::Start(options);
    if (!server.ok()) {
      std::fprintf(stderr, "[serve] FAILED: %s\n",
                   server.status().message().c_str());
      return;
    }
    server_ = std::move(server).value();
    std::printf("[serve] telemetry on http://127.0.0.1:%d "
                "(/metrics /telemetry.json /trace.json /profile.folded "
                "/profile.json /healthz)\n",
                server_->port());
    std::fflush(stdout);
    if (!port_file_.empty()) {
      Status status = obs::WriteFile(port_file_,
                                     std::to_string(server_->port()) + "\n");
      if (!status.ok()) {
        std::fprintf(stderr, "[serve] port file: %s\n",
                     status.message().c_str());
      }
    }
  }

  ~ServeGuard() {
    if (profile_) obs::CpuProfiler::Global().Stop();  // profile stays queryable
    if (server_ != nullptr && linger_seconds_ > 0) {
      std::printf("[serve] lingering %.0f s for scrapers\n",
                  linger_seconds_);
      std::fflush(stdout);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(linger_seconds_));
    }
  }

  ServeGuard(const ServeGuard&) = delete;
  ServeGuard& operator=(const ServeGuard&) = delete;

  bool serving() const { return server_ != nullptr; }
  int port() const { return server_ != nullptr ? server_->port() : -1; }

 private:
  bool serve_ = false;
  int port_ = 0;
  bool profile_ = false;
  int profile_hz_ = 0;
  std::string port_file_;
  double linger_seconds_ = 0;
  std::unique_ptr<obs::TelemetryServer> server_;
};

}  // namespace rock::bench


#include "src/obs/watchdog.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "src/common/logging.h"
#include "src/common/mutex.h"
#include "src/common/strings.h"
#include "src/common/timer.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"

namespace rock::obs {
namespace {

std::atomic<uint64_t> g_stalls{0};

Counter* StallCounter() {
  static Counter* counter = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    Counter* c = reg.GetCounter("rock_obs_watchdog_stalls_total");
    reg.SetHelp("rock_obs_watchdog_stalls_total",
                "Stall episodes the watchdog detected (stuck spans or "
                "queued work with no progress)");
    return c;
  }();
  return counter;
}

void AppendDump(const std::string& path, const std::string& dump) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    ROCK_LOG(kWarning) << "watchdog: cannot open dump path " << path;
    return;
  }
  std::fwrite(dump.data(), 1, dump.size(), f);
  std::fclose(f);
}

}  // namespace

struct StallWatchdog::State {
  common::Mutex mu;
  bool running ROCK_GUARDED_BY(mu) = false;
  WatchdogOptions options ROCK_GUARDED_BY(mu);
  std::thread thread ROCK_GUARDED_BY(mu);
  std::atomic<bool> stop{false};
};

StallWatchdog::State& StallWatchdog::GetState() {
  static State* state = new State();
  return *state;
}

StallWatchdog& StallWatchdog::Global() {
  static StallWatchdog* watchdog = new StallWatchdog();
  return *watchdog;
}

Status StallWatchdog::Start(const WatchdogOptions& options) {
  if (options.span_deadline_seconds <= 0 ||
      options.progress_deadline_seconds <= 0 ||
      options.poll_interval_seconds <= 0) {
    return Status::InvalidArgument("watchdog deadlines must be positive");
  }
  State& state = GetState();
  common::MutexLock lock(state.mu);
  if (state.running) {
    return Status::FailedPrecondition("watchdog already running");
  }
  state.options = options;
  state.stop.store(false, std::memory_order_release);
  state.thread = std::thread([this] { Poll(); });
  state.running = true;
  return Status::Ok();
}

Status StallWatchdog::Stop() {
  State& state = GetState();
  std::thread joinable;
  {
    common::MutexLock lock(state.mu);
    if (!state.running) return Status::Ok();
    state.stop.store(true, std::memory_order_release);
    joinable = std::move(state.thread);
    state.running = false;
  }
  if (joinable.joinable()) joinable.join();
  return Status::Ok();
}

bool StallWatchdog::running() const {
  State& state = GetState();
  common::MutexLock lock(state.mu);
  return state.running;
}

uint64_t StallWatchdog::stalls_detected() const {
  return g_stalls.load(std::memory_order_relaxed);
}

std::string StallWatchdog::BuildDump(const std::string& reason) const {
  std::string out;
  out += "==== rock watchdog diagnostic bundle ====\n";
  out += "reason: " + reason + "\n";

  double now = Tracer::Global().Now();
  out += "open spans:\n";
  std::vector<OpenSpanInfo> open = OpenSpans();
  std::sort(open.begin(), open.end(),
            [](const OpenSpanInfo& a, const OpenSpanInfo& b) {
              return a.start_seconds < b.start_seconds;
            });
  if (open.empty()) out += "  (none)\n";
  char line[256];
  for (const OpenSpanInfo& span : open) {
    std::snprintf(line, sizeof(line),
                  "  thread=%u span=%s id=%llu open_for=%.3fs\n", span.thread,
                  span.name, static_cast<unsigned long long>(span.id),
                  now - span.start_seconds);
    out += line;
  }

  MetricsRegistry::Snapshot snap = MetricsRegistry::Global().Snap();
  std::snprintf(
      line, sizeof(line),
      "pool: queue_depth=%lld units_executed=%llu units_stolen=%llu "
      "wait_micros=%llu\n",
      static_cast<long long>(snap.GaugeValue("rock_par_queue_depth")),
      static_cast<unsigned long long>(
          snap.CounterValue("rock_par_units_executed_total")),
      static_cast<unsigned long long>(
          snap.CounterValue("rock_par_units_stolen_total")),
      static_cast<unsigned long long>(
          snap.CounterValue("rock_par_unit_wait_micros_total")));
  out += line;

  if (CpuProfiler::Global().running()) {
    ProfileSnapshot profile = CpuProfiler::Global().TakeSnapshot();
    std::snprintf(line, sizeof(line),
                  "partial profile: %llu samples @ %d Hz (top stacks)\n",
                  static_cast<unsigned long long>(profile.samples),
                  profile.sample_hz);
    out += line;
    // Hottest stacks first; the bundle is a diagnostic, not the full
    // profile, so cap it.
    std::vector<std::pair<uint64_t, const std::string*>> ranked;
    ranked.reserve(profile.folded.size());
    for (const auto& [stack, count] : profile.folded) {
      ranked.emplace_back(count, &stack);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    size_t shown = 0;
    for (const auto& [count, stack] : ranked) {
      if (++shown > 10) break;
      out += StrFormat("  %s %llu\n", stack->c_str(),
                       static_cast<unsigned long long>(count));
    }
  } else {
    out += "partial profile: profiler not running\n";
  }
  out += "==== end watchdog bundle ====\n";
  return out;
}

void StallWatchdog::ReportStall(const std::string& reason,
                                const WatchdogOptions& options) {
  g_stalls.fetch_add(1, std::memory_order_relaxed);
  StallCounter()->Add(1);
  std::string dump = BuildDump(reason);
  ROCK_LOG(kError) << "watchdog detected stall: " << reason << "\n" << dump;
  AppendDump(options.dump_path, dump);
}

void StallWatchdog::Poll() {
  State& state = GetState();
  // Episode bookkeeping lives on the poll thread: a stuck span is
  // reported once per span id, a progress stall once per episode.
  std::set<uint64_t> reported_spans;
  uint64_t last_executed = 0;
  bool have_last = false;
  bool progress_reported = false;
  double no_progress_seconds = 0.0;
  double last_tick = SteadySeconds();

  while (!state.stop.load(std::memory_order_acquire)) {
    WatchdogOptions options;
    {
      common::MutexLock lock(state.mu);
      options = state.options;
    }
    // Sleep in slices so Stop() never waits a full poll interval.
    double deadline = SteadySeconds() + options.poll_interval_seconds;
    while (SteadySeconds() < deadline &&
           !state.stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (state.stop.load(std::memory_order_acquire)) break;
    double tick = SteadySeconds();
    double elapsed = tick - last_tick;
    last_tick = tick;

    double now = Tracer::Global().Now();
    for (const OpenSpanInfo& span : OpenSpans()) {
      double age = now - span.start_seconds;
      if (age <= options.span_deadline_seconds) continue;
      if (!reported_spans.insert(span.id).second) continue;
      char reason[192];
      std::snprintf(reason, sizeof(reason),
                    "span '%s' (thread %u) open for %.3fs, deadline %.3fs",
                    span.name, span.thread, age,
                    options.span_deadline_seconds);
      ReportStall(reason, options);
    }

    MetricsRegistry::Snapshot snap = MetricsRegistry::Global().Snap();
    uint64_t executed = snap.CounterValue("rock_par_units_executed_total");
    int64_t depth = snap.GaugeValue("rock_par_queue_depth");
    if (depth > 0 && have_last && executed == last_executed) {
      no_progress_seconds += elapsed;
      if (no_progress_seconds > options.progress_deadline_seconds &&
          !progress_reported) {
        progress_reported = true;
        char reason[192];
        std::snprintf(reason, sizeof(reason),
                      "%lld unit(s) queued but none completed for %.3fs "
                      "(deadline %.3fs)",
                      static_cast<long long>(depth), no_progress_seconds,
                      options.progress_deadline_seconds);
        ReportStall(reason, options);
      }
    } else {
      no_progress_seconds = 0.0;
      progress_reported = false;
    }
    last_executed = executed;
    have_last = true;
  }
}

}  // namespace rock::obs

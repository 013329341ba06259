#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "src/common/status.h"

namespace rock::obs {

/// Tuning for the sampling CPU profiler. The defaults suit the benches:
/// 97 Hz (prime, so sampling never phase-locks with periodic work) per
/// thread of *CPU time*, so idle threads cost nothing and busy threads
/// are sampled proportionally to the CPU they burn.
struct ProfileOptions {
  int sample_hz = 97;
  /// Sample buffer capacity, allocated once at Start(). At 97 Hz per busy
  /// thread, 1<<15 samples hold ~42 thread-CPU-seconds of profile;
  /// further samples are counted as dropped rather than wrapping.
  size_t max_samples = size_t{1} << 15;
};

/// One symbolized profile view: folded (flamegraph.pl-compatible) stacks
/// with sample counts, plus the bookkeeping the JSON export carries.
struct ProfileSnapshot {
  bool enabled = false;
  bool running = false;
  int sample_hz = 0;
  uint64_t samples = 0;
  uint64_t dropped = 0;
  double duration_seconds = 0.0;
  /// "root;caller;callee" -> sample count, root-first as flamegraph.pl
  /// expects.
  std::map<std::string, uint64_t> folded;
};

/// Sampling CPU profiler: a per-thread POSIX interval timer
/// (timer_create over CLOCK_THREAD_CPUTIME_ID) delivers SIGPROF to each
/// registered thread; the async-signal-safe handler appends a raw
/// backtrace(3) PC vector to a preallocated sample buffer. Symbolization
/// (the executable's ELF .symtab, dladdr for shared objects, then
/// __cxa_demangle) happens offline in TakeSnapshot(), never in the
/// handler. Threads join the profiled set
/// via RegisterThisThread() (WorkerPool workers do this automatically;
/// Start() registers the calling thread).
class CpuProfiler {
 public:
  /// Process-wide instance — SIGPROF disposition is process state, so
  /// there is exactly one.
  static CpuProfiler& Global();

  CpuProfiler(const CpuProfiler&) = delete;
  CpuProfiler& operator=(const CpuProfiler&) = delete;

  /// Installs the SIGPROF handler (first call), primes backtrace(3)
  /// outside signal context, resets the sample buffer, and arms a timer
  /// for every registered thread plus the caller.
  /// FailedPrecondition if already running.
  Status Start(const ProfileOptions& options = {});

  /// Disarms and deletes all timers. Collected samples survive until the
  /// next Start(), so a profile can be exported after the run it covers.
  Status Stop();

  bool running() const;

  /// Adds the calling thread to the profiled set; armed immediately when
  /// the profiler is running, otherwise on the next Start(). A
  /// thread-exit hook unregisters automatically.
  void RegisterThisThread();
  void UnregisterThisThread();

  /// Symbolizes and folds the samples collected so far. Callable while
  /// running (the watchdog's "partial profile") or after Stop().
  ProfileSnapshot TakeSnapshot() const;

  /// flamegraph.pl input: one "frame;frame;frame count" line per unique
  /// stack. Empty string when no samples were collected.
  std::string Folded() const;

  /// The /profile.json document: options, sample/drop counts, and the
  /// folded stacks as structured records.
  std::string Json() const;

 private:
  CpuProfiler() = default;
};

}  // namespace rock::obs

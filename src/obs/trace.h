#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/mutex.h"

namespace rock::obs {

/// One finished span. `name` must be a string literal (or otherwise outlive
/// the tracer): the ring stores the pointer, never a copy, so recording a
/// span does no allocation.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent_id = 0;  // 0 = root
  /// Cross-thread causality: id of the span (usually on another thread)
  /// that enqueued the work this span executes; 0 = none. The Chrome trace
  /// exporter turns it into a flow event scheduler → worker.
  uint64_t flow_from = 0;
  const char* name = "";
  /// Start offset from the tracer's epoch (steady clock), and duration.
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  /// On-CPU time of the recording thread over the span's lifetime
  /// (CLOCK_THREAD_CPUTIME_ID delta). duration − cpu is time blocked or
  /// preempted. 0 when the profiler plane is compiled out.
  double cpu_seconds = 0.0;
  /// Bytes requested through operator new on the recording thread during
  /// the span (ROCK_OBS_ALLOC_TRACK builds; 0 otherwise).
  uint64_t alloc_bytes = 0;
  uint32_t thread = 0;
};

/// Aggregate of all finished spans sharing one name. Percentiles are
/// nearest-rank over the retained ring spans — the per-phase latency
/// attribution the exporters surface as p50/p95/p99.
struct SpanStats {
  uint64_t count = 0;
  double total_seconds = 0.0;
  double max_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  /// Summed resource attribution across the name's spans — the
  /// cpu_seconds / alloc_bytes columns every exporter surfaces.
  double cpu_seconds = 0.0;
  uint64_t alloc_bytes = 0;
};

/// Trace id of the calling thread (stable for the thread's lifetime);
/// SpanRecord::thread and the thread-name registry key off it.
uint32_t ThisThreadTraceId();

/// Default capacity of the process-global tracer: large enough that the
/// scale benches' per-unit spans never lap the ring (CI gates on zero
/// dropped spans). ~10 MB of slots.
inline constexpr size_t kGlobalTraceCapacity = size_t{1} << 17;

/// Bounded MPMC span sink. Writers reserve a slot with one atomic
/// fetch_add, then publish the record under that slot's one-byte latch
/// (acquire/release exchange — uncontended unless the ring laps itself or
/// a snapshot reads the same slot, so the hot path is two uncontended
/// atomic RMWs plus a ~64-byte copy). When the ring wraps, the oldest
/// spans are overwritten; `dropped()` counts them. Each slot remembers the
/// reservation sequence of the record it holds, so a snapshot racing a
/// wrap never returns a record out of its window (the overwritten span
/// counts as dropped instead).
class Tracer {
 public:
  /// Capacity is rounded up to a power of two.
  explicit Tracer(size_t capacity = 1 << 14);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-global tracer, of capacity kGlobalTraceCapacity.
  static Tracer& Global();

  void Record(const SpanRecord& record);

  /// Seconds since this tracer's construction (span timestamps' epoch).
  double Now() const;

  uint64_t NextSpanId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Copies the retained spans, oldest first. Records published after the
  /// scan started may be excluded (they appear in the next snapshot).
  std::vector<SpanRecord> Snapshot() const;

  /// Count/total/max plus p50/p95/p99 per span name over the retained
  /// spans — the benches' per-phase timing table.
  std::map<std::string, SpanStats> AggregateByName() const;

  /// Spans overwritten because the ring lapped. Read it *after* Snapshot()
  /// when exporting both: a wrap racing the snapshot then shows up here
  /// rather than being silently absent from both numbers.
  uint64_t dropped() const;

  size_t capacity() const { return capacity_; }

  /// Names the calling thread in trace exports ("main", "worker-3", ...).
  /// Last write wins; names survive Reset().
  void SetThisThreadName(const std::string& name);

  /// Thread-name registry snapshot, keyed by ThisThreadTraceId().
  std::map<uint32_t, std::string> ThreadNames() const;

  /// Forgets every retained span (tests and per-bench runs).
  void Reset();

 private:
  struct Slot;
  // Slot contents form the lock-free ring, synchronized through next_.
  // ROCK_ANALYZE(unguarded-ok: set in the constructor, immutable after)
  size_t capacity_;
  Slot* slots_;
  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> next_id_{0};
  // ROCK_ANALYZE(unguarded-ok: set in the constructor, immutable after)
  double epoch_seconds_;
  mutable common::Mutex names_mu_;
  std::map<uint32_t, std::string> thread_names_ ROCK_GUARDED_BY(names_mu_);
};

/// The innermost open span on this thread (0 = none); maintained by
/// ScopedSpan so nested spans link to their parent automatically.
uint64_t CurrentSpanId();

/// RAII span: records [construction, destruction) into a tracer under the
/// current thread's span stack. `flow_from` stamps the record with the id
/// of the (other-thread) span that caused this work — see
/// SpanRecord::flow_from.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : ScopedSpan(name, Tracer::Global()) {}
  ScopedSpan(const char* name, uint64_t flow_from)
      : ScopedSpan(name, Tracer::Global(), flow_from) {}
  ScopedSpan(const char* name, Tracer& tracer, uint64_t flow_from = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return record_.id; }

 private:
  Tracer& tracer_;
  SpanRecord record_;
  uint64_t saved_current_;
  double cpu_start_ = 0.0;
  uint64_t alloc_start_ = 0;
  /// Open-span registry bookkeeping: what this thread's slot held before
  /// this span opened (the parent span), restored on destruction.
  const char* saved_open_name_ = nullptr;
  uint64_t saved_open_id_ = 0;
  double saved_open_start_ = 0.0;
};

/// A span currently open on some thread, as seen by the open-span
/// registry ScopedSpan maintains (innermost span per thread). The stall
/// watchdog scans these to find spans stuck past their deadline. Reads
/// are seqlock-consistent per slot; if two threads hash to one slot the
/// losing thread's span is simply not listed (best-effort diagnostics,
/// never a correctness input).
struct OpenSpanInfo {
  uint32_t thread = 0;
  uint64_t id = 0;
  const char* name = "";
  /// Tracer-epoch start, comparable with Tracer::Global().Now().
  double start_seconds = 0.0;
};

/// Snapshot of every currently-open innermost span (one per live thread
/// that has a span open). Safe to call from any thread, including while
/// spans open and close concurrently.
std::vector<OpenSpanInfo> OpenSpans();

}  // namespace rock::obs

/// Span macros used by instrumented code paths. ROCK_OBS_SPAN_FLOW
/// additionally links the span to a submitting span on another thread.
#define ROCK_OBS_CONCAT_INNER(a, b) a##b
#define ROCK_OBS_CONCAT(a, b) ROCK_OBS_CONCAT_INNER(a, b)
#define ROCK_OBS_SPAN(name) \
  ::rock::obs::ScopedSpan ROCK_OBS_CONCAT(rock_obs_span_, __LINE__)(name)
#define ROCK_OBS_SPAN_FLOW(name, flow_from)                            \
  ::rock::obs::ScopedSpan ROCK_OBS_CONCAT(rock_obs_span_, __LINE__)( \
      name, static_cast<uint64_t>(flow_from))

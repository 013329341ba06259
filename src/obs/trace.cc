#include "src/obs/trace.h"

#include <algorithm>

#include "src/common/timer.h"
#include "src/obs/resource.h"

namespace rock::obs {
namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

thread_local uint64_t t_current_span = 0;

/// Open-span registry: one seqlocked slot per thread (hashed by trace id),
/// holding the thread's innermost open span. Writers are the owning
/// thread only; the watchdog reads concurrently. Writer protocol: bump
/// seq to odd, write fields, bump seq to even. A reader retries while seq
/// is odd or changed across the read. Hash collisions (>= kOpenSpanSlots
/// live threads) make colliding threads overwrite each other — tolerable,
/// the registry is a diagnostic surface, never a correctness input.
constexpr size_t kOpenSpanSlots = 256;

struct OpenSlot {
  std::atomic<uint64_t> seq{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<uint64_t> id{0};
  std::atomic<double> start{0.0};
  std::atomic<uint32_t> thread{0};
};

OpenSlot g_open_slots[kOpenSpanSlots];

OpenSlot& OpenSlotForThisThread() {
  return g_open_slots[ThisThreadTraceId() % kOpenSpanSlots];
}

void PublishOpenSpan(OpenSlot& slot, const char* name, uint64_t id,
                     double start, uint32_t thread) {
  slot.seq.fetch_add(1, std::memory_order_acq_rel);  // odd: write in flight
  slot.name.store(name, std::memory_order_relaxed);
  slot.id.store(id, std::memory_order_relaxed);
  slot.start.store(start, std::memory_order_relaxed);
  slot.thread.store(thread, std::memory_order_relaxed);
  slot.seq.fetch_add(1, std::memory_order_release);  // even: stable
}

/// Nearest-rank percentile over an already-sorted duration list.
double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

}  // namespace

uint32_t ThisThreadTraceId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// One ring slot: a single-byte latch publishing `record` plus the
/// reservation sequence that wrote it. The latch is held only for the
/// duration of a ~64-byte copy, so contention (ring lap or concurrent
/// snapshot) resolves in nanoseconds. `seq` lets Snapshot() reject a
/// record that a concurrent wrap wrote over the index it is scanning —
/// without it, a snapshot racing a lap could attribute a brand-new span
/// to the oldest retained index while dropped() already counted the span
/// that used to live there.
struct Tracer::Slot {
  std::atomic<bool> busy{false};
  bool filled = false;
  uint64_t seq = 0;
  SpanRecord record;

  void Lock() {
    while (busy.exchange(true, std::memory_order_acquire)) {
    }
  }
  void Unlock() { busy.store(false, std::memory_order_release); }
};

Tracer::Tracer(size_t capacity)
    : capacity_(RoundUpPow2(capacity == 0 ? 1 : capacity)),
      slots_(new Slot[RoundUpPow2(capacity == 0 ? 1 : capacity)]),
      epoch_seconds_(SteadySeconds()) {}

Tracer::~Tracer() { delete[] slots_; }

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer(kGlobalTraceCapacity);
  return *tracer;
}

double Tracer::Now() const { return SteadySeconds() - epoch_seconds_; }

void Tracer::Record(const SpanRecord& record) {
  uint64_t index = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[index & (capacity_ - 1)];
  slot.Lock();
  slot.record = record;
  slot.seq = index;
  slot.filled = true;
  slot.Unlock();
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::vector<SpanRecord> out;
  // Oldest retained slot first. `next_` may advance while we scan; the
  // per-slot latch keeps every copied record internally consistent, and
  // the slot's `seq` confirms the record still belongs to the index we
  // asked for (a lap during the scan leaves the record out — it will be
  // reflected in dropped() when read after this snapshot).
  uint64_t written = next_.load(std::memory_order_acquire);
  uint64_t begin = written > capacity_ ? written - capacity_ : 0;
  out.reserve(static_cast<size_t>(written - begin));
  for (uint64_t index = begin; index < written; ++index) {
    Slot& slot = slots_[index & (capacity_ - 1)];
    slot.Lock();
    bool keep = slot.filled && slot.seq == index;
    SpanRecord record = slot.record;
    slot.Unlock();
    if (keep) out.push_back(record);
  }
  return out;
}

std::map<std::string, SpanStats> Tracer::AggregateByName() const {
  std::map<std::string, SpanStats> out;
  std::map<std::string, std::vector<double>> durations;
  for (const SpanRecord& record : Snapshot()) {
    SpanStats& stats = out[record.name];
    ++stats.count;
    stats.total_seconds += record.duration_seconds;
    if (record.duration_seconds > stats.max_seconds) {
      stats.max_seconds = record.duration_seconds;
    }
    stats.cpu_seconds += record.cpu_seconds;
    stats.alloc_bytes += record.alloc_bytes;
    durations[record.name].push_back(record.duration_seconds);
  }
  for (auto& [name, values] : durations) {
    std::sort(values.begin(), values.end());
    SpanStats& stats = out[name];
    stats.p50_seconds = NearestRank(values, 0.50);
    stats.p95_seconds = NearestRank(values, 0.95);
    stats.p99_seconds = NearestRank(values, 0.99);
  }
  return out;
}

uint64_t Tracer::dropped() const {
  uint64_t written = next_.load(std::memory_order_relaxed);
  return written > capacity_ ? written - capacity_ : 0;
}

void Tracer::SetThisThreadName(const std::string& name) {
  common::MutexLock lock(names_mu_);
  thread_names_[ThisThreadTraceId()] = name;
}

std::map<uint32_t, std::string> Tracer::ThreadNames() const {
  common::MutexLock lock(names_mu_);
  return thread_names_;
}

void Tracer::Reset() {
  // Walk every slot under its latch rather than resetting next_: concurrent
  // writers may hold reserved indices, and monotonic next_ keeps their
  // slots valid.
  for (size_t i = 0; i < capacity_; ++i) {
    slots_[i].Lock();
    slots_[i].filled = false;
    slots_[i].seq = 0;
    slots_[i].Unlock();
  }
  next_.store(0, std::memory_order_release);
  next_id_.store(0, std::memory_order_relaxed);
}

uint64_t CurrentSpanId() { return t_current_span; }

std::vector<OpenSpanInfo> OpenSpans() {
  std::vector<OpenSpanInfo> out;
  for (OpenSlot& slot : g_open_slots) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      uint64_t before = slot.seq.load(std::memory_order_acquire);
      if (before & 1) continue;  // write in flight, retry
      // Acquire loads on the fields pin the seq re-check after them (an
      // acquire load forbids later operations from reordering above it),
      // so no fence is needed — which also keeps TSan happy: GCC rejects
      // atomic_thread_fence outright under -fsanitize=thread.
      OpenSpanInfo info;
      info.name = slot.name.load(std::memory_order_acquire);
      info.id = slot.id.load(std::memory_order_acquire);
      info.start_seconds = slot.start.load(std::memory_order_acquire);
      info.thread = slot.thread.load(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != before) continue;
      if (info.name != nullptr && info.id != 0) out.push_back(info);
      break;
    }
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* name, Tracer& tracer, uint64_t flow_from)
    : tracer_(tracer), saved_current_(t_current_span) {
  record_.id = tracer_.NextSpanId();
  record_.parent_id = saved_current_;
  record_.flow_from = flow_from;
  record_.name = name;
  record_.thread = ThisThreadTraceId();
  record_.start_seconds = tracer_.Now();
  t_current_span = record_.id;
  OpenSlot& slot = OpenSlotForThisThread();
  // Owning thread is the only writer: plain relaxed reads see its own
  // last write (the parent span, or empty).
  saved_open_name_ = slot.name.load(std::memory_order_relaxed);
  saved_open_id_ = slot.id.load(std::memory_order_relaxed);
  saved_open_start_ = slot.start.load(std::memory_order_relaxed);
  PublishOpenSpan(slot, name, record_.id, record_.start_seconds,
                  record_.thread);
  cpu_start_ = ThreadCpuSeconds();
  alloc_start_ = ThreadAllocBytes();
}

ScopedSpan::~ScopedSpan() {
  record_.cpu_seconds = ThreadCpuSeconds() - cpu_start_;
  record_.alloc_bytes = ThreadAllocBytes() - alloc_start_;
  PublishOpenSpan(OpenSlotForThisThread(), saved_open_name_, saved_open_id_,
                  saved_open_start_, record_.thread);
  record_.duration_seconds = tracer_.Now() - record_.start_seconds;
  t_current_span = saved_current_;
  tracer_.Record(record_);
}

}  // namespace rock::obs

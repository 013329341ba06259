#pragma once

#include <cstdint>

namespace rock::obs {

/// CPU seconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
/// Two reads bracket a region; the delta is the region's on-CPU time,
/// excluding time spent blocked or preempted — the `cpu_seconds` column
/// ScopedSpan attributes to each span name. Negative when the clock cannot
/// be read, so callers can fall back to wall-clock durations.
double ThreadCpuSeconds();

/// Cumulative bytes the calling thread has requested through operator new
/// since it started, counted by the global allocation hook in resource.cc.
/// Monotonic (frees are not subtracted): two reads bracket a region and
/// the delta is the region's allocation volume. Always 0 when the hook is
/// compiled out (ROCK_OBS_ALLOC_TRACK undefined).
uint64_t ThreadAllocBytes();

/// Cumulative operator-new call count for the calling thread; same
/// lifecycle as ThreadAllocBytes().
uint64_t ThreadAllocCount();

/// Whether the allocation hook is compiled in. Exporters use this to mark
/// alloc columns as absent-by-configuration rather than genuinely zero.
constexpr bool AllocTrackingEnabled() {
#ifdef ROCK_OBS_ALLOC_TRACK
  return true;
#else
  return false;
#endif
}

/// Resident set size of this process in bytes, from /proc/self/statm;
/// 0 if unreadable. Cross-checks the per-span alloc_bytes attribution
/// (rock_process_rss_bytes gauge).
uint64_t ProcessRssBytes();

}  // namespace rock::obs

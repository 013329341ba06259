// Tests for the continuous-profiling plane: per-thread resource counters,
// per-span CPU/allocation attribution, the open-span registry, the
// sampling CPU profiler, the schedule-breakdown collector, and the stall
// watchdog.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/status.h"
#include "src/obs/exporters.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/resource.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"

namespace rock::obs {

// External linkage on purpose: -rdynamic exports it, so the profiler's
// offline symbolization can name the hot frame in the folded stacks.
__attribute__((noinline)) double ProfileTestBusyWork(int iters) {
  volatile double acc = 0.0;
  for (int i = 0; i < iters; ++i) {
    acc = acc + std::sqrt(static_cast<double>(i % 1000) + 1.0);
  }
  return acc;
}

namespace {

/// Burns roughly `cpu_seconds` of on-CPU time on the calling thread.
/// Checks the clock only every few calls: under sanitizers the
/// intercepted clock_gettime is expensive enough to otherwise dominate
/// the profile and starve the busy-work frame of samples.
void BurnCpu(double cpu_seconds) {
  double start = ThreadCpuSeconds();
  while (ThreadCpuSeconds() - start < cpu_seconds) {
    for (int i = 0; i < 16; ++i) ProfileTestBusyWork(20000);
  }
}

/// True when the sampled stacks mostly belong to a sanitizer runtime, in
/// which case asserting on a specific hot symbol is meaningless.
constexpr bool SanitizedBuild() {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

TEST(ResourceTest, ThreadCpuSecondsAdvancesWithWork) {
  double before = ThreadCpuSeconds();
  ASSERT_GE(before, 0.0);
  BurnCpu(0.02);
  EXPECT_GE(ThreadCpuSeconds() - before, 0.02);
}

TEST(ResourceTest, ThreadCpuSecondsIsPerThread) {
  // A sleeping sibling burns (almost) nothing while this thread works.
  std::atomic<double> sibling_cpu{-1.0};
  std::thread sleeper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    sibling_cpu.store(ThreadCpuSeconds());
  });
  BurnCpu(0.05);
  sleeper.join();
  EXPECT_LT(sibling_cpu.load(), 0.04);
}

TEST(ResourceTest, ProcessRssBytesPositive) {
  EXPECT_GT(ProcessRssBytes(), 0u);
}

TEST(ResourceTest, AllocCountersTrackOperatorNew) {
  if (!AllocTrackingEnabled()) {
    // Release builds default to ROCK_OBS_ALLOC_TRACK=OFF; the counters
    // must then read zero rather than garbage.
    EXPECT_EQ(ThreadAllocBytes(), 0u);
    EXPECT_EQ(ThreadAllocCount(), 0u);
    return;
  }
  uint64_t bytes_before = ThreadAllocBytes();
  uint64_t count_before = ThreadAllocCount();
  {
    std::vector<char> block(1 << 16);
    // Defeat dead-store elimination of the allocation.
    block[0] = 1;
    ASSERT_EQ(block[0], 1);
  }
  EXPECT_GE(ThreadAllocBytes() - bytes_before, uint64_t{1} << 16);
  EXPECT_GT(ThreadAllocCount(), count_before);
}

TEST(ScopedSpanResourceTest, CpuSecondsAttributedToSpan) {
  Tracer tracer(64);
  {
    ScopedSpan span("profile.test.busy", tracer);
    BurnCpu(0.03);
  }
  auto stats = tracer.AggregateByName();
  ASSERT_EQ(stats.count("profile.test.busy"), 1u);
  EXPECT_GE(stats["profile.test.busy"].cpu_seconds, 0.02);
  // On-CPU time can never exceed wall time for a single thread.
  EXPECT_LE(stats["profile.test.busy"].cpu_seconds,
            stats["profile.test.busy"].total_seconds + 1e-3);
}

TEST(ScopedSpanResourceTest, AllocBytesAttributedToSpan) {
  if (!AllocTrackingEnabled()) GTEST_SKIP() << "alloc tracking off";
  Tracer tracer(64);
  {
    ScopedSpan span("profile.test.alloc", tracer);
    std::vector<char> block(1 << 18);
    block[0] = 1;
    ASSERT_EQ(block[0], 1);
  }
  auto stats = tracer.AggregateByName();
  ASSERT_EQ(stats.count("profile.test.alloc"), 1u);
  EXPECT_GE(stats["profile.test.alloc"].alloc_bytes, uint64_t{1} << 18);
}

TEST(OpenSpanRegistryTest, ListsInnermostAndRestoresParent) {
  Tracer tracer(64);
  uint32_t self = ThisThreadTraceId();
  auto mine = [&](const std::vector<OpenSpanInfo>& open) -> const char* {
    for (const OpenSpanInfo& span : open) {
      if (span.thread == self) return span.name;
    }
    return nullptr;
  };
  {
    ScopedSpan outer("profile.test.outer", tracer);
    EXPECT_STREQ(mine(OpenSpans()), "profile.test.outer");
    {
      ScopedSpan inner("profile.test.inner", tracer);
      EXPECT_STREQ(mine(OpenSpans()), "profile.test.inner");
    }
    // Closing the inner span restores the outer one in the registry.
    EXPECT_STREQ(mine(OpenSpans()), "profile.test.outer");
  }
  EXPECT_EQ(mine(OpenSpans()), nullptr);
}

TEST(CpuProfilerTest, RejectsBadOptions) {
  ProfileOptions options;
  options.sample_hz = 0;
  EXPECT_EQ(CpuProfiler::Global().Start(options).code(),
            StatusCode::kInvalidArgument);
  options.sample_hz = 97;
  options.max_samples = 0;
  EXPECT_EQ(CpuProfiler::Global().Start(options).code(),
            StatusCode::kInvalidArgument);
}

TEST(CpuProfilerTest, StopWithoutStartFailsCleanly) {
  EXPECT_EQ(CpuProfiler::Global().Stop().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CpuProfilerTest, CollectsAndSymbolizesBusyStacks) {
  ProfileOptions options;
  options.sample_hz = 997;  // fast sampling keeps the test short
  ASSERT_TRUE(CpuProfiler::Global().Start(options).ok());
  EXPECT_TRUE(CpuProfiler::Global().running());
  // Double start must fail while running.
  EXPECT_EQ(CpuProfiler::Global().Start(options).code(),
            StatusCode::kFailedPrecondition);

  BurnCpu(0.2);

  // Partial snapshot while still running (the watchdog's view).
  ProfileSnapshot partial = CpuProfiler::Global().TakeSnapshot();
  EXPECT_TRUE(partial.running);

  ASSERT_TRUE(CpuProfiler::Global().Stop().ok());
  EXPECT_FALSE(CpuProfiler::Global().running());

  ProfileSnapshot snap = CpuProfiler::Global().TakeSnapshot();
  EXPECT_TRUE(snap.enabled);
  EXPECT_FALSE(snap.running);
  EXPECT_EQ(snap.sample_hz, 997);
  EXPECT_GT(snap.duration_seconds, 0.0);
  ASSERT_GT(snap.samples, 10u);
  ASSERT_FALSE(snap.folded.empty());

  // The busy frame has external linkage and the binary links -rdynamic,
  // so symbolization must find it by name. Under a sanitizer the runtime
  // burns most of the CPU, so only the stacks' existence is asserted.
  std::string folded = CpuProfiler::Global().Folded();
  std::string json = CpuProfiler::Global().Json();
  EXPECT_NE(json.find("\"enabled\""), std::string::npos);
  EXPECT_NE(json.find("\"stacks\""), std::string::npos);
  EXPECT_FALSE(folded.empty());
  if (!SanitizedBuild()) {
    EXPECT_NE(folded.find("ProfileTestBusyWork"), std::string::npos) << folded;
    // The fold cuts the kernel's signal trampoline, which symbolizes as an
    // unnamed libc.so.6+0x... frame, so the busy stacks end in user code.
    for (const auto& [stack, samples] : snap.folded) {
      if (stack.find("ProfileTestBusyWork") == std::string::npos) continue;
      const std::string leaf = stack.substr(stack.rfind(';') + 1);
      EXPECT_NE(leaf.rfind("libc.so.6+0x", 0), 0u) << stack;
    }
    EXPECT_NE(folded.find("rock"), std::string::npos);
    EXPECT_NE(json.find("ProfileTestBusyWork"), std::string::npos);
  }
}

TEST(CpuProfilerTest, ConcurrentRegisteredThreadsAreSampled) {
  ProfileOptions options;
  options.sample_hz = 997;
  ASSERT_TRUE(CpuProfiler::Global().Start(options).ok());
  std::vector<std::thread> workers;
  workers.reserve(2);
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([] {
      CpuProfiler::Global().RegisterThisThread();
      BurnCpu(0.1);
    });
  }
  for (std::thread& worker : workers) worker.join();
  ASSERT_TRUE(CpuProfiler::Global().Stop().ok());
  ProfileSnapshot snap = CpuProfiler::Global().TakeSnapshot();
  EXPECT_GT(snap.samples, 0u);
}

TEST(ScheduleBreakdownsTest, RetainsBoundedNewestAndResets) {
  ScheduleBreakdowns collector;
  for (int i = 0; i < 40; ++i) {
    WorkerBreakdown breakdown;
    breakdown.label = "threads-2#" + std::to_string(i);
    breakdown.mode = "threads";
    breakdown.workers = 2;
    breakdown.busy_seconds = {0.1, 0.2};
    breakdown.wait_seconds = {0.0, 0.1};
    breakdown.idle_seconds = {0.2, 0.0};
    collector.Add(std::move(breakdown));
  }
  std::vector<WorkerBreakdown> snap = collector.Snapshot();
  ASSERT_EQ(snap.size(), ScheduleBreakdowns::kMaxRetained);
  // Oldest evicted, newest last.
  EXPECT_EQ(snap.front().label, "threads-2#8");
  EXPECT_EQ(snap.back().label, "threads-2#39");
  collector.Reset();
  EXPECT_TRUE(collector.Snapshot().empty());
}

TEST(ScheduleBreakdownsTest, ExportJsonCarriesWaitBreakdown) {
  MetricsRegistry registry;
  WorkerBreakdown breakdown;
  breakdown.label = "threads-2#0";
  breakdown.mode = "threads";
  breakdown.workers = 2;
  breakdown.wall_seconds = 0.5;
  breakdown.busy_seconds = {0.4, 0.3};
  breakdown.wait_seconds = {0.05, 0.1};
  breakdown.idle_seconds = {0.05, 0.1};
  std::string json =
      ExportJson(registry.Snap(), {}, 0, {breakdown});
  EXPECT_NE(json.find("\"wait_breakdown\""), std::string::npos);
  EXPECT_NE(json.find("\"threads-2#0\""), std::string::npos);
  EXPECT_NE(json.find("\"busy_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"wait_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"idle_seconds\""), std::string::npos);
}

TEST(StallWatchdogTest, StartValidatesAndStopIsIdempotent) {
  WatchdogOptions bad;
  bad.span_deadline_seconds = 0.0;
  EXPECT_EQ(StallWatchdog::Global().Start(bad).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(StallWatchdog::Global().Stop().ok());  // not running: no-op

  WatchdogOptions options;
  options.poll_interval_seconds = 0.02;
  ASSERT_TRUE(StallWatchdog::Global().Start(options).ok());
  EXPECT_TRUE(StallWatchdog::Global().running());
  EXPECT_EQ(StallWatchdog::Global().Start(options).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(StallWatchdog::Global().Stop().ok());
  EXPECT_FALSE(StallWatchdog::Global().running());
}

TEST(StallWatchdogTest, BuildDumpListsOpenSpansAndPool) {
  ScopedSpan span("profile.test.dumped", Tracer::Global());
  std::string dump = StallWatchdog::Global().BuildDump("unit test");
  EXPECT_NE(dump.find("reason: unit test"), std::string::npos);
  EXPECT_NE(dump.find("profile.test.dumped"), std::string::npos);
  EXPECT_NE(dump.find("queue_depth="), std::string::npos);
  EXPECT_NE(dump.find("partial profile"), std::string::npos);
}

TEST(StallWatchdogTest, ConcurrentStuckSpanTripsAndDumps) {
  std::string dump_path =
      ::testing::TempDir() + "rock_watchdog_dump.txt";
  std::remove(dump_path.c_str());

  uint64_t stalls_before = StallWatchdog::Global().stalls_detected();
  WatchdogOptions options;
  options.span_deadline_seconds = 0.05;
  options.progress_deadline_seconds = 60.0;
  options.poll_interval_seconds = 0.02;
  options.dump_path = dump_path;
  ASSERT_TRUE(StallWatchdog::Global().Start(options).ok());
  {
    ScopedSpan stuck("profile.test.stuck", Tracer::Global());
    // Hold the span open well past the deadline across several polls; the
    // per-span-id dedup must still report it exactly once.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  }
  EXPECT_TRUE(StallWatchdog::Global().Stop().ok());
  EXPECT_EQ(StallWatchdog::Global().stalls_detected() - stalls_before, 1u);

  std::FILE* f = std::fopen(dump_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  std::remove(dump_path.c_str());
  EXPECT_NE(contents.find("profile.test.stuck"), std::string::npos);
  EXPECT_NE(contents.find("watchdog diagnostic bundle"), std::string::npos);
}

TEST(StallWatchdogTest, QueuedWorkWithoutProgressTrips) {
  Gauge* depth = MetricsRegistry::Global().GetGauge("rock_par_queue_depth");
  int64_t saved_depth = depth->Value();
  depth->Set(4);  // queued units, and nothing will complete them

  uint64_t stalls_before = StallWatchdog::Global().stalls_detected();
  WatchdogOptions options;
  options.span_deadline_seconds = 60.0;
  options.progress_deadline_seconds = 0.05;
  options.poll_interval_seconds = 0.02;
  ASSERT_TRUE(StallWatchdog::Global().Start(options).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_TRUE(StallWatchdog::Global().Stop().ok());
  depth->Set(saved_depth);
  EXPECT_EQ(StallWatchdog::Global().stalls_detected() - stalls_before, 1u);
}

}  // namespace
}  // namespace rock::obs

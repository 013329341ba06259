// Tests for the rock::obs subsystem: sharded metrics, the span ring
// buffer and RAII span nesting, and the Prometheus/JSON exporters. The
// concurrency tests run under the CI sanitizer matrix (TSan gates the
// sharded counters and the tracer's per-slot publication latches).

#include <atomic>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/obs/exporters.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace rock::obs {
namespace {

TEST(CounterTest, AddAndValue) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAddValue) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
}

TEST(HistogramTest, BucketsCountAndSum) {
  Histogram hist({1.0, 10.0, 100.0});
  hist.Observe(0.5);    // bucket 0
  hist.Observe(1.0);    // bucket 0 (<= bound)
  hist.Observe(5.0);    // bucket 1
  hist.Observe(50.0);   // bucket 2
  hist.Observe(500.0);  // +Inf bucket
  EXPECT_EQ(hist.Count(), 5u);
  EXPECT_NEAR(hist.Sum(), 556.5, 1e-6);
  std::vector<uint64_t> cumulative = hist.CumulativeCounts();
  ASSERT_EQ(cumulative.size(), 4u);
  EXPECT_EQ(cumulative[0], 2u);  // <= 1
  EXPECT_EQ(cumulative[1], 3u);  // <= 10
  EXPECT_EQ(cumulative[2], 4u);  // <= 100
  EXPECT_EQ(cumulative[3], 5u);  // +Inf == total
}

TEST(HistogramTest, ConcurrentObservations) {
  Histogram hist(LatencyBucketsSeconds());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < kPerThread; ++i) hist.Observe(1e-4);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hist.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_NEAR(hist.Sum(), kThreads * kPerThread * 1e-4, 1e-3);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket) {
  Histogram hist({1.0, 2.0, 4.0});
  // 10 observations uniform in (0, 1]: every percentile lands in the
  // first bucket, interpolated from its (0, 1] range.
  for (int i = 0; i < 10; ++i) hist.Observe(0.5);
  EXPECT_NEAR(hist.Percentile(0.5), 0.5, 1e-9);
  EXPECT_NEAR(hist.Percentile(1.0), 1.0, 1e-9);
  // Push two observations into (2, 4]: p99 moves to the third bucket.
  hist.Observe(3.0);
  hist.Observe(3.0);
  EXPECT_GT(hist.Percentile(0.99), 2.0);
  EXPECT_LE(hist.Percentile(0.99), 4.0);
}

TEST(HistogramTest, PercentileEdgeCases) {
  Histogram empty({1.0});
  EXPECT_EQ(empty.Percentile(0.5), 0.0);
  // Everything beyond the last finite bound clamps to that bound.
  Histogram overflow({1.0});
  overflow.Observe(100.0);
  EXPECT_EQ(overflow.Percentile(0.99), 1.0);
  // Free-function form over raw snapshot data.
  EXPECT_EQ(PercentileFromCumulative({}, {}, 0.5), 0.0);
  EXPECT_NEAR(PercentileFromCumulative({1.0, 2.0}, {0, 4, 4}, 0.5), 1.5,
              1e-9);
}

TEST(HistogramTest, PercentileExtremeQuantiles) {
  // Empty histogram: every quantile, including the extremes, reads 0.
  Histogram empty({1.0, 2.0});
  EXPECT_EQ(empty.Percentile(0.0), 0.0);
  EXPECT_EQ(empty.Percentile(1.0), 0.0);

  // Single finite bucket: q=0 clamps to rank 1 (the smallest observation's
  // interpolated position), q=1 reaches the bucket's upper bound, and
  // every q in between stays inside it.
  Histogram single({1.0});
  for (int i = 0; i < 8; ++i) single.Observe(0.5);
  EXPECT_NEAR(single.Percentile(0.0), 1.0 / 8, 1e-9);
  EXPECT_NEAR(single.Percentile(1.0), 1.0, 1e-9);
  EXPECT_GT(single.Percentile(0.5), 0.0);
  EXPECT_LE(single.Percentile(0.5), 1.0);

  // With observations split across buckets the extremes still bracket the
  // distribution: q=0 in the first occupied bucket, q=1 at the last
  // occupied finite bound.
  Histogram split({1.0, 2.0, 4.0});
  split.Observe(0.5);
  split.Observe(3.0);
  EXPECT_LE(split.Percentile(0.0), 1.0);
  EXPECT_NEAR(split.Percentile(1.0), 4.0, 1e-9);
}

TEST(MetricsRegistryTest, HelpTextReachesSnapshotAndExport) {
  MetricsRegistry registry;
  registry.GetCounter("rock_help_total")->Add(1);
  registry.SetHelp("rock_help_total", "Counts helpful things");
  MetricsRegistry::Snapshot snap = registry.Snap();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].help, "Counts helpful things");
  std::string text = ExportPrometheus(snap);
  EXPECT_NE(text.find("# HELP rock_help_total Counts helpful things\n"
                      "# TYPE rock_help_total counter\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, SameNameSameMetric) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("test_total");
  Counter* b = registry.GetCounter("test_total");
  EXPECT_EQ(a, b);
  a->Add(3);
  MetricsRegistry::Snapshot snap = registry.Snap();
  EXPECT_EQ(snap.CounterValue("test_total"), 3u);
  EXPECT_EQ(snap.CounterValue("absent"), 0u);
}

TEST(MetricsRegistryTest, PointersSurviveResetAndNewRegistrations) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("stable_total");
  counter->Add(7);
  // New registrations must not invalidate the cached pointer...
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("filler_" + std::to_string(i));
  }
  // ...and Reset zeroes in place rather than replacing the metric.
  registry.Reset();
  EXPECT_EQ(counter->Value(), 0u);
  counter->Add(1);
  EXPECT_EQ(registry.Snap().CounterValue("stable_total"), 1u);
}

TEST(MetricsRegistryTest, SnapshotSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("zz_total");
  registry.GetCounter("aa_total");
  MetricsRegistry::Snapshot snap = registry.Snap();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "aa_total");
  EXPECT_EQ(snap.counters[1].name, "zz_total");
}

TEST(TracerTest, RecordsNestedSpansWithParentIds) {
  Tracer tracer(64);
  {
    ScopedSpan outer("outer", tracer);
    EXPECT_EQ(CurrentSpanId(), outer.id());
    {
      ScopedSpan inner("inner", tracer);
      EXPECT_EQ(CurrentSpanId(), inner.id());
    }
    EXPECT_EQ(CurrentSpanId(), outer.id());
  }
  EXPECT_EQ(CurrentSpanId(), 0u);

  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner finishes first, so it is the older record.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].parent_id, spans[1].id);
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_GE(spans[0].duration_seconds, 0.0);
  EXPECT_GE(spans[1].duration_seconds, 0.0);
}

TEST(TracerTest, AggregateByName) {
  Tracer tracer(64);
  for (int i = 0; i < 3; ++i) ScopedSpan span("repeat", tracer);
  std::map<std::string, SpanStats> stats = tracer.AggregateByName();
  ASSERT_EQ(stats.count("repeat"), 1u);
  EXPECT_EQ(stats["repeat"].count, 3u);
  EXPECT_GE(stats["repeat"].total_seconds, 0.0);
  EXPECT_GE(stats["repeat"].max_seconds, 0.0);
}

TEST(TracerTest, AggregateByNameOnEmptySnapshot) {
  Tracer tracer(64);
  std::map<std::string, SpanStats> stats = tracer.AggregateByName();
  EXPECT_TRUE(stats.empty());
  // Reset after activity must also yield an empty aggregate, not stale
  // stats.
  { ScopedSpan span("ephemeral", tracer); }
  tracer.Reset();
  EXPECT_TRUE(tracer.AggregateByName().empty());
}

TEST(TracerTest, RingOverwritesOldestAndCountsDropped) {
  Tracer tracer(4);  // already a power of two
  for (int i = 0; i < 10; ++i) ScopedSpan span("s", tracer);
  std::vector<SpanRecord> spans = tracer.Snapshot();
  EXPECT_EQ(spans.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // Oldest-first: retained ids are the last four, in order.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GT(spans[i].id, spans[i - 1].id);
  }
  tracer.Reset();
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, ConcurrentRecordAndSnapshot) {
  Tracer tracer(256);
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&tracer, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        ScopedSpan span("w", tracer);
      }
    });
  }
  // Concurrent snapshots must be race-free and only ever see fully
  // published records.
  for (int i = 0; i < 50; ++i) {
    for (const SpanRecord& span : tracer.Snapshot()) {
      EXPECT_STREQ(span.name, "w");
      EXPECT_GT(span.id, 0u);
    }
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
}

TEST(TracerTest, SpanIdsUniqueAcrossThreads) {
  Tracer tracer(1024);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) ScopedSpan span("u", tracer);
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads) * kPerThread);
  std::set<uint64_t> ids;
  for (const SpanRecord& span : spans) ids.insert(span.id);
  EXPECT_EQ(ids.size(), spans.size());
}

TEST(TracerTest, AggregatePercentilesNearestRank) {
  Tracer tracer(256);
  // 100 synthetic spans with known durations 0.01..1.00.
  for (int i = 1; i <= 100; ++i) {
    SpanRecord record;
    record.id = tracer.NextSpanId();
    record.name = "p";
    record.duration_seconds = 0.01 * i;
    tracer.Record(record);
  }
  std::map<std::string, SpanStats> stats = tracer.AggregateByName();
  ASSERT_EQ(stats.count("p"), 1u);
  // Nearest-rank over the sorted durations: index floor(q * n).
  EXPECT_NEAR(stats["p"].p50_seconds, 0.51, 1e-9);
  EXPECT_NEAR(stats["p"].p95_seconds, 0.96, 1e-9);
  EXPECT_NEAR(stats["p"].p99_seconds, 1.00, 1e-9);
  EXPECT_NEAR(stats["p"].max_seconds, 1.00, 1e-9);
}

TEST(TracerTest, FlowConstructorStampsFlowFrom) {
  Tracer tracer(16);
  uint64_t source_id = 0;
  {
    ScopedSpan source("scheduler", tracer);
    source_id = source.id();
  }
  { ScopedSpan unit("unit", tracer, source_id); }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].flow_from, 0u);
  EXPECT_EQ(spans[1].flow_from, source_id);
}

TEST(TracerTest, ThreadNamesRegistryAndTraceIds) {
  Tracer tracer(16);
  tracer.SetThisThreadName("main");
  uint32_t other_id = 0;
  std::thread worker([&tracer, &other_id] {
    other_id = ThisThreadTraceId();
    tracer.SetThisThreadName("worker-0");
  });
  worker.join();
  EXPECT_NE(other_id, ThisThreadTraceId());
  std::map<uint32_t, std::string> names = tracer.ThreadNames();
  EXPECT_EQ(names[ThisThreadTraceId()], "main");
  EXPECT_EQ(names[other_id], "worker-0");
  // Names survive Reset (they describe threads, not spans).
  tracer.Reset();
  EXPECT_EQ(tracer.ThreadNames().size(), names.size());
}

TEST(TracerTest, CapacityRoundsUpToPowerOfTwo) {
  Tracer tracer(3);
  EXPECT_EQ(tracer.capacity(), 4u);
}

TEST(JsonWriterTest, NestedStructures) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("a \"b\"\n");
  w.Key("list").BeginArray().Int(1).Int(2).EndArray();
  w.Key("nested").BeginObject().Key("x").Number(1.5).EndObject();
  w.Key("flag").Bool(true);
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"a \\\"b\\\"\\n\",\"list\":[1,2],"
            "\"nested\":{\"x\":1.5},\"flag\":true}");
}

TEST(ExportersTest, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.GetCounter("rock_test_total")->Add(5);
  registry.GetGauge("rock_test_depth")->Set(-2);
  Histogram* hist = registry.GetHistogram("rock_test_seconds", {0.1, 1.0});
  hist->Observe(0.05);
  hist->Observe(0.5);
  hist->Observe(5.0);
  std::string text = ExportPrometheus(registry.Snap());
  EXPECT_NE(text.find("# TYPE rock_test_total counter\n"
                      "rock_test_total 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rock_test_depth gauge\n"
                      "rock_test_depth -2\n"),
            std::string::npos);
  EXPECT_NE(text.find("rock_test_seconds_bucket{le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("rock_test_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("rock_test_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("rock_test_seconds_count 3\n"), std::string::npos);
}

TEST(ExportersTest, JsonTelemetryShape) {
  MetricsRegistry registry;
  registry.GetCounter("c_total")->Add(2);
  Tracer tracer(16);
  { ScopedSpan span("phase", tracer); }
  std::string json =
      ExportJson(registry.Snap(), tracer.AggregateByName(), 0);
  EXPECT_NE(json.find("\"counters\":{\"c_total\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"spans\":{\"phase\":{\"count\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\":0"), std::string::npos);
}

TEST(ExportersTest, PromEscapes) {
  EXPECT_EQ(PromEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(PromEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(PromEscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(PromEscapeLabelValue("line1\nline2"), "line1\\nline2");
  // HELP text escapes backslash and newline but leaves quotes alone.
  EXPECT_EQ(PromEscapeHelp("a\\b \"q\"\nc"), "a\\\\b \"q\"\\nc");
}

TEST(ExportersTest, SpanSummaryFamilyWithQuantiles) {
  MetricsRegistry registry;
  Tracer tracer(16);
  SpanStats stats;
  stats.count = 50;
  stats.total_seconds = 0.5;
  stats.max_seconds = 0.05;
  stats.p50_seconds = 0.01;
  stats.p95_seconds = 0.04;
  stats.p99_seconds = 0.05;
  std::map<std::string, SpanStats> spans;
  spans["chase"] = stats;
  std::string text = ExportPrometheus(registry.Snap(), spans, 3);
  EXPECT_NE(text.find("# TYPE rock_obs_span_seconds summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("rock_obs_span_seconds{name=\"chase\","
                      "quantile=\"0.5\"} 0.01\n"),
            std::string::npos);
  EXPECT_NE(text.find("rock_obs_span_seconds{name=\"chase\","
                      "quantile=\"0.99\"} 0.05\n"),
            std::string::npos);
  EXPECT_NE(text.find("rock_obs_span_seconds_sum{name=\"chase\"} 0.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("rock_obs_span_seconds_count{name=\"chase\"} 50\n"),
            std::string::npos);
  EXPECT_NE(text.find("rock_obs_span_seconds_max{name=\"chase\"} 0.05\n"),
            std::string::npos);
  // The drop gauge is appended when the snapshot lacks it.
  EXPECT_NE(text.find("# TYPE rock_obs_dropped_spans gauge\n"
                      "rock_obs_dropped_spans 3\n"),
            std::string::npos);
}

TEST(ExportersTest, PrometheusEscapesMatchGolden) {
  // Hand-built snapshot exercising every escape the exposition format
  // defines. The golden file is what scrapers must be able to parse —
  // regenerate it only alongside a matching check_prometheus.py run.
  MetricsRegistry::Snapshot snap;
  snap.counters.push_back(
      {"rock_x_total", 5,
       "Counts x; backslash \\ then newline\nand \"quotes\""});
  snap.gauges.push_back({"rock_q", -3, ""});
  MetricsRegistry::HistogramSample hist;
  hist.name = "rock_lat_seconds";
  hist.bounds = {0.1, 1.0};
  hist.cumulative_counts = {1, 3, 4};
  hist.count = 4;
  hist.sum = 1.25;
  hist.p50 = 0.5;
  hist.p95 = 0.9;
  hist.p99 = 0.99;
  snap.histograms.push_back(hist);
  SpanStats stats;
  stats.count = 50;
  stats.total_seconds = 0.5;
  stats.max_seconds = 0.05;
  stats.p50_seconds = 0.01;
  stats.p95_seconds = 0.04;
  stats.p99_seconds = 0.05;
  std::map<std::string, SpanStats> spans;
  spans["detect \"fast\"\npass\\one"] = stats;

  std::string text = ExportPrometheus(snap, spans, 7);

  std::ifstream golden(std::string(ROCK_TEST_SRCDIR) +
                       "/golden/prometheus_escapes.txt");
  ASSERT_TRUE(golden.is_open());
  std::stringstream contents;
  contents << golden.rdbuf();
  EXPECT_EQ(text, contents.str());
}

TEST(ExportersTest, ChromeTraceEventsAndFlows) {
  SpanRecord sched;
  sched.id = 1;
  sched.name = "par.execute";
  sched.thread = 1;
  sched.start_seconds = 1.0;
  sched.duration_seconds = 0.5;
  SpanRecord unit;
  unit.id = 2;
  unit.name = "par.unit";
  unit.thread = 2;
  unit.start_seconds = 1.1;
  unit.duration_seconds = 0.2;
  unit.flow_from = 1;
  std::map<uint32_t, std::string> names{{1, "main"}, {2, "worker-0"}};

  std::string json = ExportChromeTrace({sched, unit}, names);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Metadata: process plus both named threads.
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"thread_name\",\"pid\":1,\"tid\":2,"
                      "\"args\":{\"name\":\"worker-0\"}"),
            std::string::npos);
  // Complete events carry microsecond timestamps on their own threads.
  EXPECT_NE(json.find("\"ph\":\"X\",\"name\":\"par.execute\",\"cat\":"
                      "\"rock\",\"pid\":1,\"tid\":1,\"ts\":1000000,"
                      "\"dur\":500000"),
            std::string::npos);
  // Flow pair keyed by the destination span id: start on the scheduler
  // thread at the submit span's start, finish (bp:"e") on the worker.
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":2"),
            std::string::npos);

  // A flow whose source span fell off the ring is skipped, not dangling.
  std::string orphan = ExportChromeTrace({unit}, names);
  EXPECT_EQ(orphan.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_EQ(orphan.find("\"ph\":\"f\""), std::string::npos);
}

TEST(ObsIntegrationTest, GlobalCaptureSeesMacroSpans) {
  MetricsRegistry::Global().Reset();
  Tracer::Global().Reset();
  MetricsRegistry::Global().GetCounter("rock_obs_test_total")->Add(1);
  { ROCK_OBS_SPAN("obs_test.phase"); }
  TelemetrySnapshot snap = CaptureGlobalTelemetry();
  EXPECT_EQ(snap.metrics.CounterValue("rock_obs_test_total"), 1u);
  ASSERT_EQ(snap.spans.count("obs_test.phase"), 1u);
  EXPECT_EQ(snap.spans["obs_test.phase"].count, 1u);
  EXPECT_NE(snap.ToJson().find("rock_obs_test_total"), std::string::npos);
  EXPECT_NE(snap.ToPrometheus().find("rock_obs_test_total"),
            std::string::npos);
}

TEST(LoggingTest, CheckStreamingPassesOnTrue) {
  // The streamed context must not evaluate when the condition holds.
  int evaluations = 0;
  ROCK_CHECK(true) << "never evaluated " << ++evaluations;
  EXPECT_EQ(evaluations, 0);
}

TEST(LoggingTest, CheckAbortsWithContextOnFalse) {
  EXPECT_DEATH(ROCK_CHECK(1 == 2) << "rule=" << 42, "1 == 2.*rule=42");
}

TEST(LoggingTest, LogLevelParsing) {
  // SetLogLevel is exercised directly; ROCK_LOG_LEVEL is read once at
  // startup (see InitialLevel), so here we only check the setter round-trip.
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(LogLevel::kWarning);
  EXPECT_EQ(GetLogLevel(), LogLevel::kWarning);
}

}  // namespace
}  // namespace rock::obs

// Google-benchmark microbenchmarks for the performance-critical kernels:
// the rule evaluator's indexed joins, the fix store's temporal reachability
// and union-find, LSH signatures, string similarity and hashing. These are
// the inner loops every experiment in EXPERIMENTS.md stands on.

#include <benchmark/benchmark.h>

#include "bench/bench_telemetry.h"
#include "src/chase/fix_store.h"
#include "src/common/hash.h"
#include "src/common/mutex.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/ml/library.h"
#include "src/ml/lsh.h"
#include "src/rules/eval.h"
#include "src/rules/parser.h"
#include "src/workload/generator.h"

namespace rock {
namespace {

const workload::GeneratedData& LogisticsData() {
  static workload::GeneratedData* data = [] {
    workload::GeneratorOptions options;
    options.rows = 400;
    return new workload::GeneratedData(
        workload::MakeLogisticsData(options));
  }();
  return *data;
}

void BM_Crc32(benchmark::State& state) {
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(payload));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096);

void BM_Hash64(benchmark::State& state) {
  std::string payload(static_cast<size_t>(state.range(0)), 'y');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hash64(payload));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Hash64)->Arg(64)->Arg(4096);

void BM_JaroWinkler(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        JaroWinkler("James Smith Johnson 42", "Jmaes Smtih Johnson 42"));
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_SoftTokenSimilarity(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(SoftTokenSimilarity(
        "Acme Holdings 17 Beijing", "Acme Holding 17 Beijin"));
  }
}
BENCHMARK(BM_SoftTokenSimilarity);

void BM_EditDistance(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EditDistance("Acme Holdings 17 Beijing West Road",
                     "Acme Holding 17 Bejing West Rd"));
  }
}
BENCHMARK(BM_EditDistance);

void BM_TokenJaccard(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TokenJaccard("Acme Holdings 17 Beijing West Road",
                     "Acme Holding 17 Beijing West Rd"));
  }
}
BENCHMARK(BM_TokenJaccard);

using PairList = std::vector<std::pair<std::vector<Value>, std::vector<Value>>>;

/// 256 candidate pairs drawn from a small vocabulary — the shape blocking
/// produces, where the same attribute values recur across many pairs.
const PairList& MlBenchPairs() {
  static PairList* pairs = [] {
    static const char* kProducts[] = {
        "iPhone 14 Pro Max 256GB",  "iPhone 14 Pro 256GB",
        "Galaxy S23 Ultra 512GB",   "Galaxy S23 Ultra 256GB",
        "Huawei Mate 50 Pro",       "Huawei Mate 50",
        "Pixel 7 Pro Snow 128GB",   "Pixel 7 Snow 128GB",
        "Acme Holdings Beijing",    "Acme Holding Bejing",
        "North West Trading Co",    "NorthWest Trading Company",
    };
    constexpr size_t kVocab = sizeof(kProducts) / sizeof(kProducts[0]);
    Rng rng(7);
    auto* out = new PairList();
    for (int i = 0; i < 256; ++i) {
      out->emplace_back(
          std::vector<Value>{Value::String(kProducts[rng.NextBounded(kVocab)]),
                             Value::Double(rng.NextDouble() * 100.0)},
          std::vector<Value>{Value::String(kProducts[rng.NextBounded(kVocab)]),
                             Value::Double(rng.NextDouble() * 100.0)});
    }
    return out;
  }();
  return *pairs;
}

/// ML-predicate scoring as the evaluator does it: four rules sharing one
/// model each score every candidate pair with the scalar Score. An
/// absolute ceiling in the perf ratchet.
void BM_MlPredicateScalar(benchmark::State& state) {
  const PairList& pairs = MlBenchPairs();
  ml::SimilarityClassifier model(0.6);
  constexpr int kRules = 4;
  for (auto _ : state) {
    double sink = 0.0;
    for (int r = 0; r < kRules; ++r) {
      for (const auto& [a, b] : pairs) sink += model.Score(a, b);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kRules * static_cast<int64_t>(pairs.size()));
}
BENCHMARK(BM_MlPredicateScalar);

void BM_LogisticPairScalar(benchmark::State& state) {
  const PairList& pairs = MlBenchPairs();
  ml::LogisticPairClassifier model(2);
  for (auto _ : state) {
    double sink = 0.0;
    for (const auto& [a, b] : pairs) sink += model.Score(a, b);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs.size()));
}
BENCHMARK(BM_LogisticPairScalar);

void BM_MinHashSignature(benchmark::State& state) {
  ml::MinHash minhash(static_cast<int>(state.range(0)));
  std::vector<std::string> tokens = {"acme", "holdings", "17",
                                     "beijing", "west", "road"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(minhash.Signature(tokens));
  }
}
BENCHMARK(BM_MinHashSignature)->Arg(16)->Arg(64);

void BM_IndexedJoinEnumeration(benchmark::State& state) {
  // The evaluator's hash-join path over a realistic FD rule.
  const workload::GeneratedData& data = LogisticsData();
  auto rule = rules::ParseRee(
      "Shipment(t0) ^ Shipment(t1) ^ t0.zip = t1.zip -> t0.area = t1.area",
      data.db.schema());
  rules::EvalContext ctx;
  ctx.db = &data.db;
  rules::Evaluator eval(ctx);
  for (auto _ : state) {
    size_t count = 0;
    eval.ForEachSatisfying(*rule, [&](const rules::Valuation&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_IndexedJoinEnumeration);

void BM_ViolationScan(benchmark::State& state) {
  const workload::GeneratedData& data = LogisticsData();
  auto rule = rules::ParseRee(
      "Shipment(t0) ^ Shipment(t1) ^ t0.seller_id = t1.seller_id -> "
      "t0.seller_name = t1.seller_name",
      data.db.schema());
  rules::EvalContext ctx;
  ctx.db = &data.db;
  rules::Evaluator eval(ctx);
  for (auto _ : state) {
    size_t violations = 0;
    eval.ForEachViolation(*rule, [&](const rules::Valuation&) {
      ++violations;
      return true;
    });
    benchmark::DoNotOptimize(violations);
  }
}
BENCHMARK(BM_ViolationScan);

void BM_UnionFindMergeFind(benchmark::State& state) {
  for (auto _ : state) {
    chase::UnionFind uf;
    for (int64_t i = 0; i < state.range(0); ++i) {
      uf.Union(i, i / 2);
    }
    int64_t sink = 0;
    for (int64_t i = 0; i < state.range(0); ++i) {
      sink ^= uf.Find(i);
    }
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_UnionFindMergeFind)->Arg(1000)->Arg(10000);

void BM_TemporalReachability(benchmark::State& state) {
  // A chain a0 ⪯ a1 ⪯ ... ⪯ an with reachability queries across it.
  chase::TemporalOrderStore store;
  bool added = false;
  const int64_t n = state.range(0);
  for (int64_t i = 0; i + 1 < n; ++i) {
    benchmark::DoNotOptimize(store.Add(i, i + 1, i % 3 == 0, &added));
  }
  Rng rng(1);
  for (auto _ : state) {
    int64_t a = static_cast<int64_t>(rng.NextBounded(n));
    int64_t b = static_cast<int64_t>(rng.NextBounded(n));
    benchmark::DoNotOptimize(store.Holds(a, b, false));
  }
}
BENCHMARK(BM_TemporalReachability)->Arg(64)->Arg(512);

void BM_FixStoreSetValue(benchmark::State& state) {
  const workload::GeneratedData& data = LogisticsData();
  const Relation& shipment = data.db.relation(0);
  for (auto _ : state) {
    state.PauseTiming();
    chase::FixStore store(&data.db);
    state.ResumeTiming();
    common::RoleGuard apply(store.apply_role());
    bool changed = false;
    for (size_t row = 0; row < shipment.size(); ++row) {
      benchmark::DoNotOptimize(
          store.SetValue(0, shipment.tuple(row).tid, 3,
                         Value::String("Chaoyang"), "bench", &changed));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(shipment.size()));
}
BENCHMARK(BM_FixStoreSetValue);

/// Console output as usual, plus a capture of every run's per-iteration
/// real time so main() can emit BENCH_micro_perf.json.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double real_seconds_per_iter = 0.0;
    int64_t iterations = 0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      Row row;
      row.name = run.benchmark_name();
      row.iterations = run.iterations;
      if (run.iterations > 0) {
        row.real_seconds_per_iter =
            run.real_accumulated_time / static_cast<double>(run.iterations);
      }
      rows_.push_back(std::move(row));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

}  // namespace
}  // namespace rock

int main(int argc, char** argv) {
  // Strips --serve* flags before google-benchmark sees (and rejects) them.
  rock::bench::ServeGuard serve(&argc, argv);
  rock::bench::BenchTelemetry telemetry("micro_perf");
  rock::Timer total;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  rock::CapturingReporter reporter;
  {
    ROCK_OBS_SPAN("bench.run_all");
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  benchmark::Shutdown();
  // Each microbenchmark becomes a phase (per-iteration real time) and a
  // result (iteration count); slashes in Google Benchmark names (e.g.
  // "BM_Crc32/64") are kept verbatim — JSON keys allow them. The kernels
  // under test sit below the instrumented layers, so the iteration count
  // doubles as this binary's telemetry counter.
  rock::obs::Counter* iterations =
      rock::obs::MetricsRegistry::Global().GetCounter(
          "rock_bench_iterations_total");
  for (const rock::CapturingReporter::Row& row : reporter.rows()) {
    telemetry.AddPhase(row.name, row.real_seconds_per_iter);
    telemetry.AddResult(row.name + "/iterations",
                        static_cast<double>(row.iterations));
    iterations->Add(static_cast<uint64_t>(row.iterations));
  }
  telemetry.AddPhase("total", total.ElapsedSeconds());
  telemetry.Emit();
  return 0;
}

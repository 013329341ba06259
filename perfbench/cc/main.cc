// Rock benchmark runner.
//
//   rock_perfbench --workload <logistics-detect|bank-correct|bank-serve>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--scale <k>] [--spans <path>]
//
// --trace 0 is a measured run: it prints human-readable lines, then one
// JSON line with the end-to-end metrics. --trace 1 is the traced run: it
// records a span around every layer call, prints the per-layer metrics of
// all three layer groups plus the selected workload's set-up, and writes
// the spans to --spans. --scale k divides the data sizes by k (the smoke
// test uses it); measured runs use the full sizes.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: rock_perfbench --workload "
               "<logistics-detect|bank-correct|bank-serve> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale <k>] [--spans <path>]\n",
               message);
  std::exit(2);
}

struct Args {
  Options options;
  std::string spans_path;
};

Args Parse(int argc, char** argv) {
  Args args;
  int scale = 1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("every flag takes a value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.options.workload = value;
    } else if (flag == "--seed") {
      args.options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.options.seconds = std::atof(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      args.options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scale") {
      scale = std::atoi(value);
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  const std::string& w = args.options.workload;
  if (w != "logistics-detect" && w != "bank-correct" && w != "bank-serve") {
    Usage("unknown or missing --workload");
  }
  if (!have_seed || !have_seconds || args.options.seconds <= 0) {
    Usage("--seed and a positive --seconds are required");
  }
  if (scale < 1) Usage("--scale must be at least 1");
  args.options.sizes.logistics_rows /= static_cast<size_t>(scale);
  args.options.sizes.bank_rows /= static_cast<size_t>(scale);
  return args;
}

void TraceSetup(const Options& options, Outcome* out) {
  const AppKind kind = options.workload == "logistics-detect"
                           ? AppKind::kLogistics
                           : AppKind::kBank;
  const size_t rows = kind == AppKind::kLogistics
                          ? options.sizes.logistics_rows
                          : options.sizes.bank_rows;
  SetupTimes warmup;
  SetUpApp(kind, rows, options.seed, &warmup);
  std::vector<SetupTimes> setups;
  for (size_t rep = 0; rep < 2 * kSetupDataSets; ++rep) {
    TimedSetUp(kind, rows, options.seed, &setups);
  }
  out->Add("workload.generate_s", SetupStep(setups, &SetupTimes::generate_s),
           "s");
  out->Add("core.train_models_s", SetupStep(setups, &SetupTimes::train_s),
           "s");
  out->Add("core.discover_polynomials_s",
           SetupStep(setups, &SetupTimes::polynomials_s), "s");
  out->Add("core.activate_rules_s",
           SetupStep(setups, &SetupTimes::activate_s), "s");
  // Only bank-serve's set-up has these steps; the traced run always takes
  // them from a bank-serve set-up so every traced run reports them.
  TraceServeSetup(options, out);
}

// What tracing adds to a run. src/ records no spans, so the only work a
// traced run does beyond an untraced one is recording the benchmark's own
// spans: their count times the cost of one span (measured on a scratch
// recorder), over the rest of the traced run's wall time.
double TraceOverhead(double traced_wall_s) {
  constexpr int kSpans = 20000;
  std::vector<double> span_s;
  for (int rep = 0; rep < 5; ++rep) {
    Tracer scratch;
    scratch.set_enabled(true);
    span_s.push_back(Timed("trace.calibrate", [&] {
                       for (int i = 0; i < kSpans; ++i) {
                         // A heap-allocated name, like most span names.
                         scratch.End(scratch.Begin(
                             std::string("trace.calibrate.span")));
                       }
                     }) /
                     kSpans);
  }
  const double cost = static_cast<double>(Tracer::Global().size()) *
                      Median(std::move(span_s));
  return cost / (traced_wall_s - cost);
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const Options& options = args.options;
  Outcome out;
  if (!options.trace) {
    if (options.workload == "logistics-detect") {
      out = RunLogisticsDetect(options);
    } else if (options.workload == "bank-correct") {
      out = RunBankCorrect(options);
    } else {
      out = RunBankServe(options);
    }
  } else {
    Tracer::Global().set_enabled(true);
    const double traced_start = Now();
    HostProbe host;
    host.Start();
    TraceSetup(options, &out);
    TraceDetectLayers(options, &out);
    TraceCorrectLayers(options, &out);
    TraceServeLayers(options, &out);
    out.Add("trace.overhead_ratio", TraceOverhead(Now() - traced_start),
            "ratio");
    host.Finish();
    out.Add("host.usable_cores", host.usable_cores, "cores");
    out.Add("host.steal_ratio", host.steal_ratio, "ratio");
    Tracer::Global().set_enabled(false);
    if (!args.spans_path.empty()) {
      if (!Tracer::Global().WriteJson(args.spans_path)) {
        std::fprintf(stderr, "cannot write spans to %s\n",
                     args.spans_path.c_str());
        return 1;
      }
      out.Note(Format("spans: %zu written to %s", Tracer::Global().size(),
                      args.spans_path.c_str()));
    }
    for (const Metric& m : out.metrics) {
      out.Note(Format("%-36s %14.6f %s", m.name.c_str(), m.value,
                      m.unit.c_str()));
    }
  }
  for (const std::string& line : out.lines) std::printf("%s\n", line.c_str());
  std::printf("%s\n", ResultJson(out).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

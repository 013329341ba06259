#pragma once

// Measurement plumbing shared by every workload: clocks, order statistics,
// host calibration, peak memory, the in-memory span recorder used by the
// traced run, and the result line the runner prints last.

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall-clock seconds.
double Now();

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double Median(std::vector<double> values);

/// Quantile with linear interpolation between order statistics (q in
/// [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Midhinge: the mean of the lower and upper quartiles (linear
/// interpolation); 0 when empty. The batch ops time with it because host
/// slow phases make their samples bimodal: the median then jumps between
/// the modes as the share of slow samples crosses one half, while the
/// midhinge moves with that share and still ignores the outer quartiles.
double Midhinge(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Host calibration, taken before any timing.
struct HostProbe {
  /// Work rate of two spinning threads over one spinning thread: about 2
  /// when two cores are free, about 1 when the host gives us one.
  double usable_cores = 0;
  /// Share of all CPU time the hypervisor stole between Start() and
  /// Finish(), from /proc/stat (0 when unreadable).
  double steal_ratio = 0;

  void Start();
  void Finish();

 private:
  uint64_t steal_start_ = 0;
  uint64_t total_start_ = 0;
};

/// One span: a timed call into a layer, with the span that caused it.
struct SpanRecord {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  uint64_t thread = 0;
};

/// Spans kept in memory while enabled and written out once at the end.
/// Thread-safe; each thread keeps its own parent chain.
class Tracer {
 public:
  static Tracer& Global();

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span and returns its index (-1 when disabled).
  int Begin(const std::string& name);
  void End(int index);

  size_t size() const;
  /// Writes {"spans": [...]} with times relative to the first span.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Runs `body`, records it as span `name` when tracing is on, and returns
/// its wall time in seconds.
double Timed(const std::string& name, const std::function<void()>& body);

/// RAII span for regions that are not timed individually.
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name)
      : index_(Tracer::Global().Begin(name)) {}
  ~ScopedSpan() { Tracer::Global().End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the op accounting behind `correct`, the metrics
/// of the JSON line, and human-readable lines printed before it.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// A human-readable line; printed, never part of the JSON result.
  void Note(const std::string& line) { lines.push_back(line); }
  /// Counts one op and whether it failed its check.
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double ok_ratio() const {
    return attempted == 0
               ? 0.0
               : static_cast<double>(attempted - failed) /
                     static_cast<double>(attempted);
  }
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const Outcome& outcome);

/// printf into a std::string.
std::string Format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// "name median ms (p25, p75, midhinge, n)" for the human-readable lines.
std::string SampleLine(const std::string& name, const std::vector<double>& ms);

}  // namespace perfbench

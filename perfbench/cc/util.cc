#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Midhinge(const std::vector<double>& values) {
  return (Quantile(values, 0.25) + Quantile(values, 0.75)) / 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

namespace {

// Spins for `seconds` of wall time and returns the loop iterations done.
uint64_t Spin(double seconds) {
  volatile uint64_t sink = 0;
  uint64_t iterations = 0;
  double end = Now() + seconds;
  while (Now() < end) {
    for (int i = 0; i < 1000; ++i) sink = sink * 6364136223846793005ull + 1;
    ++iterations;
  }
  return iterations;
}

// (steal, total) jiffies of the aggregate "cpu" line of /proc/stat.
void ReadCpuJiffies(uint64_t* steal, uint64_t* total) {
  *steal = 0;
  *total = 0;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return;
  // user nice system idle iowait irq softirq steal guest guest_nice;
  // guest time is already counted in user/nice.
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(in >> value)) return;
    *total += value;
    if (field == 7) *steal = value;
  }
}

uint64_t ThreadTag() {
  return std::hash<std::thread::id>()(std::this_thread::get_id());
}

thread_local std::vector<int> span_stack;

}  // namespace

void HostProbe::Start() {
  ReadCpuJiffies(&steal_start_, &total_start_);
  constexpr double kWindow = 0.2;
  uint64_t one = Spin(kWindow);
  std::atomic<uint64_t> two{0};
  std::thread peer([&two] { two += Spin(kWindow); });
  two += Spin(kWindow);
  peer.join();
  usable_cores = one == 0 ? 0.0
                          : static_cast<double>(two.load()) /
                                static_cast<double>(one);
  if (usable_cores < 1.8) {
    std::fprintf(stderr,
                 "warning: only %.2f usable cores measured; the 2-thread "
                 "ops will not run in parallel\n",
                 usable_cores);
  }
}

void HostProbe::Finish() {
  uint64_t steal = 0, total = 0;
  ReadCpuJiffies(&steal, &total);
  if (total > total_start_ && steal >= steal_start_) {
    steal_ratio = static_cast<double>(steal - steal_start_) /
                  static_cast<double>(total - total_start_);
  }
}

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Begin(const std::string& name) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = name;
  span.parent = span_stack.empty() ? -1 : span_stack.back();
  span.thread = ThreadTag();
  int index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int>(spans_.size());
    span.start = Now();
    spans_.push_back(std::move(span));
  }
  span_stack.push_back(index);
  return index;
}

void Tracer::End(int index) {
  if (index < 0) return;
  double end = Now();
  if (!span_stack.empty() && span_stack.back() == index) span_stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end = end;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  double origin = spans_.empty() ? 0 : spans_.front().start;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << Format("  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"parent\": %d, \"thread\": %llu}%s\n",
                  i, s.name.c_str(), s.start - origin, s.end - origin,
                  s.parent, static_cast<unsigned long long>(s.thread % 100000),
                  i + 1 == spans_.size() ? "" : ",");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double Timed(const std::string& name, const std::function<void()>& body) {
  int span = Tracer::Global().Begin(name);
  double start = Now();
  body();
  double seconds = Now() - start;
  Tracer::Global().End(span);
  return seconds;
}

std::string ResultJson(const Outcome& outcome) {
  std::ostringstream out;
  out << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    out << (i == 0 ? "" : ", ")
        << Format("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  m.name.c_str(), m.value, m.unit.c_str());
  }
  out << "}}";
  return out.str();
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(static_cast<size_t>(n > 0 ? n : 0), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

std::string SampleLine(const std::string& name, const std::vector<double>& ms) {
  return Format("%-24s %10.3f ms  (p25 %.3f, p75 %.3f, midhinge %.3f, n=%zu)",
                name.c_str(), Median(ms), Quantile(ms, 0.25),
                Quantile(ms, 0.75), Midhinge(ms), ms.size());
}

}  // namespace perfbench

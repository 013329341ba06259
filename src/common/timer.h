#pragma once

#include <chrono>

namespace rock {

/// Seconds on the monotonic clock since an unspecified epoch: the one clock
/// read for deadlines, uptimes and span timestamps (only differences are
/// meaningful).
inline double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic wall-clock timer used by the benchmark harness and the cost
/// model's calibration path.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace rock


#pragma once

#include <cstdint>
#include <string>

#include "src/common/status.h"

namespace rock::obs {

/// Stall detection thresholds. A span open longer than
/// span_deadline_seconds, or a non-empty pool queue with no unit
/// completing for progress_deadline_seconds, counts as a stall and
/// produces one diagnostic dump per episode.
struct WatchdogOptions {
  double span_deadline_seconds = 30.0;
  double progress_deadline_seconds = 30.0;
  double poll_interval_seconds = 1.0;
  /// Crash-dump path the diagnostic bundle is appended to; "" keeps the
  /// bundle on stderr only.
  std::string dump_path;
};

/// Background stall detector: polls the open-span registry (spans stuck
/// past their deadline) and the pool's progress counters (queued units
/// with nothing completing). On a stall it dumps a diagnostic bundle —
/// open spans with ages, queue depth, executed-unit counters, and the
/// sampling profiler's partial profile when one is running — to stderr
/// and the configured dump path, and bumps
/// rock_obs_watchdog_stalls_total. Detection is per-episode: a stuck span
/// is reported once, not once per poll.
class StallWatchdog {
 public:
  static StallWatchdog& Global();

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  /// Spawns the polling thread. FailedPrecondition if already running.
  Status Start(const WatchdogOptions& options = {});

  /// Joins the polling thread. Safe to call when not running.
  Status Stop();

  bool running() const;

  /// Stall episodes detected since process start (tests and telemetry).
  uint64_t stalls_detected() const;

  /// Renders the diagnostic bundle the watchdog would dump right now.
  /// Public so tests (and crash paths) can exercise it directly.
  std::string BuildDump(const std::string& reason) const;

 private:
  StallWatchdog() = default;
  void Poll();
  void ReportStall(const std::string& reason, const WatchdogOptions& options);

  struct State;
  static State& GetState();
};

}  // namespace rock::obs

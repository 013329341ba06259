#include "src/par/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <queue>
#include <thread>

#include "src/common/logging.h"
#include "src/common/mutex.h"
#include "src/common/timer.h"
#include "src/obs/exporters.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/resource.h"
#include "src/obs/trace.h"

namespace rock::par {
namespace {

/// Pool metrics, registered once and cached (see obs::MetricsRegistry).
struct PoolMetrics {
  obs::Counter* units_executed;
  obs::Counter* units_stolen;
  obs::Counter* busy_micros;
  obs::Counter* idle_micros;
  obs::Counter* wait_micros;
  obs::Gauge* queue_depth;
  obs::Histogram* unit_seconds;
  obs::Histogram* unit_wait_seconds;
  // Fault injection & recovery (DESIGN.md "Fault injection & recovery").
  obs::Counter* faults_injected;
  obs::Counter* unit_retries;
  obs::Counter* backoff_micros;
  obs::Counter* worker_deaths;
  obs::Counter* crashes_suppressed;
  obs::Counter* steals_on_death;
  obs::Counter* units_reassigned;
  /// Outstanding units the pool gave up on; settled back to zero by
  /// WorkerPool::ReplayUnrecovered (the checkpoint-recovery layers).
  obs::Gauge* unrecovered_units;

  static const PoolMetrics& Get() {
    static PoolMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      PoolMetrics out;
      out.units_executed = reg.GetCounter("rock_par_units_executed_total");
      out.units_stolen = reg.GetCounter("rock_par_units_stolen_total");
      out.busy_micros = reg.GetCounter("rock_par_worker_busy_micros_total");
      out.idle_micros = reg.GetCounter("rock_par_worker_idle_micros_total");
      out.wait_micros = reg.GetCounter("rock_par_unit_wait_micros_total");
      out.queue_depth = reg.GetGauge("rock_par_queue_depth");
      out.unit_seconds = reg.GetHistogram("rock_par_unit_seconds",
                                          obs::LatencyBucketsSeconds());
      out.unit_wait_seconds = reg.GetHistogram(
          "rock_par_unit_wait_seconds", obs::LatencyBucketsSeconds());
      out.faults_injected = reg.GetCounter("rock_par_faults_injected_total");
      out.unit_retries = reg.GetCounter("rock_par_unit_retries_total");
      out.backoff_micros = reg.GetCounter("rock_par_backoff_micros_total");
      out.worker_deaths = reg.GetCounter("rock_par_worker_deaths_total");
      out.crashes_suppressed =
          reg.GetCounter("rock_par_crashes_suppressed_total");
      out.steals_on_death = reg.GetCounter("rock_par_steals_on_death_total");
      out.units_reassigned =
          reg.GetCounter("rock_par_units_reassigned_total");
      out.unrecovered_units = reg.GetGauge("rock_faults_unrecovered_units");
      reg.SetHelp("rock_par_units_executed_total",
                  "Work units executed by the pool (all Execute calls)");
      reg.SetHelp("rock_par_units_stolen_total",
                  "Work units taken from a peer's deque");
      reg.SetHelp("rock_par_queue_depth",
                  "Work units enqueued but not yet finished");
      reg.SetHelp("rock_par_unit_seconds",
                  "Per-unit execution latency (CPU seconds when available)");
      reg.SetHelp("rock_par_unit_wait_micros_total",
                  "Total submit-to-dequeue queue wait across units");
      reg.SetHelp("rock_par_unit_wait_seconds",
                  "Per-unit submit-to-dequeue queue wait");
      reg.SetHelp("rock_faults_unrecovered_units",
                  "Abandoned units awaiting replay; 0 after recovery");
      return out;
    }();
    return m;
  }
};

uint64_t Micros(double seconds) {
  return seconds > 0 ? static_cast<uint64_t>(seconds * 1e6) : 0;
}

/// Publishes one Execute call's fault accounting into the registry.
void ExportFaultMetrics(const FaultReport& faults) {
  const PoolMetrics& m = PoolMetrics::Get();
  if (faults.injected > 0) {
    m.faults_injected->Add(static_cast<uint64_t>(faults.injected));
  }
  if (faults.retries > 0) {
    m.unit_retries->Add(static_cast<uint64_t>(faults.retries));
  }
  if (faults.backoff_seconds > 0) {
    m.backoff_micros->Add(Micros(faults.backoff_seconds));
  }
  if (faults.worker_deaths > 0) {
    m.worker_deaths->Add(static_cast<uint64_t>(faults.worker_deaths));
  }
  if (faults.crashes_suppressed > 0) {
    m.crashes_suppressed->Add(
        static_cast<uint64_t>(faults.crashes_suppressed));
  }
  if (faults.steals_on_death > 0) {
    m.steals_on_death->Add(static_cast<uint64_t>(faults.steals_on_death));
  }
  if (faults.units_reassigned > 0) {
    m.units_reassigned->Add(static_cast<uint64_t>(faults.units_reassigned));
  }
  if (!faults.unrecovered_units.empty()) {
    m.unrecovered_units->Add(
        static_cast<int64_t>(faults.unrecovered_units.size()));
  }
}

/// Worker index from a ring node name ("worker-<id>").
int WorkerIdOf(const std::string& node) {
  return std::stoi(node.substr(node.find('-') + 1));
}

/// Hands one Execute call's per-worker wait-vs-run attribution to the
/// global collector /telemetry.json reports from.
void PublishBreakdown(const ScheduleReport& report) {
  static std::atomic<uint64_t> seq{0};
  obs::WorkerBreakdown breakdown;
  breakdown.mode = "threads";
  breakdown.workers = report.num_workers;
  breakdown.wall_seconds = report.wall_seconds;
  breakdown.label = breakdown.mode + "-" +
                    std::to_string(report.num_workers) + "#" +
                    std::to_string(
                        seq.fetch_add(1, std::memory_order_relaxed) + 1);
  breakdown.busy_seconds = report.busy_seconds;
  breakdown.wait_seconds = report.wait_seconds;
  breakdown.idle_seconds = report.idle_seconds;
  obs::ScheduleBreakdowns::Global().Add(std::move(breakdown));
}

}  // namespace

std::string WorkUnit::PlacementKey() const {
  return "u" + std::to_string(rule_index) + ":" + std::to_string(rows.rel) +
         "." + std::to_string(rows.begin);
}

std::vector<WorkUnit> BuildRowUnits(int rule_index, int rel, size_t rows) {
  const size_t slices =
      std::max<size_t>(1, std::min<size_t>(rows, kMaxRowSlices));
  std::vector<WorkUnit> units(slices);
  for (size_t i = 0; i < slices; ++i) {
    units[i].rule_index = rule_index;
    units[i].rows = {rel, static_cast<int>(i * rows / slices),
                     static_cast<int>((i + 1) * rows / slices)};
  }
  return units;
}

WorkerPool::WorkerPool(int num_workers, PoolOptions options)
    : num_workers_(std::max(1, num_workers)), options_(options) {
  ROCK_CHECK(options_.retry.max_attempts >= 1);
  for (int w = 0; w < num_workers_; ++w) {
    Status s = ring_.AddNode("worker-" + std::to_string(w));
    ROCK_CHECK(s.ok());
  }
}

int WorkerPool::LocateLiveWorker(const std::string& key,
                                 const std::vector<char>& alive) const {
  ROCK_CHECK(std::find(alive.begin(), alive.end(), 1) != alive.end())
      << "no live worker to place " << key;
  for (int salt = 0;; ++salt) {
    // Salted probing keeps the re-placement a pure function of the ring and
    // the alive set — identical across runs and in Replay.
    auto owner =
        ring_.Locate(salt == 0 ? key : key + "#" + std::to_string(salt));
    int worker = owner.ok() ? WorkerIdOf(*owner) : 0;
    if (alive[static_cast<size_t>(worker)]) return worker;
  }
}

std::vector<std::vector<size_t>> WorkerPool::PlaceUnits(
    const std::vector<std::string>& keys) const {
  std::vector<std::vector<size_t>> queues(
      static_cast<size_t>(num_workers_));
  for (size_t i = 0; i < keys.size(); ++i) {
    auto owner = ring_.Locate(keys[i]);
    int worker = owner.ok() ? WorkerIdOf(*owner) : 0;
    queues[static_cast<size_t>(worker)].push_back(i);
  }
  return queues;
}

namespace {

/// One worker's deque, guarded by its own mutex. Owners pop the front;
/// thieves pop the back, so a steal and a local pop only collide on the
/// victim's lock, never on the same end of a one-element queue unguarded.
/// The capability annotation makes the discipline compile-time: any access
/// to `queue` without holding `mu` — including the single-threaded seeding
/// before the workers start — fails the Clang thread-safety build.
///
/// `closed` flips (under `mu`, by the owner only) when the owner dies to an
/// injected crash: a closed queue accepts no pushes and yields no pops, so
/// a thief racing the death drain can never extract a unit the drain also
/// re-places. Owners and thieves alike must re-check it after acquiring the
/// lock — sampling a size and popping later spans two critical sections.
struct WorkerQueue {
  common::Mutex mu;
  std::deque<size_t> queue ROCK_GUARDED_BY(mu);
  bool closed ROCK_GUARDED_BY(mu) = false;
};

/// Cross-worker fault state. fault_mu orders death decisions and the
/// subsequent drain re-placement: a worker that holds it while re-placing
/// sees a frozen alive set (any other death blocks on the decision), so no
/// unit is ever pushed to a queue that closes concurrently.
/// Lock order: fault_mu before any WorkerQueue::mu; never the reverse.
struct FaultState {
  common::Mutex mu;
  std::vector<char> alive ROCK_GUARDED_BY(mu);
  int live ROCK_GUARDED_BY(mu) = 0;
  FaultReport faults ROCK_GUARDED_BY(mu);
};

}  // namespace

ScheduleReport WorkerPool::ExecuteThreads(const std::vector<WorkUnit>& units,
                                          const UnitBody& body,
                                          const FaultPlan* plan) const {
  ScheduleReport report;
  report.num_workers = num_workers_;
  report.initial_units.assign(static_cast<size_t>(num_workers_), 0);
  report.executed_units.assign(static_cast<size_t>(num_workers_), 0);

  std::vector<std::string> keys;
  keys.reserve(units.size());
  for (const WorkUnit& unit : units) keys.push_back(unit.PlacementKey());
  std::vector<std::vector<size_t>> placement = PlaceUnits(keys);
  std::vector<WorkerQueue> queues(static_cast<size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    auto& q = queues[static_cast<size_t>(w)];
    common::MutexLock lock(q.mu);  // uncontended: workers not started yet
    q.queue.assign(placement[static_cast<size_t>(w)].begin(),
                   placement[static_cast<size_t>(w)].end());
    report.initial_units[static_cast<size_t>(w)] =
        static_cast<int>(q.queue.size());
  }

  // Written concurrently, but each slot exactly once (a unit runs once, a
  // worker owns its own counters) — no synchronization beyond the joins.
  std::vector<double> durations(units.size(), 0.0);
  std::vector<int> executed(static_cast<size_t>(num_workers_), 0);
  std::vector<int> stolen(static_cast<size_t>(num_workers_), 0);
  std::vector<double> busy(static_cast<size_t>(num_workers_), 0.0);
  std::vector<double> wait(static_cast<size_t>(num_workers_), 0.0);
  // Submit stamp per unit (seconds on the execution's wall timer): 0 for
  // the initial placement, re-stamped when a retry or death drain
  // re-queues the unit. Atomic because the re-stamp (under the queue's
  // lock) and the dequeue read (under a possibly different queue's lock)
  // are not ordered by one mutex.
  std::vector<std::atomic<double>> submitted(units.size());

  const RetryPolicy& retry = options_.retry;
  FaultState fs;
  {
    common::MutexLock lock(fs.mu);  // uncontended: workers not started yet
    fs.alive.assign(static_cast<size_t>(num_workers_), 1);
    fs.live = num_workers_;
  }
  // Units finished (executed or declared unrecovered). With a plan, queues
  // can be transiently empty while a unit sits in a retry backoff or a
  // death drain, so "all queues empty" no longer implies "done" — workers
  // exit on this counter instead.
  std::atomic<size_t> completed{0};
  // 1-based acquisition counter per unit; faults key off this, never off
  // wall-clock or thread identity, which is what makes runs replayable.
  std::vector<std::atomic<int>> attempts(plan != nullptr ? units.size() : 0);
  for (auto& a : attempts) a.store(0, std::memory_order_relaxed);

  const PoolMetrics& metrics = PoolMetrics::Get();
  metrics.queue_depth->Add(static_cast<int64_t>(units.size()));

  // The open "par.execute" span on this (scheduling) thread; worker-side
  // unit spans carry it as their flow source, which is what lets the
  // Chrome trace exporter draw scheduler→worker arrows.
  const uint64_t submit_span = obs::CurrentSpanId();

  // Starts before the workers spawn: submit stamps and dequeue stamps
  // share this clock, so a unit's queue wait is a plain subtraction.
  Timer wall;

  auto worker_main = [&](int me) {
    obs::Tracer::Global().SetThisThreadName("worker-" + std::to_string(me));
    obs::ProfilerRegisterThisThread();
    auto& own = queues[static_cast<size_t>(me)];
    while (true) {
      if (plan != nullptr &&
          completed.load(std::memory_order_acquire) >= units.size()) {
        return;
      }
      size_t unit = 0;
      bool have_unit = false;
      {
        common::MutexLock lock(own.mu);
        if (!own.queue.empty()) {
          unit = own.queue.front();
          own.queue.pop_front();
          have_unit = true;
        }
      }
      if (!have_unit) {
        // Steal from the most loaded peer. Sizes are sampled under each
        // peer's lock; the re-check under the victim's lock keeps the pop
        // correct when the queue drained — or its owner died — in between.
        int victim = -1;
        size_t best = 0;
        for (int w = 0; w < num_workers_; ++w) {
          if (w == me) continue;
          common::MutexLock lock(queues[static_cast<size_t>(w)].mu);
          if (queues[static_cast<size_t>(w)].closed) continue;
          size_t size = queues[static_cast<size_t>(w)].queue.size();
          if (size > best) {
            best = size;
            victim = w;
          }
        }
        if (victim < 0) {
          if (plan == nullptr) {
            // Every queue is empty. Units never spawn new units, so no
            // work can reappear: the worker is done.
            return;
          }
          // Under a plan, work can reappear (retry requeue, death drain):
          // idle until the completion counter says everything finished.
          if (completed.load(std::memory_order_acquire) >= units.size()) {
            return;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          continue;
        }
        auto& vq = queues[static_cast<size_t>(victim)];
        {
          common::MutexLock lock(vq.mu);
          // Re-check under the lock: the sample above is stale, and a
          // victim picked as most-loaded may have drained — or died and
          // closed its queue — before this second acquisition.
          if (vq.closed || vq.queue.empty()) continue;
          unit = vq.queue.back();
          vq.queue.pop_back();
        }
        stolen[static_cast<size_t>(me)]++;
        metrics.units_stolen->Add(1);
      }
      // Dequeue stamp: how long the unit sat runnable before this worker
      // picked it up (wait attribution; run time is measured below).
      {
        double waited = wall.ElapsedSeconds() -
                        submitted[unit].load(std::memory_order_relaxed);
        if (waited < 0.0) waited = 0.0;
        wait[static_cast<size_t>(me)] += waited;
        metrics.unit_wait_seconds->Observe(waited);
        metrics.wait_micros->Add(Micros(waited));
      }
      if (plan != nullptr) {
        int attempt = attempts[unit].fetch_add(
                          1, std::memory_order_relaxed) + 1;
        auto crash = plan->crash_at_attempt.find(unit);
        if (crash != plan->crash_at_attempt.end() &&
            crash->second == attempt) {
          bool died = false;
          {
            common::MutexLock lock(fs.mu);
            if (fs.live > 1) {
              fs.alive[static_cast<size_t>(me)] = 0;
              --fs.live;
              fs.faults.injected++;
              fs.faults.worker_deaths++;
              died = true;
            } else {
              // Killing the last live worker would strand every remaining
              // unit; the crash is suppressed and the unit just runs.
              fs.faults.crashes_suppressed++;
            }
          }
          if (died) {
            // Graceful degradation: close the deque so thieves back off,
            // then drain it (plus the unit in hand) to survivors chosen by
            // salted ring placement. fault_mu freezes the alive set while
            // units are pushed, so no target can close concurrently.
            std::vector<size_t> drained;
            {
              common::MutexLock lock(own.mu);
              own.closed = true;
              drained.assign(own.queue.begin(), own.queue.end());
              own.queue.clear();
            }
            common::MutexLock flock(fs.mu);
            drained.insert(drained.begin(), unit);
            for (size_t u : drained) {
              int target = LocateLiveWorker(keys[u], fs.alive);
              auto& tq = queues[static_cast<size_t>(target)];
              common::MutexLock lock(tq.mu);
              submitted[u].store(wall.ElapsedSeconds(),
                                 std::memory_order_relaxed);
              tq.queue.push_back(u);
              fs.faults.units_reassigned++;
              if (u != unit) fs.faults.steals_on_death++;
            }
            return;  // this worker is dead
          }
        }
        auto flaky = plan->transient_failures.find(unit);
        if (flaky != plan->transient_failures.end() &&
            attempt <= flaky->second) {
          if (attempt >= retry.max_attempts) {
            // Attempt budget exhausted: hand the unit to the caller's
            // recovery layer instead of looping forever.
            {
              common::MutexLock lock(fs.mu);
              fs.faults.injected++;
              fs.faults.unrecovered_units.push_back(unit);
            }
            metrics.queue_depth->Add(-1);
            completed.fetch_add(1, std::memory_order_release);
            continue;
          }
          double backoff = retry.BackoffSeconds(attempt);
          {
            common::MutexLock lock(fs.mu);
            fs.faults.injected++;
            fs.faults.retries++;
            fs.faults.backoff_seconds += backoff;
          }
          std::this_thread::sleep_for(
              std::chrono::duration<double>(backoff));
          common::MutexLock lock(own.mu);
          // Runnable again only now: the deliberate backoff sleep is not
          // queue wait.
          submitted[unit].store(wall.ElapsedSeconds(),
                                std::memory_order_relaxed);
          own.queue.push_back(unit);
          continue;
        }
        auto delay = plan->delay_seconds.find(unit);
        if (delay != plan->delay_seconds.end()) {
          // Straggler: stall the (unique) executing attempt. Injected
          // before the body so side effects still happen exactly once.
          {
            common::MutexLock lock(fs.mu);
            fs.faults.injected++;
          }
          std::this_thread::sleep_for(
              std::chrono::duration<double>(delay->second));
        }
      }
      // Per-thread CPU time: with more workers than cores, wall-clock per
      // unit inflates by the oversubscription factor, which would corrupt
      // serial_seconds and the replayed makespan. Wall-clock is the
      // fallback when the CPU clock cannot be read.
      Timer timer;
      double cpu_start = obs::ThreadCpuSeconds();
      {
        ROCK_OBS_SPAN_FLOW("par.unit", submit_span);
        body(units[unit], unit, me);
      }
      double cpu_end = obs::ThreadCpuSeconds();
      durations[unit] = (cpu_start >= 0.0 && cpu_end >= 0.0)
                            ? cpu_end - cpu_start
                            : timer.ElapsedSeconds();
      executed[static_cast<size_t>(me)]++;
      busy[static_cast<size_t>(me)] += durations[unit];
      metrics.units_executed->Add(1);
      metrics.unit_seconds->Observe(durations[unit]);
      metrics.queue_depth->Add(-1);
      completed.fetch_add(1, std::memory_order_release);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    threads.emplace_back(worker_main, w);
  }
  for (std::thread& t : threads) t.join();
  report.wall_seconds = wall.ElapsedSeconds();

  report.busy_seconds.assign(static_cast<size_t>(num_workers_), 0.0);
  report.wait_seconds.assign(static_cast<size_t>(num_workers_), 0.0);
  report.idle_seconds.assign(static_cast<size_t>(num_workers_), 0.0);
  for (int w = 0; w < num_workers_; ++w) {
    report.executed_units[static_cast<size_t>(w)] =
        executed[static_cast<size_t>(w)];
    report.stolen_units += stolen[static_cast<size_t>(w)];
    report.busy_seconds[static_cast<size_t>(w)] =
        busy[static_cast<size_t>(w)];
    report.wait_seconds[static_cast<size_t>(w)] =
        wait[static_cast<size_t>(w)];
    // Clamped: per-thread CPU clocks can nominally exceed a short wall
    // interval, and a negative idle would poison downstream sums.
    double idle = ClampedIdleSeconds(report.wall_seconds,
                                     busy[static_cast<size_t>(w)]);
    report.idle_seconds[static_cast<size_t>(w)] = idle;
    metrics.busy_micros->Add(Micros(busy[static_cast<size_t>(w)]));
    metrics.idle_micros->Add(Micros(idle));
  }
  for (double d : durations) report.serial_seconds += d;
  report.unit_seconds = std::move(durations);
  report.placement_keys = std::move(keys);

  {
    common::MutexLock lock(fs.mu);  // uncontended: workers joined
    report.faults = fs.faults;
  }
  std::sort(report.faults.unrecovered_units.begin(),
            report.faults.unrecovered_units.end());
  ExportFaultMetrics(report.faults);

  // The modeled makespan from the same durations, so benches can compare
  // the model against the measured wall-clock.
  report.makespan_seconds = ReplayUnder(report, plan).makespan_seconds;
  return report;
}

ScheduleReport WorkerPool::Replay(const ScheduleReport& measured) const {
  return ReplayUnder(measured, options_.fault_plan);
}

/// Event-driven replay of the placement + work-stealing schedule from
/// per-unit durations: when a worker's queue drains it steals the tail of
/// the longest remaining queue (paper §5.2: "when a node finishes its
/// assigned work units, it evokes the work manager to fetch work units from
/// other nodes").
///
/// With a FaultPlan, the same fault pipeline as ExecuteThreads runs in
/// virtual time: a crash kills the acquiring virtual worker and drains its
/// queue via LocateLiveWorker, a straggler stretches the executing attempt,
/// and a transient failure costs one backoff and a requeue (or exhausts the
/// attempt budget). Because faults are keyed by (unit, attempt number),
/// never by time, the resulting FaultReport matches the threaded run.
ScheduleReport WorkerPool::ReplayUnder(const ScheduleReport& measured,
                                       const FaultPlan* plan) const {
  const std::vector<double>& durations = measured.unit_seconds;
  const std::vector<std::string>& keys = measured.placement_keys;
  ROCK_CHECK(keys.size() == durations.size())
      << "replay needs one placement key per unit duration";
  const RetryPolicy& retry = options_.retry;
  const size_t workers = static_cast<size_t>(num_workers_);
  ScheduleReport result;
  result.num_workers = num_workers_;
  result.serial_seconds = measured.serial_seconds;
  result.wall_seconds = measured.wall_seconds;
  result.initial_units.assign(workers, 0);
  result.executed_units.assign(workers, 0);
  // Virtual-time per-worker attribution: busy sums service time, wait
  // sums each acquired unit's submit→dequeue queue wait.
  result.busy_seconds.assign(workers, 0.0);
  result.wait_seconds.assign(workers, 0.0);
  // Virtual time each unit last became runnable: 0 at initial placement,
  // updated when a retry or a death drain re-queues it.
  std::vector<double> submitted(durations.size(), 0.0);
  std::vector<std::deque<size_t>> queues(workers);
  std::vector<std::vector<size_t>> placement = PlaceUnits(keys);
  for (size_t w = 0; w < workers; ++w) {
    queues[w].assign(placement[w].begin(), placement[w].end());
    result.initial_units[w] = static_cast<int>(placement[w].size());
  }
  size_t remaining = durations.size();

  std::vector<int> attempts(durations.size(), 0);
  std::vector<char> alive(workers, 1);
  int live = num_workers_;

  std::vector<double> clock(workers, 0.0);
  using Event = std::pair<double, int>;  // (time ready, worker)
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> ready;
  for (int w = 0; w < num_workers_; ++w) ready.emplace(0.0, w);

  while (remaining > 0 && !ready.empty()) {
    auto [now, worker] = ready.top();
    ready.pop();
    const size_t me = static_cast<size_t>(worker);
    if (!alive[me]) continue;
    auto& queue = queues[me];
    if (queue.empty()) {
      // Steal from the worker with the most queued units. Dead workers'
      // queues drained at death, so they are never chosen.
      size_t victim = workers;
      size_t best = 0;
      for (size_t w = 0; w < workers; ++w) {
        if (w != me && queues[w].size() > best) {
          best = queues[w].size();
          victim = w;
        }
      }
      if (victim == workers) continue;  // nothing left anywhere
      queue.push_back(queues[victim].back());
      queues[victim].pop_back();
      ++result.stolen_units;
    }
    size_t unit = queue.front();
    queue.pop_front();
    if (now > submitted[unit]) {
      result.wait_seconds[me] += now - submitted[unit];
    }
    double service = durations[unit];
    if (plan != nullptr) {
      int attempt = ++attempts[unit];
      auto crash = plan->crash_at_attempt.find(unit);
      if (crash != plan->crash_at_attempt.end() &&
          crash->second == attempt) {
        if (live > 1) {
          alive[me] = 0;
          --live;
          result.faults.injected++;
          result.faults.worker_deaths++;
          // The acquired unit and the remaining deque drain to survivors.
          std::vector<size_t> drained(queue.begin(), queue.end());
          queue.clear();
          drained.insert(drained.begin(), unit);
          for (size_t u : drained) {
            queues[static_cast<size_t>(LocateLiveWorker(keys[u], alive))]
                .push_back(u);
            submitted[u] = now;
            result.faults.units_reassigned++;
            if (u != unit) result.faults.steals_on_death++;
          }
          continue;  // the dead worker schedules no further events
        }
        result.faults.crashes_suppressed++;
      }
      auto flaky = plan->transient_failures.find(unit);
      if (flaky != plan->transient_failures.end() &&
          attempt <= flaky->second) {
        result.faults.injected++;
        if (attempt >= retry.max_attempts) {
          // Budget exhausted: the unit is abandoned, never executed.
          result.faults.unrecovered_units.push_back(unit);
          --remaining;
          ready.emplace(now, worker);
          continue;
        }
        double backoff = retry.BackoffSeconds(attempt);
        result.faults.retries++;
        result.faults.backoff_seconds += backoff;
        queue.push_back(unit);
        // Runnable again once the worker's backoff expires: the deliberate
        // backoff sleep is not queue wait.
        submitted[unit] = now + backoff;
        clock[me] = now + backoff;
        ready.emplace(now + backoff, worker);
        continue;
      }
      auto delay = plan->delay_seconds.find(unit);
      if (delay != plan->delay_seconds.end()) {
        // Straggler: stalls the (unique) executing attempt.
        result.faults.injected++;
        service += delay->second;
      }
    }
    double finish = now + service;
    clock[me] = finish;
    result.executed_units[me]++;
    result.busy_seconds[me] += service;
    --remaining;
    ready.emplace(finish, worker);
  }
  std::sort(result.faults.unrecovered_units.begin(),
            result.faults.unrecovered_units.end());
  double makespan = *std::max_element(clock.begin(), clock.end());
  result.makespan_seconds = makespan > 0.0 ? makespan : result.serial_seconds;
  result.idle_seconds.assign(workers, 0.0);
  for (size_t w = 0; w < workers; ++w) {
    result.idle_seconds[w] =
        ClampedIdleSeconds(result.makespan_seconds, result.busy_seconds[w]);
  }
  return result;
}
size_t WorkerPool::ReplayUnrecovered(const std::vector<WorkUnit>& units,
                                     ScheduleReport* report,
                                     const UnitBody& body) {
  size_t replayed = 0;
  for (size_t unit : report->faults.unrecovered_units) {
    ROCK_CHECK(unit < units.size());
    body(units[unit], unit, /*worker=*/0);
    ++replayed;
  }
  if (replayed > 0) {
    // Settle the outstanding-unrecovered gauge: every abandoned unit has
    // now run, so a bench emitting after recovery reports zero.
    PoolMetrics::Get().unrecovered_units->Add(
        -static_cast<int64_t>(replayed));
    report->faults.unrecovered_units.clear();
  }
  return replayed;
}

ScheduleReport WorkerPool::Execute(const std::vector<WorkUnit>& units,
                                   const UnitBody& body) const {
  ROCK_OBS_SPAN("par.execute");
  // Environment fallback (ROCK_FAULT_PLAN / ROCK_FAULT_SEED): lets CI's
  // fault-matrix and ad-hoc debugging inject schedules into any parallel
  // execution without touching call sites. An explicitly configured plan
  // always wins; the env plan is re-derived per Execute because it is
  // sized to this call's unit count.
  std::optional<FaultPlan> env_plan;
  if (options_.fault_plan == nullptr) {
    env_plan = FaultPlan::FromEnv(units.size(), num_workers_);
  }
  ScheduleReport report = ExecuteThreads(
      units, body, env_plan.has_value() ? &*env_plan : options_.fault_plan);
  PublishBreakdown(report);
  return report;
}

ScheduleReport WorkerPool::Execute(
    const std::vector<WorkUnit>& units,
    const std::function<void(const WorkUnit&)>& body) const {
  return Execute(units,
                 [&body](const WorkUnit& unit, size_t, int) { body(unit); });
}

}  // namespace rock::par

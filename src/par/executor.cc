#include "src/par/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <optional>
#include <queue>
#include <thread>

#include "src/common/logging.h"
#include "src/common/mutex.h"
#include "src/common/strings.h"
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
size_t WorkerIdOf(const std::string& node) {
  return static_cast<size_t>(std::stoi(node.substr(node.find('-') + 1)));
}

/// Hands one Execute call's per-worker wait-vs-run attribution to the
/// global collector /telemetry.json reports from.
void PublishBreakdown(const ScheduleReport& report) {
  static std::atomic<uint64_t> seq{0};
  obs::WorkerBreakdown breakdown;
  breakdown.mode = "threads";
  breakdown.workers = report.num_workers;
  breakdown.wall_seconds = report.wall_seconds;
  breakdown.label = StrFormat(
      "%s-%d#%llu", breakdown.mode.c_str(), report.num_workers,
      static_cast<unsigned long long>(
          seq.fetch_add(1, std::memory_order_relaxed) + 1));
  breakdown.busy_seconds = report.busy_seconds;
  breakdown.wait_seconds = report.wait_seconds;
  breakdown.idle_seconds = report.idle_seconds;
  obs::ScheduleBreakdowns::Global().Add(std::move(breakdown));
}

const FaultPlan& NoFaults() {
  static const FaultPlan none;
  return none;
}

/// The pool's one scheduling policy (paper §5.2) as a deterministic state
/// machine over a caller's clock. It owns the ring placement, one deque per
/// worker (the owner pops the front, a thief the back), the alive set,
/// every unit's attempt count and submit stamp, the unit each worker holds
/// through a retry backoff, and the schedule accounting. Execute steps it
/// from worker threads under one mutex on the wall clock; Replay steps it
/// from an event loop on virtual time. Faults key off (unit, attempt
/// number), never off the clock or thread identity, so a plan injects the
/// same fault events under both drivers.
class Schedule {
 public:
  enum class Action {
    kRun,        // run `unit`, stalled first by `seconds` (a straggler)
    kBackoff,    // `unit` failed: hold it `seconds`, then step again
    kAbandoned,  // `unit` exhausted its attempt budget
    kDied,       // the worker crashed; its units moved to survivors
    kWait,       // nothing runnable until a held unit is re-queued
    kDone,       // nothing left to hand out: the worker leaves
  };
  struct Step {
    Action action = Action::kDone;
    size_t unit = 0;
    double seconds = 0.0;
    /// Queue wait of the unit this step acquired, and whether it was
    /// stolen (zero and false for kWait and kDone).
    double waited = 0.0;
    bool stolen = false;
  };

  Schedule(const crystal::HashRing& ring, int num_workers,
           const std::vector<std::string>& keys, const FaultPlan* plan,
           const RetryPolicy& retry)
      : ring_(ring),
        keys_(keys),
        plan_(plan != nullptr ? *plan : NoFaults()),
        retry_(retry),
        queues_(static_cast<size_t>(num_workers)),
        alive_(static_cast<size_t>(num_workers), 1),
        live_(num_workers),
        attempts_(keys.size(), 0),
        submitted_(keys.size(), 0.0),
        held_(static_cast<size_t>(num_workers)) {
    report_.num_workers = num_workers;
    report_.initial_units.assign(queues_.size(), 0);
    report_.executed_units.assign(queues_.size(), 0);
    report_.wait_seconds.assign(queues_.size(), 0.0);
    for (size_t unit = 0; unit < keys.size(); ++unit) {
      auto owner = ring_.Locate(keys[unit]);
      const size_t worker = owner.ok() ? WorkerIdOf(*owner) : 0;
      queues_[worker].push_back(unit);
      report_.initial_units[worker]++;
    }
  }

  /// One step of `worker` at time `now`: re-queue the unit it held through
  /// a backoff, take its own front or else steal the back of the most
  /// loaded peer, record the queue wait, and apply the fault plan to the
  /// acquired attempt.
  Step Next(int worker, double now) {
    const size_t me = static_cast<size_t>(worker);
    std::deque<size_t>& own = queues_[me];
    if (held_[me].has_value()) {
      // The backoff is over: the unit is runnable again at the back of
      // its holder's queue. The sleep was deliberate, not queue wait.
      own.push_back(*held_[me]);
      submitted_[*held_[me]] = now;
      held_[me].reset();
    }
    Step step;
    if (own.empty()) {
      // A dead worker's deque drained at its death, so it is never the
      // victim.
      size_t victim = me;
      size_t best = 0;
      for (size_t w = 0; w < queues_.size(); ++w) {
        if (w != me && queues_[w].size() > best) {
          best = queues_[w].size();
          victim = w;
        }
      }
      if (victim == me) {
        // Units never spawn units, so only a held unit can reappear; no
        // worker leaves while one is outstanding.
        const bool holding =
            std::any_of(held_.begin(), held_.end(),
                        [](const std::optional<size_t>& u) {
                          return u.has_value();
                        });
        step.action = holding ? Action::kWait : Action::kDone;
        return step;
      }
      own.push_back(queues_[victim].back());
      queues_[victim].pop_back();
      ++report_.stolen_units;
      step.stolen = true;
    }
    step.unit = own.front();
    own.pop_front();
    step.waited = std::max(0.0, now - submitted_[step.unit]);
    report_.wait_seconds[me] += step.waited;
    FaultReport& faults = report_.faults;

    const int attempt = ++attempts_[step.unit];
    auto crash = plan_.crash_at_attempt.find(step.unit);
    if (crash != plan_.crash_at_attempt.end() && crash->second == attempt) {
      if (live_ == 1) {
        // Killing the last live worker would strand every remaining unit;
        // the crash is suppressed and the unit just runs.
        faults.crashes_suppressed++;
      } else {
        alive_[me] = 0;
        --live_;
        faults.injected++;
        faults.worker_deaths++;
        // Graceful degradation: the unit in hand and the rest of the
        // deque move to survivors chosen by salted ring placement.
        std::vector<size_t> drained(own.begin(), own.end());
        own.clear();
        drained.insert(drained.begin(), step.unit);
        for (size_t u : drained) {
          queues_[LocateLiveWorker(keys_[u])].push_back(u);
          submitted_[u] = now;
          faults.units_reassigned++;
          if (u != step.unit) faults.steals_on_death++;
        }
        step.action = Action::kDied;
        return step;
      }
    }
    auto flaky = plan_.transient_failures.find(step.unit);
    if (flaky != plan_.transient_failures.end() && attempt <= flaky->second) {
      faults.injected++;
      if (attempt >= retry_.max_attempts) {
        // Attempt budget exhausted: the caller's recovery layer runs the
        // unit instead of the pool looping forever.
        faults.unrecovered_units.push_back(step.unit);
        step.action = Action::kAbandoned;
        return step;
      }
      step.seconds = retry_.BackoffSeconds(attempt);
      faults.retries++;
      faults.backoff_seconds += step.seconds;
      held_[me] = step.unit;
      step.action = Action::kBackoff;
      return step;
    }
    auto delay = plan_.delay_seconds.find(step.unit);
    if (delay != plan_.delay_seconds.end()) {
      // Straggler: stalls the (unique) executing attempt, before the body,
      // so side effects still happen exactly once.
      faults.injected++;
      step.seconds = delay->second;
    }
    report_.executed_units[me]++;
    step.action = Action::kRun;
    return step;
  }

  /// The accounting: placement, executed and stolen units, queue waits and
  /// faults (unrecovered units sorted). The driver fills the rest.
  ScheduleReport TakeReport() {
    std::sort(report_.faults.unrecovered_units.begin(),
              report_.faults.unrecovered_units.end());
    return std::move(report_);
  }

 private:
  /// Ring placement restricted to live workers: the key is probed with
  /// increasing salts until it lands on a live worker, so re-placement is
  /// a pure function of the ring and the alive set.
  size_t LocateLiveWorker(const std::string& key) const {
    for (int salt = 0;; ++salt) {
      auto owner = ring_.Locate(
          salt == 0 ? key : StrFormat("%s#%d", key.c_str(), salt));
      const size_t worker = owner.ok() ? WorkerIdOf(*owner) : 0;
      if (alive_[worker]) return worker;
    }
  }

  const crystal::HashRing& ring_;
  const std::vector<std::string>& keys_;
  const FaultPlan& plan_;
  const RetryPolicy& retry_;
  std::vector<std::deque<size_t>> queues_;
  std::vector<char> alive_;
  int live_;
  /// 1-based acquisition count per unit: faults key off it.
  std::vector<int> attempts_;
  /// When each unit last became runnable: 0 at placement, re-stamped when
  /// a backoff ends or a death drain re-places it.
  std::vector<double> submitted_;
  /// The unit each worker holds through its backoff.
  std::vector<std::optional<size_t>> held_;
  ScheduleReport report_;
};

}  // namespace

std::string WorkUnit::PlacementKey() const {
  return StrFormat("u%d:%d.%d", rule_index, rows.rel, rows.begin);
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
    Status s = ring_.AddNode(StrFormat("worker-%d", w));
    ROCK_CHECK(s.ok());
  }
}

ScheduleReport WorkerPool::ExecuteThreads(const std::vector<WorkUnit>& units,
                                          const UnitBody& body,
                                          const FaultPlan* plan) const {
  std::vector<std::string> keys;
  keys.reserve(units.size());
  for (const WorkUnit& unit : units) keys.push_back(unit.PlacementKey());
  // Every scheduling step runs under this one lock; bodies, backoffs and
  // straggler stalls run outside it.
  struct Shared {
    common::Mutex mu;
    Schedule schedule ROCK_GUARDED_BY(mu);
  } shared{{}, Schedule(ring_, num_workers_, keys, plan, options_.retry)};

  // Written concurrently, but each slot by one thread: a unit runs once,
  // and only worker w adds to busy[w].
  std::vector<double> durations(units.size(), 0.0);
  std::vector<double> busy(static_cast<size_t>(num_workers_), 0.0);

  const PoolMetrics& metrics = PoolMetrics::Get();
  metrics.queue_depth->Add(static_cast<int64_t>(units.size()));

  // The open "par.execute" span on this (scheduling) thread; worker-side
  // unit spans carry it as their flow source, which is what lets the
  // Chrome trace exporter draw scheduler→worker arrows.
  const uint64_t submit_span = obs::CurrentSpanId();

  // The schedule's clock: submit and dequeue stamps are read under the
  // lock, so a unit's queue wait is a plain subtraction.
  Timer wall;

  auto worker_main = [&](int me) {
    obs::Tracer::Global().SetThisThreadName(StrFormat("worker-%d", me));
    obs::CpuProfiler::Global().RegisterThisThread();
    while (true) {
      Schedule::Step step;
      {
        common::MutexLock lock(shared.mu);
        step = shared.schedule.Next(me, wall.ElapsedSeconds());
      }
      if (step.action == Schedule::Action::kDone) return;
      if (step.action == Schedule::Action::kWait) {
        // A peer holds a unit through its backoff; poll until it is back.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      if (step.stolen) metrics.units_stolen->Add(1);
      metrics.unit_wait_seconds->Observe(step.waited);
      metrics.wait_micros->Add(Micros(step.waited));
      if (step.action == Schedule::Action::kDied) return;
      if (step.action == Schedule::Action::kAbandoned) {
        metrics.queue_depth->Add(-1);
        continue;
      }
      // A backoff or a straggler stall: slept before any CPU timing.
      if (step.seconds > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(step.seconds));
      }
      if (step.action == Schedule::Action::kBackoff) continue;
      // Per-thread CPU time: with more workers than cores, wall-clock per
      // unit inflates by the oversubscription factor, which would corrupt
      // serial_seconds and the replayed makespan. Wall-clock is the
      // fallback when the CPU clock cannot be read.
      Timer timer;
      double cpu_start = obs::ThreadCpuSeconds();
      {
        ROCK_OBS_SPAN_FLOW("par.unit", submit_span);
        body(units[step.unit], step.unit, me);
      }
      double cpu_end = obs::ThreadCpuSeconds();
      const double duration = (cpu_start >= 0.0 && cpu_end >= 0.0)
                                  ? cpu_end - cpu_start
                                  : timer.ElapsedSeconds();
      durations[step.unit] = duration;
      busy[static_cast<size_t>(me)] += duration;
      metrics.units_executed->Add(1);
      metrics.unit_seconds->Observe(duration);
      metrics.queue_depth->Add(-1);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    threads.emplace_back(worker_main, w);
  }
  for (std::thread& t : threads) t.join();
  const double wall_seconds = wall.ElapsedSeconds();

  ScheduleReport report;
  {
    common::MutexLock lock(shared.mu);  // uncontended: workers joined
    report = shared.schedule.TakeReport();
  }
  report.wall_seconds = wall_seconds;
  report.idle_seconds.assign(busy.size(), 0.0);
  for (size_t w = 0; w < busy.size(); ++w) {
    // Clamped: per-thread CPU clocks can nominally exceed a short wall
    // interval, and a negative idle would poison downstream sums.
    report.idle_seconds[w] = ClampedIdleSeconds(wall_seconds, busy[w]);
    metrics.busy_micros->Add(Micros(busy[w]));
    metrics.idle_micros->Add(Micros(report.idle_seconds[w]));
  }
  report.busy_seconds = std::move(busy);
  for (double d : durations) report.serial_seconds += d;
  report.unit_seconds = std::move(durations);
  report.placement_keys = std::move(keys);
  ExportFaultMetrics(report.faults);

  // The modeled makespan from the same durations, so benches can compare
  // the model against the measured wall-clock.
  report.makespan_seconds = ReplayUnder(report, plan).makespan_seconds;
  return report;
}

ScheduleReport WorkerPool::Replay(const ScheduleReport& measured) const {
  return ReplayUnder(measured, options_.fault_plan);
}

/// The same Schedule as ExecuteThreads, stepped by an event loop over
/// virtual time: a worker is ready again when its unit's measured duration
/// (plus any straggler stall) or its backoff has elapsed, and a worker told
/// to wait is parked until the next step that is not a wait.
ScheduleReport WorkerPool::ReplayUnder(const ScheduleReport& measured,
                                       const FaultPlan* plan) const {
  const std::vector<double>& durations = measured.unit_seconds;
  ROCK_CHECK(measured.placement_keys.size() == durations.size())
      << "replay needs one placement key per unit duration";
  Schedule schedule(ring_, num_workers_, measured.placement_keys, plan,
                    options_.retry);
  std::vector<double> busy(static_cast<size_t>(num_workers_), 0.0);
  double makespan = 0.0;

  using Event = std::pair<double, int>;  // (time ready, worker)
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> ready;
  for (int w = 0; w < num_workers_; ++w) ready.emplace(0.0, w);
  std::vector<int> parked;
  while (!ready.empty()) {
    auto [now, worker] = ready.top();
    ready.pop();
    Schedule::Step step = schedule.Next(worker, now);
    if (step.action == Schedule::Action::kWait) {
      parked.push_back(worker);
      continue;
    }
    // This step may have re-queued or drained units, or ended the
    // schedule: the parked workers step again now.
    for (int w : parked) ready.emplace(now, w);
    parked.clear();
    if (step.action == Schedule::Action::kDied ||
        step.action == Schedule::Action::kDone) {
      continue;  // the worker schedules no further events
    }
    // A run holds the worker for its service time, a backoff for the
    // backoff; an abandon takes no time.
    double service = step.seconds;
    if (step.action == Schedule::Action::kRun) {
      service += durations[step.unit];
      busy[static_cast<size_t>(worker)] += service;
    }
    ready.emplace(now + service, worker);
    makespan = std::max(makespan, now + service);
  }

  ScheduleReport result = schedule.TakeReport();
  result.serial_seconds = measured.serial_seconds;
  result.wall_seconds = measured.wall_seconds;
  result.makespan_seconds = makespan > 0.0 ? makespan : result.serial_seconds;
  result.idle_seconds.assign(busy.size(), 0.0);
  for (size_t w = 0; w < busy.size(); ++w) {
    result.idle_seconds[w] =
        ClampedIdleSeconds(result.makespan_seconds, busy[w]);
  }
  result.busy_seconds = std::move(busy);
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

}  // namespace rock::par

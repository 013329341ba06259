#include "src/par/fault.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/strings.h"

namespace rock::par {

double RetryPolicy::BackoffSeconds(int attempt) const {
  double backoff = backoff_base_seconds;
  for (int i = 1; i < attempt && backoff < backoff_cap_seconds; ++i) {
    backoff *= 2.0;
  }
  return std::min(backoff, backoff_cap_seconds);
}

bool FaultPlan::Unrecoverable(size_t unit, const RetryPolicy& retry) const {
  auto it = transient_failures.find(unit);
  return it != transient_failures.end() && it->second >= retry.max_attempts;
}

std::string FaultPlan::ToSpec() const {
  std::string spec;
  auto sep = [&] {
    if (!spec.empty()) spec += ";";
  };
  for (const auto& [unit, attempt] : crash_at_attempt) {
    sep();
    spec += StrFormat("crash:%zu@%d", unit, attempt);
  }
  for (const auto& [unit, seconds] : delay_seconds) {
    sep();
    // Microsecond resolution keeps the spec short and round-trippable.
    spec += StrFormat("delay:%zu=%lldus", unit,
                      static_cast<long long>(seconds * 1e6));
  }
  for (const auto& [unit, failures] : transient_failures) {
    sep();
    spec += StrFormat("flaky:%zux%d", unit, failures);
  }
  return spec;
}

namespace {

Status ParseEntry(const std::string& entry, FaultPlan* plan) {
  size_t colon = entry.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("fault entry lacks ':': " + entry);
  }
  std::string kind = entry.substr(0, colon);
  std::string body = entry.substr(colon + 1);
  auto parse_number = [&](const std::string& text, int64_t* out) {
    char* end = nullptr;
    *out = std::strtoll(text.c_str(), &end, 10);
    return end != text.c_str();
  };
  if (kind == "crash") {
    size_t at = body.find('@');
    if (at == std::string::npos) {
      return Status::InvalidArgument("crash entry lacks '@': " + entry);
    }
    int64_t unit = 0, attempt = 0;
    if (!parse_number(body.substr(0, at), &unit) ||
        !parse_number(body.substr(at + 1), &attempt) || unit < 0 ||
        attempt < 1) {
      return Status::InvalidArgument("bad crash entry: " + entry);
    }
    plan->crash_at_attempt[static_cast<size_t>(unit)] =
        static_cast<int>(attempt);
    return Status::Ok();
  }
  if (kind == "delay") {
    size_t eq = body.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("delay entry lacks '=': " + entry);
    }
    std::string amount = body.substr(eq + 1);
    if (amount.size() < 2 || amount.substr(amount.size() - 2) != "us") {
      return Status::InvalidArgument("delay amount must end in 'us': " +
                                     entry);
    }
    int64_t unit = 0, micros = 0;
    if (!parse_number(body.substr(0, eq), &unit) ||
        !parse_number(amount.substr(0, amount.size() - 2), &micros) ||
        unit < 0 || micros < 0) {
      return Status::InvalidArgument("bad delay entry: " + entry);
    }
    plan->delay_seconds[static_cast<size_t>(unit)] =
        static_cast<double>(micros) * 1e-6;
    return Status::Ok();
  }
  if (kind == "flaky") {
    size_t x = body.find('x');
    if (x == std::string::npos) {
      return Status::InvalidArgument("flaky entry lacks 'x': " + entry);
    }
    int64_t unit = 0, failures = 0;
    if (!parse_number(body.substr(0, x), &unit) ||
        !parse_number(body.substr(x + 1), &failures) || unit < 0 ||
        failures < 1) {
      return Status::InvalidArgument("bad flaky entry: " + entry);
    }
    plan->transient_failures[static_cast<size_t>(unit)] =
        static_cast<int>(failures);
    return Status::Ok();
  }
  return Status::InvalidArgument("unknown fault kind '" + kind + "'");
}

}  // namespace

Result<FaultPlan> FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t end = spec.find(';', begin);
    if (end == std::string::npos) end = spec.size();
    std::string entry = spec.substr(begin, end - begin);
    if (!entry.empty()) {
      Status s = ParseEntry(entry, &plan);
      if (!s.ok()) return s;
    }
    begin = end + 1;
  }
  return plan;
}

FaultPlan FaultPlan::FromSeed(uint64_t seed, size_t num_units,
                              int num_workers) {
  FaultPlan plan;
  if (num_units == 0) return plan;
  Rng rng(seed ^ 0xFA017C0DEull);
  // Roughly one fault per four units, bounded so small unit sets still get
  // at least one of each kind when possible.
  size_t budget = std::max<size_t>(3, num_units / 4);
  size_t crashes = 0;
  size_t max_crashes =
      num_workers > 1 ? static_cast<size_t>(num_workers - 1) : 0;
  for (size_t i = 0; i < budget; ++i) {
    size_t unit = rng.NextBounded(num_units);
    switch (rng.NextBounded(3)) {
      case 0:
        if (crashes < max_crashes &&
            plan.crash_at_attempt.insert({unit, 1}).second) {
          ++crashes;
        }
        break;
      case 1:
        // 0.2ms..2ms stragglers: visible in schedules, cheap in tests.
        plan.delay_seconds[unit] =
            0.0002 + 0.0018 * rng.NextDouble();
        break;
      default:
        // 1..2 failing attempts — always below the default attempt
        // budget, so seeded plans are recoverable by the pool alone.
        plan.transient_failures[unit] =
            static_cast<int>(1 + rng.NextBounded(2));
        break;
    }
  }
  return plan;
}

std::optional<FaultPlan> FaultPlan::FromEnv(size_t num_units,
                                            int num_workers) {
  // Read once per call; benches and tests configure the environment before
  // any pool runs, so there is no concurrent setenv.
  const char* spec = std::getenv("ROCK_FAULT_PLAN");  // NOLINT(concurrency-mt-unsafe)
  if (spec != nullptr && *spec != '\0') {
    Result<FaultPlan> plan = Parse(spec);
    ROCK_CHECK(plan.ok()) << "ROCK_FAULT_PLAN: "
                          << plan.status().ToString();
    return *plan;
  }
  const char* seed = std::getenv("ROCK_FAULT_SEED");  // NOLINT(concurrency-mt-unsafe)
  if (seed != nullptr && *seed != '\0') {
    return FromSeed(std::strtoull(seed, nullptr, 10), num_units,
                    num_workers);
  }
  return std::nullopt;
}

}  // namespace rock::par

#include "src/serve/loadgen.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/serve/client.h"

namespace rock::serve {
namespace {

/// Client receive timeout; a stuck server fails the run instead of
/// hanging it.
constexpr double kRecvTimeoutSeconds = 30.0;

}  // namespace

std::vector<std::vector<PlannedRequest>> BuildLoadPlan(
    const LoadGenOptions& options) {
  const std::vector<double> weights = {options.ingest_weight,
                                       options.detect_weight,
                                       options.explain_weight};
  const double weight_sum =
      weights[0] + weights[1] + weights[2];
  const size_t total = static_cast<size_t>(
      std::max(0, options.warmup_requests) +
      std::max(0, options.measure_requests));

  std::vector<std::vector<PlannedRequest>> plans;
  plans.reserve(static_cast<size_t>(std::max(0, options.clients)));
  for (int c = 0; c < options.clients; ++c) {
    // One independent deterministic stream per client: splitting by seed
    // arithmetic keeps client c's plan stable when the client count changes.
    Rng rng(options.seed * 0x9E3779B97F4A7C15ull +
            static_cast<uint64_t>(c) + 1);
    std::vector<PlannedRequest> plan;
    plan.reserve(total);
    for (size_t i = 0; i < total; ++i) {
      PlannedRequest planned;
      if (weight_sum <= 0) {
        planned.verb = Verb::kPing;
      } else {
        switch (rng.NextWeighted(weights)) {
          case 0:
            planned.verb = Verb::kIngest;
            planned.pick = static_cast<uint32_t>(rng.NextBounded(
                options.pool.empty() ? 1 : options.pool.size()));
            break;
          case 1:
            planned.verb = Verb::kDetect;
            break;
          default:
            planned.verb = Verb::kExplain;
            planned.pick = static_cast<uint32_t>(
                rng.NextBounded(options.explain_targets.empty()
                                    ? 1
                                    : options.explain_targets.size()));
            break;
        }
      }
      plan.push_back(planned);
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

double LoadReport::LatencyPercentile(double q) const {
  if (latencies_seconds.empty()) return 0;
  std::vector<double> sorted = latencies_seconds;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  // Nearest-rank: the smallest value with at least q of the mass below it.
  size_t rank = static_cast<size_t>(
      std::ceil(clamped * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

Result<LoadReport> RunLoad(const LoadGenOptions& options) {
  if (options.clients <= 0) {
    return Status::InvalidArgument("RunLoad: clients must be positive");
  }
  if (options.measure_requests < 0 || options.warmup_requests < 0) {
    return Status::InvalidArgument("RunLoad: request counts must be >= 0");
  }
  if (options.ingest_weight > 0 && options.pool.empty()) {
    return Status::InvalidArgument(
        "RunLoad: ingest weight is positive but the tuple pool is empty");
  }
  if (options.ingest_weight > 0 && options.ingest_batch_rows <= 0) {
    return Status::InvalidArgument(
        "RunLoad: ingest_batch_rows must be positive");
  }

  const std::vector<std::vector<PlannedRequest>> plans = BuildLoadPlan(options);

  // All connections come up before any request is issued, so every client
  // faces the same server state at its first request.
  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(plans.size());
  for (size_t c = 0; c < plans.size(); ++c) {
    Result<std::unique_ptr<Client>> client =
        Client::Connect(options.port, kRecvTimeoutSeconds);
    if (!client.ok()) return client.status();
    clients.push_back(std::move(client).value());
  }

  struct ClientResult {
    Status status = Status::Ok();
    LoadReport partial;  // counters + latencies for this client only
    double measure_start = 0;
    double measure_end = 0;
  };
  std::vector<ClientResult> results(plans.size());

  auto run_client = [&](size_t c) {
    Client& client = *clients[c];
    ClientResult& out = results[c];
    const std::vector<PlannedRequest>& plan = plans[c];
    const size_t warmup = static_cast<size_t>(options.warmup_requests);
    for (size_t i = 0; i < plan.size(); ++i) {
      const PlannedRequest& planned = plan[i];
      const bool measured = i >= warmup;
      Request request;
      request.verb = planned.verb;
      request.id = client.NextId();
      switch (planned.verb) {
        case Verb::kIngest: {
          request.rel = options.ingest_rel;
          request.tuples.reserve(
              static_cast<size_t>(options.ingest_batch_rows));
          for (int j = 0; j < options.ingest_batch_rows; ++j) {
            request.tuples.push_back(
                options.pool[(planned.pick + static_cast<size_t>(j)) %
                             options.pool.size()]);
          }
          break;
        }
        case Verb::kDetect:
          request.scope = options.detect_scope;
          break;
        case Verb::kExplain:
          if (!options.explain_targets.empty()) {
            const auto& target = options.explain_targets[planned.pick];
            request.explain_rel = std::get<0>(target);
            request.explain_tid = std::get<1>(target);
            request.explain_attr = std::get<2>(target);
          }
          break;
        default:
          break;
      }

      if (measured && out.measure_start == 0) {
        out.measure_start = SteadySeconds();
      }
      const double start = SteadySeconds();
      Result<Response> response = client.RoundTrip(request);
      const double elapsed = SteadySeconds() - start;
      if (!response.ok()) {
        out.status = response.status();
        return;
      }
      if (!measured) continue;
      out.measure_end = SteadySeconds();
      out.partial.latencies_seconds.push_back(elapsed);
      if (response->code != StatusCode::kOk) ++out.partial.error_responses;
      switch (planned.verb) {
        case Verb::kIngest: ++out.partial.ingest_requests; break;
        case Verb::kDetect: ++out.partial.detect_requests; break;
        case Verb::kExplain: ++out.partial.explain_requests; break;
        default: ++out.partial.ping_requests; break;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(plans.size());
  for (size_t c = 0; c < plans.size(); ++c) {
    threads.emplace_back(run_client, c);
  }
  for (std::thread& t : threads) t.join();

  LoadReport report;
  double first_start = 0, last_end = 0;
  for (const ClientResult& r : results) {
    if (!r.status.ok()) return r.status;
    report.ingest_requests += r.partial.ingest_requests;
    report.detect_requests += r.partial.detect_requests;
    report.explain_requests += r.partial.explain_requests;
    report.ping_requests += r.partial.ping_requests;
    report.error_responses += r.partial.error_responses;
    report.latencies_seconds.insert(report.latencies_seconds.end(),
                                    r.partial.latencies_seconds.begin(),
                                    r.partial.latencies_seconds.end());
    if (r.measure_start > 0 && (first_start == 0 ||
                                r.measure_start < first_start)) {
      first_start = r.measure_start;
    }
    last_end = std::max(last_end, r.measure_end);
  }
  report.measure_wall_seconds = std::max(0.0, last_end - first_start);
  if (report.measure_wall_seconds > 0) {
    report.throughput_rps =
        static_cast<double>(report.latencies_seconds.size()) /
        report.measure_wall_seconds;
  }
  return report;
}

}  // namespace rock::serve

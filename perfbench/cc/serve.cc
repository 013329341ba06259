// bank-serve: an in-process rockd (serve::RockServer) over Bank, driven by
// two closed-loop clients on 127.0.0.1 with an ingest:detect:explain mix
// of 1:8:1.
//
// Stationarity. The run is a series of epochs. Each epoch is one complete
// set-up (fresh data, fresh engine, initial correction, server start),
// then every client works through the same fixed list of fixed-length
// sessions, then the server stops. A session connects, ingests first,
// runs its seeded mix with detect scope=session, and disconnects. So a
// session's detect work is bounded by its own ingests, the relation grows
// by the same amount in every epoch, and every epoch is alike however long
// the run is.
//
// Ingest bodies are Customer rows the engine has never seen: copies of
// clean generated rows under fresh ids and names past the engine's last
// entity. Each is ingested at most once per epoch.

#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/workload/scoring.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rock::Tuple;
using rock::serve::Client;
using rock::serve::DetectScope;
using Cells = std::set<rock::detect::ErrorRecord::Cell>;

constexpr int kClients = 2;
constexpr int kSessionsPerClient = 16;
constexpr int kRequestsPerSession = 10;
constexpr size_t kMaxExplainTargets = 16;
constexpr int kCustomer = 0;

enum class Op { kIngest, kDetect, kExplain };

struct Step {
  Op op = Op::kDetect;
  size_t pool_index = 0;  // kIngest: which held-back tuple
  size_t target = 0;      // kExplain: index into the explain targets
};

using Session = std::vector<Step>;

/// The sessions of one epoch, per client; identical in every epoch.
struct Plan {
  std::vector<std::vector<Session>> clients;
  size_t ingests = 0;
};

Plan BuildPlan(uint64_t seed) {
  Plan plan;
  plan.clients.resize(kClients);
  const std::vector<double> weights = {1, 8, 1};  // ingest:detect:explain
  for (int c = 0; c < kClients; ++c) {
    for (int s = 0; s < kSessionsPerClient; ++s) {
      rock::Rng rng(seed * 1000003u + static_cast<uint64_t>(c) * 1009u +
                    static_cast<uint64_t>(s));
      Session session;
      for (int r = 0; r < kRequestsPerSession; ++r) {
        Step step;
        step.op = r == 0 ? Op::kIngest
                         : static_cast<Op>(rng.NextWeighted(weights));
        if (step.op == Op::kIngest) step.pool_index = plan.ingests++;
        step.target = rng.NextBounded(kMaxExplainTargets);
        session.push_back(step);
      }
      plan.clients[c].push_back(std::move(session));
    }
  }
  return plan;
}

/// `count` Customer rows the engine has never seen. Each copies a clean
/// base row of the generated data (so it satisfies the branch -> city ->
/// phone_area dependencies) under a fresh cust_id and name past the last
/// generated entity; tid and eid are cleared so the server assigns fresh
/// ones. The templates come from the same seed as the engine's data.
std::vector<Tuple> UnseenCustomers(uint64_t seed, size_t base_rows,
                                     size_t count) {
  rock::workload::GeneratorOptions options;
  options.rows = base_rows;
  options.error_rate = 0.08;
  options.seed = seed;
  rock::workload::GeneratedData data = rock::workload::MakeBankData(options);
  std::set<int64_t> clean;
  for (const auto& [rel, tid] : data.clean_tuples) {
    if (rel == kCustomer) clean.insert(tid);
  }
  const rock::Relation& customers = data.db.relation(kCustomer);
  std::vector<const Tuple*> templates;
  for (size_t row = 0; row < base_rows && row < customers.size(); ++row) {
    if (clean.count(customers.tuple(row).tid) > 0) {
      templates.push_back(&customers.tuple(row));
    }
  }
  if (templates.empty()) {
    std::fprintf(stderr, "no clean Customer rows to copy\n");
    std::exit(1);
  }
  std::vector<Tuple> pool;
  for (size_t k = 0; k < count; ++k) {
    const size_t entity = base_rows + k;
    Tuple tuple = *templates[k % templates.size()];
    tuple.tid = -1;
    tuple.eid = -1;
    tuple.values[0] = rock::Value::String("c" + std::to_string(entity));
    tuple.values[1] =
        rock::Value::String(rock::workload::SyntheticName(entity, false));
    pool.push_back(std::move(tuple));
  }
  return pool;
}

/// What a session detect is checked on: the dirty-cell set, plus the
/// violation and error-record counts.
struct Digest {
  Cells cells;
  uint64_t violations = 0;
  size_t records = 0;

  bool operator==(const Digest&) const = default;
};

Digest DigestOf(const std::vector<rock::detect::ErrorRecord>& errors,
                uint64_t violations) {
  Digest digest;
  for (const auto& error : errors) {
    digest.cells.insert(error.cells.begin(), error.cells.end());
  }
  digest.violations = violations;
  digest.records = errors.size();
  return digest;
}

struct ExplainTarget {
  int rel = -1;
  int64_t tid = -1;
  int attr = -1;
  std::string text;  // reference proof, computed in-process
};

/// One epoch's engine and server.
struct Epoch {
  std::unique_ptr<App> app;
  std::vector<ExplainTarget> targets;
  std::unique_ptr<rock::serve::RockServer> server;
  SetupTimes times;
  double correct_s = 0;
  double start_s = 0;
  double f1 = 0;
  size_t customers_at_start = 0;

  double setup_s() const { return times.total() + correct_s + start_s; }
};

/// Sets up an epoch over the data of `seed`.
std::unique_ptr<Epoch> SetUpEpoch(const Options& options, uint64_t seed,
                                  bool start_server) {
  auto epoch = std::make_unique<Epoch>();
  epoch->app = SetUpApp(AppKind::kBank, options.sizes.bank_rows, seed,
                        &epoch->times);
  rock::core::Rock& rock = *epoch->app->rock;
  rock::core::CorrectionResult correction;
  std::shared_ptr<rock::chase::ChaseEngine> engine;
  epoch->correct_s = Timed("chase.initial_correct", [&] {
    engine = rock.CorrectErrors(rock.active_rules(),
                                epoch->app->data.clean_tuples, &correction);
  });
  epoch->f1 =
      rock::workload::ScoreCorrection(epoch->app->data, *engine).overall.f1();
  for (const rock::chase::CellFix& fix : engine->CellFixes()) {
    if (epoch->targets.size() >= kMaxExplainTargets) break;
    epoch->targets.push_back({fix.rel, fix.tid, fix.attr,
                              rock.Explain(fix.rel, fix.tid, fix.attr)
                                  .ToText()});
  }
  if (epoch->targets.empty()) {
    std::fprintf(stderr, "initial correction fixed no cells\n");
    std::exit(1);
  }
  epoch->customers_at_start = epoch->app->data.db.relation(kCustomer).size();
  if (start_server) {
    epoch->start_s = Timed("serve.start", [&] {
      auto started = rock::serve::RockServer::Start(&rock, {});
      if (!started.ok()) {
        std::fprintf(stderr, "server start failed: %s\n",
                     started.status().ToString().c_str());
        std::exit(1);
      }
      epoch->server = std::move(started).value();
    });
  }
  return epoch;
}

/// A served session detect, kept for the check after the epoch.
struct DetectRecord {
  int session = 0;
  size_t ingested = 0;
  bool ok = false;  // the request got an OK response
  Digest digest;
};

/// What one client saw during one epoch.
struct ClientLog {
  std::vector<double> ingest_ms, detect_ms, explain_ms, connect_ms;
  std::vector<double> session_dirty;
  /// Requests per second of each session, from connect to disconnect.
  std::vector<double> session_rate;
  std::vector<DetectRecord> detects;
  std::vector<std::vector<int64_t>> session_tids;
  uint64_t requests = 0;
  uint64_t failed = 0;  // ingest/explain/connect failures
  std::string first_error;

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

void RunClient(int port, const std::vector<Session>& sessions,
               const std::vector<Tuple>& pool,
               const std::vector<ExplainTarget>& targets, ClientLog* log) {
  for (size_t s = 0; s < sessions.size(); ++s) {
    log->session_tids.emplace_back();
    std::vector<int64_t>& tids = log->session_tids.back();
    const double session_start = Now();
    std::unique_ptr<Client> client;
    log->connect_ms.push_back(1e3 * Timed("serve.connect", [&] {
                                auto connected = Client::Connect(port);
                                if (connected.ok()) {
                                  client = std::move(connected).value();
                                }
                              }));
    if (client == nullptr) {
      log->Fail("connect failed");
      continue;
    }
    for (const Step& step : sessions[s]) {
      ++log->requests;
      switch (step.op) {
        case Op::kIngest: {
          rock::Result<std::vector<int64_t>> assigned =
              rock::Status::Internal("not sent");
          log->ingest_ms.push_back(1e3 * Timed("serve.ingest", [&] {
                                     assigned = client->Ingest(
                                         kCustomer, {pool[step.pool_index]});
                                   }));
          if (!assigned.ok() || assigned->size() != 1) {
            log->Fail("ingest: " + assigned.status().ToString());
            break;
          }
          tids.push_back(assigned->front());
          break;
        }
        case Op::kDetect: {
          rock::Result<rock::serve::WireDetectionReport> report =
              rock::Status::Internal("not sent");
          log->detect_ms.push_back(1e3 * Timed("serve.detect", [&] {
                                     report =
                                         client->Detect(DetectScope::kSession);
                                   }));
          log->session_dirty.push_back(static_cast<double>(tids.size()));
          DetectRecord record;
          record.session = static_cast<int>(s);
          record.ingested = tids.size();
          record.ok = report.ok();
          if (record.ok) {
            record.digest = DigestOf(report->errors, report->violations);
          }
          log->detects.push_back(std::move(record));
          break;
        }
        case Op::kExplain: {
          const ExplainTarget& target = targets[step.target % targets.size()];
          rock::Result<Client::Explanation> explanation =
              rock::Status::Internal("not sent");
          log->explain_ms.push_back(
              1e3 * Timed("serve.explain", [&] {
                explanation =
                    client->Explain(target.rel, target.tid, target.attr);
              }));
          if (!explanation.ok() || explanation->text != target.text) {
            log->Fail("explain: proof differs from the in-process one");
          }
          break;
        }
      }
    }
    client.reset();
    log->session_rate.push_back(static_cast<double>(sessions[s].size()) /
                                (Now() - session_start));
  }
}

/// Served detects must report exactly the dirty cells, violations and
/// error records the engine reports in-process for the same session delta. Ingested rows are clean and
/// distinct, so the answer depends only on the base data and the
/// session's own rows, not on what the other client ingested meanwhile.
/// Returns the number of detects that differ.
uint64_t CheckDetects(const rock::core::Rock& rock, const ClientLog& log) {
  std::map<std::pair<int, size_t>, Digest> expected;
  uint64_t failed = 0;
  for (const DetectRecord& record : log.detects) {
    if (!record.ok) {
      ++failed;
      continue;
    }
    auto key = std::make_pair(record.session, record.ingested);
    auto it = expected.find(key);
    if (it == expected.end()) {
      const std::vector<int64_t>& tids =
          log.session_tids[static_cast<size_t>(record.session)];
      std::vector<std::pair<int, int64_t>> delta;
      for (size_t i = 0; i < record.ingested; ++i) {
        delta.emplace_back(kCustomer, tids[i]);
      }
      const rock::detect::DetectionReport report =
          rock.DetectActiveIncremental(delta);
      it = expected.emplace(key, DigestOf(report.errors, report.violations))
               .first;
    }
    if (!(it->second == record.digest)) ++failed;
  }
  return failed;
}

/// Per-verb samples across the clients of one or more epochs.
struct Served {
  std::vector<double> ingest_ms, detect_ms, explain_ms, connect_ms;
  std::vector<double> session_dirty, session_rate;
  uint64_t requests = 0;
  double load_seconds = 0;

  /// Adds the samples of a ClientLog or of another Served.
  template <typename Samples>
  void Append(const Samples& other) {
    auto extend = [](std::vector<double>* to, const std::vector<double>& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    extend(&ingest_ms, other.ingest_ms);
    extend(&detect_ms, other.detect_ms);
    extend(&explain_ms, other.explain_ms);
    extend(&connect_ms, other.connect_ms);
    extend(&session_dirty, other.session_dirty);
    extend(&session_rate, other.session_rate);
    requests += other.requests;
  }
};

/// Drives one epoch's sessions from kClients threads, stops the server,
/// checks every response, and returns the relation growth of the epoch.
double DriveEpoch(Epoch* epoch, const Plan& plan,
                  const std::vector<Tuple>& pool, Served* served,
                  Outcome* out, std::string* first_error) {
  std::vector<ClientLog> logs(kClients);
  const int port = epoch->server->port();
  const int64_t first_fresh_tid = epoch->app->data.db.next_tid();
  const double start = Now();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(RunClient, port, std::cref(plan.clients[c]),
                           std::cref(pool), std::cref(epoch->targets),
                           &logs[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  served->load_seconds += Now() - start;
  epoch->server->Stop();

  // Every assigned tid must be fresh: new to the database and unique.
  std::set<int64_t> assigned;
  for (const ClientLog& log : logs) {
    for (const auto& tids : log.session_tids) {
      for (int64_t tid : tids) {
        if (tid < first_fresh_tid || !assigned.insert(tid).second) {
          ++out->failed;
          if (first_error->empty()) *first_error = "ingest reused a tid";
        }
      }
    }
  }
  for (const ClientLog& log : logs) {
    served->Append(log);
    // Ops: every connect and every request.
    out->attempted += log.connect_ms.size() + log.requests;
    out->failed += log.failed;
    if (first_error->empty()) *first_error = log.first_error;
    const uint64_t bad_detects = CheckDetects(*epoch->app->rock, log);
    out->failed += bad_detects;
    if (bad_detects > 0 && first_error->empty()) {
      *first_error = "session detect differs from the in-process report";
    }
  }
  const double end_size =
      static_cast<double>(epoch->app->data.db.relation(kCustomer).size());
  return end_size / static_cast<double>(epoch->customers_at_start) - 1.0;
}

}  // namespace

Outcome RunBankServe(const Options& options) {
  Outcome out;
  HostProbe host;
  host.Start();
  const Plan plan = BuildPlan(options.seed);
  // Epochs cycle through the run's data sets (see kSetupDataSets), each
  // with its own never-seen rows; data set 0 is the run's own seed.
  std::vector<uint64_t> seeds;
  std::vector<std::vector<Tuple>> pools;
  for (size_t d = 0; d < kSetupDataSets; ++d) {
    seeds.push_back(DataSetSeed(options.seed, d));
    pools.push_back(UnseenCustomers(seeds.back(), options.sizes.bank_rows,
                                    plan.ingests));
  }

  std::string first_error;
  Served warmup;
  {
    auto epoch = SetUpEpoch(options, options.seed, true);
    DriveEpoch(epoch.get(), plan, pools[0], &warmup, &out, &first_error);
  }

  // One Served per epoch; the halves of the run are compared per verb to
  // show that latency does not depend on how long the run has been going.
  std::vector<Served> epochs;
  std::vector<double> setup_s, growth, epoch_rates;
  double f1 = 0;
  const double start = Now();
  while (Now() - start < options.seconds || epochs.size() < kSetupDataSets) {
    const size_t d = epochs.size() % kSetupDataSets;
    auto epoch = SetUpEpoch(options, seeds[d], true);
    setup_s.push_back(epoch->setup_s());
    if (d == 0) f1 = epoch->f1;
    epochs.emplace_back();
    growth.push_back(DriveEpoch(epoch.get(), plan, pools[d], &epochs.back(),
                                &out, &first_error));
    epoch_rates.push_back(static_cast<double>(epochs.back().requests) /
                          epochs.back().load_seconds);
  }
  host.Finish();
  Served served, first_half, second_half;
  for (size_t e = 0; e < epochs.size(); ++e) {
    served.Append(epochs[e]);
    served.load_seconds += epochs[e].load_seconds;
    (e < epochs.size() / 2 ? first_half : second_half).Append(epochs[e]);
  }

  // Both clients keep a session open at all times, so the request rate of
  // a typical session, times the clients, is the closed loop's throughput;
  // unlike the epoch-wide rate it is a median, not a mean over the tail.
  const double rps = kClients * Median(served.session_rate);
  out.Add("setup_s", MeanOfDataSetMedians(setup_s), "s");
  out.Add("peak_rss_mb", PeakRssMb(), "MiB");
  out.Add("ok_ratio", out.ok_ratio(), "ratio");
  out.Add("f1", f1, "ratio");
  // Requests differ in work (a session's detect grows with its ingests),
  // so served latencies are medians, not midhinges.
  out.Add("op_ms", Median(served.detect_ms), "ms");
  out.Add("alt_op_ms", Median(served.ingest_ms), "ms");
  out.Add("ops_per_s", rps, "1/s");

  out.Note(SampleLine("serve_detect_p50_ms", served.detect_ms));
  out.Note(Format("serve_detect_p90_ms      %10.3f ms",
                  Quantile(served.detect_ms, 0.9)));
  out.Note(SampleLine("serve_ingest_p50_ms", served.ingest_ms));
  out.Note(SampleLine("serve_explain_p50_ms", served.explain_ms));
  out.Note(Format("serve_rps                %10.1f 1/s (%d x median of %zu "
                  "session rates; epoch-wide median %.1f over %zu epochs, "
                  "%llu requests in %.2f s of load)",
                  rps, kClients, served.session_rate.size(),
                  Median(epoch_rates), epoch_rates.size(),
                  static_cast<unsigned long long>(served.requests),
                  served.load_seconds));
  out.Note(Format("correct_f1               %10.4f ratio (of the served fix store)", f1));
  out.Note(Format("setup_s                  %10.4f s   (n=%zu epochs)",
                  MeanOfDataSetMedians(setup_s), setup_s.size()));
  out.Note(Format("peak_rss_mb              %10.1f MiB", PeakRssMb()));
  out.Note(Format("fail_ratio               %10.4f ratio (%llu of %llu ops)%s%s",
                  1.0 - out.ok_ratio(),
                  static_cast<unsigned long long>(out.failed),
                  static_cast<unsigned long long>(out.attempted),
                  out.failed > 0 ? "; first: " : "",
                  out.failed > 0 ? first_error.c_str() : ""));
  out.Note(Format("host.usable_cores        %10.2f cores", host.usable_cores));
  out.Note(Format("host.steal_ratio         %10.4f ratio", host.steal_ratio));
  out.Note(Format("storage.relation_growth  %10.4f ratio (Customer rows added "
                  "per epoch / rows at start)",
                  Median(growth)));
  out.Note(Format("stationarity             p50 ms, first half / second half "
                  "of the run: detect %.3f / %.3f, ingest %.3f / %.3f, "
                  "explain %.3f / %.3f",
                  Median(first_half.detect_ms), Median(second_half.detect_ms),
                  Median(first_half.ingest_ms), Median(second_half.ingest_ms),
                  Median(first_half.explain_ms),
                  Median(second_half.explain_ms)));
  return out;
}

void TraceServeLayers(const Options& options, Outcome* out) {
  ScopedSpan span("trace.serve_layers");
  const Plan plan = BuildPlan(options.seed);
  const std::vector<Tuple> pool =
      UnseenCustomers(options.seed, options.sizes.bank_rows, plan.ingests);

  // One served epoch.
  Served served;
  Outcome checks;
  std::string first_error;
  double growth = 0;
  {
    auto epoch = SetUpEpoch(options, options.seed, true);
    growth = DriveEpoch(epoch.get(), plan, pool, &served, &checks,
                        &first_error);
  }
  out->attempted += checks.attempted;
  out->failed += checks.failed;

  // The same sessions replayed serially in-process: engine time only, no
  // sockets, framing, lock waits or thread hand-offs. The requests and
  // responses are kept for the codec timing.
  auto epoch = SetUpEpoch(options, options.seed, false);
  rock::core::Rock& rock = *epoch->app->rock;
  std::vector<double> ingest_ms, detect_ms, explain_ms;
  std::vector<rock::serve::Request> requests;
  std::vector<rock::serve::Response> responses;
  for (const std::vector<Session>& sessions : plan.clients) {
    for (const Session& session : sessions) {
      std::vector<std::pair<int, int64_t>> delta;
      for (const Step& step : session) {
        rock::serve::Request request;
        rock::serve::Response response;
        request.id = response.id = requests.size() + 1;
        switch (step.op) {
          case Op::kIngest: {
            request.verb = response.verb = rock::serve::Verb::kIngest;
            request.rel = kCustomer;
            request.tuples = {pool[step.pool_index]};
            rock::Result<std::vector<int64_t>> tids =
                rock::Status::Internal("not run");
            ingest_ms.push_back(1e3 * Timed("core.ingest_batch", [&] {
                                  tids = rock.IngestBatch(kCustomer,
                                                          request.tuples);
                                }));
            if (tids.ok()) {
              for (int64_t tid : *tids) delta.emplace_back(kCustomer, tid);
              response.tids = *tids;
            }
            break;
          }
          case Op::kDetect: {
            request.verb = response.verb = rock::serve::Verb::kDetect;
            request.scope = DetectScope::kSession;
            rock::detect::DetectionReport report;
            detect_ms.push_back(1e3 * Timed("core.detect_incremental", [&] {
                                  report = rock.DetectActiveIncremental(delta);
                                }));
            response.report = rock::serve::ToWire(report);
            break;
          }
          case Op::kExplain: {
            request.verb = response.verb = rock::serve::Verb::kExplain;
            const ExplainTarget& target =
                epoch->targets[step.target % epoch->targets.size()];
            request.explain_rel = target.rel;
            request.explain_tid = target.tid;
            request.explain_attr = target.attr;
            explain_ms.push_back(1e3 * Timed("core.explain", [&] {
                                   auto tree = rock.Explain(
                                       target.rel, target.tid, target.attr);
                                   response.explain_text = tree.ToText();
                                   response.explain_json = tree.ToJson();
                                 }));
            break;
          }
        }
        requests.push_back(std::move(request));
        responses.push_back(std::move(response));
      }
    }
  }

  // Codec: request encode + frame, response decode, per message.
  std::vector<std::string> response_frames;
  for (const auto& response : responses) {
    response_frames.push_back(rock::serve::EncodeFrame(
        rock::serve::EncodeResponse(response)));
  }
  std::vector<double> codec_us;
  for (int rep = 0; rep < 3; ++rep) {
    size_t bytes = 0;
    double seconds = Timed("serve.codec", [&] {
      for (size_t i = 0; i < requests.size(); ++i) {
        bytes += rock::serve::EncodeFrame(
                     rock::serve::EncodeRequest(requests[i]))
                     .size();
        rock::serve::Response decoded;
        out->Count(
            rock::serve::DecodeFramedResponse(response_frames[i], &decoded)
                .ok());
      }
    });
    codec_us.push_back(1e6 * seconds / static_cast<double>(requests.size()));
    out->Count(bytes >= requests.size() * rock::serve::kFrameHeaderBytes);
  }

  const double engine[] = {Median(ingest_ms), Median(detect_ms),
                           Median(explain_ms)};
  const double wire[] = {Median(served.ingest_ms), Median(served.detect_ms),
                         Median(served.explain_ms)};
  const char* verbs[] = {"ingest", "detect", "explain"};
  for (int v = 0; v < 3; ++v) {
    out->Add(Format("serve.served_%s_p50_ms", verbs[v]), wire[v], "ms");
  }
  out->Add("serve.served_detect_p90_ms", Quantile(served.detect_ms, 0.9),
           "ms");
  for (int v = 0; v < 3; ++v) {
    out->Add(Format("serve.engine_%s_p50_ms", verbs[v]), engine[v], "ms");
  }
  for (int v = 0; v < 3; ++v) {
    out->Add(Format("serve.outside_engine_share.%s", verbs[v]),
             wire[v] > 0 ? 1.0 - engine[v] / wire[v] : 0, "ratio");
  }
  out->Add("serve.codec_us", Median(codec_us), "us");
  out->Add("serve.connect_ms", Median(served.connect_ms), "ms");
  double dirty_sum = 0;
  for (double d : served.session_dirty) dirty_sum += d;
  out->Add("detect.session_dirty_tuples",
           served.session_dirty.empty()
               ? 0
               : dirty_sum / static_cast<double>(served.session_dirty.size()),
           "count");
  out->Add("storage.relation_growth", growth, "ratio");
}

void TraceServeSetup(const Options& options, Outcome* out) {
  std::vector<double> correct_s, start_s;
  for (int rep = 0; rep < 3; ++rep) {
    auto epoch = SetUpEpoch(options, options.seed, true);
    correct_s.push_back(epoch->correct_s);
    start_s.push_back(epoch->start_s);
    epoch->server->Stop();
  }
  out->Add("chase.initial_correct_s", Median(correct_s), "s");
  out->Add("serve.start_s", Median(start_s), "s");
}

}  // namespace perfbench

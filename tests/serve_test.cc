// End-to-end tests for rockd (src/serve/server.h): a real server on an
// ephemeral 127.0.0.1 port, real client connections, and the properties the
// service promises:
//
//   * served detect/explain results are bitwise identical to calling the
//     library API on the same engine;
//   * concurrent clients are safe (run under TSan in CI) and all see the
//     same read-only results;
//   * malformed input earns a diagnostic error response and a closed
//     connection — never a crash or a hang;
//   * shutdown drains: in-flight requests complete, new connections are
//     refused.

#include <atomic>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/workload/generator.h"

namespace rock::serve {
namespace {

workload::GeneratorOptions SmallOptions() {
  workload::GeneratorOptions options;
  options.rows = 120;
  options.error_rate = 0.08;
  options.seed = 17;
  return options;
}

core::ModelTrainingSpec BankSpec() {
  core::ModelTrainingSpec spec;
  spec.rank_targets = {{"Customer", "city"}};
  spec.monotone_attrs = {{"Customer", "points"}};
  spec.path_synonyms = {{"area", {"AreaOf"}}};
  return spec;
}

/// This process's virtual size (VmSize) in KiB, from /proc/self/status;
/// 0 when it cannot be read.
size_t VirtualKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoul(line.substr(7));
  }
  return 0;
}

/// A fully-initialized engine + running server per test: trained models,
/// discovered polynomials, activated rules. Correction (for explain) is
/// opt-in per test — it is the slow part.
class ServeTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    data_ = workload::MakeBankData(SmallOptions());
    rock_ = std::make_unique<core::Rock>(&data_.db, &data_.graph);
    rock_->TrainModels(BankSpec());
    rock_->DiscoverPolynomials();
    ASSERT_TRUE(rock_->ActivateRules(data_.rule_text).ok());
    auto server = RockServer::Start(rock_.get(), options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  std::unique_ptr<Client> MustConnect() {
    auto client = Client::Connect(server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  workload::GeneratedData data_;
  std::unique_ptr<core::Rock> rock_;
  std::unique_ptr<RockServer> server_;
};

TEST_F(ServeTest, PingTelemetryAndMultipleRequestsPerConnection) {
  StartServer();
  std::unique_ptr<Client> client = MustConnect();
  ASSERT_TRUE(client->Ping().ok());
  ASSERT_TRUE(client->Ping().ok());  // connection survives many requests
  Result<std::string> telemetry = client->Telemetry();
  ASSERT_TRUE(telemetry.ok()) << telemetry.status().ToString();
  EXPECT_FALSE(telemetry->empty());
  EXPECT_EQ((*telemetry)[0], '{');
  EXPECT_GE(server_->requests_served(), 3u);
}

TEST_F(ServeTest, ServedDetectIsBitwiseIdenticalToLibraryCall) {
  StartServer();
  std::unique_ptr<Client> client = MustConnect();
  Result<WireDetectionReport> served = client->Detect(DetectScope::kFull);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  // The server is quiescent (our only request completed), so the library
  // call runs over exactly the state the served call saw.
  detect::DetectionReport library = rock_->DetectActive();
  EXPECT_GT(library.violations, 0u);
  EXPECT_TRUE(WireReportEquals(*served, library))
      << "served report differs from the library-API report";

  // And a second served call returns the identical report again
  // (determinism across the wire, not just within one encode).
  Result<WireDetectionReport> again = client->Detect(DetectScope::kFull);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(WireReportEquals(*again, library));
}

TEST_F(ServeTest, IngestAssignsFreshTidsAndFeedsSessionDetect) {
  StartServer();
  std::unique_ptr<Client> client = MustConnect();

  // Duplicate two existing Customer rows: fresh tids, guaranteed schema
  // match, and near-certain violations for the session-scoped detect.
  const Relation& customers = data_.db.relation(0);
  ASSERT_GE(customers.size(), 2u);
  Tuple a = customers.tuple(0);
  Tuple b = customers.tuple(1);
  const int64_t next_tid_before = data_.db.next_tid();
  a.tid = -1;
  a.eid = -1;
  b.tid = -1;
  b.eid = -1;

  Result<std::vector<int64_t>> tids = client->Ingest(0, {a, b});
  ASSERT_TRUE(tids.ok()) << tids.status().ToString();
  ASSERT_EQ(tids->size(), 2u);
  EXPECT_EQ((*tids)[0], next_tid_before);
  EXPECT_EQ((*tids)[1], next_tid_before + 1);

  Result<WireDetectionReport> served = client->Detect(DetectScope::kSession);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  detect::DetectionReport library = rock_->DetectActiveIncremental(
      {{0, (*tids)[0]}, {0, (*tids)[1]}});
  EXPECT_TRUE(WireReportEquals(*served, library));
  EXPECT_GT(served->violations, 0u) << "duplicated rows should violate";
}

TEST_F(ServeTest, IngestIntoBadRelationIsAnErrorResponseNotACrash) {
  StartServer();
  std::unique_ptr<Client> client = MustConnect();
  Tuple junk;
  junk.values = {Value::Int(1)};
  Result<std::vector<int64_t>> tids = client->Ingest(99, {junk});
  ASSERT_FALSE(tids.ok());
  EXPECT_EQ(tids.status().code(), StatusCode::kInvalidArgument);
  // The connection survives an application-level error.
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServeTest, ServedExplainIsBitwiseIdenticalToLibraryCall) {
  StartServer();
  // A correction pass gives Explain a fix store to answer from.
  core::CorrectionResult result;
  auto engine =
      rock_->CorrectErrors(rock_->active_rules(), data_.clean_tuples, &result);
  ASSERT_TRUE(result.chase.converged);
  const auto& fixes = engine->CellFixes();
  ASSERT_FALSE(fixes.empty());

  std::unique_ptr<Client> client = MustConnect();
  size_t non_empty = 0;
  const size_t sample = std::min<size_t>(fixes.size(), 8);
  for (size_t i = 0; i < sample; ++i) {
    const auto& fix = fixes[i];
    Result<Client::Explanation> served =
        client->Explain(fix.rel, fix.tid, fix.attr);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    obs::ProofTree library = rock_->Explain(fix.rel, fix.tid, fix.attr);
    EXPECT_EQ(served->text, library.ToText());
    EXPECT_EQ(served->json, library.ToJson());
    if (!served->text.empty()) ++non_empty;
  }
  EXPECT_GT(non_empty, 0u) << "every sampled proof came back empty";

  // A never-fixed cell explains to an empty proof, not an error.
  Result<Client::Explanation> missing = client->Explain(0, 999999, 0);
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  EXPECT_EQ(missing->text, rock_->Explain(0, 999999, 0).ToText());
}

TEST_F(ServeTest, ConcurrentReadOnlyClientsAllSeeTheLibraryReport) {
  StartServer();
  // Reference report first; the concurrent phase is read-only, so every
  // served report must equal it bit for bit.
  detect::DetectionReport library = rock_->DetectActive();

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 6;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, &library, &mismatches, &failures] {
      auto client = Client::Connect(server_->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        if (!(*client)->Ping().ok()) ++failures;
        Result<WireDetectionReport> served =
            (*client)->Detect(DetectScope::kFull);
        if (!served.ok()) {
          ++failures;
          continue;
        }
        if (!WireReportEquals(*served, library)) ++mismatches;
        Result<std::string> telemetry = (*client)->Telemetry();
        if (!telemetry.ok() || telemetry->empty()) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(server_->requests_served(),
            static_cast<uint64_t>(kClients * kRequestsPerClient * 3));
}

TEST_F(ServeTest, MalformedBytesEarnAnErrorResponseAndAClosedConnection) {
  StartServer();

  {
    // Oversized length prefix: rejected from the header, diagnostic
    // response, connection closed.
    std::unique_ptr<Client> client = MustConnect();
    WireWriter w;
    w.U32(kFrameMagic);
    w.U32(0xFFFFFF00u);
    w.U32(0);
    ASSERT_TRUE(client->SendRaw(w.bytes()).ok());
    Result<Response> response = client->ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->code, StatusCode::kResourceExhausted);
    EXPECT_FALSE(response->error.empty());
    // The server hangs up after a protocol error.
    EXPECT_FALSE(client->Ping().ok());
  }

  {
    // Bad magic.
    std::unique_ptr<Client> client = MustConnect();
    std::string frame = EncodeFrame(EncodeRequest(Request{}));
    frame[1] = 'X';
    ASSERT_TRUE(client->SendRaw(frame).ok());
    Result<Response> response = client->ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
  }

  {
    // Corrupted payload (CRC mismatch).
    std::unique_ptr<Client> client = MustConnect();
    std::string frame = EncodeFrame(EncodeRequest(Request{}));
    frame.back() = static_cast<char>(frame.back() ^ 0x40);
    ASSERT_TRUE(client->SendRaw(frame).ok());
    Result<Response> response = client->ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
  }

  {
    // Valid frame, garbage payload (undecodable request).
    std::unique_ptr<Client> client = MustConnect();
    ASSERT_TRUE(client->SendRaw(EncodeFrame("garbage payload")).ok());
    Result<Response> response = client->ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_NE(response->code, StatusCode::kOk);
  }

  // After all that abuse the server still serves fresh connections.
  std::unique_ptr<Client> client = MustConnect();
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServeTest, ShutdownDrainsInFlightWorkThenRefusesConnections) {
  ServerOptions options;
  // Hold every non-shutdown handler long enough that the drain demonstrably
  // begins while the detect below is still in flight.
  options.handler_delay_seconds = 0.4;
  StartServer(options);

  std::unique_ptr<Client> worker = MustConnect();
  std::unique_ptr<Client> controller = MustConnect();

  std::atomic<bool> detect_ok{false};
  std::thread in_flight([&worker, &detect_ok] {
    Result<WireDetectionReport> served = worker->Detect(DetectScope::kFull);
    detect_ok.store(served.ok());
  });

  // Give the detect frame time to arrive and enter its (delayed) handler,
  // then order the drain from a second session.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(controller->Shutdown().ok());
  EXPECT_TRUE(server_->draining());

  // The in-flight request must still complete with a full response.
  in_flight.join();
  EXPECT_TRUE(detect_ok.load()) << "in-flight request was not drained";

  server_->WaitUntilStopped();

  // New connections are refused (or at best connect and get no service).
  auto rejected = Client::Connect(server_->port());
  if (rejected.ok()) {
    EXPECT_FALSE((*rejected)->Ping().ok());
  }
  EXPECT_GE(server_->requests_served(), 2u);
}

TEST_F(ServeTest, StopIsIdempotentAndBeginDrainAloneStops) {
  StartServer();
  std::unique_ptr<Client> client = MustConnect();
  ASSERT_TRUE(client->Ping().ok());
  server_->BeginDrain();
  server_->WaitUntilStopped();
  server_->Stop();  // second stop: no deadlock, no double join
  auto rejected = Client::Connect(server_->port());
  if (rejected.ok()) {
    EXPECT_FALSE((*rejected)->Ping().ok());
  }
}

TEST_F(ServeTest, SequentialConnectionsDoNotKeepTheirThreadStacks) {
  StartServer();
  auto cycle = [&] {
    std::unique_ptr<Client> client = MustConnect();
    ASSERT_TRUE(client->Ping().ok());
  };
  for (int i = 0; i < 20; ++i) cycle();  // warm the allocators
  const size_t before = VirtualKib();
  ASSERT_GT(before, 0u);
  // One connection at a time, each closed before the next opens. A
  // connection thread that is never joined keeps its stack mapped (8 MiB
  // by default), so 200 of them would add about 1.6 GiB.
  for (int i = 0; i < 200; ++i) cycle();
  const size_t after = VirtualKib();
  EXPECT_LT(after, before + 256 * 1024)
      << "VmSize grew from " << before << " KiB to " << after << " KiB";
  EXPECT_EQ(server_->requests_served(), 220u);
}

}  // namespace
}  // namespace rock::serve

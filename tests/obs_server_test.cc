// Tests for the live telemetry plane (src/obs/server.{h,cc}): request-line
// parsing, endpoint routing, HTTP serialization, and a live server driven
// through obs::HttpFetch (rock_analyze.py keeps raw sockets out of tests). The
// *Concurrent* test runs under the CI TSan matrix.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/obs/exporters.h"
#include "src/obs/metrics.h"
#include "src/obs/server.h"
#include "src/obs/trace.h"
#include "src/workload/generator.h"

namespace rock::obs {
namespace {

TEST(ParseRequestLineTest, WellFormed) {
  HttpRequest request;
  ASSERT_TRUE(
      ParseRequestLine("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n", &request)
          .ok());
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/metrics");
  EXPECT_EQ(request.version, "HTTP/1.1");

  ASSERT_TRUE(ParseRequestLine("HEAD / HTTP/1.0\r\n\r\n", &request).ok());
  EXPECT_EQ(request.method, "HEAD");
}

TEST(ParseRequestLineTest, MalformedInputsRejected) {
  HttpRequest request;
  EXPECT_FALSE(ParseRequestLine("", &request).ok());
  EXPECT_FALSE(ParseRequestLine("\r\n", &request).ok());
  EXPECT_FALSE(ParseRequestLine("GET\r\n", &request).ok());
  EXPECT_FALSE(ParseRequestLine("GET /metrics\r\n", &request).ok());
  EXPECT_FALSE(
      ParseRequestLine("GET /a b HTTP/1.1\r\n", &request).ok());
  EXPECT_FALSE(ParseRequestLine("GET /metrics HTTP/2\r\n", &request).ok());
  EXPECT_FALSE(ParseRequestLine("GET /metrics FTP/1.1\r\n", &request).ok());
  EXPECT_FALSE(
      ParseRequestLine(std::string("GET /\0 HTTP/1.1\r\n", 17), &request)
          .ok());
}

HttpRequest Get(const std::string& target) {
  HttpRequest request;
  request.method = "GET";
  request.target = target;
  request.version = "HTTP/1.1";
  return request;
}

TEST(HandleTelemetryRequestTest, RoutesAllEndpoints) {
  HttpResponse metrics = HandleTelemetryRequest(Get("/metrics"), "b", 1.0);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.body.find("rock_obs_dropped_spans"), std::string::npos);

  HttpResponse telemetry =
      HandleTelemetryRequest(Get("/telemetry.json"), "b", 1.0);
  EXPECT_EQ(telemetry.status, 200);
  EXPECT_NE(telemetry.body.find("\"counters\""), std::string::npos);

  HttpResponse trace = HandleTelemetryRequest(Get("/trace.json"), "b", 1.0);
  EXPECT_EQ(trace.status, 200);
  EXPECT_NE(trace.body.find("\"traceEvents\""), std::string::npos);

  HttpResponse health =
      HandleTelemetryRequest(Get("/healthz"), "test-build", 2.5);
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.body.find("test-build"), std::string::npos);

  // Query strings route to the same endpoint.
  EXPECT_EQ(HandleTelemetryRequest(Get("/healthz?verbose=1"), "b", 1.0).status,
            200);
}

TEST(HandleTelemetryRequestTest, UnknownPathAndBadMethod) {
  HttpResponse missing = HandleTelemetryRequest(Get("/nope"), "b", 1.0);
  EXPECT_EQ(missing.status, 404);
  // The 404 body lists the endpoints that do exist.
  EXPECT_NE(missing.body.find("/metrics"), std::string::npos);

  HttpRequest post = Get("/metrics");
  post.method = "POST";
  EXPECT_EQ(HandleTelemetryRequest(post, "b", 1.0).status, 405);
}

TEST(SerializeHttpResponseTest, FullAndHeadForms) {
  HttpResponse response;
  response.status = 200;
  response.content_type = "text/plain";
  response.body = "hello";
  std::string full = SerializeHttpResponse(response, true);
  EXPECT_EQ(full.find("HTTP/1.1 200 OK\r\n"), 0u);
  EXPECT_NE(full.find("Content-Type: text/plain\r\n"), std::string::npos);
  EXPECT_NE(full.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(full.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(full.substr(full.size() - 5), "hello");

  // HEAD keeps the Content-Length of the omitted body.
  std::string head = SerializeHttpResponse(response, false);
  EXPECT_NE(head.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_EQ(head.substr(head.size() - 4), "\r\n\r\n");
}

TEST(SerializeHttpResponseTest, ReasonPhrases) {
  EXPECT_STREQ(HttpStatusReason(200), "OK");
  EXPECT_STREQ(HttpStatusReason(400), "Bad Request");
  EXPECT_STREQ(HttpStatusReason(404), "Not Found");
  EXPECT_STREQ(HttpStatusReason(405), "Method Not Allowed");
  EXPECT_STREQ(HttpStatusReason(431), "Request Header Fields Too Large");
}

class TelemetryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TelemetryServer::Options options;
    options.port = 0;  // ephemeral
    options.build_info = "server-test";
    auto server = TelemetryServer::Start(options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
    ASSERT_GT(server_->port(), 0);
  }

  std::string Fetch(const std::string& raw) {
    auto response = HttpFetch(server_->port(), raw);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? std::move(response).value() : std::string();
  }

  std::unique_ptr<TelemetryServer> server_;
};

TEST_F(TelemetryServerTest, ServesAllFourEndpoints) {
  { ROCK_OBS_SPAN("server_test.phase"); }
  std::string metrics = Fetch("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(metrics.find("HTTP/1.1 200 OK\r\n"), 0u);
  EXPECT_NE(metrics.find("rock_obs_dropped_spans"), std::string::npos);

  std::string telemetry =
      Fetch("GET /telemetry.json HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(telemetry.find("\"spans\""), std::string::npos);

  std::string trace = Fetch("GET /trace.json HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);

  std::string health = Fetch("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("server-test"), std::string::npos);
}

TEST_F(TelemetryServerTest, ErrorResponses) {
  std::string missing = Fetch("GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(missing.find("HTTP/1.1 404 Not Found\r\n"), 0u);

  std::string malformed = Fetch("how about no\r\n\r\n");
  EXPECT_EQ(malformed.find("HTTP/1.1 400 Bad Request\r\n"), 0u);

  // A request head past kMaxRequestBytes is answered 431.
  std::string oversized = "GET /metrics HTTP/1.1\r\nX-Pad: " +
                          std::string(kMaxRequestBytes + 1024, 'a') +
                          "\r\n\r\n";
  std::string too_large = Fetch(oversized);
  EXPECT_EQ(too_large.find("HTTP/1.1 431 "), 0u);
}

TEST_F(TelemetryServerTest, HeadOmitsBodyKeepsLength) {
  std::string head = Fetch("HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(head.find("HTTP/1.1 200 OK\r\n"), 0u);
  EXPECT_NE(head.find("Content-Length: "), std::string::npos);
  // Head ends at the blank line — no body follows.
  EXPECT_EQ(head.substr(head.size() - 4), "\r\n\r\n");
  EXPECT_EQ(head.find("\"status\""), std::string::npos);
}

TEST_F(TelemetryServerTest, StopIsIdempotent) {
  server_->Stop();
  server_->Stop();
  EXPECT_FALSE(HttpFetch(server_->port(), "GET / HTTP/1.1\r\n\r\n").ok());
}

// 4 scraper threads hammer every endpoint while spans and metrics are
// being recorded — the TSan CI job runs this against the serving thread.
TEST_F(TelemetryServerTest, ConcurrentScrapesWhileRecording) {
  constexpr int kScrapers = 4;
  constexpr int kRequests = 8;
  const char* requests[] = {
      "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
      "GET /telemetry.json HTTP/1.1\r\nHost: x\r\n\r\n",
      "GET /trace.json HTTP/1.1\r\nHost: x\r\n\r\n",
      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
  };
  // Start from an empty ring: under TSan a trace serialization is ~80x
  // slower, and spans accumulated by earlier tests would push the serial
  // /trace.json responses past the client timeout.
  Tracer::Global().Reset();
  std::atomic<bool> stop{false};
  std::thread recorder([&stop] {
    Tracer::Global().SetThisThreadName("recorder");
    Counter* counter =
        MetricsRegistry::Global().GetCounter("rock_server_test_total");
    while (!stop.load(std::memory_order_relaxed)) {
      ROCK_OBS_SPAN("server_test.record");
      counter->Add();
      // Keep racing the scrapers without hogging the core or growing the
      // ring unboundedly (single-core CI runners serve everything here).
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  scrapers.reserve(kScrapers);
  for (int scraper = 0; scraper < kScrapers; ++scraper) {
    scrapers.emplace_back([this, scraper, &requests, &failures] {
      for (int i = 0; i < kRequests; ++i) {
        auto response =
            HttpFetch(server_->port(), requests[(scraper + i) % 4]);
        if (!response.ok() ||
            response.value().find("HTTP/1.1 200 OK\r\n") != 0) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& scraper : scrapers) scraper.join();
  stop.store(true, std::memory_order_relaxed);
  recorder.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(RockFacadeTest, StartAndStopTelemetryServer) {
  workload::GeneratorOptions options;
  options.rows = 40;
  options.seed = 7;
  workload::GeneratedData data = workload::MakeBankData(options);
  core::Rock rock(&data.db, &data.graph);

  EXPECT_EQ(rock.telemetry_server_port(), -1);
  ASSERT_TRUE(rock.StartTelemetryServer(0).ok());
  int port = rock.telemetry_server_port();
  ASSERT_GT(port, 0);

  auto health = HttpFetch(port, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_NE(health.value().find("rock core"), std::string::npos);

  // A second server on the same instance is refused, not leaked.
  Status again = rock.StartTelemetryServer(0);
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);

  rock.StopTelemetryServer();
  EXPECT_EQ(rock.telemetry_server_port(), -1);
}

}  // namespace
}  // namespace rock::obs

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/net.h"
#include "src/common/status.h"

namespace rock::obs {

/// Upper bound on an accepted request's head (request line + headers).
/// Anything longer is answered with 431 and the connection is closed.
inline constexpr size_t kMaxRequestBytes = 16 * 1024;

/// A parsed HTTP/1.1 request head. Only what the telemetry endpoints
/// need: method, target, and the raw header block (unsplit — no endpoint
/// reads individual headers today).
struct HttpRequest {
  std::string method;
  std::string target;
  std::string version;
};

/// Response as handler output; serialization adds status line, headers,
/// Content-Length, and Connection: close.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Parses the request line out of `raw` (everything up to the first CRLF).
/// InvalidArgument on malformed input: missing tokens, embedded NUL, or a
/// version that is not HTTP/1.x.
Status ParseRequestLine(const std::string& raw, HttpRequest* out);

/// Routes a parsed request to a telemetry endpoint. Pure apart from
/// snapshotting the global registry/tracer: GET|HEAD /metrics,
/// /telemetry.json, /trace.json, /healthz; 404 for unknown targets, 405
/// for other methods. `build_info` and `uptime_seconds` feed /healthz.
HttpResponse HandleTelemetryRequest(const HttpRequest& request,
                                    const std::string& build_info,
                                    double uptime_seconds);

/// Full wire bytes for `response`; `include_body` is false for HEAD (the
/// Content-Length still describes the omitted body).
std::string SerializeHttpResponse(const HttpResponse& response,
                                  bool include_body);

/// Reason phrase for the status codes the telemetry plane emits.
const char* HttpStatusReason(int status);

/// The live telemetry plane: a dependency-free HTTP/1.1 server over the
/// loopback sockets of src/common/net.h on one background thread, serving
/// point-in-time views of the process-global metrics registry and tracer.
///
/// Endpoints (GET and HEAD):
///   /metrics         Prometheus text exposition
///   /telemetry.json  counters/gauges/histograms/spans as JSON
///   /trace.json      Chrome trace-event timeline (Perfetto-loadable)
///   /healthz         liveness + build info + uptime
///
/// Connections are handled serially on the server thread; every response
/// closes its connection. Scrape traffic is a few requests per second, so
/// queueing in the listen backlog beats spawning per-connection threads.
class TelemetryServer {
 public:
  struct Options {
    /// TCP port to listen on; 0 picks an ephemeral port (read it back via
    /// port()). Binds 127.0.0.1 only — this is an introspection plane,
    /// not a public API.
    int port = 0;
    /// Free-text build/version string surfaced by /healthz.
    std::string build_info = "rock-dev";
  };

  /// Binds, listens, and starts the serving thread. Fails with Internal
  /// if the port cannot be bound.
  static Result<std::unique_ptr<TelemetryServer>> Start(
      const Options& options);

  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// The bound port (resolved when Options::port was 0).
  int port() const { return port_; }

  /// Stops the accept loop and joins the serving thread. Idempotent.
  void Stop();

 private:
  TelemetryServer(net::Socket listener, int port, Options options);
  void Serve();
  void HandleConnection(const net::Socket& client);

  net::Socket listener_;
  int port_;
  Options options_;
  double started_seconds_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Sends `raw_request` verbatim to 127.0.0.1:`port` and returns the full
/// raw response (headers + body).
Result<std::string> HttpFetch(int port, const std::string& raw_request);

}  // namespace rock::obs

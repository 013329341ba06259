#pragma once

// Client side of the rockd wire protocol: one blocking connection with a
// typed method per verb, plus raw frame access (SendRaw/ReadResponse) so
// the robustness tests can shove malformed bytes at a live server and
// still parse whatever diagnostic comes back.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/net.h"
#include "src/common/status.h"
#include "src/serve/protocol.h"

namespace rock::serve {

class Client {
 public:
  /// Connects to rockd on 127.0.0.1:port. `recv_timeout_seconds` bounds
  /// every read so a wedged server fails the call instead of hanging it.
  static Result<std::unique_ptr<Client>> Connect(
      int port, double recv_timeout_seconds = 10.0);

  ~Client() = default;

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Typed verbs. Each is one request/response round trip; a non-OK wire
  // status comes back as the returned Status/Result error.

  Status Ping();

  /// Appends `tuples` to relation `rel`; returns the tids assigned, in
  /// order. The tuples also join this session's incremental-detect delta.
  Result<std::vector<int64_t>> Ingest(int rel, const std::vector<Tuple>& tuples);

  Result<WireDetectionReport> Detect(DetectScope scope = DetectScope::kFull);

  struct Explanation {
    std::string text;
    std::string json;
  };
  Result<Explanation> Explain(int rel, int64_t tid, int attr,
                              int max_depth = 32);

  /// The server's /telemetry.json document.
  Result<std::string> Telemetry();

  /// Asks the server to drain. OK means the server acknowledged before
  /// starting its wind-down.
  Status Shutdown();

  // Raw access for tests and the load generator.

  /// Encodes, frames, sends, and reads back the matching response.
  /// Verifies the echoed id.
  Result<Response> RoundTrip(const Request& request);

  /// Writes arbitrary bytes to the socket, unframed and unvalidated —
  /// the robustness tests' entry point for malformed frames.
  Status SendRaw(std::string_view bytes);

  /// Reads one framed Response off the socket.
  Result<Response> ReadResponse();

  /// Fresh request id (monotonic per connection).
  uint64_t NextId() { return next_id_++; }

 private:
  explicit Client(net::Socket socket) : socket_(std::move(socket)) {}

  net::Socket socket_;
  uint64_t next_id_ = 1;
};

}  // namespace rock::serve

#pragma once

// rockd: the online cleaning service. A RockServer owns a loaded
// core::Rock engine and serves the binary protocol in src/serve/protocol.h
// over the loopback sockets of src/common/net.h: ingest (submit tuples),
// detect (full or session-incremental), explain (why-provenance of a
// repaired cell), telemetry (the /telemetry.json document) and shutdown
// (graceful drain).
//
// Concurrency model: one accept-loop thread plus one thread per live
// connection; the accept loop joins each connection thread once it has
// finished serving. Engine access is serialized through a readers-writer
// lock — ingest takes the writer side, detect/explain the reader side — so
// served results are computed by exactly the same library calls a
// linked-in caller would make, on a quiescent engine, and compare bitwise
// equal to them (tests/serve_test.cc proves this).
//
// Session model: each connection is a session. A session accumulates the
// tids it has ingested; a detect request with DetectScope::kSession runs
// incremental detection over exactly that delta.
//
// Drain semantics (the shutdown verb, or BeginDrain()):
//   1. the listen socket closes — new connections are refused;
//   2. requests already received keep executing and their responses are
//      sent in full;
//   3. idle connections (no request in flight) close;
//   4. a connection caught mid-frame gets a short grace period to finish
//      sending, then closes without a response;
//   5. WaitUntilStopped()/Stop() joins every thread.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/net.h"
#include "src/common/status.h"
#include "src/core/engine.h"
#include "src/serve/protocol.h"

namespace rock::serve {

struct ServerOptions {
  /// TCP port; 0 picks an ephemeral port (read back via port()). Binds
  /// 127.0.0.1 only, like the telemetry plane.
  int port = 0;
  /// Test hook: every non-shutdown request handler sleeps this long before
  /// executing, so tests can deterministically hold a request in flight
  /// across a drain. 0 in production.
  double handler_delay_seconds = 0;
};

/// Long-lived server around a core::Rock engine. The engine (and the
/// database/graph behind it) must outlive the server; the server is the
/// engine's only user while running (it serializes its own access, but
/// cannot see external callers).
class RockServer {
 public:
  /// Binds, listens and starts the accept loop. The engine should already
  /// be set up: models trained, rules activated, and — if explain is to
  /// return non-empty proofs — a correction pass run.
  static Result<std::unique_ptr<RockServer>> Start(core::Rock* rock,
                                                   ServerOptions options);

  ~RockServer();

  RockServer(const RockServer&) = delete;
  RockServer& operator=(const RockServer&) = delete;

  /// The bound port (resolved when ServerOptions::port was 0).
  int port() const { return port_; }

  /// True once a shutdown request or BeginDrain() was observed.
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// Initiates graceful drain (idempotent, non-blocking): stop accepting,
  /// finish in-flight requests, close sessions.
  void BeginDrain();

  /// Blocks until drain has been requested (by BeginDrain or a client's
  /// shutdown verb) and every server thread has exited. Safe to call from
  /// any thread except a connection handler.
  void WaitUntilStopped();

  /// BeginDrain() + WaitUntilStopped(). Idempotent.
  void Stop();

  /// Total requests answered (any status), across all sessions.
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-connection session state; owned by the connection thread.
  struct Session {
    uint64_t id = 0;
    /// (rel, tid) of every tuple this session ingested — the ΔD that
    /// DetectScope::kSession ranges over.
    std::vector<std::pair<int, int64_t>> ingested;
  };

  RockServer(core::Rock* rock, net::Socket listener, int port,
             ServerOptions options);

  enum class FrameRead {
    kOk,             // *payload holds one validated frame payload
    kClosed,         // close quietly: EOF, drain while idle, grace expired
    kProtocolError,  // *error explains; send an error response, then close
  };

  void AcceptLoop();
  /// Joins the connection threads that have finished serving.
  void ReapFinishedConnections();
  void ServeConnection(const net::Socket& client, uint64_t session_id);
  FrameRead ReadFrame(const net::Socket& client, std::string* payload,
                      Status* error);
  Response Dispatch(const Request& request, Session* session);

  // Set once in the constructor, immutable afterwards (listener_ is
  // closed only by the accept loop as it exits).
  core::Rock* rock_;  // not owned  // ROCK_ANALYZE(unguarded-ok: construction-immutable)
  net::Socket listener_;  // ROCK_ANALYZE(unguarded-ok: construction-immutable; closed only by the accept thread)
  int port_;  // ROCK_ANALYZE(unguarded-ok: construction-immutable)
  ServerOptions options_;  // ROCK_ANALYZE(unguarded-ok: construction-immutable)

  /// Serializes engine access across sessions: ingest writes, everything
  /// else reads.
  common::SharedMutex engine_mu_;

  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> next_session_id_{1};

  common::Mutex state_mu_;
  /// Connection threads not yet joined, by session id. A thread lists its
  /// id in finished_connections_ as its last act.
  std::map<uint64_t, std::thread> connection_threads_
      ROCK_GUARDED_BY(state_mu_);
  std::vector<uint64_t> finished_connections_ ROCK_GUARDED_BY(state_mu_);

  /// Serializes WaitUntilStopped callers (std::thread::join is
  /// single-caller). Lock order: join_mu_ before state_mu_.
  common::Mutex join_mu_;
  bool joined_ ROCK_GUARDED_BY(join_mu_) = false;

  // Spawned in the constructor; joined exactly once by the joined_-gated
  // section of WaitUntilStopped, which runs under join_mu_.
  std::thread accept_thread_;  // ROCK_ANALYZE(unguarded-ok: join gated by joined_ under join_mu_)
};

}  // namespace rock::serve

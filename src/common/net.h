#pragma once

// The one loopback-TCP seam. Every socket Rock opens — the telemetry
// plane (obs::TelemetryServer, obs::HttpFetch), rockd (serve::RockServer)
// and its client (serve::Client) — is opened, accepted on, connected,
// timed out and written through these wrappers; src/common/net.cc is the
// only file that includes the POSIX socket headers
// (scripts/rock_analyze.py's raw-socket check enforces that).

#include <sys/types.h>

#include <cstddef>
#include <string_view>

#include "src/common/status.h"

namespace rock::net {

/// Owns one socket descriptor and closes it on destruction. Move-only; a
/// default-constructed (or moved-from) Socket holds nothing.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Closes the descriptor now (idempotent).
  void Close();

 private:
  int fd_ = -1;
};

/// Binds 127.0.0.1:`port` (0 picks an ephemeral port) with SO_REUSEADDR
/// and listens. `*bound_port` receives the port actually bound.
Result<Socket> ListenLoopback(int port, int* bound_port);

/// Waits up to `timeout_ms` for a pending connection on `listener` and
/// accepts it. Returns an invalid Socket on timeout, EINTR or a failed
/// accept, so accept loops can re-check their stop flag and go round.
Socket AcceptWithTimeout(const Socket& listener, int timeout_ms);

/// Connects to 127.0.0.1:`port`; the error names the address.
Result<Socket> ConnectLoopback(int port);

/// Bounds every blocking receive on `socket` by `seconds` (SO_RCVTIMEO):
/// a timed-out Recv returns -1 with errno EAGAIN/EWOULDBLOCK.
void SetRecvTimeout(const Socket& socket, double seconds);

/// Writes all of `bytes`, retrying EINTR. MSG_NOSIGNAL: a peer that has
/// gone away yields an error Status, never SIGPIPE.
Status SendAll(const Socket& socket, std::string_view bytes);

/// One recv(2): bytes read, 0 on EOF, -1 with errno set on error.
ssize_t Recv(const Socket& socket, char* buf, size_t len);

/// Half-closes the write side (FIN to the peer, reads still work).
void ShutdownWrite(const Socket& socket);

}  // namespace rock::net

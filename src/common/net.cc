#include "src/common/net.h"

#include "src/common/strings.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

namespace rock::net {
namespace {

/// Listen backlog of every Rock listener.
constexpr int kListenBacklog = 128;

sockaddr_in LoopbackAddress(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  return addr;
}

Status Errno(const std::string& call) {
  return Status::Internal(call + ": " + std::strerror(errno));
}

}  // namespace

Socket::Socket(Socket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Result<Socket> ListenLoopback(int port, int* bound_port) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) return Errno("socket()");
  int one = 1;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddress(port);
  if (::bind(socket.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno(StrFormat("bind(127.0.0.1:%d)", port));
  }
  if (::listen(socket.fd(), kListenBacklog) != 0) return Errno("listen()");
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    return Errno("getsockname()");
  }
  *bound_port = ntohs(addr.sin_port);
  return socket;
}

Socket AcceptWithTimeout(const Socket& listener, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = listener.fd();
  pfd.events = POLLIN;
  if (::poll(&pfd, 1, timeout_ms) <= 0) return Socket();
  return Socket(::accept(listener.fd(), nullptr, nullptr));
}

Result<Socket> ConnectLoopback(int port) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) return Errno("socket()");
  sockaddr_in addr = LoopbackAddress(port);
  if (::connect(socket.fd(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Errno(StrFormat("connect(127.0.0.1:%d)", port));
  }
  return socket;
}

void SetRecvTimeout(const Socket& socket, double seconds) {
  timeval timeout{};
  timeout.tv_sec = static_cast<time_t>(seconds);
  timeout.tv_usec =
      static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6);
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
               sizeof(timeout));
}

Status SendAll(const Socket& socket, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(socket.fd(), bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::Internal(std::string("send(): ") +
                              (n == 0 ? "connection closed"
                                      : std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

ssize_t Recv(const Socket& socket, char* buf, size_t len) {
  return ::recv(socket.fd(), buf, len, 0);
}

void ShutdownWrite(const Socket& socket) { ::shutdown(socket.fd(), SHUT_WR); }

}  // namespace rock::net

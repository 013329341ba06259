#include "src/obs/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/obs/exporters.h"
#include "src/obs/profile.h"

namespace rock::obs {
namespace {

/// Reads until the header terminator (CRLFCRLF), the size cap, EOF, or
/// the socket's receive timeout. Returns what was read; the caller
/// decides whether it is complete.
std::string ReadRequestHead(int fd) {
  std::string head;
  char buf[2048];
  while (head.size() < kMaxRequestBytes + 1) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    head.append(buf, static_cast<size_t>(n));
    if (head.find("\r\n\r\n") != std::string::npos) break;
    // Accept bare-LF termination from sloppy clients.
    if (head.find("\n\n") != std::string::npos) break;
  }
  return head;
}

void SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

}  // namespace

const char* HttpStatusReason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 431:
      return "Request Header Fields Too Large";
    default:
      return "Unknown";
  }
}

Status ParseRequestLine(const std::string& raw, HttpRequest* out) {
  size_t eol = raw.find('\n');
  std::string line = raw.substr(0, eol == std::string::npos ? raw.size() : eol);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.empty()) return Status::InvalidArgument("empty request line");
  if (line.find('\0') != std::string::npos) {
    return Status::InvalidArgument("NUL byte in request line");
  }
  size_t sp1 = line.find(' ');
  size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    return Status::InvalidArgument("request line needs three tokens: " + line);
  }
  HttpRequest request;
  request.method = line.substr(0, sp1);
  request.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  request.version = line.substr(sp2 + 1);
  if (request.method.empty() || request.target.empty() ||
      request.target.find(' ') != std::string::npos) {
    return Status::InvalidArgument("malformed request line: " + line);
  }
  if (request.version.rfind("HTTP/1.", 0) != 0) {
    return Status::InvalidArgument("unsupported version: " + request.version);
  }
  *out = std::move(request);
  return Status::Ok();
}

HttpResponse HandleTelemetryRequest(const HttpRequest& request,
                                    const std::string& build_info,
                                    double uptime_seconds) {
  HttpResponse response;
  if (request.method != "GET" && request.method != "HEAD") {
    response.status = 405;
    response.body = "only GET and HEAD are supported\n";
    return response;
  }
  // Strip a query string: scrapers append cache-busters.
  std::string path = request.target.substr(0, request.target.find('?'));
  if (path == "/metrics") {
    TelemetrySnapshot snap = CaptureGlobalTelemetry();
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = snap.ToPrometheus();
  } else if (path == "/telemetry.json") {
    response.content_type = "application/json";
    response.body = CaptureGlobalTelemetry().ToJson();
  } else if (path == "/trace.json") {
    response.content_type = "application/json";
    response.body = CaptureGlobalTelemetry().ToChromeTrace();
#ifndef ROCK_OBS_DISABLE_PROFILER
  } else if (path == "/profile.folded") {
    response.content_type = "text/plain; charset=utf-8";
    response.body = CpuProfiler::Global().Folded();
  } else if (path == "/profile.json") {
    response.content_type = "application/json";
    response.body = CpuProfiler::Global().Json();
#endif
  } else if (path == "/healthz") {
    JsonWriter w;
    w.BeginObject();
    w.Key("status").String("ok");
    w.Key("build_info").String(build_info);
    w.Key("uptime_seconds").Number(uptime_seconds);
    w.EndObject();
    response.content_type = "application/json";
    response.body = w.str();
  } else {
    response.status = 404;
    response.body =
        "unknown path " + path +
#ifndef ROCK_OBS_DISABLE_PROFILER
        " (try /metrics /telemetry.json /trace.json /profile.folded"
        " /profile.json /healthz)\n";
#else
        " (try /metrics /telemetry.json /trace.json /healthz)\n";
#endif
  }
  return response;
}

std::string SerializeHttpResponse(const HttpResponse& response,
                                  bool include_body) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    HttpStatusReason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  if (include_body) out += response.body;
  return out;
}

Result<std::unique_ptr<TelemetryServer>> TelemetryServer::Start(
    const Options& options) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("bind(127.0.0.1:" +
                            std::to_string(options.port) + "): " + err);
  }
  if (::listen(fd, 64) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("listen(): " + err);
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("getsockname(): " + err);
  }
  int port = ntohs(addr.sin_port);
  std::unique_ptr<TelemetryServer> server(
      new TelemetryServer(fd, port, options));
  return server;
}

TelemetryServer::TelemetryServer(int listen_fd, int port, Options options)
    : listen_fd_(listen_fd),
      port_(port),
      options_(std::move(options)),
      started_seconds_(SteadySeconds()) {
  thread_ = std::thread([this] { Serve(); });
  ROCK_LOG(kInfo) << "telemetry server listening on 127.0.0.1:" << port_;
}

TelemetryServer::~TelemetryServer() { Stop(); }

void TelemetryServer::Stop() {
  bool expected = false;
  if (!stop_.compare_exchange_strong(expected, true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
}

void TelemetryServer::Serve() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout (re-check stop flag) or EINTR
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    HandleConnection(client);
    ::close(client);
  }
}

void TelemetryServer::HandleConnection(int client_fd) {
  // A slow or stalled client must not wedge the serial accept loop.
  timeval timeout{};
  timeout.tv_sec = 2;
  ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  std::string head = ReadRequestHead(client_fd);
  HttpResponse response;
  HttpRequest request;
  bool head_only = false;
  if (head.size() > kMaxRequestBytes) {
    response.status = 431;
    response.body = "request head exceeds " +
                    std::to_string(kMaxRequestBytes) + " bytes\n";
  } else {
    Status parsed = ParseRequestLine(head, &request);
    if (!parsed.ok()) {
      response.status = 400;
      response.body = parsed.message() + "\n";
    } else {
      head_only = request.method == "HEAD";
      response = HandleTelemetryRequest(
          request, options_.build_info, SteadySeconds() - started_seconds_);
    }
  }
  SendAll(client_fd, SerializeHttpResponse(response, !head_only));
  // Drain whatever the client is still sending (the tail of an oversized
  // head, say) before the caller closes the socket: closing with unread
  // input makes the kernel send RST, which can destroy the response in
  // flight. Bounded by the 2s receive timeout set above.
  ::shutdown(client_fd, SHUT_WR);
  char drain[2048];
  while (::recv(client_fd, drain, sizeof(drain), 0) > 0) {
  }
}

Result<std::string> HttpFetch(int port, const std::string& raw_request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("connect(127.0.0.1:" + std::to_string(port) +
                            "): " + err);
  }
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  SendAll(fd, raw_request);
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  while (true) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (response.empty()) return Status::Internal("empty response");
  return response;
}

}  // namespace rock::obs

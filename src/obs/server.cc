#include "src/obs/server.h"

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/common/timer.h"
#include "src/obs/exporters.h"
#include "src/obs/profile.h"

namespace rock::obs {
namespace {

/// Reads until the header terminator (CRLFCRLF), the size cap, EOF, or
/// the socket's receive timeout. Returns what was read; the caller
/// decides whether it is complete.
std::string ReadRequestHead(const net::Socket& client) {
  std::string head;
  char buf[2048];
  while (head.size() < kMaxRequestBytes + 1) {
    ssize_t n = net::Recv(client, buf, sizeof(buf));
    if (n <= 0) break;
    head.append(buf, static_cast<size_t>(n));
    if (head.find("\r\n\r\n") != std::string::npos) break;
    // Accept bare-LF termination from sloppy clients.
    if (head.find("\n\n") != std::string::npos) break;
  }
  return head;
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
  } else if (path == "/profile.folded") {
    response.content_type = "text/plain; charset=utf-8";
    response.body = CpuProfiler::Global().Folded();
  } else if (path == "/profile.json") {
    response.content_type = "application/json";
    response.body = CpuProfiler::Global().Json();
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
        " (try /metrics /telemetry.json /trace.json /profile.folded"
        " /profile.json /healthz)\n";
  }
  return response;
}

std::string SerializeHttpResponse(const HttpResponse& response,
                                  bool include_body) {
  std::string out = StrFormat("HTTP/1.1 %d %s\r\n", response.status,
                              HttpStatusReason(response.status));
  out += "Content-Type: " + response.content_type + "\r\n";
  out += StrFormat("Content-Length: %zu\r\n", response.body.size());
  out += "Connection: close\r\n\r\n";
  if (include_body) out += response.body;
  return out;
}

Result<std::unique_ptr<TelemetryServer>> TelemetryServer::Start(
    const Options& options) {
  int port = 0;
  Result<net::Socket> listener = net::ListenLoopback(options.port, &port);
  if (!listener.ok()) return listener.status();
  std::unique_ptr<TelemetryServer> server(
      new TelemetryServer(std::move(listener).value(), port, options));
  return server;
}

TelemetryServer::TelemetryServer(net::Socket listener, int port,
                                 Options options)
    : listener_(std::move(listener)),
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
  listener_.Close();
}

void TelemetryServer::Serve() {
  while (!stop_.load(std::memory_order_acquire)) {
    // Times out every 100ms to re-check the stop flag.
    net::Socket client = net::AcceptWithTimeout(listener_, 100);
    if (client.valid()) HandleConnection(client);
  }
}

void TelemetryServer::HandleConnection(const net::Socket& client) {
  // A slow or stalled client must not wedge the serial accept loop.
  net::SetRecvTimeout(client, 2.0);

  std::string head = ReadRequestHead(client);
  HttpResponse response;
  HttpRequest request;
  bool head_only = false;
  if (head.size() > kMaxRequestBytes) {
    response.status = 431;
    response.body =
        StrFormat("request head exceeds %zu bytes\n", kMaxRequestBytes);
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
  // A client that hung up early loses its response; nothing to report to.
  (void)net::SendAll(client, SerializeHttpResponse(response, !head_only));
  // Drain whatever the client is still sending (the tail of an oversized
  // head, say) before the caller closes the socket: closing with unread
  // input makes the kernel send RST, which can destroy the response in
  // flight. Bounded by the 2s receive timeout set above.
  net::ShutdownWrite(client);
  char drain[2048];
  while (net::Recv(client, drain, sizeof(drain)) > 0) {
  }
}

Result<std::string> HttpFetch(int port, const std::string& raw_request) {
  Result<net::Socket> socket = net::ConnectLoopback(port);
  if (!socket.ok()) return socket.status();
  net::SetRecvTimeout(*socket, 10.0);
  // On a failed send the server may still have answered (431 on an
  // oversized head): read whatever arrives.
  (void)net::SendAll(*socket, raw_request);
  net::ShutdownWrite(*socket);
  std::string response;
  char buf[4096];
  while (true) {
    ssize_t n = net::Recv(*socket, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  if (response.empty()) return Status::Internal("empty response");
  return response;
}

}  // namespace rock::obs

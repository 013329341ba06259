#include "src/serve/client.h"

#include "src/common/strings.h"

#include <cerrno>
#include <cstring>
#include <utility>

namespace rock::serve {
namespace {

Status RecvExact(const net::Socket& socket, char* buf, size_t want) {
  size_t got = 0;
  while (got < want) {
    ssize_t n = net::Recv(socket, buf + got, want - got);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      return Status::Internal("connection closed by server");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Internal("recv(): timed out waiting for the server");
    }
    return Status::Internal(std::string("recv(): ") + std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(int port,
                                                double recv_timeout_seconds) {
  Result<net::Socket> socket = net::ConnectLoopback(port);
  if (!socket.ok()) return socket.status();
  net::SetRecvTimeout(*socket, recv_timeout_seconds);
  return std::unique_ptr<Client>(new Client(std::move(socket).value()));
}

Status Client::SendRaw(std::string_view bytes) {
  return net::SendAll(socket_, bytes);
}

Result<Response> Client::ReadResponse() {
  char header_bytes[kFrameHeaderBytes];
  ROCK_RETURN_IF_ERROR(RecvExact(socket_, header_bytes, kFrameHeaderBytes));
  FrameHeader header;
  ROCK_RETURN_IF_ERROR(
      DecodeFrameHeader(std::string_view(header_bytes, kFrameHeaderBytes),
                        kMaxFrameBytes, &header));
  std::string payload(header.length, '\0');
  if (header.length > 0) {
    ROCK_RETURN_IF_ERROR(RecvExact(socket_, payload.data(), header.length));
  }
  ROCK_RETURN_IF_ERROR(CheckFramePayload(header, payload));
  Response response;
  ROCK_RETURN_IF_ERROR(DecodeResponse(payload, &response));
  return response;
}

Result<Response> Client::RoundTrip(const Request& request) {
  ROCK_RETURN_IF_ERROR(SendRaw(EncodeFrame(EncodeRequest(request))));
  Result<Response> response = ReadResponse();
  if (!response.ok()) return response;
  if (response->id != request.id) {
    return Status::Internal(
        StrFormat("response id %llu does not match request id %llu",
                  static_cast<unsigned long long>(response->id),
                  static_cast<unsigned long long>(request.id)));
  }
  return response;
}

namespace {

/// Lifts a wire-level error response into the client-side Status.
Status WireStatus(const Response& response) {
  if (response.code == StatusCode::kOk) return Status::Ok();
  return Status(response.code, response.error);
}

}  // namespace

Status Client::Ping() {
  Request request;
  request.verb = Verb::kPing;
  request.id = NextId();
  Result<Response> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  return WireStatus(*response);
}

Result<std::vector<int64_t>> Client::Ingest(int rel,
                                            const std::vector<Tuple>& tuples) {
  Request request;
  request.verb = Verb::kIngest;
  request.id = NextId();
  request.rel = rel;
  request.tuples = tuples;
  Result<Response> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  ROCK_RETURN_IF_ERROR(WireStatus(*response));
  return std::move(response->tids);
}

Result<WireDetectionReport> Client::Detect(DetectScope scope) {
  Request request;
  request.verb = Verb::kDetect;
  request.id = NextId();
  request.scope = scope;
  Result<Response> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  ROCK_RETURN_IF_ERROR(WireStatus(*response));
  return std::move(response->report);
}

Result<Client::Explanation> Client::Explain(int rel, int64_t tid, int attr,
                                            int max_depth) {
  Request request;
  request.verb = Verb::kExplain;
  request.id = NextId();
  request.explain_rel = rel;
  request.explain_tid = tid;
  request.explain_attr = attr;
  request.explain_max_depth = max_depth;
  Result<Response> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  ROCK_RETURN_IF_ERROR(WireStatus(*response));
  Explanation explanation;
  explanation.text = std::move(response->explain_text);
  explanation.json = std::move(response->explain_json);
  return explanation;
}

Result<std::string> Client::Telemetry() {
  Request request;
  request.verb = Verb::kTelemetry;
  request.id = NextId();
  Result<Response> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  ROCK_RETURN_IF_ERROR(WireStatus(*response));
  return std::move(response->telemetry_json);
}

Status Client::Shutdown() {
  Request request;
  request.verb = Verb::kShutdown;
  request.id = NextId();
  Result<Response> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  return WireStatus(*response);
}

}  // namespace rock::serve

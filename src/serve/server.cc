#include "src/serve/server.h"

#include <cerrno>
#include <chrono>
#include <thread>
#include <utility>

#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/obs/exporters.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace rock::serve {
namespace {

/// Seconds a connection caught mid-frame at drain time may take to finish
/// transmitting before the server gives up on it.
constexpr double kDrainGraceSeconds = 2.0;

void SendAll(const net::Socket& client, const std::string& bytes) {
  static obs::Counter* sent_total =
      obs::MetricsRegistry::Global().GetCounter("rock_serve_bytes_sent_total");
  if (net::SendAll(client, bytes).ok()) sent_total->Add(bytes.size());
}

}  // namespace

Result<std::unique_ptr<RockServer>> RockServer::Start(core::Rock* rock,
                                                      ServerOptions options) {
  if (rock == nullptr) {
    return Status::InvalidArgument("RockServer::Start: engine is null");
  }
  int port = 0;
  Result<net::Socket> listener = net::ListenLoopback(options.port, &port);
  if (!listener.ok()) return listener.status();
  std::unique_ptr<RockServer> server(new RockServer(
      rock, std::move(listener).value(), port, std::move(options)));
  return server;
}

RockServer::RockServer(core::Rock* rock, net::Socket listener, int port,
                       ServerOptions options)
    : rock_(rock), listener_(std::move(listener)), port_(port),
      options_(std::move(options)) {
  obs::MetricsRegistry::Global().SetHelp(
      "rock_serve_requests_total",
      "Requests answered by rockd, any verb and status.");
  obs::MetricsRegistry::Global().SetHelp(
      "rock_serve_protocol_errors_total",
      "Frames or payloads rejected by the wire-protocol decoder.");
  obs::MetricsRegistry::Global().SetHelp(
      "rock_serve_request_seconds",
      "Server-side request latency: frame decoded to response queued.");
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  ROCK_LOG(kInfo) << "rockd listening on 127.0.0.1:" << port_;
}

RockServer::~RockServer() { Stop(); }

void RockServer::BeginDrain() {
  bool expected = false;
  if (draining_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    obs::MetricsRegistry::Global().GetGauge("rock_serve_draining")->Set(1);
    ROCK_LOG(kInfo) << "rockd draining: refusing new connections";
  }
}

void RockServer::WaitUntilStopped() {
  common::MutexLock join_lock(join_mu_);
  if (joined_) return;
  // The accept loop exits only once drain is requested, so this join doubles
  // as the wait-for-drain.
  if (accept_thread_.joinable()) accept_thread_.join();
  std::map<uint64_t, std::thread> connections;
  {
    common::MutexLock lock(state_mu_);
    connections.swap(connection_threads_);
  }
  for (auto& [session_id, t] : connections) {
    if (t.joinable()) t.join();
  }
  joined_ = true;
  ROCK_LOG(kInfo) << "rockd stopped after " << requests_served() << " requests";
}

void RockServer::Stop() {
  BeginDrain();
  WaitUntilStopped();
}

void RockServer::AcceptLoop() {
  static obs::Counter* connections_total =
      obs::MetricsRegistry::Global().GetCounter("rock_serve_connections_total");
  while (!draining_.load(std::memory_order_acquire)) {
    ReapFinishedConnections();
    // Times out every 100ms to re-check the drain flag.
    net::Socket client = net::AcceptWithTimeout(listener_, 100);
    if (!client.valid()) continue;
    connections_total->Add();
    uint64_t session_id =
        next_session_id_.fetch_add(1, std::memory_order_relaxed);
    // Held while the thread is stored, so its last act (listing itself as
    // finished) always finds it in connection_threads_.
    common::MutexLock lock(state_mu_);
    connection_threads_.emplace(
        session_id,
        std::thread([this, client = std::move(client), session_id] {
          ServeConnection(client, session_id);
          common::MutexLock finished(state_mu_);
          finished_connections_.push_back(session_id);
        }));
  }
  // From here on connect() is refused, which is what "draining" promises.
  listener_.Close();
}

void RockServer::ReapFinishedConnections() {
  std::vector<std::thread> finished;
  {
    common::MutexLock lock(state_mu_);
    for (uint64_t session_id : finished_connections_) {
      auto it = connection_threads_.find(session_id);
      finished.push_back(std::move(it->second));
      connection_threads_.erase(it);
    }
    finished_connections_.clear();
  }
  // Each has returned from ServeConnection; join waits out its exit.
  for (std::thread& t : finished) t.join();
}

RockServer::FrameRead RockServer::ReadFrame(const net::Socket& client,
                                            std::string* payload,
                                            Status* error) {
  // Reads exactly `want` bytes. The 100ms SO_RCVTIMEO turns a blocked recv
  // into a tick on which we notice drain: idle connections (nothing read
  // yet, `started` false) close immediately; a connection caught mid-frame
  // gets kDrainGraceSeconds to finish before we give up on it.
  double drain_deadline = -1.0;
  auto recv_exact = [&](char* buf, size_t want, bool started) -> FrameRead {
    size_t got = 0;
    while (got < want) {
      ssize_t n = net::Recv(client, buf + got, want - got);
      if (n > 0) {
        got += static_cast<size_t>(n);
        started = true;
        continue;
      }
      if (n == 0) {  // EOF
        if (!started) return FrameRead::kClosed;
        *error = Status::InvalidArgument(
            "connection closed mid-frame (truncated frame)");
        return FrameRead::kProtocolError;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!draining_.load(std::memory_order_acquire)) continue;
        if (!started) return FrameRead::kClosed;
        if (drain_deadline < 0) {
          drain_deadline = SteadySeconds() + kDrainGraceSeconds;
        } else if (SteadySeconds() >= drain_deadline) {
          return FrameRead::kClosed;  // grace expired: close, no response
        }
        continue;
      }
      return FrameRead::kClosed;  // connection error
    }
    return FrameRead::kOk;
  };

  char header_bytes[kFrameHeaderBytes];
  FrameRead read = recv_exact(header_bytes, kFrameHeaderBytes,
                              /*started=*/false);
  if (read != FrameRead::kOk) return read;

  // An oversized or garbage length prefix dies here, before any payload
  // buffer is allocated.
  FrameHeader header;
  Status status =
      DecodeFrameHeader(std::string_view(header_bytes, kFrameHeaderBytes),
                        kMaxFrameBytes, &header);
  if (!status.ok()) {
    *error = std::move(status);
    return FrameRead::kProtocolError;
  }

  payload->resize(header.length);
  if (header.length > 0) {
    read = recv_exact(payload->data(), header.length, /*started=*/true);
    if (read != FrameRead::kOk) {
      if (read == FrameRead::kClosed) {
        *error = Status::InvalidArgument("timed out mid-frame during drain");
        return FrameRead::kProtocolError;
      }
      return read;
    }
  }
  status = CheckFramePayload(header, *payload);
  if (!status.ok()) {
    *error = std::move(status);
    return FrameRead::kProtocolError;
  }
  return FrameRead::kOk;
}

void RockServer::ServeConnection(const net::Socket& client,
                                 uint64_t session_id) {
  static obs::Gauge* active_gauge =
      obs::MetricsRegistry::Global().GetGauge("rock_serve_connections_active");
  static obs::Counter* requests_total =
      obs::MetricsRegistry::Global().GetCounter("rock_serve_requests_total");
  static obs::Counter* protocol_errors = obs::MetricsRegistry::Global()
      .GetCounter("rock_serve_protocol_errors_total");
  static obs::Gauge* inflight =
      obs::MetricsRegistry::Global().GetGauge("rock_serve_inflight_requests");
  static obs::Histogram* latency = obs::MetricsRegistry::Global().GetHistogram(
      "rock_serve_request_seconds", obs::LatencyBucketsSeconds());
  static obs::Counter* received_total = obs::MetricsRegistry::Global()
      .GetCounter("rock_serve_bytes_received_total");

  ROCK_OBS_SPAN("serve.connection");
  active_gauge->Add(1);
  net::SetRecvTimeout(client, 0.1);  // the drain-notice tick; see ReadFrame

  Session session;
  session.id = session_id;
  std::string payload;
  while (true) {
    Status error = Status::Ok();
    FrameRead read = ReadFrame(client, &payload, &error);
    if (read == FrameRead::kClosed) break;
    received_total->Add(kFrameHeaderBytes + payload.size());

    Request request;
    if (read == FrameRead::kOk) {
      Status decoded = DecodeRequest(payload, &request);
      if (!decoded.ok()) {
        read = FrameRead::kProtocolError;
        error = std::move(decoded);
      }
    }
    if (read == FrameRead::kProtocolError) {
      // A malformed frame earns one diagnostic response, then the
      // connection closes: after a framing error the stream offset can no
      // longer be trusted.
      protocol_errors->Add();
      Response reject;
      reject.verb = Verb::kPing;
      reject.id = 0;  // the id, if any, was inside the bytes we rejected
      reject.code = error.code() == StatusCode::kOk ? StatusCode::kInternal
                                                    : error.code();
      reject.error = error.message();
      // Counters bump before the send: once the client holds the response,
      // requests_served() must already reflect it.
      requests_total->Add();
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      SendAll(client, EncodeFrame(EncodeResponse(reject)));
      break;
    }

    inflight->Add(1);
    double start = SteadySeconds();
    Response response = Dispatch(request, &session);
    std::string frame = EncodeFrame(EncodeResponse(response));
    latency->Observe(SteadySeconds() - start);
    inflight->Add(-1);
    requests_total->Add();
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    SendAll(client, frame);
  }
  active_gauge->Add(-1);
}

Response RockServer::Dispatch(const Request& request, Session* session) {
  ROCK_OBS_SPAN("serve.dispatch");
  Response response;
  response.verb = request.verb;
  response.id = request.id;

  if (options_.handler_delay_seconds > 0 && request.verb != Verb::kShutdown) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.handler_delay_seconds));
  }

  switch (request.verb) {
    case Verb::kPing:
      break;

    case Verb::kIngest: {
      common::WriterLock lock(engine_mu_);
      Result<std::vector<int64_t>> tids =
          rock_->IngestBatch(request.rel, request.tuples);
      if (!tids.ok()) {
        response.code = tids.status().code();
        response.error = tids.status().message();
        break;
      }
      for (int64_t tid : tids.value()) {
        session->ingested.emplace_back(request.rel, tid);
      }
      response.tids = std::move(tids).value();
      break;
    }

    case Verb::kDetect: {
      common::ReaderLock lock(engine_mu_);
      if (rock_->active_rules().empty()) {
        response.code = StatusCode::kFailedPrecondition;
        response.error = "no rules activated on the server";
        break;
      }
      detect::DetectionReport report =
          request.scope == DetectScope::kSession
              ? rock_->DetectActiveIncremental(session->ingested)
              : rock_->DetectActive();
      response.report = ToWire(report);
      break;
    }

    case Verb::kExplain: {
      common::ReaderLock lock(engine_mu_);
      obs::ProofTree tree =
          rock_->Explain(request.explain_rel, request.explain_tid,
                         request.explain_attr, request.explain_max_depth);
      response.explain_text = tree.ToText();
      response.explain_json = tree.ToJson();
      break;
    }

    case Verb::kTelemetry:
      response.telemetry_json = obs::CaptureGlobalTelemetry().ToJson();
      break;

    case Verb::kShutdown:
      // Acknowledge first; the drain flag makes every read loop (including
      // this connection's) wind down on its next idle tick.
      BeginDrain();
      break;
  }
  return response;
}

}  // namespace rock::serve

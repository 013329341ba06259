#include "src/serve/protocol.h"

#include <bit>
#include <cstring>

#include "src/common/hash.h"
#include "src/common/strings.h"

namespace rock::serve {

namespace {

constexpr uint8_t kKindRequest = 0;
constexpr uint8_t kKindResponse = 1;
constexpr uint8_t kMaxVerbByte = static_cast<uint8_t>(Verb::kShutdown);
constexpr uint8_t kMaxStatusByte =
    static_cast<uint8_t>(StatusCode::kResourceExhausted);
constexpr uint8_t kMaxValueTypeByte = static_cast<uint8_t>(ValueType::kTime);

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated frame: ") + what);
}

}  // namespace

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kPing:
      return "ping";
    case Verb::kIngest:
      return "ingest";
    case Verb::kDetect:
      return "detect";
    case Verb::kExplain:
      return "explain";
    case Verb::kTelemetry:
      return "telemetry";
    case Verb::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

bool VerbFromByte(uint8_t raw, Verb* out) {
  if (raw > kMaxVerbByte) return false;
  *out = static_cast<Verb>(raw);
  return true;
}

WireDetectionReport ToWire(const detect::DetectionReport& report) {
  WireDetectionReport wire;
  wire.violations = report.violations;
  wire.blocked_pairs_checked = report.blocked_pairs_checked;
  wire.exhaustive_pairs_checked = report.exhaustive_pairs_checked;
  wire.errors = report.errors;
  return wire;
}

bool WireReportEquals(const WireDetectionReport& wire,
                      const detect::DetectionReport& report) {
  if (wire.violations != report.violations ||
      wire.blocked_pairs_checked != report.blocked_pairs_checked ||
      wire.exhaustive_pairs_checked != report.exhaustive_pairs_checked ||
      wire.errors.size() != report.errors.size()) {
    return false;
  }
  for (size_t i = 0; i < wire.errors.size(); ++i) {
    const detect::ErrorRecord& a = wire.errors[i];
    const detect::ErrorRecord& b = report.errors[i];
    if (a.error_class != b.error_class || a.rule_id != b.rule_id ||
        a.cells != b.cells) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Cursors.

void WireWriter::U32(uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out_.append(buf, 4);
}

void WireWriter::U64(uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out_.append(buf, 8);
}

void WireWriter::F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

void WireWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

Status WireReader::U8(uint8_t* v) {
  if (remaining() < 1) return Truncated("u8");
  *v = static_cast<uint8_t>(data_[pos_++]);
  return Status::Ok();
}

Status WireReader::U32(uint32_t* v) {
  if (remaining() < 4) return Truncated("u32");
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return Status::Ok();
}

Status WireReader::U64(uint64_t* v) {
  if (remaining() < 8) return Truncated("u64");
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return Status::Ok();
}

Status WireReader::I32(int32_t* v) {
  uint32_t raw = 0;
  ROCK_RETURN_IF_ERROR(U32(&raw));
  *v = static_cast<int32_t>(raw);
  return Status::Ok();
}

Status WireReader::I64(int64_t* v) {
  uint64_t raw = 0;
  ROCK_RETURN_IF_ERROR(U64(&raw));
  *v = static_cast<int64_t>(raw);
  return Status::Ok();
}

Status WireReader::F64(double* v) {
  uint64_t raw = 0;
  ROCK_RETURN_IF_ERROR(U64(&raw));
  *v = std::bit_cast<double>(raw);
  return Status::Ok();
}

Status WireReader::Str(std::string* v) {
  uint32_t len = 0;
  ROCK_RETURN_IF_ERROR(U32(&len));
  if (len > remaining()) {
    return Status::InvalidArgument(
        StrFormat("string length %u exceeds the %zu bytes left in the frame",
                  len, remaining()));
  }
  v->assign(data_.data() + pos_, len);
  pos_ += len;
  return Status::Ok();
}

Status WireReader::Count(size_t min_element_bytes, uint32_t* count) {
  uint32_t raw = 0;
  ROCK_RETURN_IF_ERROR(U32(&raw));
  if (min_element_bytes == 0) min_element_bytes = 1;
  if (raw > remaining() / min_element_bytes) {
    return Status::InvalidArgument(
        StrFormat("repeated-field count %llu cannot fit in the %zu bytes "
                  "left in the frame",
                  static_cast<unsigned long long>(raw), remaining()));
  }
  *count = raw;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Value / Tuple.

void EncodeValue(const Value& value, WireWriter* w) {
  w->U8(static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      w->I64(value.AsInt());
      break;
    case ValueType::kDouble:
      w->F64(value.AsDouble());
      break;
    case ValueType::kString:
      w->Str(value.AsString());
      break;
    case ValueType::kTime:
      w->I64(value.AsTime());
      break;
  }
}

Status DecodeValue(WireReader* r, Value* out) {
  uint8_t type = 0;
  ROCK_RETURN_IF_ERROR(r->U8(&type));
  if (type > kMaxValueTypeByte) {
    return Status::InvalidArgument(
        StrFormat("unknown value type tag %d", type));
  }
  switch (static_cast<ValueType>(type)) {
    case ValueType::kNull:
      *out = Value::Null();
      return Status::Ok();
    case ValueType::kInt: {
      int64_t v = 0;
      ROCK_RETURN_IF_ERROR(r->I64(&v));
      *out = Value::Int(v);
      return Status::Ok();
    }
    case ValueType::kDouble: {
      double v = 0;
      ROCK_RETURN_IF_ERROR(r->F64(&v));
      *out = Value::Double(v);
      return Status::Ok();
    }
    case ValueType::kString: {
      std::string v;
      ROCK_RETURN_IF_ERROR(r->Str(&v));
      *out = Value::String(std::move(v));
      return Status::Ok();
    }
    case ValueType::kTime: {
      int64_t v = 0;
      ROCK_RETURN_IF_ERROR(r->I64(&v));
      *out = Value::Time(v);
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable value type");
}

void EncodeTuple(const Tuple& tuple, WireWriter* w) {
  w->I64(tuple.tid);
  w->I64(tuple.eid);
  w->U32(static_cast<uint32_t>(tuple.values.size()));
  for (const Value& value : tuple.values) EncodeValue(value, w);
  w->U32(static_cast<uint32_t>(tuple.timestamps.size()));
  for (int64_t ts : tuple.timestamps) w->I64(ts);
}

Status DecodeTuple(WireReader* r, Tuple* out) {
  Tuple tuple;
  ROCK_RETURN_IF_ERROR(r->I64(&tuple.tid));
  ROCK_RETURN_IF_ERROR(r->I64(&tuple.eid));
  uint32_t nvalues = 0;
  ROCK_RETURN_IF_ERROR(r->Count(/*min_element_bytes=*/1, &nvalues));
  tuple.values.reserve(nvalues);
  for (uint32_t i = 0; i < nvalues; ++i) {
    Value value;
    ROCK_RETURN_IF_ERROR(DecodeValue(r, &value));
    tuple.values.push_back(std::move(value));
  }
  uint32_t nstamps = 0;
  ROCK_RETURN_IF_ERROR(r->Count(/*min_element_bytes=*/8, &nstamps));
  tuple.timestamps.reserve(nstamps);
  for (uint32_t i = 0; i < nstamps; ++i) {
    int64_t ts = 0;
    ROCK_RETURN_IF_ERROR(r->I64(&ts));
    tuple.timestamps.push_back(ts);
  }
  *out = std::move(tuple);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Requests.

namespace {

void EncodeRequestBody(const Request& request, WireWriter* w) {
  switch (request.verb) {
    case Verb::kPing:
    case Verb::kTelemetry:
    case Verb::kShutdown:
      break;
    case Verb::kIngest:
      w->I32(request.rel);
      w->U32(static_cast<uint32_t>(request.tuples.size()));
      for (const Tuple& tuple : request.tuples) EncodeTuple(tuple, w);
      break;
    case Verb::kDetect:
      w->U8(static_cast<uint8_t>(request.scope));
      break;
    case Verb::kExplain:
      w->I32(request.explain_rel);
      w->I64(request.explain_tid);
      w->I32(request.explain_attr);
      w->I32(request.explain_max_depth);
      break;
  }
}

Status DecodeRequestBody(WireReader* r, Request* out) {
  switch (out->verb) {
    case Verb::kPing:
    case Verb::kTelemetry:
    case Verb::kShutdown:
      return Status::Ok();
    case Verb::kIngest: {
      ROCK_RETURN_IF_ERROR(r->I32(&out->rel));
      uint32_t count = 0;
      // A tuple is at least tid + eid + two counts = 24 bytes.
      ROCK_RETURN_IF_ERROR(r->Count(/*min_element_bytes=*/24, &count));
      out->tuples.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        Tuple tuple;
        ROCK_RETURN_IF_ERROR(DecodeTuple(r, &tuple));
        out->tuples.push_back(std::move(tuple));
      }
      return Status::Ok();
    }
    case Verb::kDetect: {
      uint8_t scope = 0;
      ROCK_RETURN_IF_ERROR(r->U8(&scope));
      if (scope > static_cast<uint8_t>(DetectScope::kSession)) {
        return Status::InvalidArgument(
            StrFormat("unknown detect scope %d", scope));
      }
      out->scope = static_cast<DetectScope>(scope);
      return Status::Ok();
    }
    case Verb::kExplain:
      ROCK_RETURN_IF_ERROR(r->I32(&out->explain_rel));
      ROCK_RETURN_IF_ERROR(r->I64(&out->explain_tid));
      ROCK_RETURN_IF_ERROR(r->I32(&out->explain_attr));
      ROCK_RETURN_IF_ERROR(r->I32(&out->explain_max_depth));
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown request verb");
}

void EncodeErrorRecord(const detect::ErrorRecord& record, WireWriter* w) {
  w->U8(static_cast<uint8_t>(record.error_class));
  w->Str(record.rule_id);
  w->U32(static_cast<uint32_t>(record.cells.size()));
  for (const detect::ErrorRecord::Cell& cell : record.cells) {
    w->I32(cell.rel);
    w->I64(cell.tid);
    w->I32(cell.attr);
  }
}

Status DecodeErrorRecord(WireReader* r, detect::ErrorRecord* out) {
  uint8_t error_class = 0;
  ROCK_RETURN_IF_ERROR(r->U8(&error_class));
  if (error_class > static_cast<uint8_t>(detect::ErrorClass::kStale)) {
    return Status::InvalidArgument(
        StrFormat("unknown error class %d", error_class));
  }
  out->error_class = static_cast<detect::ErrorClass>(error_class);
  ROCK_RETURN_IF_ERROR(r->Str(&out->rule_id));
  uint32_t ncells = 0;
  // A cell is rel(4) + tid(8) + attr(4) = 16 bytes.
  ROCK_RETURN_IF_ERROR(r->Count(/*min_element_bytes=*/16, &ncells));
  out->cells.reserve(ncells);
  for (uint32_t i = 0; i < ncells; ++i) {
    detect::ErrorRecord::Cell cell;
    ROCK_RETURN_IF_ERROR(r->I32(&cell.rel));
    ROCK_RETURN_IF_ERROR(r->I64(&cell.tid));
    ROCK_RETURN_IF_ERROR(r->I32(&cell.attr));
    out->cells.push_back(cell);
  }
  return Status::Ok();
}

void EncodeResponseBody(const Response& response, WireWriter* w) {
  if (response.code != StatusCode::kOk) return;  // error responses: no body
  switch (response.verb) {
    case Verb::kPing:
    case Verb::kShutdown:
      break;
    case Verb::kIngest:
      w->U32(static_cast<uint32_t>(response.tids.size()));
      for (int64_t tid : response.tids) w->I64(tid);
      break;
    case Verb::kDetect: {
      const WireDetectionReport& report = response.report;
      w->U64(report.violations);
      w->U64(report.blocked_pairs_checked);
      w->U64(report.exhaustive_pairs_checked);
      w->U32(static_cast<uint32_t>(report.errors.size()));
      for (const detect::ErrorRecord& record : report.errors) {
        EncodeErrorRecord(record, w);
      }
      break;
    }
    case Verb::kExplain:
      w->Str(response.explain_text);
      w->Str(response.explain_json);
      break;
    case Verb::kTelemetry:
      w->Str(response.telemetry_json);
      break;
  }
}

Status DecodeResponseBody(WireReader* r, Response* out) {
  if (out->code != StatusCode::kOk) return Status::Ok();
  switch (out->verb) {
    case Verb::kPing:
    case Verb::kShutdown:
      return Status::Ok();
    case Verb::kIngest: {
      uint32_t count = 0;
      ROCK_RETURN_IF_ERROR(r->Count(/*min_element_bytes=*/8, &count));
      out->tids.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        int64_t tid = 0;
        ROCK_RETURN_IF_ERROR(r->I64(&tid));
        out->tids.push_back(tid);
      }
      return Status::Ok();
    }
    case Verb::kDetect: {
      WireDetectionReport& report = out->report;
      ROCK_RETURN_IF_ERROR(r->U64(&report.violations));
      ROCK_RETURN_IF_ERROR(r->U64(&report.blocked_pairs_checked));
      ROCK_RETURN_IF_ERROR(r->U64(&report.exhaustive_pairs_checked));
      uint32_t nerrors = 0;
      // An error record is class(1) + rule string count(4) + cell count(4).
      ROCK_RETURN_IF_ERROR(r->Count(/*min_element_bytes=*/9, &nerrors));
      report.errors.reserve(nerrors);
      for (uint32_t i = 0; i < nerrors; ++i) {
        detect::ErrorRecord record;
        ROCK_RETURN_IF_ERROR(DecodeErrorRecord(r, &record));
        report.errors.push_back(std::move(record));
      }
      return Status::Ok();
    }
    case Verb::kExplain:
      ROCK_RETURN_IF_ERROR(r->Str(&out->explain_text));
      ROCK_RETURN_IF_ERROR(r->Str(&out->explain_json));
      return Status::Ok();
    case Verb::kTelemetry:
      ROCK_RETURN_IF_ERROR(r->Str(&out->telemetry_json));
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown response verb");
}

Status DecodeEnvelope(WireReader* r, uint8_t expected_kind, Verb* verb,
                      uint64_t* id) {
  uint8_t version = 0;
  ROCK_RETURN_IF_ERROR(r->U8(&version));
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(StrFormat(
        "protocol version %d != %d", version, kProtocolVersion));
  }
  uint8_t kind = 0;
  ROCK_RETURN_IF_ERROR(r->U8(&kind));
  if (kind != expected_kind) {
    return Status::InvalidArgument(
        kind > kKindResponse
            ? StrFormat("unknown message kind %d", kind)
            : std::string("unexpected message kind (request/response "
                          "direction mismatch)"));
  }
  uint8_t verb_byte = 0;
  ROCK_RETURN_IF_ERROR(r->U8(&verb_byte));
  if (!VerbFromByte(verb_byte, verb)) {
    return Status::InvalidArgument(StrFormat("unknown verb %d", verb_byte));
  }
  return r->U64(id);
}

Status RejectTrailing(const WireReader& r) {
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        std::to_string(r.remaining()) +
        " trailing byte(s) after a complete message");
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeRequest(const Request& request) {
  WireWriter w;
  w.U8(kProtocolVersion);
  w.U8(kKindRequest);
  w.U8(static_cast<uint8_t>(request.verb));
  w.U64(request.id);
  EncodeRequestBody(request, &w);
  return w.Take();
}

Status DecodeRequest(std::string_view payload, Request* out) {
  WireReader r(payload);
  Request request;
  ROCK_RETURN_IF_ERROR(
      DecodeEnvelope(&r, kKindRequest, &request.verb, &request.id));
  ROCK_RETURN_IF_ERROR(DecodeRequestBody(&r, &request));
  ROCK_RETURN_IF_ERROR(RejectTrailing(r));
  *out = std::move(request);
  return Status::Ok();
}

std::string EncodeResponse(const Response& response) {
  WireWriter w;
  w.U8(kProtocolVersion);
  w.U8(kKindResponse);
  w.U8(static_cast<uint8_t>(response.verb));
  w.U64(response.id);
  w.U8(static_cast<uint8_t>(response.code));
  w.Str(response.error);
  EncodeResponseBody(response, &w);
  return w.Take();
}

Status DecodeResponse(std::string_view payload, Response* out) {
  WireReader r(payload);
  Response response;
  ROCK_RETURN_IF_ERROR(
      DecodeEnvelope(&r, kKindResponse, &response.verb, &response.id));
  uint8_t code = 0;
  ROCK_RETURN_IF_ERROR(r.U8(&code));
  if (code > kMaxStatusByte) {
    return Status::InvalidArgument(StrFormat("unknown status code %d", code));
  }
  response.code = static_cast<StatusCode>(code);
  ROCK_RETURN_IF_ERROR(r.Str(&response.error));
  ROCK_RETURN_IF_ERROR(DecodeResponseBody(&r, &response));
  ROCK_RETURN_IF_ERROR(RejectTrailing(r));
  *out = std::move(response);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Framing.

std::string EncodeFrame(std::string_view payload) {
  WireWriter w;
  w.U32(kFrameMagic);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(Crc32(payload));
  std::string out = w.Take();
  out.append(payload.data(), payload.size());
  return out;
}

Status DecodeFrameHeader(std::string_view header_bytes,
                         size_t max_frame_bytes, FrameHeader* out) {
  if (header_bytes.size() < kFrameHeaderBytes) {
    return Truncated("frame header");
  }
  WireReader r(header_bytes.substr(0, kFrameHeaderBytes));
  uint32_t magic = 0;
  Status status = r.U32(&magic);  // 12 bytes present: cannot fail
  if (!status.ok()) return status;
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  FrameHeader header;
  status = r.U32(&header.length);
  if (!status.ok()) return status;
  status = r.U32(&header.crc);
  if (!status.ok()) return status;
  if (header.length > max_frame_bytes) {
    // Rejected from the header alone: the payload is never buffered, so an
    // adversarial length prefix cannot drive an allocation.
    return Status(StatusCode::kResourceExhausted,
                  StrFormat("frame length %u exceeds the %zu-byte limit",
                            header.length, max_frame_bytes));
  }
  *out = header;
  return Status::Ok();
}

Status CheckFramePayload(const FrameHeader& header, std::string_view payload) {
  if (payload.size() != header.length) {
    return Status::InvalidArgument(
        StrFormat("frame payload is %zu bytes, header declared %u",
                  payload.size(), header.length));
  }
  uint32_t crc = Crc32(payload);
  if (crc != header.crc) {
    return Status::InvalidArgument("frame CRC mismatch (corrupt payload)");
  }
  return Status::Ok();
}

namespace {

Status SplitFrame(std::string_view frame, size_t max_frame_bytes,
                  std::string_view* payload) {
  FrameHeader header;
  ROCK_RETURN_IF_ERROR(DecodeFrameHeader(frame, max_frame_bytes, &header));
  std::string_view rest = frame.substr(kFrameHeaderBytes);
  ROCK_RETURN_IF_ERROR(CheckFramePayload(header, rest));
  *payload = rest;
  return Status::Ok();
}

}  // namespace

Status DecodeFramedRequest(std::string_view frame, Request* out) {
  std::string_view payload;
  ROCK_RETURN_IF_ERROR(SplitFrame(frame, kMaxFrameBytes, &payload));
  return DecodeRequest(payload, out);
}

Status DecodeFramedResponse(std::string_view frame, Response* out) {
  std::string_view payload;
  ROCK_RETURN_IF_ERROR(SplitFrame(frame, kMaxFrameBytes, &payload));
  return DecodeResponse(payload, out);
}

}  // namespace rock::serve

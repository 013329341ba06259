#pragma once

// rockd's wire protocol: a small length-prefixed binary request/response
// format over a byte stream (POSIX sockets in production, plain buffers in
// tests). Design goals, in order:
//
//   1. Robustness. The decoder is a pure function over untrusted bytes: it
//      never throws, never over-reads, never allocates proportionally to a
//      length field it has not bounds-checked against the bytes actually
//      present, and detects any corruption of a frame in transit via a
//      CRC-32 over the payload. tests/serve_protocol_test.cc fuzzes this
//      contract with seeded byte mutations under ASan/TSan.
//   2. Determinism. Encoding is canonical (fixed-width little-endian
//      integers, no padding), so Encode(Decode(x)) == x byte-for-byte and
//      served results can be compared bitwise against library-API results.
//   3. Simplicity. Five verbs, tagged structs, no schema compiler.
//
// Frame layout (kFrameHeaderBytes = 12 bytes of header):
//
//   offset  size  field
//   0       4     magic "ROCK" (kFrameMagic, little-endian u32)
//   4       4     payload length N (little-endian u32, <= max frame bytes)
//   8       4     CRC-32 (IEEE) of the N payload bytes
//   12      N     payload (one encoded Request or Response)
//
// Payload layout:
//
//   u8   protocol version (kProtocolVersion)
//   u8   kind (0 = request, 1 = response)
//   u8   verb
//   u64  request id (echoed verbatim in the response)
//   ...  verb-specific body (responses prepend status code + message)
//
// Every multi-byte integer is little-endian. Strings and repeated fields
// are a u32 count followed by that many elements; the decoder rejects any
// count larger than the bytes remaining in the frame *before* reserving
// memory for it.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/detect/detector.h"
#include "src/storage/relation.h"

namespace rock::serve {

/// "ROCK" as a little-endian u32 ('R' is the lowest byte on the wire).
inline constexpr uint32_t kFrameMagic = 0x4B434F52u;
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 12;
/// Upper bound on a frame payload. A length prefix above it is rejected from
/// the 12 header bytes alone — before any payload is read or buffered —
/// and rockd closes the connection.
inline constexpr size_t kMaxFrameBytes = 8u << 20;  // 8 MiB

/// The request verbs rockd serves.
enum class Verb : uint8_t {
  kPing = 0,
  kIngest = 1,
  kDetect = 2,
  kExplain = 3,
  kTelemetry = 4,
  kShutdown = 5,
};

const char* VerbName(Verb verb);

/// Validating conversion; false for bytes outside the verb range.
bool VerbFromByte(uint8_t raw, Verb* out);

/// What a detect request ranges over: the whole database, or only the
/// tuples this session has ingested (incremental detection over ΔD).
enum class DetectScope : uint8_t { kFull = 0, kSession = 1 };

/// One client request. A tagged struct: `verb` selects which body fields
/// are meaningful; the codec only encodes/decodes the selected body.
struct Request {
  Verb verb = Verb::kPing;
  uint64_t id = 0;

  // kIngest: append `tuples` to relation index `rel`. tid/eid fields of
  // the tuples are advisory (< 0 = assign fresh); the response returns the
  // tids actually assigned.
  int32_t rel = -1;
  std::vector<Tuple> tuples;

  // kDetect
  DetectScope scope = DetectScope::kFull;

  // kExplain: why-provenance of cell (explain_rel, explain_tid,
  // explain_attr) from the server's last correction pass.
  int32_t explain_rel = -1;
  int64_t explain_tid = -1;
  int32_t explain_attr = -1;
  int32_t explain_max_depth = 32;
};

/// A DetectionReport flattened for the wire. Field-for-field faithful so
/// the served report compares bitwise equal to a library-API report.
struct WireDetectionReport {
  uint64_t violations = 0;
  uint64_t blocked_pairs_checked = 0;
  uint64_t exhaustive_pairs_checked = 0;
  std::vector<detect::ErrorRecord> errors;
};

WireDetectionReport ToWire(const detect::DetectionReport& report);

/// Structural equality against a library-API report (same violation
/// counters, same errors in the same order, cell for cell).
bool WireReportEquals(const WireDetectionReport& wire,
                      const detect::DetectionReport& report);

/// One server response. `id` and `verb` echo the request; a non-OK `code`
/// carries `error` and an empty body.
struct Response {
  Verb verb = Verb::kPing;
  uint64_t id = 0;
  StatusCode code = StatusCode::kOk;
  std::string error;

  // kIngest: assigned tids, parallel to the request's tuples.
  std::vector<int64_t> tids;
  // kDetect
  WireDetectionReport report;
  // kExplain: rendered proof tree (text + JSON forms).
  std::string explain_text;
  std::string explain_json;
  // kTelemetry: the /telemetry.json document.
  std::string telemetry_json;
};

// ---------------------------------------------------------------------------
// Bounds-checked cursors. WireReader is the only way protocol bytes are
// consumed; every Read* checks the remaining length first and fails with
// InvalidArgument instead of over-reading.

class WireWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  /// u32 length + raw bytes.
  void Str(std::string_view s);

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  Status U8(uint8_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status I32(int32_t* v);
  Status I64(int64_t* v);
  Status F64(double* v);
  Status Str(std::string* v);

  /// Validates a repeated-field count against the bytes left: each element
  /// occupies at least `min_element_bytes` on the wire, so any count
  /// claiming more elements than could possibly be present is rejected
  /// here — before the caller allocates.
  Status Count(size_t min_element_bytes, uint32_t* count);

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Value / Tuple codec (shared by ingest requests and future verbs).

void EncodeValue(const Value& value, WireWriter* w);
Status DecodeValue(WireReader* r, Value* out);
void EncodeTuple(const Tuple& tuple, WireWriter* w);
Status DecodeTuple(WireReader* r, Tuple* out);

// ---------------------------------------------------------------------------
// Message codec. Encode* produces the frame *payload* (no header);
// Decode* consumes exactly one payload and rejects trailing bytes, unknown
// verbs, bad versions, and any truncation.

std::string EncodeRequest(const Request& request);
Status DecodeRequest(std::string_view payload, Request* out);
std::string EncodeResponse(const Response& response);
Status DecodeResponse(std::string_view payload, Response* out);

// ---------------------------------------------------------------------------
// Framing.

struct FrameHeader {
  uint32_t length = 0;
  uint32_t crc = 0;
};

/// Header + payload, ready to write to a socket.
std::string EncodeFrame(std::string_view payload);

/// Parses and validates the 12 header bytes: magic, and length against
/// `max_frame_bytes`. An oversized length fails here — the caller must not
/// have buffered (or allocated for) the payload yet.
Status DecodeFrameHeader(std::string_view header_bytes,
                         size_t max_frame_bytes, FrameHeader* out);

/// Verifies `payload` against the header's length and CRC-32.
Status CheckFramePayload(const FrameHeader& header, std::string_view payload);

/// Whole-buffer conveniences for tests and the fuzzer: header validation,
/// CRC check and payload decode over a single contiguous frame.
Status DecodeFramedRequest(std::string_view frame, Request* out);
Status DecodeFramedResponse(std::string_view frame, Response* out);

}  // namespace rock::serve

#pragma once
// zenesis::net wire protocol — the compact length-prefixed binary framing
// the zen_net server and loopback client speak.
//
// Every frame is a fixed 20-byte little-endian header followed by a typed
// payload:
//
//   offset  size  field
//   0       4     magic        0x5A4E4554 ("ZNET")
//   4       2     version      kProtocolVersion (1)
//   6       2     type         FrameType
//   8       8     request_id   client-chosen correlation id (0 where unused)
//   16      4     payload_len  bytes following the header
//
// The decoder is incremental (feed bytes as they arrive off a socket,
// frames pop out as they complete) and hardened the same way the TIFF
// reader is: every length field is validated against NetLimits *before*
// any allocation, payload parsers bounds-check every read against the
// remaining buffer (PayloadReader), and malformed bytes yield a
// WireErrorKind — never a crash, over-allocation or hang. The protocol
// fuzzer in tests/net_fuzz_harness.* enforces exactly that contract.
//
// Client→server frames: Hello (tenant handshake), SliceRequest,
// VolumeFileRequest, Cancel, Ping. Server→client frames: HelloAck,
// Response (slice or volume payload), Rejected (structured backpressure:
// reason + core::Error), Error (protocol/parse failure), Pong. Request
// frames carry priority, a relative deadline, and an optional trace id
// that the server threads through its obs spans and echoes back in the
// terminal frame.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "zenesis/core/error.hpp"
#include "zenesis/core/pipeline.hpp"
#include "zenesis/image/image.hpp"

namespace zenesis::net {

inline constexpr std::uint32_t kMagic = 0x5A4E4554u;  // "ZNET"
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 20;

enum class FrameType : std::uint16_t {
  // client → server
  kHello = 1,       ///< tenant/client-id handshake; must be first
  kSlice = 2,       ///< Mode-A text-prompted image request
  kVolumeFile = 3,  ///< Mode-B TIFF path streamed at dispatch
  kCancel = 4,      ///< cancel the request named by header.request_id
  kPing = 5,        ///< liveness probe; payload echoed in kPong
  // server → client
  kHelloAck = 16,   ///< handshake accepted
  kResponse = 17,   ///< successful result (slice or volume payload)
  kRejected = 18,   ///< structured backpressure/cancel/deadline outcome
  kError = 19,      ///< protocol or pipeline failure (core::Error payload)
  kPong = 20,       ///< kPing echo
};

/// True when `t` is a value a client may send (server-side direction
/// check; the decoder itself is direction-agnostic).
bool is_client_frame(FrameType t) noexcept;
/// True when `t` names any known frame type.
bool is_known_frame(std::uint16_t t) noexcept;

/// Why a request was rejected — serve::RejectReason as the wire names it.
/// The server reports a full service queue as kOverloaded; kQueueFull
/// stays in the protocol for compatibility but is not sent.
enum class WireReject : std::uint8_t {
  kNone = 0,
  kQueueFull = 1,        ///< not sent (see kOverloaded)
  kDeadlineExpired = 2,  ///< deadline passed before the pipeline ran
  kShuttingDown = 3,     ///< server/service draining
  kCancelled = 4,        ///< cancel frame or disconnect before dispatch
  kTenantQuota = 5,      ///< per-tenant queued-request quota exhausted
  kOverloaded = 6,       ///< service admission queue at capacity
};

const char* to_string(WireReject reason) noexcept;

/// Decode-failure taxonomy (mirrors io::TiffErrorKind's role).
enum class WireErrorKind : std::uint8_t {
  kNone = 0,
  kBadMagic = 1,
  kBadVersion = 2,
  kBadType = 3,
  kOversized = 4,   ///< payload_len exceeds NetLimits::max_frame_bytes
  kBadPayload = 5,  ///< well-framed payload failed its typed parse
  kBadState = 6,    ///< valid frame, wrong time (no Hello, duplicate id…)
  kTruncated = 7,   ///< connection ended mid-frame
  kTimeout = 8,     ///< partial frame idle past the slow-loris deadline
};

const char* to_string(WireErrorKind kind) noexcept;

/// Hard ceilings enforced while decoding, checked before any allocation —
/// the TiffReadLimits treatment applied to the wire.
struct NetLimits {
  /// Maximum payload bytes in one frame (bounds decoder buffering).
  std::uint32_t max_frame_bytes = 64u << 20;  // 64 MiB
  /// Maximum width*height of one request image.
  std::uint64_t max_pixels = 1ull << 26;  // 64 Mpixel
  std::uint32_t max_prompt_bytes = 4096;
  std::uint32_t max_path_bytes = 4096;
  std::uint32_t max_ping_bytes = 256;
};

struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kProtocolVersion;
  std::uint16_t type = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

// --- incremental decoder -------------------------------------------------

/// Feed bytes as they arrive; complete frames pop out of next(). After an
/// error the decoder latches failed (the stream is unframeable past a bad
/// header) and next() keeps returning kError.
class FrameDecoder {
 public:
  enum class Status { kNeedMore, kFrame, kError };

  explicit FrameDecoder(NetLimits limits = {}) : limits_(limits) {}

  void feed(const std::uint8_t* data, std::size_t n);

  Status next(Frame& out);

  WireErrorKind error_kind() const noexcept { return error_kind_; }
  const std::string& error_message() const noexcept { return error_message_; }

  /// Bytes of an incomplete frame are pending (slow-loris detection).
  bool mid_frame() const noexcept { return !failed_ && buffered() > 0; }
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  Status fail(WireErrorKind kind, std::string message);

  NetLimits limits_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  WireErrorKind error_kind_ = WireErrorKind::kNone;
  std::string error_message_;
};

// --- bounds-checked payload reader --------------------------------------

/// Every accessor returns false instead of reading out of bounds; strings
/// are length-prefixed and capped by the caller. Used by every payload
/// parser below (and reusable by tests poking at raw frames).
class PayloadReader {
 public:
  PayloadReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit PayloadReader(const std::vector<std::uint8_t>& payload)
      : PayloadReader(payload.data(), payload.size()) {}

  bool u8(std::uint8_t& v);
  bool u16(std::uint16_t& v);
  bool u32(std::uint32_t& v);
  bool u64(std::uint64_t& v);
  bool i32(std::int32_t& v);
  bool i64(std::int64_t& v);
  bool f32(float& v);
  bool f64(double& v);
  bool bytes(void* out, std::size_t n);
  /// u32 length prefix + raw bytes; fails when length > max_len.
  bool str(std::string& out, std::uint32_t max_len);

  std::size_t remaining() const noexcept { return size_ - pos_; }
  bool done() const noexcept { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Little-endian append-only writer (the encode mirror of PayloadReader).
class PayloadWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void i64(std::int64_t v);
  void f32(float v);
  void f64(double v);
  void bytes(const void* data, std::size_t n);
  void str(const std::string& s);

  std::vector<std::uint8_t> take() { return std::move(out_); }
  const std::vector<std::uint8_t>& data() const noexcept { return out_; }

 private:
  std::vector<std::uint8_t> out_;
};

// --- typed payloads ------------------------------------------------------

struct WireHello {
  std::uint32_t tenant = 0;
  std::uint32_t flags = 0;  ///< reserved, must decode (any value accepted)
};

/// Common request knobs carried by both request shapes.
struct WireRequestOptions {
  std::int32_t priority = 0;
  /// Relative deadline in milliseconds from server receipt; 0 = none.
  std::uint32_t deadline_ms = 0;
  /// Caller-chosen obs trace id; 0 = server allocates one. Either way the
  /// terminal frame echoes the id actually used.
  std::uint64_t trace_id = 0;
};

struct WireSliceRequest {
  image::AnyImage image;
  std::string prompt;
  WireRequestOptions options;
};

struct WireVolumeFileRequest {
  std::string path;
  std::string prompt;
  WireRequestOptions options;
};

/// Decoded server→client message — the client library and the fuzz
/// harness both consume this one shape.
struct ServerMessage {
  FrameType type = FrameType::kError;
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;

  // kRejected / kError
  WireReject reject = WireReject::kNone;
  core::Error error;

  // kResponse
  std::uint8_t kind = 0;  ///< serve::RequestKind of the completed request
  double confidence = 0.0;
  image::Box box;
  image::Mask mask;                      ///< slice responses
  std::vector<image::Mask> volume_masks; ///< volume responses
  std::int32_t replaced_count = 0;
  double queue_us = 0.0;
  double decode_us = 0.0;
  double total_us = 0.0;

  // kPong
  std::vector<std::uint8_t> ping_payload;
};

// --- encoders (client → server) -----------------------------------------

std::vector<std::uint8_t> encode_hello(std::uint32_t tenant,
                                       std::uint32_t flags = 0);
std::vector<std::uint8_t> encode_slice_request(std::uint64_t request_id,
                                               const image::AnyImage& image,
                                               const std::string& prompt,
                                               const WireRequestOptions& opts);
std::vector<std::uint8_t> encode_volume_file_request(
    std::uint64_t request_id, const std::string& path,
    const std::string& prompt, const WireRequestOptions& opts);
std::vector<std::uint8_t> encode_cancel(std::uint64_t request_id);
std::vector<std::uint8_t> encode_ping(const std::vector<std::uint8_t>& payload);

// --- encoders (server → client) -----------------------------------------

std::vector<std::uint8_t> encode_hello_ack(std::uint32_t tenant);
std::vector<std::uint8_t> encode_pong(const std::vector<std::uint8_t>& payload);
/// Timings echoed into response frames (µs, as measured by the service).
struct WireTimings {
  double queue_us = 0.0;
  double decode_us = 0.0;
  double total_us = 0.0;
};
std::vector<std::uint8_t> encode_slice_response(std::uint64_t request_id,
                                                std::uint64_t trace_id,
                                                const core::SliceResult& result,
                                                const WireTimings& timings);
std::vector<std::uint8_t> encode_volume_response(
    std::uint64_t request_id, std::uint64_t trace_id,
    const core::VolumeResult& result, const WireTimings& timings);
std::vector<std::uint8_t> encode_rejected(std::uint64_t request_id,
                                          std::uint64_t trace_id,
                                          WireReject reason,
                                          const core::Error& error);
std::vector<std::uint8_t> encode_error(std::uint64_t request_id,
                                       std::uint64_t trace_id,
                                       const core::Error& error);

// --- parsers -------------------------------------------------------------

/// Parsers return nullopt for any malformed payload (wrong size, length
/// field past the buffer, dimension bomb past `limits`) — never throw on
/// bad bytes.
std::optional<WireHello> parse_hello(const Frame& frame);
std::optional<WireSliceRequest> parse_slice_request(const Frame& frame,
                                                    const NetLimits& limits);
std::optional<WireVolumeFileRequest> parse_volume_file_request(
    const Frame& frame, const NetLimits& limits);

/// Decodes any server→client frame (client side + fuzz harness).
std::optional<ServerMessage> parse_server_frame(const Frame& frame,
                                                const NetLimits& limits);

}  // namespace zenesis::net

#pragma once
// Wire protocol of the network front-end — a length-prefixed binary framing
// that puts the serving engine's admission semantics on the wire. Every
// frame is
//
//   u32 length | u8 type | type-specific body
//
// with all integers little-endian and `length` counting everything after the
// length field itself (so a reader needs exactly 4 bytes to learn how much
// more to wait for). A connection opens with a Hello/HelloAck handshake that
// pins magic and protocol version; after that the client streams Request
// frames (handler id + tenant id + opaque payload + relative deadline) and
// the server answers each with exactly one Response frame carrying the
// engine's verdict. Load shedding is a first-class protocol outcome, not an
// error: a `kShed` response carries the admission queue's clamped retry-after
// hint so backoff policy lives at the protocol edge, where ContTune-style
// distributed tuning needs it.
//
// FrameDecoder is a push parser: feed() it whatever the socket produced —
// single bytes, half frames, three frames at once — and poll next() for
// completed frames. Malformed input (oversized length, unknown type, a
// truncated body) moves the decoder into a sticky error state; the caller
// closes the connection, it never "resyncs" into attacker-chosen framing.
//
// Versioning: there is exactly one frame layout per `version`, and the
// handshake pins magic and version exactly. Every client, shard and router
// speaks the same layout, so there is nothing to negotiate: a peer built
// against another version is answered with HelloAck ok=false and closed,
// which fails loudly at connect time instead of mid-stream. Version 2 is the
// layout documented on the frame structs below — Response always carries
// its shed-origin and shed-detail bytes, and the Stats and Membership frame
// pairs are legal on any handshaken connection. A version-1 Hello is two
// bytes longer, so it does not even parse, and is refused the same way.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

namespace autopn::net {

inline constexpr std::uint32_t kWireMagic = 0x41504E31;  // "APN1"
inline constexpr std::uint16_t kWireVersion = 2;
/// Hard cap on `length`; a header announcing more is a protocol error (and
/// the decoder's defense against unbounded buffering on garbage input).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;
/// Largest request/response payload the protocol admits (fits kMaxFrameBytes
/// with every fixed field).
inline constexpr std::uint32_t kMaxPayloadBytes = kMaxFrameBytes - 64;

enum class FrameType : std::uint8_t {
  kHello = 1,     ///< client → server: magic + version
  kHelloAck = 2,  ///< server → client: magic + version + accept flag
  kRequest = 3,
  kResponse = 4,
  kStatsRequest = 5,   ///< ask the server for its KPI aggregates
  kStatsResponse = 6,  ///< the server's StatsFrame
  kMembershipRequest = 7,   ///< router-tier admit/retire/status
  kMembershipResponse = 8,  ///< the router's MembershipFrame
};

/// Engine verdict carried by a Response frame.
enum class Status : std::uint8_t {
  kOk = 0,
  kShed = 1,      ///< admission refused; retry_after_us is the backoff hint
  kExpired = 2,   ///< deadline passed before/while executing
  kFailed = 3,    ///< handler threw
  kRejected = 4,  ///< unknown handler id — never reached the queue
  kClosing = 5,   ///< server shutting down; admission closed
};

[[nodiscard]] std::string to_string(Status status);

/// Which tier shed a request — carried on every Response so clients
/// and the CLI SLO table can tell a router-level shed (backend down, drain,
/// migration overflow) from a shard's own admission shedding.
enum class ShedOrigin : std::uint8_t {
  kShard = 0,   ///< the serving engine's admission queue refused it
  kRouter = 1,  ///< a routing tier answered without reaching a shard
};

[[nodiscard]] std::string to_string(ShedOrigin origin);

/// Why a router-origin response shed (carried on every Response). The
/// split netload's shed@rtr column needs: a shard declared dead (placement
/// should converge away from it) versus a transient blip (connection died
/// mid-request, drain, migration overflow) that retrying rides out.
enum class ShedDetail : std::uint8_t {
  kNone = 0,         ///< not a backend-health shed
  kTransient = 1,    ///< momentary: disconnect mid-flight, hold overflow
  kDeadBackend = 2,  ///< the target shard exhausted its redial budget / dead
};

[[nodiscard]] std::string to_string(ShedDetail detail);

struct HelloFrame {
  std::uint32_t magic = kWireMagic;
  std::uint16_t version = kWireVersion;
};

struct HelloAckFrame {
  std::uint32_t magic = kWireMagic;
  std::uint16_t version = kWireVersion;
  bool ok = true;
};

struct RequestFrame {
  std::uint64_t request_id = 0;  ///< client-chosen; echoed in the response
  std::uint16_t handler_id = 0;
  std::uint16_t tenant_id = 0;
  /// Client deadline relative to server receipt, microseconds; 0 = none.
  std::uint64_t deadline_us = 0;
  std::vector<std::uint8_t> payload;
};

struct ResponseFrame {
  std::uint64_t request_id = 0;
  Status status = Status::kOk;
  /// Server-side enqueue→completion latency, microseconds (reported for
  /// every engine outcome; 0 for requests that never reached the queue).
  std::uint64_t server_latency_us = 0;
  /// Backoff hint, microseconds (nonzero only for kShed/kClosing).
  std::uint64_t retry_after_us = 0;
  std::vector<std::uint8_t> payload;
  /// Which tier produced a kShed/kClosing verdict.
  ShedOrigin shed_origin = ShedOrigin::kShard;
  /// Health classification of a router-origin shed.
  ShedDetail shed_detail = ShedDetail::kNone;
};

/// One per-tenant latency slot in a StatsFrame (the serving engine's 8
/// hashed KPI slots — `tenant` is the slot index, not a raw tenant id).
struct TenantStat {
  std::uint16_t tenant = 0;
  std::uint64_t count = 0;
  std::uint64_t p99_us = 0;
};

/// Aggregated server KPIs answered to a kStatsRequest. This is
/// what a router polls per shard to drive latency-aware rebalancing: the
/// engine-level counters, the cumulative latency percentiles, and the
/// per-tenant latency slots.
struct StatsFrame {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t failed = 0;
  std::uint32_t queue_depth = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p95_us = 0;
  std::uint64_t p99_us = 0;
  /// The clamped backoff a request shed right now would be hinted.
  std::uint64_t retry_after_us = 0;
  std::vector<TenantStat> tenants;
};

// ---- Membership control ------------------------------------------------
// The router tier's runtime admit/retire/status channel. A control client
// (`autopn router-ctl`) sends one MembershipRequest; the router answers with
// a MembershipFrame carrying the member table, the ordered membership log
// (placement is a pure function of the shard set, so the log is all two
// routers need to agree), and the rebalancer's latest scale recommendation.
// A non-router dispatcher answers ok=false ("membership not supported").

enum class MembershipOp : std::uint8_t {
  kAdd = 0,     ///< admit shard_id at host:port (enters probation first)
  kRemove = 1,  ///< retire shard_id: migrate tenants off, then close links
  kStatus = 2,  ///< read-only member table + log + scale recommendation
};

[[nodiscard]] std::string to_string(MembershipOp op);

/// Cap on the host string in membership frames (a dotted quad or short
/// hostname; anything longer is a protocol error, not forward compat).
inline constexpr std::size_t kMaxHostBytes = 255;

struct MembershipRequest {
  MembershipOp op = MembershipOp::kStatus;
  std::uint32_t shard_id = 0;  ///< kRemove target; kAdd desired id
  std::string host;            ///< kAdd only
  std::uint16_t port = 0;      ///< kAdd only
};

/// One member row in a membership response. `health` and the counters are
/// router-side observability (router::HealthState values on the wire as raw
/// bytes so the net layer stays independent of src/router).
struct MemberInfo {
  std::uint32_t shard_id = 0;
  std::string host;
  std::uint16_t port = 0;
  std::uint8_t health = 0;  ///< router::HealthState as a raw byte
  bool in_ring = false;     ///< currently owns ring arcs (placement input)
  std::uint64_t redial_attempts = 0;  ///< total failed dials across outages
  std::uint64_t reconnects = 0;
  std::string last_error;  ///< most recent dial failure, empty when none
};

/// One ordered membership-log entry (`event` is a router::MembershipEvent
/// raw byte). Replaying the kJoin/kEvict/kRetire entries in seq order
/// reconstructs the ring membership exactly.
struct MembershipLogEntry {
  std::uint64_t seq = 0;
  std::uint8_t event = 0;
  std::uint32_t shard_id = 0;
};

struct MembershipFrame {
  bool ok = true;
  std::string message;
  std::uint8_t scale_action = 0;   ///< router::ScaleAction as a raw byte
  std::uint32_t scale_shard = 0;   ///< shard id for a remove recommendation
  std::vector<MemberInfo> members;
  std::vector<MembershipLogEntry> log;
};

// ---- Encoding ----------------------------------------------------------
// Each encoder appends one complete frame (length prefix included) to `out`
// so callers can batch several frames into a single write buffer.

void encode_hello(std::vector<std::uint8_t>& out, const HelloFrame& f = {});
void encode_hello_ack(std::vector<std::uint8_t>& out, const HelloAckFrame& f);
void encode_request(std::vector<std::uint8_t>& out, const RequestFrame& f);
void encode_response(std::vector<std::uint8_t>& out, const ResponseFrame& f);
void encode_stats_request(std::vector<std::uint8_t>& out);
void encode_stats(std::vector<std::uint8_t>& out, const StatsFrame& f);
void encode_membership_request(std::vector<std::uint8_t>& out,
                               const MembershipRequest& f);
void encode_membership(std::vector<std::uint8_t>& out,
                       const MembershipFrame& f);

// ---- Decoding ----------------------------------------------------------

/// One completed frame: the type tag plus its raw body (everything after the
/// type byte). parse_*() turns bodies into typed frames.
struct Frame {
  FrameType type = FrameType::kHello;
  std::vector<std::uint8_t> body;
};

/// Body parsers. std::nullopt = truncated/overlong body (protocol error —
/// the body length must match the fields exactly; trailing garbage is not
/// forward-compatibility, it is corruption under a length-prefixed framing).
[[nodiscard]] std::optional<HelloFrame> parse_hello(
    const std::vector<std::uint8_t>& body);
[[nodiscard]] std::optional<HelloAckFrame> parse_hello_ack(
    const std::vector<std::uint8_t>& body);
[[nodiscard]] std::optional<RequestFrame> parse_request(
    const std::vector<std::uint8_t>& body);
[[nodiscard]] std::optional<ResponseFrame> parse_response(
    const std::vector<std::uint8_t>& body);
/// A stats request's body is one reserved zero byte (a zero-length frame is
/// a decoder error); true iff `body` is exactly that.
[[nodiscard]] bool parse_stats_request(const std::vector<std::uint8_t>& body);
[[nodiscard]] std::optional<StatsFrame> parse_stats(
    const std::vector<std::uint8_t>& body);
[[nodiscard]] std::optional<MembershipRequest> parse_membership_request(
    const std::vector<std::uint8_t>& body);
[[nodiscard]] std::optional<MembershipFrame> parse_membership(
    const std::vector<std::uint8_t>& body);

class FrameDecoder {
 public:
  /// Appends raw socket bytes. Accepts any fragmentation, including one byte
  /// at a time. No-op once the decoder is in the error state.
  void feed(const std::uint8_t* data, std::size_t size);

  /// Pops the next completed frame, if any. Sets the error state (and
  /// returns std::nullopt) on an oversized length, a zero-length frame, or
  /// an unknown type tag.
  [[nodiscard]] std::optional<Frame> next();

  /// Sticky: a decoder that has seen malformed input stays failed until
  /// reset(); the connection should be closed.
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Bytes buffered but not yet consumed as frames (partial frame in flight).
  [[nodiscard]] std::size_t buffered() const noexcept { return buffer_.size(); }

  void reset();

 private:
  void fail(std::string reason);

  std::deque<std::uint8_t> buffer_;
  bool failed_ = false;
  std::string error_;
};

}  // namespace autopn::net

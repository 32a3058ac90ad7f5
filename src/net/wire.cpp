#include "net/wire.hpp"

#include <algorithm>
#include <cstring>

namespace autopn::net {

namespace {

// Little-endian primitive writers/readers. The cursor-based reader returns
// false on underflow so parse_*() can reject truncated bodies uniformly.

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

struct Reader {
  const std::vector<std::uint8_t>& data;
  std::size_t pos = 0;

  [[nodiscard]] bool get_u8(std::uint8_t& v) {
    if (pos + 1 > data.size()) return false;
    v = data[pos++];
    return true;
  }
  [[nodiscard]] bool get_u16(std::uint16_t& v) {
    if (pos + 2 > data.size()) return false;
    v = static_cast<std::uint16_t>(data[pos] |
                                   (static_cast<std::uint16_t>(data[pos + 1]) << 8));
    pos += 2;
    return true;
  }
  [[nodiscard]] bool get_u32(std::uint32_t& v) {
    if (pos + 4 > data.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 4;
    return true;
  }
  [[nodiscard]] bool get_u64(std::uint64_t& v) {
    if (pos + 8 > data.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 8;
    return true;
  }
  [[nodiscard]] bool get_bytes(std::vector<std::uint8_t>& out, std::size_t n) {
    if (pos + n > data.size()) return false;
    out.assign(data.begin() + static_cast<std::ptrdiff_t>(pos),
               data.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
    return true;
  }
  /// A valid body is consumed exactly; leftovers mean a length/field
  /// mismatch and the whole frame is rejected.
  [[nodiscard]] bool exhausted() const { return pos == data.size(); }
};

/// Length-prefixed (u16) short string; membership frames carry hosts and
/// human-readable errors. Encoding truncates at `cap`, parsing rejects
/// anything longer — the cap is part of the wire contract.
void put_string(std::vector<std::uint8_t>& out, const std::string& s,
                std::size_t cap) {
  const std::size_t n = std::min(s.size(), cap);
  put_u16(out, static_cast<std::uint16_t>(n));
  out.insert(out.end(), s.begin(), s.begin() + static_cast<std::ptrdiff_t>(n));
}

[[nodiscard]] bool get_string(Reader& r, std::string& out, std::size_t cap) {
  std::uint16_t n = 0;
  if (!r.get_u16(n) || n > cap) return false;
  std::vector<std::uint8_t> bytes;
  if (!r.get_bytes(bytes, n)) return false;
  out.assign(bytes.begin(), bytes.end());
  return true;
}

/// Writes `length | type` with the length back-patched once the body is in.
class FrameBuilder {
 public:
  FrameBuilder(std::vector<std::uint8_t>& out, FrameType type) : out_(out) {
    length_at_ = out_.size();
    put_u32(out_, 0);  // patched in finish()
    put_u8(out_, static_cast<std::uint8_t>(type));
  }

  void finish() {
    const std::size_t after_length = length_at_ + 4;
    const auto length = static_cast<std::uint32_t>(out_.size() - after_length);
    for (int i = 0; i < 4; ++i) {
      out_[length_at_ + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(length >> (8 * i));
    }
  }

 private:
  std::vector<std::uint8_t>& out_;
  std::size_t length_at_;
};

}  // namespace

std::string to_string(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kShed: return "shed";
    case Status::kExpired: return "expired";
    case Status::kFailed: return "failed";
    case Status::kRejected: return "rejected";
    case Status::kClosing: return "closing";
  }
  return "unknown";
}

std::string to_string(ShedOrigin origin) {
  switch (origin) {
    case ShedOrigin::kShard: return "shard";
    case ShedOrigin::kRouter: return "router";
  }
  return "unknown";
}

std::string to_string(ShedDetail detail) {
  switch (detail) {
    case ShedDetail::kNone: return "none";
    case ShedDetail::kTransient: return "transient";
    case ShedDetail::kDeadBackend: return "dead-backend";
  }
  return "unknown";
}

std::string to_string(MembershipOp op) {
  switch (op) {
    case MembershipOp::kAdd: return "add";
    case MembershipOp::kRemove: return "remove";
    case MembershipOp::kStatus: return "status";
  }
  return "unknown";
}

void encode_hello(std::vector<std::uint8_t>& out, const HelloFrame& f) {
  FrameBuilder b{out, FrameType::kHello};
  put_u32(out, f.magic);
  put_u16(out, f.version);
  b.finish();
}

void encode_hello_ack(std::vector<std::uint8_t>& out, const HelloAckFrame& f) {
  FrameBuilder b{out, FrameType::kHelloAck};
  put_u32(out, f.magic);
  put_u16(out, f.version);
  put_u8(out, f.ok ? 1 : 0);
  b.finish();
}

void encode_request(std::vector<std::uint8_t>& out, const RequestFrame& f) {
  FrameBuilder b{out, FrameType::kRequest};
  put_u64(out, f.request_id);
  put_u16(out, f.handler_id);
  put_u16(out, f.tenant_id);
  put_u64(out, f.deadline_us);
  put_u32(out, static_cast<std::uint32_t>(f.payload.size()));
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  b.finish();
}

void encode_response(std::vector<std::uint8_t>& out, const ResponseFrame& f) {
  FrameBuilder b{out, FrameType::kResponse};
  put_u64(out, f.request_id);
  put_u8(out, static_cast<std::uint8_t>(f.status));
  put_u64(out, f.server_latency_us);
  put_u64(out, f.retry_after_us);
  put_u32(out, static_cast<std::uint32_t>(f.payload.size()));
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  put_u8(out, static_cast<std::uint8_t>(f.shed_origin));
  put_u8(out, static_cast<std::uint8_t>(f.shed_detail));
  b.finish();
}

void encode_stats_request(std::vector<std::uint8_t>& out) {
  FrameBuilder b{out, FrameType::kStatsRequest};
  put_u8(out, 0);  // reserved; a zero-length frame is a decoder error
  b.finish();
}

void encode_stats(std::vector<std::uint8_t>& out, const StatsFrame& f) {
  FrameBuilder b{out, FrameType::kStatsResponse};
  put_u64(out, f.offered);
  put_u64(out, f.completed);
  put_u64(out, f.shed);
  put_u64(out, f.expired);
  put_u64(out, f.failed);
  put_u32(out, f.queue_depth);
  put_u64(out, f.p50_us);
  put_u64(out, f.p95_us);
  put_u64(out, f.p99_us);
  put_u64(out, f.retry_after_us);
  put_u16(out, static_cast<std::uint16_t>(f.tenants.size()));
  for (const TenantStat& t : f.tenants) {
    put_u16(out, t.tenant);
    put_u64(out, t.count);
    put_u64(out, t.p99_us);
  }
  b.finish();
}

namespace {

/// Cap on the human-readable message in a membership response.
constexpr std::size_t kMaxMessageBytes = 1024;

}  // namespace

void encode_membership_request(std::vector<std::uint8_t>& out,
                               const MembershipRequest& f) {
  FrameBuilder b{out, FrameType::kMembershipRequest};
  put_u8(out, static_cast<std::uint8_t>(f.op));
  put_u32(out, f.shard_id);
  put_string(out, f.host, kMaxHostBytes);
  put_u16(out, f.port);
  b.finish();
}

void encode_membership(std::vector<std::uint8_t>& out,
                       const MembershipFrame& f) {
  FrameBuilder b{out, FrameType::kMembershipResponse};
  put_u8(out, f.ok ? 1 : 0);
  put_string(out, f.message, kMaxMessageBytes);
  put_u8(out, f.scale_action);
  put_u32(out, f.scale_shard);
  put_u16(out, static_cast<std::uint16_t>(f.members.size()));
  for (const MemberInfo& m : f.members) {
    put_u32(out, m.shard_id);
    put_string(out, m.host, kMaxHostBytes);
    put_u16(out, m.port);
    put_u8(out, m.health);
    put_u8(out, m.in_ring ? 1 : 0);
    put_u64(out, m.redial_attempts);
    put_u64(out, m.reconnects);
    put_string(out, m.last_error, kMaxMessageBytes);
  }
  put_u16(out, static_cast<std::uint16_t>(f.log.size()));
  for (const MembershipLogEntry& e : f.log) {
    put_u64(out, e.seq);
    put_u8(out, e.event);
    put_u32(out, e.shard_id);
  }
  b.finish();
}

std::optional<MembershipRequest> parse_membership_request(
    const std::vector<std::uint8_t>& body) {
  Reader r{body};
  MembershipRequest f;
  std::uint8_t op = 0;
  if (!r.get_u8(op) || op > static_cast<std::uint8_t>(MembershipOp::kStatus) ||
      !r.get_u32(f.shard_id) || !get_string(r, f.host, kMaxHostBytes) ||
      !r.get_u16(f.port) || !r.exhausted()) {
    return std::nullopt;
  }
  f.op = static_cast<MembershipOp>(op);
  return f;
}

std::optional<MembershipFrame> parse_membership(
    const std::vector<std::uint8_t>& body) {
  Reader r{body};
  MembershipFrame f;
  std::uint8_t ok = 0;
  std::uint16_t n_members = 0;
  if (!r.get_u8(ok) || !get_string(r, f.message, kMaxMessageBytes) ||
      !r.get_u8(f.scale_action) || !r.get_u32(f.scale_shard) ||
      !r.get_u16(n_members)) {
    return std::nullopt;
  }
  f.ok = ok != 0;
  f.members.resize(n_members);
  for (MemberInfo& m : f.members) {
    std::uint8_t in_ring = 0;
    if (!r.get_u32(m.shard_id) || !get_string(r, m.host, kMaxHostBytes) ||
        !r.get_u16(m.port) || !r.get_u8(m.health) || !r.get_u8(in_ring) ||
        !r.get_u64(m.redial_attempts) || !r.get_u64(m.reconnects) ||
        !get_string(r, m.last_error, kMaxMessageBytes)) {
      return std::nullopt;
    }
    m.in_ring = in_ring != 0;
  }
  std::uint16_t n_log = 0;
  if (!r.get_u16(n_log)) return std::nullopt;
  f.log.resize(n_log);
  for (MembershipLogEntry& e : f.log) {
    if (!r.get_u64(e.seq) || !r.get_u8(e.event) || !r.get_u32(e.shard_id)) {
      return std::nullopt;
    }
  }
  if (!r.exhausted()) return std::nullopt;
  return f;
}

std::optional<HelloFrame> parse_hello(const std::vector<std::uint8_t>& body) {
  Reader r{body};
  HelloFrame f;
  if (!r.get_u32(f.magic) || !r.get_u16(f.version) || !r.exhausted()) {
    return std::nullopt;
  }
  return f;
}

std::optional<HelloAckFrame> parse_hello_ack(
    const std::vector<std::uint8_t>& body) {
  Reader r{body};
  HelloAckFrame f;
  std::uint8_t ok = 0;
  if (!r.get_u32(f.magic) || !r.get_u16(f.version) || !r.get_u8(ok) ||
      !r.exhausted()) {
    return std::nullopt;
  }
  f.ok = ok != 0;
  return f;
}

std::optional<RequestFrame> parse_request(const std::vector<std::uint8_t>& body) {
  Reader r{body};
  RequestFrame f;
  std::uint32_t payload_len = 0;
  if (!r.get_u64(f.request_id) || !r.get_u16(f.handler_id) ||
      !r.get_u16(f.tenant_id) || !r.get_u64(f.deadline_us) ||
      !r.get_u32(payload_len) || payload_len > kMaxPayloadBytes ||
      !r.get_bytes(f.payload, payload_len) || !r.exhausted()) {
    return std::nullopt;
  }
  return f;
}

std::optional<ResponseFrame> parse_response(
    const std::vector<std::uint8_t>& body) {
  Reader r{body};
  ResponseFrame f;
  std::uint8_t status = 0;
  std::uint32_t payload_len = 0;
  std::uint8_t origin = 0;
  std::uint8_t detail = 0;
  if (!r.get_u64(f.request_id) || !r.get_u8(status) ||
      status > static_cast<std::uint8_t>(Status::kClosing) ||
      !r.get_u64(f.server_latency_us) || !r.get_u64(f.retry_after_us) ||
      !r.get_u32(payload_len) || payload_len > kMaxPayloadBytes ||
      !r.get_bytes(f.payload, payload_len) || !r.get_u8(origin) ||
      origin > static_cast<std::uint8_t>(ShedOrigin::kRouter) ||
      !r.get_u8(detail) ||
      detail > static_cast<std::uint8_t>(ShedDetail::kDeadBackend) ||
      !r.exhausted()) {
    return std::nullopt;
  }
  f.status = static_cast<Status>(status);
  f.shed_origin = static_cast<ShedOrigin>(origin);
  f.shed_detail = static_cast<ShedDetail>(detail);
  return f;
}

bool parse_stats_request(const std::vector<std::uint8_t>& body) {
  return body.size() == 1 && body[0] == 0;
}

std::optional<StatsFrame> parse_stats(const std::vector<std::uint8_t>& body) {
  Reader r{body};
  StatsFrame f;
  std::uint16_t n_tenants = 0;
  if (!r.get_u64(f.offered) || !r.get_u64(f.completed) || !r.get_u64(f.shed) ||
      !r.get_u64(f.expired) || !r.get_u64(f.failed) ||
      !r.get_u32(f.queue_depth) || !r.get_u64(f.p50_us) ||
      !r.get_u64(f.p95_us) || !r.get_u64(f.p99_us) ||
      !r.get_u64(f.retry_after_us) || !r.get_u16(n_tenants)) {
    return std::nullopt;
  }
  f.tenants.resize(n_tenants);
  for (TenantStat& t : f.tenants) {
    if (!r.get_u16(t.tenant) || !r.get_u64(t.count) || !r.get_u64(t.p99_us)) {
      return std::nullopt;
    }
  }
  if (!r.exhausted()) return std::nullopt;
  return f;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (failed_) return;
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Frame> FrameDecoder::next() {
  if (failed_ || buffer_.size() < 4) return std::nullopt;
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(buffer_[static_cast<std::size_t>(i)])
              << (8 * i);
  }
  if (length == 0) {
    fail("zero-length frame");
    return std::nullopt;
  }
  if (length > kMaxFrameBytes) {
    fail("frame length " + std::to_string(length) + " exceeds cap");
    return std::nullopt;
  }
  if (buffer_.size() < 4 + static_cast<std::size_t>(length)) {
    return std::nullopt;  // partial frame — wait for more bytes
  }
  const std::uint8_t type = buffer_[4];
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kMembershipResponse)) {
    fail("unknown frame type " + std::to_string(type));
    return std::nullopt;
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.body.assign(buffer_.begin() + 5,
                    buffer_.begin() + 4 + static_cast<std::ptrdiff_t>(length));
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + 4 + static_cast<std::ptrdiff_t>(length));
  return frame;
}

void FrameDecoder::reset() {
  buffer_.clear();
  failed_ = false;
  error_.clear();
}

void FrameDecoder::fail(std::string reason) {
  failed_ = true;
  error_ = std::move(reason);
  buffer_.clear();
}

}  // namespace autopn::net

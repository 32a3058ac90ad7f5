// Wire-protocol framing tests: encode/decode round-trips across random
// payload sizes (including empty and maximum), split-delivery decoding one
// byte at a time, and rejection of truncated, oversized, zero-length,
// unknown-type, and magic/version-mismatched frames — the decoder's sticky
// error state is the connection-close contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "net/wire.hpp"
#include "util/rng.hpp"

namespace autopn::net {
namespace {

std::vector<std::uint8_t> random_payload(util::Rng& rng, std::size_t size) {
  std::vector<std::uint8_t> payload(size);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return payload;
}

/// Feeds `bytes` to a fresh decoder in one call and returns all frames.
std::vector<Frame> decode_all(const std::vector<std::uint8_t>& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  std::vector<Frame> frames;
  while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
  EXPECT_FALSE(decoder.failed()) << decoder.error();
  return frames;
}

TEST(NetWire, HelloRoundTrip) {
  std::vector<std::uint8_t> bytes;
  encode_hello(bytes);
  const auto frames = decode_all(bytes);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::kHello);
  const auto hello = parse_hello(frames[0].body);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->magic, kWireMagic);
  EXPECT_EQ(hello->version, kWireVersion);
}

TEST(NetWire, HelloAckRoundTripBothVerdicts) {
  for (const bool ok : {true, false}) {
    std::vector<std::uint8_t> bytes;
    HelloAckFrame ack;
    ack.ok = ok;
    encode_hello_ack(bytes, ack);
    const auto frames = decode_all(bytes);
    ASSERT_EQ(frames.size(), 1u);
    const auto parsed = parse_hello_ack(frames[0].body);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->ok, ok);
  }
}

TEST(NetWire, RequestRoundTripPropertyOverPayloadSizes) {
  util::Rng rng{42};
  // Boundary sizes plus a random spread; kMaxPayloadBytes must round-trip.
  std::vector<std::size_t> sizes{0, 1, 2, 255, 256, 65536, kMaxPayloadBytes};
  for (int i = 0; i < 20; ++i) {
    sizes.push_back(static_cast<std::size_t>(rng.uniform_int(0, 100000)));
  }
  for (const std::size_t size : sizes) {
    RequestFrame frame;
    frame.request_id = rng.uniform_int(0, 1 << 30);
    frame.handler_id = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    frame.tenant_id = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    frame.deadline_us = rng.uniform_int(0, 1 << 30);
    frame.payload = random_payload(rng, size);

    std::vector<std::uint8_t> bytes;
    encode_request(bytes, frame);
    const auto frames = decode_all(bytes);
    ASSERT_EQ(frames.size(), 1u) << "payload size " << size;
    ASSERT_EQ(frames[0].type, FrameType::kRequest);
    const auto parsed = parse_request(frames[0].body);
    ASSERT_TRUE(parsed.has_value()) << "payload size " << size;
    EXPECT_EQ(parsed->request_id, frame.request_id);
    EXPECT_EQ(parsed->handler_id, frame.handler_id);
    EXPECT_EQ(parsed->tenant_id, frame.tenant_id);
    EXPECT_EQ(parsed->deadline_us, frame.deadline_us);
    EXPECT_EQ(parsed->payload, frame.payload);
  }
}

TEST(NetWire, ResponseRoundTripAllStatuses) {
  util::Rng rng{7};
  for (const Status status :
       {Status::kOk, Status::kShed, Status::kExpired, Status::kFailed,
        Status::kRejected, Status::kClosing}) {
    ResponseFrame frame;
    frame.request_id = rng.uniform_int(1, 1 << 20);
    frame.status = status;
    frame.server_latency_us = rng.uniform_int(0, 1 << 20);
    frame.retry_after_us = rng.uniform_int(0, 5000000);
    frame.payload = random_payload(rng, rng.uniform_int(0, 512));

    std::vector<std::uint8_t> bytes;
    encode_response(bytes, frame);
    const auto frames = decode_all(bytes);
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(frames[0].type, FrameType::kResponse);
    const auto parsed = parse_response(frames[0].body);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->request_id, frame.request_id);
    EXPECT_EQ(parsed->status, frame.status);
    EXPECT_EQ(parsed->server_latency_us, frame.server_latency_us);
    EXPECT_EQ(parsed->retry_after_us, frame.retry_after_us);
    EXPECT_EQ(parsed->payload, frame.payload);
  }
}

TEST(NetWire, ByteAtATimeSplitDelivery) {
  // Three heterogeneous frames in one stream, delivered one byte at a time:
  // the decoder must produce exactly the same frames as a single feed.
  util::Rng rng{99};
  std::vector<std::uint8_t> stream;
  encode_hello(stream);
  RequestFrame request;
  request.request_id = 17;
  request.payload = random_payload(rng, 333);
  encode_request(stream, request);
  ResponseFrame response;
  response.request_id = 17;
  response.status = Status::kShed;
  response.retry_after_us = 2500;
  encode_response(stream, response);

  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (const std::uint8_t byte : stream) {
    decoder.feed(&byte, 1);
    while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
  }
  ASSERT_FALSE(decoder.failed()) << decoder.error();
  EXPECT_EQ(decoder.buffered(), 0u);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  const auto req = parse_request(frames[1].body);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->payload, request.payload);
  const auto resp = parse_response(frames[2].body);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->retry_after_us, 2500u);
}

TEST(NetWire, TruncatedFrameStaysPendingNotError) {
  // A partial frame is not an error — the decoder waits for the rest.
  std::vector<std::uint8_t> bytes;
  RequestFrame frame;
  frame.payload = std::vector<std::uint8_t>(100, 0x55);
  encode_request(bytes, frame);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size() - 1);  // hold back the last byte
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.failed());
  EXPECT_GT(decoder.buffered(), 0u);
  // Delivering the final byte completes it.
  decoder.feed(&bytes.back(), 1);
  EXPECT_TRUE(decoder.next().has_value());
}

TEST(NetWire, TruncatedBodyRejectedByParser) {
  std::vector<std::uint8_t> bytes;
  encode_request(bytes, RequestFrame{});
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  frame->body.pop_back();  // now one byte short of the fixed fields
  EXPECT_FALSE(parse_request(frame->body).has_value());
  // Trailing garbage is equally a protocol error under length framing.
  frame->body.push_back(0);
  frame->body.push_back(0xde);
  EXPECT_FALSE(parse_request(frame->body).has_value());
}

TEST(NetWire, BadMagicAndBadVersionRejected) {
  std::vector<std::uint8_t> bytes;
  encode_hello(bytes);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());

  auto corrupt_magic = frame->body;
  corrupt_magic[0] ^= 0xff;
  const auto bad_magic = parse_hello(corrupt_magic);
  // The parser yields the frame; the handshake layer rejects the mismatch.
  ASSERT_TRUE(bad_magic.has_value());
  EXPECT_NE(bad_magic->magic, kWireMagic);

  auto corrupt_version = frame->body;
  corrupt_version[4] ^= 0xff;
  const auto bad_version = parse_hello(corrupt_version);
  ASSERT_TRUE(bad_version.has_value());
  EXPECT_NE(bad_version->version, kWireVersion);
}

TEST(NetWire, OversizedLengthIsStickyError) {
  FrameDecoder decoder;
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::uint8_t header[4];
  header[0] = static_cast<std::uint8_t>(huge & 0xff);
  header[1] = static_cast<std::uint8_t>((huge >> 8) & 0xff);
  header[2] = static_cast<std::uint8_t>((huge >> 16) & 0xff);
  header[3] = static_cast<std::uint8_t>((huge >> 24) & 0xff);
  decoder.feed(header, sizeof header);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.failed());
  // Sticky: valid bytes after the fault are ignored until reset().
  std::vector<std::uint8_t> valid;
  encode_hello(valid);
  decoder.feed(valid.data(), valid.size());
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.failed());
  decoder.reset();
  EXPECT_FALSE(decoder.failed());
}

TEST(NetWire, ResponseShedOriginAndDetailRoundTrip) {
  for (const ShedOrigin origin : {ShedOrigin::kShard, ShedOrigin::kRouter}) {
    for (const ShedDetail detail : {ShedDetail::kNone, ShedDetail::kTransient,
                                    ShedDetail::kDeadBackend}) {
      ResponseFrame frame;
      frame.request_id = 9;
      frame.status = Status::kShed;
      frame.retry_after_us = 1000;
      frame.shed_origin = origin;
      frame.shed_detail = detail;
      std::vector<std::uint8_t> bytes;
      encode_response(bytes, frame);
      const auto frames = decode_all(bytes);
      ASSERT_EQ(frames.size(), 1u);
      const auto parsed = parse_response(frames[0].body);
      ASSERT_TRUE(parsed.has_value())
          << to_string(origin) << "/" << to_string(detail);
      EXPECT_EQ(parsed->shed_origin, origin);
      EXPECT_EQ(parsed->shed_detail, detail);
      EXPECT_EQ(parsed->retry_after_us, 1000u);
    }
  }

  // An out-of-range origin or detail byte is corruption. The body ends
  // with origin, then detail.
  std::vector<std::uint8_t> bytes;
  encode_response(bytes, ResponseFrame{});
  const auto frames = decode_all(bytes);
  ASSERT_EQ(frames.size(), 1u);
  auto bad_origin = frames[0].body;
  bad_origin[bad_origin.size() - 2] = 0x7f;
  EXPECT_FALSE(parse_response(bad_origin).has_value());
  auto bad_detail = frames[0].body;
  bad_detail.back() = 0x7f;
  EXPECT_FALSE(parse_response(bad_detail).has_value());
}

// The origin and detail bytes used to be gated behind a negotiated minor
// revision. Both now end every Response body, a kOk one included, at fixed
// offsets: origin second to last, detail last.
TEST(NetWire, ResponseShedOriginMinorGated) {
  std::vector<std::uint8_t> bytes;
  encode_response(bytes, ResponseFrame{});
  auto body = decode_all(bytes).at(0).body;
  ASSERT_GE(body.size(), 2u);
  EXPECT_EQ(body[body.size() - 2],
            static_cast<std::uint8_t>(ShedOrigin::kShard));
  body[body.size() - 2] = static_cast<std::uint8_t>(ShedOrigin::kRouter);
  const auto parsed = parse_response(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, Status::kOk);
  EXPECT_EQ(parsed->shed_origin, ShedOrigin::kRouter);
}

TEST(NetWire, ResponseShedDetailMinorGated) {
  std::vector<std::uint8_t> bytes;
  encode_response(bytes, ResponseFrame{});
  auto body = decode_all(bytes).at(0).body;
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.back(), static_cast<std::uint8_t>(ShedDetail::kNone));
  body.back() = static_cast<std::uint8_t>(ShedDetail::kDeadBackend);
  const auto parsed = parse_response(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->shed_origin, ShedOrigin::kShard);
  EXPECT_EQ(parsed->shed_detail, ShedDetail::kDeadBackend);
}

TEST(NetWire, StatsFrameRoundTrip) {
  StatsFrame stats;
  stats.offered = 1000;
  stats.completed = 900;
  stats.shed = 80;
  stats.expired = 15;
  stats.failed = 5;
  stats.queue_depth = 42;
  stats.p50_us = 100;
  stats.p95_us = 900;
  stats.p99_us = 2500;
  stats.retry_after_us = 12000;
  for (std::uint16_t slot = 0; slot < 8; ++slot) {
    stats.tenants.push_back(TenantStat{slot, 100u + slot, 1000u * slot});
  }

  std::vector<std::uint8_t> bytes;
  encode_stats_request(bytes);
  encode_stats(bytes, stats);
  const auto frames = decode_all(bytes);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kStatsRequest);
  ASSERT_EQ(frames[1].type, FrameType::kStatsResponse);
  const auto parsed = parse_stats(frames[1].body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->offered, stats.offered);
  EXPECT_EQ(parsed->completed, stats.completed);
  EXPECT_EQ(parsed->shed, stats.shed);
  EXPECT_EQ(parsed->expired, stats.expired);
  EXPECT_EQ(parsed->failed, stats.failed);
  EXPECT_EQ(parsed->queue_depth, stats.queue_depth);
  EXPECT_EQ(parsed->p99_us, stats.p99_us);
  EXPECT_EQ(parsed->retry_after_us, stats.retry_after_us);
  ASSERT_EQ(parsed->tenants.size(), 8u);
  EXPECT_EQ(parsed->tenants[3].tenant, 3u);
  EXPECT_EQ(parsed->tenants[3].count, 103u);
  EXPECT_EQ(parsed->tenants[3].p99_us, 3000u);

  // Truncating inside the tenant list is rejected.
  auto truncated = frames[1].body;
  truncated.pop_back();
  EXPECT_FALSE(parse_stats(truncated).has_value());
}

TEST(NetWire, MembershipRequestRoundTripAllOps) {
  for (const MembershipOp op :
       {MembershipOp::kAdd, MembershipOp::kRemove, MembershipOp::kStatus}) {
    MembershipRequest req;
    req.op = op;
    req.shard_id = 7;
    req.host = op == MembershipOp::kAdd ? "127.0.0.1" : "";
    req.port = op == MembershipOp::kAdd ? 9444 : 0;

    std::vector<std::uint8_t> bytes;
    encode_membership_request(bytes, req);
    const auto frames = decode_all(bytes);
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(frames[0].type, FrameType::kMembershipRequest);
    const auto parsed = parse_membership_request(frames[0].body);
    ASSERT_TRUE(parsed.has_value()) << to_string(op);
    EXPECT_EQ(parsed->op, op);
    EXPECT_EQ(parsed->shard_id, 7u);
    EXPECT_EQ(parsed->host, req.host);
    EXPECT_EQ(parsed->port, req.port);

    auto truncated = frames[0].body;
    truncated.pop_back();
    EXPECT_FALSE(parse_membership_request(truncated).has_value());
  }
}

TEST(NetWire, MembershipFrameRoundTrip) {
  MembershipFrame reply;
  reply.ok = true;
  reply.message = "shard 2 admitted; joins the ring after probation";
  reply.scale_action = 2;  // router::ScaleAction::kRemove as a raw byte
  reply.scale_shard = 1;
  MemberInfo m;
  m.shard_id = 2;
  m.host = "127.0.0.1";
  m.port = 9001;
  m.health = 3;  // router::HealthState::kProbation as a raw byte
  m.in_ring = false;
  m.redial_attempts = 5;
  m.reconnects = 1;
  m.last_error = "connect: refused";
  reply.members.push_back(m);
  reply.log.push_back({1, 0, 2});  // seq 1: admit(2)
  reply.log.push_back({2, 3, 2});  // seq 2: join(2)

  std::vector<std::uint8_t> bytes;
  encode_membership(bytes, reply);
  const auto frames = decode_all(bytes);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::kMembershipResponse);
  const auto parsed = parse_membership(frames[0].body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ok, reply.ok);
  EXPECT_EQ(parsed->message, reply.message);
  EXPECT_EQ(parsed->scale_action, reply.scale_action);
  EXPECT_EQ(parsed->scale_shard, reply.scale_shard);
  ASSERT_EQ(parsed->members.size(), 1u);
  EXPECT_EQ(parsed->members[0].shard_id, 2u);
  EXPECT_EQ(parsed->members[0].host, "127.0.0.1");
  EXPECT_EQ(parsed->members[0].port, 9001u);
  EXPECT_EQ(parsed->members[0].health, 3u);
  EXPECT_FALSE(parsed->members[0].in_ring);
  EXPECT_EQ(parsed->members[0].redial_attempts, 5u);
  EXPECT_EQ(parsed->members[0].reconnects, 1u);
  EXPECT_EQ(parsed->members[0].last_error, "connect: refused");
  ASSERT_EQ(parsed->log.size(), 2u);
  EXPECT_EQ(parsed->log[0].seq, 1u);
  EXPECT_EQ(parsed->log[0].event, 0u);
  EXPECT_EQ(parsed->log[1].event, 3u);
  EXPECT_EQ(parsed->log[1].shard_id, 2u);

  // Truncating inside the member table or the log is rejected.
  auto truncated = frames[0].body;
  truncated.pop_back();
  EXPECT_FALSE(parse_membership(truncated).has_value());

  // Encoding truncates an over-cap host; a length prefix above the cap on
  // the wire is a protocol error (kMaxHostBytes is part of the contract).
  MembershipRequest oversized;
  oversized.op = MembershipOp::kAdd;
  oversized.host = std::string(kMaxHostBytes + 40, 'x');
  std::vector<std::uint8_t> bad;
  encode_membership_request(bad, oversized);
  const auto bad_frames = decode_all(bad);
  ASSERT_EQ(bad_frames.size(), 1u);
  const auto truncated_host = parse_membership_request(bad_frames[0].body);
  ASSERT_TRUE(truncated_host.has_value());
  EXPECT_EQ(truncated_host->host.size(), kMaxHostBytes);
  // Hand-patch the host length prefix (body offset 5: after op + shard_id)
  // past the cap: the parser must reject it.
  auto patched = bad_frames[0].body;
  const std::uint16_t over = kMaxHostBytes + 1;
  patched[5] = static_cast<std::uint8_t>(over & 0xff);
  patched[6] = static_cast<std::uint8_t>(over >> 8);
  EXPECT_FALSE(parse_membership_request(patched).has_value());
}

TEST(NetWire, ZeroLengthAndUnknownTypeRejected) {
  {
    FrameDecoder decoder;
    const std::uint8_t zero[4] = {0, 0, 0, 0};
    decoder.feed(zero, sizeof zero);
    EXPECT_FALSE(decoder.next().has_value());
    EXPECT_TRUE(decoder.failed());
  }
  {
    FrameDecoder decoder;
    // length = 1, type = 0x7f (unknown)
    const std::uint8_t unknown[5] = {1, 0, 0, 0, 0x7f};
    decoder.feed(unknown, sizeof unknown);
    EXPECT_FALSE(decoder.next().has_value());
    EXPECT_TRUE(decoder.failed());
  }
}

TEST(NetWire, EveryBodyParsesAtExactlyOneLength) {
  // One layout: each frame type's body parses at its encoded length and at
  // no other — every proper prefix and the body plus one byte are rejected.
  using Parser = std::function<bool(const std::vector<std::uint8_t>&)>;
  struct Case {
    FrameType type;
    std::vector<std::uint8_t> bytes;
    Parser parses;
  };
  std::vector<Case> cases;
  auto add = [&cases](FrameType type, Parser parses, auto encode) {
    Case c{type, {}, std::move(parses)};
    encode(c.bytes);
    cases.push_back(std::move(c));
  };
  add(FrameType::kHello,
      [](const auto& b) { return parse_hello(b).has_value(); },
      [](auto& out) { encode_hello(out); });
  add(FrameType::kHelloAck,
      [](const auto& b) { return parse_hello_ack(b).has_value(); },
      [](auto& out) { encode_hello_ack(out, HelloAckFrame{}); });
  add(FrameType::kRequest,
      [](const auto& b) { return parse_request(b).has_value(); },
      [](auto& out) {
        RequestFrame f;
        f.request_id = 3;
        f.payload = {1, 2, 3};
        encode_request(out, f);
      });
  add(FrameType::kResponse,
      [](const auto& b) { return parse_response(b).has_value(); },
      [](auto& out) {
        ResponseFrame f;
        f.request_id = 3;
        f.status = Status::kShed;
        f.payload = {4, 5};
        f.shed_origin = ShedOrigin::kRouter;
        f.shed_detail = ShedDetail::kTransient;
        encode_response(out, f);
      });
  add(FrameType::kStatsRequest,
      [](const auto& b) { return parse_stats_request(b); },
      [](auto& out) { encode_stats_request(out); });
  add(FrameType::kStatsResponse,
      [](const auto& b) { return parse_stats(b).has_value(); },
      [](auto& out) {
        StatsFrame f;
        f.tenants.push_back(TenantStat{1, 2, 3});
        encode_stats(out, f);
      });
  add(FrameType::kMembershipRequest,
      [](const auto& b) { return parse_membership_request(b).has_value(); },
      [](auto& out) {
        MembershipRequest f;
        f.op = MembershipOp::kAdd;
        f.host = "127.0.0.1";
        f.port = 9000;
        encode_membership_request(out, f);
      });
  add(FrameType::kMembershipResponse,
      [](const auto& b) { return parse_membership(b).has_value(); },
      [](auto& out) {
        MembershipFrame f;
        f.message = "ok";
        MemberInfo m;
        m.host = "127.0.0.1";
        m.last_error = "x";
        f.members.push_back(m);
        f.log.push_back({1, 0, 0});
        encode_membership(out, f);
      });
  ASSERT_EQ(cases.size(), 8u);

  for (const Case& c : cases) {
    const auto frames = decode_all(c.bytes);
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(frames[0].type, c.type);
    const auto& body = frames[0].body;
    const int type = static_cast<int>(c.type);
    EXPECT_TRUE(c.parses(body)) << "type " << type;
    for (std::size_t n = 0; n < body.size(); ++n) {
      const std::vector<std::uint8_t> prefix(
          body.begin(), body.begin() + static_cast<std::ptrdiff_t>(n));
      EXPECT_FALSE(c.parses(prefix)) << "type " << type << " prefix " << n;
    }
    auto longer = body;
    longer.push_back(0);
    EXPECT_FALSE(c.parses(longer)) << "type " << type << " plus one byte";
  }
}

}  // namespace
}  // namespace autopn::net

// NetServer end-to-end tests over loopback: request/response round-trips
// through the real engine, per-tenant latency surfacing, shed responses with
// clamped retry-after hints, client deadlines expiring on the wire, slow-
// reader backpressure, mid-request disconnects, responses batched into one
// socket write, and the deterministic shutdown ledger (requests_decoded ==
// responses_enqueued == responses_written + responses_dropped).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/netload.hpp"
#include "net/server.hpp"
#include "serve/engine.hpp"
#include "stm/stm.hpp"
#include "util/clock.hpp"

namespace autopn::net {
namespace {

using namespace std::chrono_literals;

stm::StmConfig small_stm() {
  stm::StmConfig cfg;
  cfg.max_cores = 4;
  cfg.pool_threads = 2;
  cfg.initial_top = 2;
  cfg.initial_children = 1;
  return cfg;
}

void expect_ledger_exact(const NetServerReport& report) {
  EXPECT_EQ(report.requests_decoded, report.responses_enqueued);
  EXPECT_EQ(report.responses_enqueued,
            report.responses_written + report.responses_dropped);
}

/// Engine + server + loopback client harness with a trivial default handler.
struct Harness {
  explicit Harness(serve::ServeConfig serve_cfg = {},
                   NetServerConfig net_cfg = {},
                   NetServer::HandlerTable handlers = {})
      : stm(small_stm()),
        engine(stm, [](util::Rng&) {}, clock, serve_cfg),
        server(engine, std::move(handlers), net_cfg) {}

  util::WallClock clock;
  stm::Stm stm;
  serve::ServeEngine engine;
  NetServer server;

  Client connect() { return Client::connect("127.0.0.1", server.port()); }
};

TEST(NetServer, RequestResponseRoundTrip) {
  Harness h;
  auto client = h.connect();
  const auto response = client.call(/*handler_id=*/0, /*tenant_id=*/3);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kOk);
  EXPECT_GT(response->server_latency_us, 0u);

  h.server.shutdown();
  const auto report = h.server.report();
  EXPECT_EQ(report.accepted, 1u);
  EXPECT_EQ(report.requests_decoded, 1u);
  EXPECT_EQ(report.responses_written, 1u);
  expect_ledger_exact(report);
  // The request's tenant landed in the engine's per-tenant latency report.
  const auto engine_report = h.engine.report();
  ASSERT_EQ(engine_report.tenants.size(), 1u);
  EXPECT_EQ(engine_report.tenants[0].tenant, 3u);
  EXPECT_EQ(engine_report.tenants[0].latency.count, 1u);
}

TEST(NetServer, PipelinedRequestsAllAnswered) {
  serve::ServeConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 2048;
  Harness h{cfg};
  auto client = h.connect();
  constexpr int kRequests = 200;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.send(0, static_cast<std::uint16_t>(i % 4)).has_value());
  }
  int answered = 0;
  while (answered < kRequests) {
    const auto response = client.recv(5.0);
    ASSERT_TRUE(response.has_value()) << "after " << answered << " responses";
    EXPECT_EQ(response->status, Status::kOk);
    ++answered;
  }
  h.server.shutdown();
  const auto report = h.server.report();
  EXPECT_EQ(report.requests_decoded, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(report.responses_written, static_cast<std::uint64_t>(kRequests));
  expect_ledger_exact(report);
  // Round-robined tenants each show up in the per-tenant report.
  EXPECT_EQ(h.engine.report().tenants.size(), 4u);
}

TEST(NetServer, ShedResponseCarriesClampedRetryAfter) {
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  cfg.shed_watermark = 2;
  Harness h{cfg, {},
            {[](util::Rng&) { std::this_thread::sleep_for(20ms); }}};
  auto client = h.connect();
  // Flood far past the watermark: some requests must be shed.
  constexpr int kRequests = 32;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.send(0).has_value());
  }
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kRequests; ++i) {
    const auto response = client.recv(10.0);
    ASSERT_TRUE(response.has_value());
    if (response->status == Status::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(response->status, Status::kShed);
      ++shed;
      // The protocol-level hint honors the engine's [1 ms, 5 s] clamp.
      EXPECT_GE(response->retry_after_us, 1000u);
      EXPECT_LE(response->retry_after_us, 5000000u);
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);
  h.server.shutdown();
  const auto report = h.server.report();
  EXPECT_EQ(report.shed_responses, static_cast<std::uint64_t>(shed));
  expect_ledger_exact(report);
}

TEST(NetServer, UnknownHandlerIdRejectedWithoutTouchingEngine) {
  Harness h{{}, {}, {[](util::Rng&) {}}};  // table exposes only id 0
  auto client = h.connect();
  const auto response = client.call(/*handler_id=*/9);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kRejected);
  EXPECT_EQ(h.engine.report().offered, 0u);
  h.server.shutdown();
  expect_ledger_exact(h.server.report());
}

TEST(NetServer, ClientDeadlineExpiresOnTheWire) {
  serve::ServeConfig cfg;
  cfg.workers = 1;
  Harness h{cfg, {},
            {[](util::Rng&) { std::this_thread::sleep_for(30ms); }}};
  auto client = h.connect();
  // First request occupies the single worker; the second's 1 ms deadline is
  // long past when it reaches the front of the queue.
  ASSERT_TRUE(client.send(0).has_value());
  ASSERT_TRUE(client.send(0, 0, /*deadline_us=*/1000).has_value());
  int expired = 0;
  for (int i = 0; i < 2; ++i) {
    const auto response = client.recv(10.0);
    ASSERT_TRUE(response.has_value());
    if (response->status == Status::kExpired) ++expired;
  }
  EXPECT_EQ(expired, 1);
  h.server.shutdown();
  expect_ledger_exact(h.server.report());
}

/// Polls `done` every millisecond for up to 5 s; true once it holds.
template <typename Predicate>
bool eventually(Predicate done) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(NetServer, ResponsesCompletedWhileTheLoopIsBusyShareOneWrite) {
  // One worker completes the requests in admission order. The handler gate
  // holds them until the loop is blocked, so all 32 responses reach the
  // outbox before the loop can deliver any of them.
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 64;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  Harness h{cfg, {}, {[opened](util::Rng&) { opened.wait(); }}};
  auto client = h.connect();
  constexpr int kResponses = 32;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kResponses; ++i) {
    const auto id = client.send(0);
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  // No ASSERT from here until both the gate and the loop are released: a
  // held worker or loop would hang shutdown.
  EXPECT_TRUE(eventually([&] {
    return h.server.report().requests_decoded ==
           static_cast<std::uint64_t>(kResponses);
  }));
  std::promise<void> blocked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  h.server.loop().post([&blocked, released] {
    blocked.set_value();
    released.wait();
  });
  blocked.get_future().wait();
  const std::uint64_t writes_before = h.server.report().socket_writes;
  gate.set_value();
  // responses_enqueued counts a response as it enters the outbox.
  EXPECT_TRUE(eventually([&] {
    return h.server.report().responses_enqueued ==
           static_cast<std::uint64_t>(kResponses);
  }));
  release.set_value();

  for (int i = 0; i < kResponses; ++i) {
    const auto response = client.recv(5.0);
    ASSERT_TRUE(response.has_value()) << "after " << i << " responses";
    EXPECT_EQ(response->status, Status::kOk);
    EXPECT_EQ(response->request_id, ids[static_cast<std::size_t>(i)]);
  }

  // Read the counters after shutdown joined the loop: the loop counts a
  // send only after it returns, and the client may read the bytes first.
  // Shutdown itself sends nothing here, as every buffer is already empty.
  h.server.shutdown();
  const auto report = h.server.report();
  EXPECT_EQ(report.socket_writes - writes_before, 1u);
  EXPECT_EQ(report.requests_decoded, static_cast<std::uint64_t>(kResponses));
  EXPECT_EQ(report.responses_written, static_cast<std::uint64_t>(kResponses));
  expect_ledger_exact(report);
}

TEST(NetServer, MidRequestDisconnectCountsDroppedResponse) {
  serve::ServeConfig cfg;
  cfg.workers = 1;
  Harness h{cfg, {},
            {[](util::Rng&) { std::this_thread::sleep_for(50ms); }}};
  {
    auto client = h.connect();
    ASSERT_TRUE(client.send(0).has_value());
    std::this_thread::sleep_for(10ms);  // let the server decode + admit it
  }  // client destructor closes the socket while the handler still runs
  h.server.shutdown();
  const auto report = h.server.report();
  EXPECT_EQ(report.requests_decoded, 1u);
  EXPECT_EQ(report.responses_dropped, 1u);
  EXPECT_EQ(report.responses_written, 0u);
  expect_ledger_exact(report);
  // The engine still completed the request — nothing leaked or crashed.
  EXPECT_EQ(h.engine.report().completed, 1u);
}

TEST(NetServer, SlowReaderTriggersBackpressureThenRecovers) {
  serve::ServeConfig serve_cfg;
  serve_cfg.workers = 2;
  serve_cfg.queue_capacity = 8192;
  serve_cfg.shed_watermark = 8192;
  NetServerConfig net_cfg;
  net_cfg.max_outbound_bytes = 2048;  // tiny cap: a few KB of responses fill it
  net_cfg.so_sndbuf = 4096;  // shrink kernel buffering so the cap is reachable
  Harness h{serve_cfg, net_cfg};

  // Raw slow-reader client: a minimal receive buffer (set before connect so
  // the TCP window is small) and no reads until the burst is fully sent.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 2048;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(h.server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  std::vector<std::uint8_t> burst;
  encode_hello(burst);
  constexpr int kRequests = 2000;
  for (int i = 0; i < kRequests; ++i) {
    RequestFrame frame;
    frame.request_id = static_cast<std::uint64_t>(i) + 1;
    encode_request(burst, frame);
  }
  std::size_t sent = 0;
  while (sent < burst.size()) {
    const ssize_t n =
        ::send(fd, burst.data() + sent, burst.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }

  // Responses pile up: client rcvbuf → server sndbuf → server outbuf past the
  // cap → the server must pause reading rather than balloon memory.
  const auto pause_deadline = std::chrono::steady_clock::now() + 10s;
  while (h.server.report().backpressure_pauses == 0 &&
         std::chrono::steady_clock::now() < pause_deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GT(h.server.report().backpressure_pauses, 0u);

  // Start reading: the buffer drains, reads resume, every request answers.
  FrameDecoder decoder;
  int responses = 0;
  bool saw_ack = false;
  const auto read_deadline = std::chrono::steady_clock::now() + 30s;
  while (responses < kRequests) {
    ASSERT_LT(std::chrono::steady_clock::now(), read_deadline)
        << "stalled after " << responses << " responses";
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0) << "connection died after " << responses << " responses";
    decoder.feed(buf, static_cast<std::size_t>(n));
    while (auto frame = decoder.next()) {
      if (frame->type == FrameType::kHelloAck) {
        saw_ack = true;
      } else if (frame->type == FrameType::kResponse) {
        ++responses;
      }
    }
    ASSERT_FALSE(decoder.failed()) << decoder.error();
  }
  EXPECT_TRUE(saw_ack);
  ::close(fd);

  h.server.shutdown();
  const auto report = h.server.report();
  EXPECT_GT(report.backpressure_pauses, 0u);
  EXPECT_EQ(report.requests_decoded, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(report.responses_written, static_cast<std::uint64_t>(kRequests));
  expect_ledger_exact(report);
}

/// Raw TCP socket for driving malformed bytes at the server.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

/// True when the peer closes the connection within ~2 s.
bool peer_closes(int fd) {
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  char buf[256];
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n == 0) return true;                       // orderly close
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return true;
    std::this_thread::sleep_for(5ms);
  }
  return false;
}

TEST(NetServer, GarbageBytesCloseConnectionAsProtocolError) {
  Harness h;
  // Handshake properly, then send a frame with an unknown type tag
  // (length=1, type=0x7f): the server must close, not resync.
  const int fd = raw_connect(h.server.port());
  std::vector<std::uint8_t> bytes;
  encode_hello(bytes);
  const std::uint8_t garbage[5] = {1, 0, 0, 0, 0x7f};
  bytes.insert(bytes.end(), std::begin(garbage), std::end(garbage));
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  EXPECT_TRUE(peer_closes(fd));
  ::close(fd);
  h.server.shutdown();
  const auto report = h.server.report();
  EXPECT_GE(report.protocol_errors, 1u);
  expect_ledger_exact(report);
}

TEST(NetServer, NonHelloFirstFrameIsAProtocolError) {
  Harness h;
  const int fd = raw_connect(h.server.port());
  std::vector<std::uint8_t> bytes;
  encode_request(bytes, RequestFrame{});  // request before the handshake
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  EXPECT_TRUE(peer_closes(fd));
  ::close(fd);
  h.server.shutdown();
  const auto report = h.server.report();
  EXPECT_GE(report.protocol_errors, 1u);
  EXPECT_EQ(report.requests_decoded, 0u);
  expect_ledger_exact(report);
}

TEST(NetServer, ShutdownIsIdempotentAndDestructorSafe) {
  Harness h;
  auto client = h.connect();
  ASSERT_TRUE(client.call().has_value());
  h.server.shutdown();
  h.server.shutdown();  // second call is a no-op
  expect_ledger_exact(h.server.report());
  // New connections are refused after shutdown.
  EXPECT_THROW(Client::connect("127.0.0.1", h.server.port(), 0.5),
               std::exception);
}

TEST(NetServer, NetloadOpenLoopSustainsTraffic) {
  serve::ServeConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 4096;
  Harness h{cfg};
  NetLoadParams params;
  params.port = h.server.port();
  params.connections = 2;
  params.rate = 400.0;
  params.duration = 0.5;
  params.tenants = 2;
  params.payload_bytes = 64;
  const auto result = run_netload(params);
  EXPECT_GT(result.sent, 0u);
  EXPECT_GT(result.ok, 0u);
  EXPECT_EQ(result.answered() + result.unanswered, result.sent);
  EXPECT_GT(result.latency.count, 0u);
  h.server.shutdown();
  expect_ledger_exact(h.server.report());
}

TEST(NetServer, PreviousVersionHelloIsNakedAndClosed) {
  // The exact hello a version-1 client sends: length 9 | type | magic |
  // version 1 | a trailing u16 of 2. The server must answer a definite
  // HelloAck(ok=false) and close, never fail later in the stream.
  Harness h;
  const int fd = raw_connect(h.server.port());
  const std::uint8_t hello[13] = {9,    0,    0,    0,  // length
                                  1,                    // kHello
                                  0x31, 0x4e, 0x50, 0x41,  // "APN1"
                                  1,    0,              // version 1
                                  2,    0};
  ASSERT_EQ(::send(fd, hello, sizeof hello, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof hello));

  FrameDecoder decoder;
  std::optional<HelloAckFrame> ack;
  bool closed = false;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!closed && std::chrono::steady_clock::now() < deadline) {
    std::uint8_t buf[256];
    const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      closed = true;
    } else if (n < 0) {
      std::this_thread::sleep_for(5ms);
    } else {
      decoder.feed(buf, static_cast<std::size_t>(n));
      while (auto frame = decoder.next()) {
        ASSERT_EQ(frame->type, FrameType::kHelloAck);
        ack = parse_hello_ack(frame->body);
      }
    }
  }
  ::close(fd);
  ASSERT_TRUE(ack.has_value());
  EXPECT_FALSE(ack->ok);
  EXPECT_TRUE(closed);
  h.server.shutdown();
  const auto report = h.server.report();
  EXPECT_GE(report.protocol_errors, 1u);
  EXPECT_EQ(report.requests_decoded, 0u);
  expect_ledger_exact(report);
}

TEST(NetServer, StatsRequestServesEngineKpis) {
  Harness h;
  auto client = h.connect();
  ASSERT_TRUE(client.call(/*handler_id=*/0, /*tenant_id=*/5).has_value());
  ASSERT_TRUE(client.send_stats_request());
  const auto stats = client.poll_stats(5.0);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->offered, 1u);
  EXPECT_EQ(stats->completed, 1u);
  ASSERT_EQ(stats->tenants.size(), 1u);
  EXPECT_EQ(stats->tenants[0].tenant, 5u);  // slot index: 5 % 8
  EXPECT_EQ(stats->tenants[0].count, 1u);
  // Stats traffic rides outside the request/response ledger.
  h.server.shutdown();
  const auto report = h.server.report();
  EXPECT_EQ(report.requests_decoded, 1u);
  expect_ledger_exact(report);
}

TEST(NetServer, NetloadClosedLoopHonorsRetryAfter) {
  serve::ServeConfig cfg;
  cfg.workers = 2;
  Harness h{cfg};
  NetLoadParams params;
  params.port = h.server.port();
  params.connections = 4;
  params.closed_loop = true;
  params.think_time = 0.0;
  params.duration = 0.3;
  const auto result = run_netload(params);
  EXPECT_GT(result.ok, 0u);
  EXPECT_EQ(result.io_errors, 0u);
  h.server.shutdown();
  expect_ledger_exact(h.server.report());
}

}  // namespace
}  // namespace autopn::net

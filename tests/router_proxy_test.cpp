// Router end-to-end tests over loopback: real clients talking the wire
// protocol to a Router fronting real shard NetServers. Covers tenant
// affinity through the ring, the router ledger (dispatched == forwarded +
// shed_local, forwarded == returned) composed with the server's response
// ledger, router-origin sheds for unreachable/dying backends, drop-free
// drain-then-cut tenant migration under load, per-shard KPI aggregation
// through kStatsRequest, the router failpoints, and the one-thread router:
// a silent shard or one that stops reading cannot stall it, its thread
// count does not grow with the shard count, and a pipelined burst leaves
// for its shard in a few socket writes.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "router/ring.hpp"
#include "router/router.hpp"
#include "serve/engine.hpp"
#include "stm/stm.hpp"
#include "util/clock.hpp"
#include "util/failpoint.hpp"
#include "wire_peer.hpp"

namespace autopn::router {
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

/// One real backend shard: engine + NetServer on a kernel-assigned port.
struct Shard {
  explicit Shard(net::NetServer::HandlerTable handlers = {},
                 net::NetServerConfig config = {})
      : stm(small_stm()),
        engine(stm, [](util::Rng&) {}, clock, {}),
        server(engine, std::move(handlers), std::move(config)) {}

  util::WallClock clock;
  stm::Stm stm;
  serve::ServeEngine engine;
  net::NetServer server;

  [[nodiscard]] ShardAddress address(std::uint32_t id) const {
    return ShardAddress{id, "127.0.0.1", server.port()};
  }
};

RouterConfig fast_config() {
  RouterConfig cfg;
  cfg.backoff.attempt_timeout_seconds = 0.25;
  cfg.backoff.initial_backoff_seconds = 0.02;
  cfg.backoff.max_backoff_seconds = 0.1;
  cfg.stats_poll_seconds = 0.05;
  cfg.rebalance_enabled = false;  // tests drive migrations explicitly
  cfg.migration_timeout_seconds = 0.5;
  return cfg;
}

/// Waits up to ~5s for every shard link to connect. The router dials its
/// shards asynchronously; a request sent before its link is up is shed at
/// the router, which a test expecting kOk would misread as a failure.
bool wait_links_up(Router& router) {
  for (int i = 0; i < 250; ++i) {
    bool all_up = true;
    for (const auto& [id, up] : router.shard_health()) all_up = all_up && up;
    if (all_up) return true;
    std::this_thread::sleep_for(20ms);
  }
  return false;
}

/// First tenant id the ring places on `shard` (the router's own hashing).
std::uint16_t tenant_on(std::uint32_t shard, std::uint32_t shard_count) {
  HashRing ring;
  for (std::uint32_t s = 0; s < shard_count; ++s) ring.add_shard(s);
  for (std::uint16_t t = 0;; ++t) {
    if (ring.owner_of_tenant(t) == shard) return t;
  }
}

/// Threads of this process right now.
std::size_t thread_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

/// The router's status row for `shard`.
Router::ShardStatus status_of(Router& router, std::uint32_t shard) {
  for (const Router::ShardStatus& row : router.shard_status()) {
    if (row.shard_id == shard) return row;
  }
  ADD_FAILURE() << "no status row for shard " << shard;
  return {};
}

void expect_router_ledger(const RouterReport& r) {
  EXPECT_EQ(r.dispatched, r.forwarded + r.shed_local);
  EXPECT_EQ(r.forwarded, r.returned);
  EXPECT_EQ(r.late_responses, 0u);
}

void expect_server_ledger(const net::NetServerReport& r) {
  EXPECT_EQ(r.requests_decoded, r.responses_enqueued);
  EXPECT_EQ(r.responses_enqueued, r.responses_written + r.responses_dropped);
}

TEST(RouterProxy, RoundTripsPinTenantsToTheirRingShard) {
  Shard shard0;
  Shard shard1;
  Router router({shard0.address(0), shard1.address(1)}, fast_config());
  ASSERT_TRUE(wait_links_up(router));
  const std::uint16_t tenant_a = tenant_on(0, 2);
  const std::uint16_t tenant_b = tenant_on(1, 2);

  auto client = net::Client::connect("127.0.0.1", router.port());
  for (int i = 0; i < 8; ++i) {
    const auto ra = client.call(/*handler_id=*/0, tenant_a);
    ASSERT_TRUE(ra.has_value());
    EXPECT_EQ(ra->status, net::Status::kOk);
    EXPECT_EQ(ra->shed_origin, net::ShedOrigin::kShard);
    const auto rb = client.call(/*handler_id=*/0, tenant_b);
    ASSERT_TRUE(rb.has_value());
    EXPECT_EQ(rb->status, net::Status::kOk);
  }
  // Affinity: all of tenant_a's traffic decoded by shard 0, tenant_b's by
  // shard 1 — and none crossed over.
  EXPECT_EQ(shard0.server.report().requests_decoded, 8u);
  EXPECT_EQ(shard1.server.report().requests_decoded, 8u);

  client.close();
  router.shutdown();
  const RouterReport report = router.report();
  EXPECT_EQ(report.dispatched, 16u);
  EXPECT_EQ(report.forwarded, 16u);
  EXPECT_EQ(report.shed_local, 0u);
  expect_router_ledger(report);
  expect_server_ledger(router.server_report());
}

TEST(RouterProxy, UnreachableBackendShedsWithRouterOrigin) {
  // Reserve a port that refuses connections: bound but never listening.
  const int refusing_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(refusing_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(refusing_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(refusing_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);

  Router router({ShardAddress{0, "127.0.0.1", ntohs(addr.sin_port)}},
                fast_config());
  auto client = net::Client::connect("127.0.0.1", router.port());
  for (int i = 0; i < 4; ++i) {
    const auto response = client.call(/*handler_id=*/0, /*tenant_id=*/7);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, net::Status::kShed);
    EXPECT_EQ(response->shed_origin, net::ShedOrigin::kRouter);
    EXPECT_GT(response->retry_after_us, 0u);
  }
  const auto health = router.shard_health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_FALSE(health[0].second);

  client.close();
  router.shutdown();
  const RouterReport report = router.report();
  EXPECT_EQ(report.forwarded, 0u);
  EXPECT_EQ(report.shed_local, 4u);
  expect_router_ledger(report);
  ::close(refusing_fd);
}

TEST(RouterProxy, ShardDeathSynthesizesRouterOriginSheds) {
  Shard shard0;
  Router router({shard0.address(0)}, fast_config());
  ASSERT_TRUE(wait_links_up(router));
  auto client = net::Client::connect("127.0.0.1", router.port());
  const auto warm = client.call(/*handler_id=*/0, /*tenant_id=*/3);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->status, net::Status::kOk);

  shard0.server.shutdown();
  // The link notices the close either at forward time (local shed) or on
  // its receiver (synthesized shed for the in-flight token) — both reach
  // the client as a router-origin kShed within a few attempts.
  bool saw_router_shed = false;
  for (int i = 0; i < 50 && !saw_router_shed; ++i) {
    const auto response =
        client.call(/*handler_id=*/0, /*tenant_id=*/3, /*deadline_us=*/0,
                    /*timeout_seconds=*/2.0);
    ASSERT_TRUE(response.has_value());
    saw_router_shed = response->status == net::Status::kShed &&
                      response->shed_origin == net::ShedOrigin::kRouter;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(saw_router_shed);

  client.close();
  router.shutdown();
  expect_router_ledger(router.report());
  expect_server_ledger(router.server_report());
}

TEST(RouterProxy, MigrationUnderLoadDropsNothing) {
  // 2ms handlers keep requests in flight so the migration exercises the
  // drain-then-cut path (hold, wait for zero in-flight, flip, replay).
  net::NetServer::HandlerTable slow = {
      [](util::Rng&) { std::this_thread::sleep_for(2ms); }};
  Shard shard0(slow);
  Shard shard1(slow);
  Router router({shard0.address(0), shard1.address(1)}, fast_config());
  ASSERT_TRUE(wait_links_up(router));
  const std::uint16_t tenant = tenant_on(0, 2);
  ASSERT_EQ(router.shard_of(tenant), 0u);

  constexpr int kLoaders = 2;
  constexpr int kCallsPerLoader = 100;
  std::atomic<int> answered{0};
  std::atomic<int> ok{0};
  std::vector<std::thread> loaders;
  loaders.reserve(kLoaders);
  for (int l = 0; l < kLoaders; ++l) {
    loaders.emplace_back([&] {
      auto client = net::Client::connect("127.0.0.1", router.port());
      for (int i = 0; i < kCallsPerLoader; ++i) {
        const auto response =
            client.call(/*handler_id=*/0, tenant, /*deadline_us=*/0,
                        /*timeout_seconds=*/5.0);
        if (response.has_value()) {
          answered.fetch_add(1, std::memory_order_relaxed);
          if (response->status == net::Status::kOk) {
            ok.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::this_thread::sleep_for(50ms);  // mid-stream, requests in flight
  router.migrate_tenant(tenant, 1);
  for (std::thread& t : loaders) t.join();

  // Zero drops: every call was answered, and none was shed — migration
  // holds frames, it never refuses them (the held queue stayed bounded).
  EXPECT_EQ(answered.load(), kLoaders * kCallsPerLoader);
  EXPECT_EQ(ok.load(), kLoaders * kCallsPerLoader);
  EXPECT_EQ(router.shard_of(tenant), 1u);
  EXPECT_GT(shard1.server.report().requests_decoded, 0u);

  router.shutdown();
  const RouterReport report = router.report();
  EXPECT_EQ(report.migrations_started, 1u);
  EXPECT_EQ(report.migrations_completed, 1u);
  EXPECT_EQ(report.shed_local, 0u);
  expect_router_ledger(report);
  expect_server_ledger(router.server_report());
}

TEST(RouterProxy, StatsRequestAggregatesShardKpis) {
  Shard shard0;
  Shard shard1;
  Router router({shard0.address(0), shard1.address(1)}, fast_config());
  ASSERT_TRUE(wait_links_up(router));
  const std::uint16_t tenant_a = tenant_on(0, 2);
  const std::uint16_t tenant_b = tenant_on(1, 2);

  auto client = net::Client::connect("127.0.0.1", router.port());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.call(0, tenant_a).has_value());
    ASSERT_TRUE(client.call(0, tenant_b).has_value());
  }
  std::this_thread::sleep_for(300ms);  // several 50ms poll cycles

  ASSERT_TRUE(client.send_stats_request());
  const auto stats = client.poll_stats(/*timeout_seconds=*/2.0);
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->offered, 16u);    // both shards' counters, summed
  EXPECT_GE(stats->completed, 16u);
  EXPECT_FALSE(stats->tenants.empty());

  client.close();
  router.shutdown();
}

TEST(RouterProxy, ShutdownUnderOpenLoadKeepsLedgersExact) {
  net::NetServer::HandlerTable slow = {
      [](util::Rng&) { std::this_thread::sleep_for(1ms); }};
  Shard shard0(slow);
  Shard shard1(slow);
  Router router({shard0.address(0), shard1.address(1)}, fast_config());

  std::atomic<bool> stop{false};
  std::thread loader([&] {
    auto client = net::Client::connect("127.0.0.1", router.port());
    std::uint16_t tenant = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto response = client.call(/*handler_id=*/0, ++tenant,
                                        /*deadline_us=*/0,
                                        /*timeout_seconds=*/1.0);
      if (!response.has_value()) break;  // shutdown reached the socket
    }
  });
  std::this_thread::sleep_for(100ms);
  router.shutdown();  // while requests are in flight
  stop.store(true, std::memory_order_relaxed);
  loader.join();

  expect_router_ledger(router.report());
  expect_server_ledger(router.server_report());
}

TEST(RouterProxy, ForwardFailpointShedsLocally) {
  if (!util::FailpointRegistry::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  Shard shard0;
  Router router({shard0.address(0)}, fast_config());
  ASSERT_TRUE(wait_links_up(router));
  auto client = net::Client::connect("127.0.0.1", router.port());

  util::FailpointRegistry::instance().arm_from_string(
      "router.forward=error(n=1)");
  const auto shed = client.call(/*handler_id=*/0, /*tenant_id=*/5);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->status, net::Status::kShed);
  EXPECT_EQ(shed->shed_origin, net::ShedOrigin::kRouter);

  const auto ok = client.call(/*handler_id=*/0, /*tenant_id=*/5);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, net::Status::kOk);

  util::FailpointRegistry::instance().disarm_all();
  client.close();
  router.shutdown();
  const RouterReport report = router.report();
  EXPECT_EQ(report.shed_local, 1u);
  expect_router_ledger(report);
}

TEST(RouterProxy, BackendDownFailpointForcesLocalShed) {
  if (!util::FailpointRegistry::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  Shard shard0;
  Router router({shard0.address(0)}, fast_config());
  auto client = net::Client::connect("127.0.0.1", router.port());

  util::FailpointRegistry::instance().arm_from_string(
      "router.backend_down=error(n=1)");
  const auto shed = client.call(/*handler_id=*/0, /*tenant_id=*/5);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->status, net::Status::kShed);
  EXPECT_EQ(shed->shed_origin, net::ShedOrigin::kRouter);

  util::FailpointRegistry::instance().disarm_all();
  client.close();
  router.shutdown();
  expect_router_ledger(router.report());
}

TEST(RouterProxy, SilentShardDoesNotStallTheRouter) {
  // A listening socket that is never accepted: the kernel completes the TCP
  // handshake from its backlog, so the link connects, but no HelloAck ever
  // comes back and the link sits in its handshake until the attempt timer.
  const int silent_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(silent_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(silent_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(silent_fd, 16), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(silent_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  Shard healthy;
  RouterConfig cfg = fast_config();
  cfg.backoff.attempt_timeout_seconds = 3.0;
  const auto started = std::chrono::steady_clock::now();
  Router router({healthy.address(0),
                 ShardAddress{1, "127.0.0.1", ntohs(addr.sin_port)}},
                cfg);
  const std::uint16_t tenant = tenant_on(0, 2);
  bool up = false;
  for (int i = 0; i < 250 && !up; ++i) {
    up = status_of(router, 0).healthy;
    if (!up) std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(up);

  // Well inside the silent link's handshake timeout, the router is up and
  // the healthy shard's tenant is served — a dial that blocked the router's
  // loop would hold everything here until the timeout fired.
  auto client = net::Client::connect("127.0.0.1", router.port());
  for (int i = 0; i < 20; ++i) {
    const auto response = client.call(/*handler_id=*/0, tenant,
                                       /*deadline_us=*/0,
                                       /*timeout_seconds=*/1.0);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, net::Status::kOk);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - started, 1500ms);
  const Router::ShardStatus during = status_of(router, 1);
  EXPECT_FALSE(during.healthy);
  EXPECT_EQ(during.redial_attempts, 0u);

  // After the attempt timeout the silent link reports its failed dial.
  Router::ShardStatus after = status_of(router, 1);
  for (int i = 0; i < 400 && after.redial_attempts == 0; ++i) {
    std::this_thread::sleep_for(10ms);
    after = status_of(router, 1);
  }
  EXPECT_GE(after.redial_attempts, 1u);
  EXPECT_FALSE(after.last_error.empty());

  client.close();
  router.shutdown();
  expect_router_ledger(router.report());
  expect_server_ledger(router.server_report());
  ::close(silent_fd);
}

TEST(RouterProxy, PipelinedFloodFromManyClientsIsFullyAnswered) {
  // Eight clients pipeline requests into one shard link faster than the
  // router reads the answers back, so the shard's outbound buffer (tiny
  // cap) fills and it stops reading. A link whose send blocked the router
  // loop without reading the shard's answers meanwhile wedged both sides
  // for good.
  net::NetServerConfig tight;
  tight.max_outbound_bytes = 4096;
  tight.so_sndbuf = 4096;
  Shard shard0({}, tight);
  Router router({shard0.address(0)}, fast_config());
  ASSERT_TRUE(wait_links_up(router));

  constexpr int kClients = 8;
  constexpr int kRequests = 20000;
  std::atomic<int> answered{0};
  std::vector<net::Client> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(net::Client::connect("127.0.0.1", router.port()));
  }
  std::vector<std::thread> senders;
  std::vector<std::thread> receivers;
  for (net::Client& client : clients) {
    senders.emplace_back([&client] {
      for (int i = 0; i < kRequests; ++i) {
        if (!client.send(/*handler_id=*/0, /*tenant_id=*/1)) return;
      }
    });
    receivers.emplace_back([&client, &answered] {
      for (int i = 0; i < kRequests; ++i) {
        if (!client.recv(/*timeout_seconds=*/10.0)) return;
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : receivers) t.join();
  // A wedged router answers nothing more, and its blocked send would hold
  // the senders forever; closing the shard breaks that send so the test
  // fails instead of hanging.
  if (answered.load() != kClients * kRequests) shard0.server.shutdown();
  for (std::thread& t : senders) t.join();
  EXPECT_EQ(answered.load(), kClients * kRequests);

  for (net::Client& client : clients) client.close();
  router.shutdown();
  expect_router_ledger(router.report());
  expect_server_ledger(router.server_report());
}

TEST(RouterProxy, RouterThreadCountDoesNotGrowWithShards) {
  // The shards' own threads exist before the baseline is taken, so the
  // deltas below are the routers' threads alone.
  Shard shard0;
  Shard shard1;
  Shard shard2;
  const std::size_t baseline = thread_count();
  std::size_t over_one = 0;
  std::size_t over_three = 0;
  {
    Router router({shard0.address(0)}, fast_config());
    ASSERT_TRUE(wait_links_up(router));
    over_one = thread_count() - baseline;
  }
  {
    Router router({shard0.address(0), shard1.address(1), shard2.address(2)},
                  fast_config());
    ASSERT_TRUE(wait_links_up(router));
    over_three = thread_count() - baseline;
  }
  EXPECT_EQ(over_one, 1u) << "the NetServer loop is the router's one thread";
  EXPECT_EQ(over_three, over_one) << "a shard link added a thread";
}

TEST(RouterProxy, ShardThatStopsReadingShedsOnlyItsOwnTenants) {
  // A peer that completes the handshake and then never reads. With its
  // small receive buffer and a small link cap the link backs up once the
  // socket is full; a link whose send waited for the peer stalled the
  // router's one loop thread, and every tenant of every shard with it. The
  // flood is larger than what a default-sized loopback socket absorbs
  // (~100k frames sent one by one), so a blocking send does block. The
  // requests the peer's socket took are never answered by the peer: the
  // health machine's dead verdict (10 missed polls, ~5 s) answers them.
  peers::FakeShard stuck(/*rcvbuf=*/4096);
  Shard healthy;
  RouterConfig cfg = fast_config();
  cfg.server.max_outbound_bytes = 4096;
  cfg.stats_poll_seconds = 0.5;  // the verdict comes after the bound below
  Router router({healthy.address(0), ShardAddress{1, "127.0.0.1", stuck.port()}},
                cfg);
  // Declared after the router, so destroyed before it: the peer closes on
  // every exit path, which is what unblocks a router waiting on it.
  struct ClosePeer {
    peers::FakeShard& peer;
    ~ClosePeer() { peer.close(); }
  } close_peer{stuck};
  ASSERT_TRUE(stuck.accept());
  ASSERT_TRUE(stuck.handshake());
  ASSERT_TRUE(wait_links_up(router));
  const std::uint16_t stuck_tenant = tenant_on(1, 2);
  const std::uint16_t served_tenant = tenant_on(0, 2);

  constexpr int kFlood = 160000;
  auto flooder = net::Client::connect("127.0.0.1", router.port());
  auto client = net::Client::connect("127.0.0.1", router.port());
  std::atomic<int> answered{0};
  std::atomic<int> transient_sheds{0};
  std::atomic<int> from_shard{0};  ///< after the eviction re-placed the tenant
  std::promise<void> flood_sent;
  std::thread sender([&] {
    for (int i = 0; i < kFlood; ++i) {
      if (!flooder.send(/*handler_id=*/0, stuck_tenant)) break;
    }
    flood_sent.set_value();
  });
  std::thread receiver([&] {
    for (int i = 0; i < kFlood; ++i) {
      const auto response = flooder.recv(/*timeout_seconds=*/10.0);
      if (!response.has_value()) return;
      answered.fetch_add(1, std::memory_order_relaxed);
      if (response->status == net::Status::kShed &&
          response->shed_origin == net::ShedOrigin::kRouter &&
          response->shed_detail == net::ShedDetail::kTransient) {
        transient_sheds.fetch_add(1, std::memory_order_relaxed);
      } else if (response->shed_origin == net::ShedOrigin::kShard) {
        from_shard.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  (void)flood_sent.get_future().wait_for(10s);

  // The bound: 20 round trips for the healthy shard's tenant in under 2 s,
  // with the stuck link backed up.
  const auto started = std::chrono::steady_clock::now();
  bool served = true;
  for (int i = 0; i < 20 && served; ++i) {
    const auto response = client.call(/*handler_id=*/0, served_tenant,
                                      /*deadline_us=*/0,
                                      /*timeout_seconds=*/1.0);
    served = response.has_value() && response->status == net::Status::kOk;
  }
  const auto elapsed = std::chrono::steady_clock::now() - started;
  // Every flood request is answered while the peer is still connected and
  // silent: by the router, shed at once above the link's cap or
  // synthesized at the dead verdict for what the peer's socket took, or by
  // the healthy shard once the eviction re-placed the tenant.
  for (int i = 0; i < 750 && answered.load() < kFlood; ++i) {
    std::this_thread::sleep_for(20ms);
  }
  const int answered_while_stuck = answered.load();
  const int sheds_while_stuck = transient_sheds.load();
  const int from_shard_while_stuck = from_shard.load();
  stuck.close();
  sender.join();
  receiver.join();
  EXPECT_TRUE(served) << "a shard that stopped reading stalled the router";
  EXPECT_LT(elapsed, 2s);
  EXPECT_EQ(answered_while_stuck, kFlood);
  EXPECT_GT(sheds_while_stuck, 0);
  EXPECT_EQ(sheds_while_stuck + from_shard_while_stuck, kFlood);
  EXPECT_EQ(router.report().evictions, 1u);

  client.close();
  flooder.close();
  router.shutdown();
  expect_router_ledger(router.report());
  expect_server_ledger(router.server_report());
}

TEST(RouterProxy, PipelinedBurstLeavesForItsShardInAFewWrites) {
  Shard shard0;
  RouterConfig cfg = fast_config();
  cfg.stats_poll_seconds = 60.0;  // no stats polls: link writes carry requests
  Router router({shard0.address(0)}, cfg);
  ASSERT_TRUE(wait_links_up(router));
  const std::uint64_t writes_before = status_of(router, 0).socket_writes;

  // 64 requests in one client write: the router reads them in one round,
  // and the link sends them together.
  constexpr std::size_t kBurst = 64;
  peers::WirePeer peer = peers::WirePeer::connect(router.port());
  std::vector<std::uint8_t> bytes;
  net::encode_hello(bytes, net::HelloFrame{});
  ASSERT_TRUE(peer.send(bytes));
  const std::vector<net::Frame> ack = peer.read_frames(5.0, 1);
  ASSERT_EQ(ack.size(), 1u);
  ASSERT_EQ(ack[0].type, net::FrameType::kHelloAck);
  bytes.clear();
  for (std::size_t i = 0; i < kBurst; ++i) {
    net::RequestFrame request;
    request.request_id = i + 1;
    request.tenant_id = 1;
    net::encode_request(bytes, request);
  }
  ASSERT_TRUE(peer.send(bytes));
  const std::vector<net::Frame> answers = peer.read_frames(5.0, kBurst);
  ASSERT_EQ(answers.size(), kBurst);
  for (const net::Frame& frame : answers) {
    const auto response = net::parse_response(frame.body);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, net::Status::kOk);
  }
  const std::uint64_t link_writes =
      status_of(router, 0).socket_writes - writes_before;
  EXPECT_GE(link_writes, 1u);
  EXPECT_LE(link_writes, 4u) << "the link sent the burst request by request";

  peer.close();
  router.shutdown();
  expect_router_ledger(router.report());
  expect_server_ledger(router.server_report());
}

}  // namespace
}  // namespace autopn::router

// Elastic-membership end-to-end tests: runtime admit through probation,
// administrative retire under open load (drop-free), health-driven eviction
// of a killed backend with traffic converging back to zero shed, the
// dead-backend vs transient shed split on the wire, the wire Membership
// control frames, and the router.admit / router.retire failpoints. Every
// test closes by asserting the router ledger stayed exact across the churn.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "router/health.hpp"
#include "router/ring.hpp"
#include "router/router.hpp"
#include "serve/engine.hpp"
#include "stm/stm.hpp"
#include "util/clock.hpp"
#include "util/failpoint.hpp"

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
  explicit Shard(net::NetServer::HandlerTable handlers = {})
      : stm(small_stm()),
        engine(stm, [](util::Rng&) {}, clock, {}),
        server(engine, std::move(handlers)) {}

  util::WallClock clock;
  stm::Stm stm;
  serve::ServeEngine engine;
  net::NetServer server;

  [[nodiscard]] ShardAddress address(std::uint32_t id) const {
    return ShardAddress{id, "127.0.0.1", server.port()};
  }
};

/// Aggressive cadences so probation and eviction land within test budgets.
/// The poll period must exceed the link's ~100ms receive window: a shorter
/// cadence sees the stats reply land every OTHER tick, which reads as
/// alternating misses and would reset probation's consecutive-pass count.
RouterConfig fast_config() {
  RouterConfig cfg;
  cfg.backoff.attempt_timeout_seconds = 0.25;
  cfg.backoff.initial_backoff_seconds = 0.02;
  cfg.backoff.max_backoff_seconds = 0.1;
  cfg.stats_poll_seconds = 0.15;
  cfg.rebalance_enabled = false;  // tests drive membership explicitly
  cfg.migration_timeout_seconds = 0.5;
  cfg.redial_budget = 3;
  cfg.dead_probe_seconds = 0.1;
  return cfg;
}

/// First tenant id the ring places on `shard` (the router's own hashing).
std::uint16_t tenant_on(std::uint32_t shard, std::uint32_t shard_count) {
  HashRing ring;
  for (std::uint32_t s = 0; s < shard_count; ++s) ring.add_shard(s);
  for (std::uint16_t t = 0;; ++t) {
    if (ring.owner_of_tenant(t) == shard) return t;
  }
}

void expect_router_ledger(const RouterReport& r) {
  EXPECT_EQ(r.dispatched, r.forwarded + r.shed_local);
  EXPECT_EQ(r.forwarded, r.returned);
}

std::optional<net::MemberInfo> find_member(const net::MembershipFrame& frame,
                                           std::uint32_t shard_id) {
  for (const net::MemberInfo& m : frame.members) {
    if (m.shard_id == shard_id) return m;
  }
  return std::nullopt;
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

/// Polls membership_status() until `pred` holds or ~5s pass; dumps the
/// member table on timeout so a failure is diagnosable from the log.
template <typename Pred>
bool wait_for_membership(Router& router, Pred pred) {
  for (int i = 0; i < 250; ++i) {
    if (pred(router.membership_status())) return true;
    std::this_thread::sleep_for(20ms);
  }
  const net::MembershipFrame frame = router.membership_status();
  for (const net::MemberInfo& m : frame.members) {
    std::cerr << "member " << m.shard_id << " health="
              << to_string(static_cast<HealthState>(m.health))
              << " in_ring=" << m.in_ring
              << " redials=" << m.redial_attempts << " last_error=\""
              << m.last_error << "\"\n";
  }
  return false;
}

TEST(RouterMembership, RuntimeAdmitJoinsOnlyAfterProbation) {
  Shard shard0;
  Router router({shard0.address(0)}, fast_config());

  Shard extra;
  const net::MembershipFrame reply = router.admit_shard(extra.address(1));
  ASSERT_TRUE(reply.ok) << reply.message;
  // Admitted means dialing, not placed: the member exists outside the ring.
  const auto fresh = find_member(reply, 1);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_FALSE(fresh->in_ring);

  // Probation passes on consecutive clean polls; the join is logged.
  ASSERT_TRUE(wait_for_membership(router, [](const net::MembershipFrame& f) {
    const auto m = find_member(f, 1);
    return m.has_value() && m->in_ring &&
           m->health == static_cast<std::uint8_t>(HealthState::kHealthy);
  }));
  const net::MembershipFrame status = router.membership_status();
  ASSERT_FALSE(status.log.empty());
  EXPECT_EQ(status.log.back().event,
            static_cast<std::uint8_t>(MembershipEvent::kJoin));
  EXPECT_EQ(status.log.back().shard_id, 1u);

  // The joined shard owns real arcs: its pinned tenant's traffic lands on
  // it through the router.
  const std::uint16_t tenant = tenant_on(1, 2);
  auto client = net::Client::connect("127.0.0.1", router.port());
  for (int i = 0; i < 4; ++i) {
    const auto response = client.call(/*handler_id=*/0, tenant);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, net::Status::kOk);
  }
  EXPECT_EQ(extra.server.report().requests_decoded, 4u);

  client.close();
  router.shutdown();
  const RouterReport report = router.report();
  EXPECT_EQ(report.admits, 1u);
  EXPECT_EQ(report.readmits, 1u);  // the probation-earned join
  expect_router_ledger(report);
}

TEST(RouterMembership, RetireUnderLoadDropsNothing) {
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
  const net::MembershipFrame reply = router.retire_shard(0);
  ASSERT_TRUE(reply.ok) << reply.message;
  for (std::thread& t : loaders) t.join();

  // Drop-free: every call answered, none shed — the retire migrated the
  // tenant off through the same drain-then-cut path a rebalance uses.
  EXPECT_EQ(answered.load(), kLoaders * kCallsPerLoader);
  EXPECT_EQ(ok.load(), kLoaders * kCallsPerLoader);
  EXPECT_EQ(router.shard_of(tenant), 1u);

  // Once drained, the member itself is finalized and forgotten.
  EXPECT_TRUE(wait_for_membership(router, [](const net::MembershipFrame& f) {
    return !find_member(f, 0).has_value();
  }));

  router.shutdown();
  const RouterReport report = router.report();
  EXPECT_EQ(report.retires, 1u);
  EXPECT_EQ(report.shed_local, 0u);
  expect_router_ledger(report);
}

// The ISSUE's acceptance scenario in miniature: kill 1 of 3 shards under
// traffic; the health machine evicts it (redial budget -> dead) and its
// tenants re-place onto survivors — after which every call succeeds again
// with no router restart.
TEST(RouterMembership, KilledShardIsEvictedAndTrafficConverges) {
  Shard shard0;
  Shard shard1;
  Shard shard2;
  Router router({shard0.address(0), shard1.address(1), shard2.address(2)},
                fast_config());
  ASSERT_TRUE(wait_links_up(router));
  const std::uint16_t tenants[] = {tenant_on(0, 3), tenant_on(1, 3),
                                   tenant_on(2, 3)};
  auto client = net::Client::connect("127.0.0.1", router.port());
  for (const std::uint16_t tenant : tenants) {
    const auto warm = client.call(/*handler_id=*/0, tenant);
    ASSERT_TRUE(warm.has_value());
    EXPECT_EQ(warm->status, net::Status::kOk);
  }

  shard1.server.shutdown();  // hard kill, no goodbye

  // Sheds are expected while the redial budget burns; keep offering.
  ASSERT_TRUE(wait_for_membership(router, [](const net::MembershipFrame& f) {
    const auto m = find_member(f, 1);
    return m.has_value() && !m->in_ring &&
           m->health == static_cast<std::uint8_t>(HealthState::kDead);
  }));
  EXPECT_NE(router.shard_of(tenants[1]), 1u);

  // Convergence: with the dead shard out of the ring, every tenant —
  // including the evictee's — answers kOk. Zero shed, no restart.
  for (int round = 0; round < 10; ++round) {
    for (const std::uint16_t tenant : tenants) {
      const auto response =
          client.call(/*handler_id=*/0, tenant, /*deadline_us=*/0,
                      /*timeout_seconds=*/5.0);
      ASSERT_TRUE(response.has_value());
      EXPECT_EQ(response->status, net::Status::kOk)
          << "tenant " << tenant << " round " << round;
    }
  }

  const net::MembershipFrame status = router.membership_status();
  bool saw_evict = false;
  for (const net::MembershipLogEntry& e : status.log) {
    saw_evict |= e.event == static_cast<std::uint8_t>(MembershipEvent::kEvict) &&
                 e.shard_id == 1;
  }
  EXPECT_TRUE(saw_evict);

  client.close();
  router.shutdown();
  const RouterReport report = router.report();
  EXPECT_GE(report.evictions, 1u);
  expect_router_ledger(report);
}

TEST(RouterMembership, DeadBackendShedDetailReachesTheClient) {
  Shard shard0;
  Router router({shard0.address(0)}, fast_config());
  ASSERT_TRUE(wait_links_up(router));
  auto client = net::Client::connect("127.0.0.1", router.port());
  const auto warm = client.call(/*handler_id=*/0, /*tenant_id=*/3);
  ASSERT_TRUE(warm.has_value());
  ASSERT_EQ(warm->status, net::Status::kOk);

  shard0.server.shutdown();
  // Early sheds are transient (in-flight flush, forward failure); once the
  // only shard is evicted the placement itself is dead — the router must
  // say so, so netload can split shed@rtr into dead vs blip.
  bool saw_dead_backend = false;
  for (int i = 0; i < 250 && !saw_dead_backend; ++i) {
    const auto response =
        client.call(/*handler_id=*/0, /*tenant_id=*/3, /*deadline_us=*/0,
                    /*timeout_seconds=*/2.0);
    ASSERT_TRUE(response.has_value());
    if (response->status == net::Status::kShed) {
      EXPECT_EQ(response->shed_origin, net::ShedOrigin::kRouter);
      saw_dead_backend =
          response->shed_detail == net::ShedDetail::kDeadBackend;
    }
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(saw_dead_backend);

  client.close();
  router.shutdown();
  expect_router_ledger(router.report());
}

TEST(RouterMembership, WireMembershipFramesDriveAddRemoveStatus) {
  Shard shard0;
  Router router({shard0.address(0)}, fast_config());
  auto client = net::Client::connect("127.0.0.1", router.port());

  // Status: one bootstrap member, admitted+joined in the log.
  net::MembershipRequest status_req;
  status_req.op = net::MembershipOp::kStatus;
  ASSERT_TRUE(client.send_membership(status_req));
  auto status = client.poll_membership(/*timeout_seconds=*/2.0);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok);
  ASSERT_EQ(status->members.size(), 1u);
  EXPECT_TRUE(status->members[0].in_ring);
  ASSERT_EQ(status->log.size(), 2u);
  EXPECT_EQ(status->log[0].event,
            static_cast<std::uint8_t>(MembershipEvent::kAdmit));
  EXPECT_EQ(status->log[1].event,
            static_cast<std::uint8_t>(MembershipEvent::kJoin));

  // Add over the wire; the reply reflects the probationary member.
  Shard extra;
  net::MembershipRequest add;
  add.op = net::MembershipOp::kAdd;
  add.shard_id = 1;
  add.host = "127.0.0.1";
  add.port = extra.server.port();
  ASSERT_TRUE(client.send_membership(add));
  const auto added = client.poll_membership(/*timeout_seconds=*/2.0);
  ASSERT_TRUE(added.has_value());
  EXPECT_TRUE(added->ok) << added->message;
  const auto fresh = find_member(*added, 1);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_FALSE(fresh->in_ring);

  ASSERT_TRUE(wait_for_membership(router, [](const net::MembershipFrame& f) {
    const auto m = find_member(f, 1);
    return m.has_value() && m->in_ring;
  }));

  // Remove over the wire; the member drains out and disappears.
  net::MembershipRequest remove;
  remove.op = net::MembershipOp::kRemove;
  remove.shard_id = 1;
  ASSERT_TRUE(client.send_membership(remove));
  const auto removed = client.poll_membership(/*timeout_seconds=*/2.0);
  ASSERT_TRUE(removed.has_value());
  EXPECT_TRUE(removed->ok) << removed->message;
  EXPECT_TRUE(wait_for_membership(router, [](const net::MembershipFrame& f) {
    return !find_member(f, 1).has_value();
  }));
  const net::MembershipFrame final_status = router.membership_status();
  ASSERT_FALSE(final_status.log.empty());
  EXPECT_EQ(final_status.log.back().event,
            static_cast<std::uint8_t>(MembershipEvent::kRetire));

  client.close();
  router.shutdown();
  expect_router_ledger(router.report());
}

TEST(RouterMembership, NonRouterServerRejectsMembershipFrames) {
  Shard shard0;  // a plain serving shard, not a router
  auto client = net::Client::connect("127.0.0.1", shard0.server.port());
  net::MembershipRequest req;
  req.op = net::MembershipOp::kStatus;
  ASSERT_TRUE(client.send_membership(req));
  const auto reply = client.poll_membership(/*timeout_seconds=*/2.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->ok);
  client.close();
}

TEST(RouterMembership, InvalidAndFailpointedAdmitsAreRejected) {
  Shard shard0;
  Router router({shard0.address(0)}, fast_config());

  // Duplicate id and a hostless admit are administrative errors.
  EXPECT_FALSE(router.admit_shard(shard0.address(0)).ok);
  EXPECT_FALSE(router.admit_shard(ShardAddress{5, "", 0}).ok);
  // Retiring an unknown shard likewise.
  EXPECT_FALSE(router.retire_shard(42).ok);

  if (util::FailpointRegistry::compiled_in()) {
    Shard extra;
    util::FailpointRegistry::instance().arm_from_string(
        "router.admit=error(n=1)");
    const auto vetoed = router.admit_shard(extra.address(1));
    EXPECT_FALSE(vetoed.ok);
    // The veto left no half-admitted member behind; a retry succeeds.
    const auto retried = router.admit_shard(extra.address(1));
    EXPECT_TRUE(retried.ok) << retried.message;

    util::FailpointRegistry::instance().arm_from_string(
        "router.retire=error(n=1)");
    EXPECT_FALSE(router.retire_shard(1).ok);
    EXPECT_TRUE(router.retire_shard(1).ok);
    util::FailpointRegistry::instance().disarm_all();
  }

  router.shutdown();
  expect_router_ledger(router.report());
}

}  // namespace
}  // namespace autopn::router

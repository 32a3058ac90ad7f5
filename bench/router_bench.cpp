// router_bench: what does the routing hop cost, and what does the tier buy?
//
// Three questions, three tables, all in one process over loopback sockets:
//
//  1. Hop cost — the same open-loop load is run twice against the same
//     single shard: once straight at the shard's NetServer, once through a
//     Router fronting it. The client-observed p50/p95/p99 delta is the full
//     price of the extra tier: one more framing round-trip, the router's
//     loop dispatch, the link's forward, and the response read back on the
//     same loop.
//
//  2. Throughput vs shard count — shards run a fixed-latency handler (1 ms),
//     so each shard's capacity is workers/1ms and a single shard saturates
//     under the offered rate. The router fans 64 tenants out by consistent
//     hash; served rate and shed fraction vs shard count show the tier
//     actually scaling admission capacity, with the per-shard decode counts
//     as the balance check.
//
//  3. Capacity — the hop table's paths again, closed loop: 16 connections,
//     each sending its next request as soon as the last one answered. Every
//     thread stays busy, so the per-request counts below compare the wire
//     path at saturation rather than how often an idle thread is woken.
//
// Handlers are deliberately near-no-op (hop and capacity tables) and
// fixed-sleep (scaling table): the bench measures the routing tier, not
// the STM under it.
//
// Every table also prints three counts for the measured phase, which do not
// swing with host speed the way latency does: socket writes per response
// for each server ("w/resp"; below 1 when responses share a send), the
// router's shard-link socket writes per forwarded request ("link w/fwd";
// below 1 when a loop round's forwards to a shard share a send), and
// voluntary context switches per sent request across the whole process
// ("nvcsw/req", from getrusage). In the open-loop tables nvcsw/req mostly
// counts wake-ups of threads that went idle between requests.
//
// Usage: bench/router_bench [rate] [duration_s] [connections] [max_shards]

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/netload.hpp"
#include "net/server.hpp"
#include "router/router.hpp"
#include "serve/engine.hpp"
#include "stm/stm.hpp"
#include "util/clock.hpp"
#include "util/table.hpp"

namespace {

using namespace autopn;
using namespace std::chrono_literals;

struct Params {
  double rate = 3000.0;
  double duration = 2.0;
  std::size_t connections = 2;
  std::size_t max_shards = 4;
  std::size_t workers = 4;
  std::uint64_t seed = 23;
};

stm::StmConfig stm_config(const Params& p) {
  stm::StmConfig cfg;
  cfg.max_cores = 8;
  cfg.pool_threads = p.workers;
  cfg.initial_top = 4;
  cfg.initial_children = 1;
  return cfg;
}

/// One in-process backend shard.
struct Shard {
  Shard(const Params& p, serve::RequestHandler handler)
      : stm(stm_config(p)),
        engine(stm, std::move(handler), clock, serve_cfg(p)),
        server(engine, {}) {}

  static serve::ServeConfig serve_cfg(const Params& p) {
    serve::ServeConfig cfg;
    cfg.workers = p.workers;
    cfg.queue_capacity = 1024;
    cfg.seed = p.seed;
    return cfg;
  }

  util::WallClock clock;
  stm::Stm stm;
  serve::ServeEngine engine;
  net::NetServer server;
};

net::NetLoadParams load_params(const Params& p, std::uint16_t port,
                               std::uint16_t tenants) {
  net::NetLoadParams load;
  load.port = port;
  load.connections = p.connections;
  load.rate = p.rate;
  load.duration = p.duration;
  load.tenants = tenants;
  load.seed = p.seed;
  return load;
}

std::string fmt_ms(double seconds) { return util::fmt_double(seconds * 1e3, 3); }

/// Voluntary context switches of every thread of this process so far.
std::int64_t voluntary_switches() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nvcsw;
}

/// Socket writes per written response of one server between two reports.
std::string writes_per_response(const net::NetServerReport& before,
                                const net::NetServerReport& after) {
  const std::uint64_t responses =
      after.responses_written - before.responses_written;
  if (responses == 0) return "-";
  return util::fmt_double(static_cast<double>(after.socket_writes -
                                              before.socket_writes) /
                              static_cast<double>(responses),
                          2);
}

/// Shard-link socket writes and forwarded requests of a router so far.
struct LinkCounts {
  std::uint64_t writes = 0;
  std::uint64_t forwarded = 0;
};

LinkCounts link_counts(router::Router& router) {
  LinkCounts counts;
  for (const auto& row : router.shard_status()) counts.writes += row.socket_writes;
  counts.forwarded = router.report().forwarded;
  return counts;
}

std::string writes_per_forward(const LinkCounts& before,
                               const LinkCounts& after) {
  const std::uint64_t forwarded = after.forwarded - before.forwarded;
  if (forwarded == 0) return "-";
  return util::fmt_double(static_cast<double>(after.writes - before.writes) /
                              static_cast<double>(forwarded),
                          2);
}

std::string switches_per_request(std::int64_t before, std::int64_t after,
                                 const net::NetLoadResult& r) {
  return util::fmt_double(static_cast<double>(after - before) /
                              static_cast<double>(std::max<std::uint64_t>(
                                  r.sent, 1)),
                          2);
}

std::string served_per_second(const net::NetLoadResult& r) {
  return util::fmt_double(
      static_cast<double>(r.ok) / std::max(r.duration, 1e-9), 0);
}

void add_latency_row(util::TextTable& table, const std::string& name,
                     const net::NetLoadResult& r, const std::string& shard_w,
                     const std::string& router_w, const std::string& link_w,
                     const std::string& nvcsw) {
  table.add_row({name, served_per_second(r),
                 fmt_ms(r.latency.p50), fmt_ms(r.latency.p95),
                 fmt_ms(r.latency.p99), shard_w, router_w, link_w, nvcsw});
}

router::RouterConfig router_config() {
  router::RouterConfig cfg;
  cfg.backoff.attempt_timeout_seconds = 0.5;
  cfg.backoff.initial_backoff_seconds = 0.02;
  cfg.rebalance_enabled = false;  // measure placement, not migration
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  if (argc > 1) p.rate = std::stod(argv[1]);
  if (argc > 2) p.duration = std::stod(argv[2]);
  if (argc > 3) p.connections = std::stoul(argv[3]);
  if (argc > 4) p.max_shards = std::stoul(argv[4]);

  const serve::RequestHandler noop = [](util::Rng&) {};
  const serve::RequestHandler sleep_1ms = [](util::Rng&) {
    std::this_thread::sleep_for(1ms);
  };

  // ---- Table 1: hop cost (direct vs via-router, same shard, same load) --
  std::cout << "hop cost: open loop @ " << util::fmt_double(p.rate, 0)
            << " req/s for " << util::fmt_double(p.duration, 1) << "s, "
            << p.connections << " connections, near-no-op handler\n";
  util::TextTable hop{{"path", "served/s", "p50(ms)", "p95(ms)", "p99(ms)",
                       "shard w/resp", "rtr w/resp", "link w/fwd",
                       "nvcsw/req"}};
  {
    Shard shard(p, noop);
    auto shard_before = shard.server.report();
    auto switches_before = voluntary_switches();
    const auto direct =
        net::run_netload(load_params(p, shard.server.port(), 8));
    add_latency_row(hop, "direct", direct,
                    writes_per_response(shard_before, shard.server.report()),
                    "-", "-",
                    switches_per_request(switches_before,
                                         voluntary_switches(), direct));

    router::Router router(
        {router::ShardAddress{0, "127.0.0.1", shard.server.port()}},
        router_config());
    shard_before = shard.server.report();
    const auto router_before = router.server_report();
    const LinkCounts links_before = link_counts(router);
    switches_before = voluntary_switches();
    const auto via = net::run_netload(load_params(p, router.port(), 8));
    add_latency_row(
        hop, "via router", via,
        writes_per_response(shard_before, shard.server.report()),
        writes_per_response(router_before, router.server_report()),
        writes_per_forward(links_before, link_counts(router)),
        switches_per_request(switches_before, voluntary_switches(), via));
    router.shutdown();
  }
  hop.print(std::cout);

  // ---- Table 2: throughput vs shard count (1 ms handler saturates) ------
  std::cout << "\nscaling: open loop @ " << util::fmt_double(p.rate, 0)
            << " req/s, 64 tenants, 1 ms handler (" << p.workers
            << " workers/shard => ~" << p.workers * 1000
            << " req/s capacity per shard)\n";
  util::TextTable scaling{{"shards", "offered/s", "served/s", "shed",
                           "shed@rtr", "unanswered", "shard w/resp",
                           "rtr w/resp", "link w/fwd", "nvcsw/req"}};
  for (std::size_t count = 1; count <= p.max_shards; count *= 2) {
    std::vector<std::unique_ptr<Shard>> shards;
    std::vector<router::ShardAddress> addresses;
    for (std::size_t s = 0; s < count; ++s) {
      shards.push_back(std::make_unique<Shard>(p, sleep_1ms));
      addresses.push_back(router::ShardAddress{
          static_cast<std::uint32_t>(s), "127.0.0.1",
          shards.back()->server.port()});
    }
    router::Router router(addresses, router_config());
    std::vector<net::NetServerReport> shards_before;
    for (const auto& shard : shards) {
      shards_before.push_back(shard->server.report());
    }
    const auto router_before = router.server_report();
    const LinkCounts links_before = link_counts(router);
    const auto switches_before = voluntary_switches();
    const auto result = net::run_netload(load_params(p, router.port(), 64));
    const auto switches_after = voluntary_switches();
    const std::string router_w =
        writes_per_response(router_before, router.server_report());
    const std::string link_w =
        writes_per_forward(links_before, link_counts(router));
    std::string shard_w;
    for (std::size_t s = 0; s < count; ++s) {
      if (s > 0) shard_w += "/";
      shard_w += writes_per_response(shards_before[s],
                                     shards[s]->server.report());
    }
    router.shutdown();
    scaling.add_row(
        {std::to_string(count),
         util::fmt_double(static_cast<double>(result.sent) /
                              std::max(result.duration, 1e-9),
                          0),
         util::fmt_double(static_cast<double>(result.ok) /
                              std::max(result.duration, 1e-9),
                          0),
         util::fmt_percent(static_cast<double>(result.shed) /
                           std::max<std::uint64_t>(result.sent, 1)),
         std::to_string(result.shed_router),
         std::to_string(result.unanswered), shard_w, router_w, link_w,
         switches_per_request(switches_before, switches_after, result)});
  }
  scaling.print(std::cout);

  // ---- Table 3: capacity (closed loop, near-no-op handler) --------------
  std::cout << "\ncapacity: closed loop, 16 connections, no think time, "
               "near-no-op handler\n";
  util::TextTable capacity{
      {"path", "served/s", "shard w/resp", "rtr w/resp", "link w/fwd",
       "nvcsw/req"}};
  {
    Shard shard(p, noop);
    auto closed = load_params(p, shard.server.port(), 8);
    closed.closed_loop = true;
    closed.connections = 16;
    closed.think_time = 0.0;
    auto shard_before = shard.server.report();
    auto switches_before = voluntary_switches();
    const auto direct = net::run_netload(closed);
    capacity.add_row(
        {"direct", served_per_second(direct),
         writes_per_response(shard_before, shard.server.report()), "-", "-",
         switches_per_request(switches_before, voluntary_switches(), direct)});

    router::Router router(
        {router::ShardAddress{0, "127.0.0.1", shard.server.port()}},
        router_config());
    closed.port = router.port();
    shard_before = shard.server.report();
    const auto router_before = router.server_report();
    const LinkCounts links_before = link_counts(router);
    switches_before = voluntary_switches();
    const auto via = net::run_netload(closed);
    capacity.add_row(
        {"via router", served_per_second(via),
         writes_per_response(shard_before, shard.server.report()),
         writes_per_response(router_before, router.server_report()),
         writes_per_forward(links_before, link_counts(router)),
         switches_per_request(switches_before, voluntary_switches(), via)});
    router.shutdown();
  }
  capacity.print(std::cout);
  return 0;
}

// chaos_soak: randomized failpoint schedules against the full serving stack
// (PN-STM + ServeEngine + live TuningController) with end-of-run invariant
// assertions. The driver flips a random subset of injection sites on and off
// every few hundred milliseconds while open-loop traffic flows and the
// controller retunes; at the end it checks that no request was lost, the
// workload's transactional state is consistent, and progress was made.
//
//   chaos_soak [--seconds S] [--seed N] [--workload NAME] [--workers N]
//              [--rate R] [--timeout S] [--net | --router]
//
// With --net the traffic arrives over a loopback TCP socket instead of
// in-process submits: a NetServer fronts the engine, netload offers the
// open-loop stream, and the schedule additionally flips the net.accept /
// net.read / net.write failpoints — connection churn, mid-request
// disconnects, and write faults on top of the engine-level chaos. The wire
// ledger (decoded == written + dropped) joins the checked invariants.
//
// With --router the topology becomes the full distributed tier in one
// process: two backend shards (each a complete PN-STM serving stack behind
// its own NetServer), a Router fronting them by consistent hash with an
// aggressive rebalance cadence, and netload offering traffic through the
// router. The schedule adds the router.forward / router.backend_down /
// router.rebalance / router.poll_timeout / router.admit / router.retire
// sites on top of the net.* and engine-level chaos — and because the net.*
// sites are process-global, the router's own shard links suffer the same
// read/write faults, exercising backend-down synthesis and redial under
// load. A membership-churn timeline runs underneath: a third shard is
// admitted mid-run, one static shard is killed outright (redial budget →
// eviction), and the dynamic shard is retired again — the router's
// forwarding ledger (dispatched == forwarded + shed_local, forwarded ==
// returned) must stay exact across all of it, alongside every wire and
// engine ledger in the topology.
//
// Exits 0 when every invariant holds, 1 on any violation (or an unexpected
// exception). When the failpoint framework is compiled out the soak degrades
// to a clean-run smoke test and says so.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/netload.hpp"
#include "net/server.hpp"
#include "opt/baselines.hpp"
#include "router/router.hpp"
#include "runtime/controller.hpp"
#include "serve/engine.hpp"
#include "serve/handlers.hpp"
#include "util/clock.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace {

using namespace autopn;

struct SoakParams {
  double seconds = 5.0;
  std::uint64_t seed = 42;
  std::string workload = "array";
  std::size_t workers = 3;
  double rate = 1500.0;        ///< open-loop arrivals per second
  double request_timeout = 0.05;
  bool net = false;            ///< front the engine with a loopback NetServer
  bool router = false;         ///< full tier: router + two shards + netload
};

SoakParams parse_args(int argc, char** argv) {
  SoakParams params;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seconds") {
      params.seconds = std::stod(next());
    } else if (arg == "--seed") {
      params.seed = std::stoull(next());
    } else if (arg == "--workload") {
      params.workload = next();
    } else if (arg == "--workers") {
      params.workers = std::stoul(next());
    } else if (arg == "--rate") {
      params.rate = std::stod(next());
    } else if (arg == "--timeout") {
      params.request_timeout = std::stod(next());
    } else if (arg == "--net") {
      params.net = true;
    } else if (arg == "--router") {
      params.router = true;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      std::exit(2);
    }
  }
  return params;
}

/// Draws a random failpoint schedule: each site independently armed with a
/// random probability (errors) or delay (stalls). Roughly half the sites are
/// active in any given epoch so healthy and faulty paths interleave. With
/// `net` the socket-edge sites join the lottery; with `router` the routing
/// tier's sites do as well.
std::string random_schedule(util::Rng& rng, bool net, bool router = false) {
  std::ostringstream spec;
  auto add = [&](const std::string& s) {
    if (spec.tellp() > 0) spec << ';';
    spec << s;
  };
  auto coin = [&] { return rng.uniform(0.0, 1.0) < 0.5; };
  if (coin()) {
    std::ostringstream s;
    s << "stm.commit.validate=error(p=" << rng.uniform(0.05, 0.5) << ")";
    add(s.str());
  }
  if (coin()) {
    std::ostringstream s;
    s << "stm.child.merge=error(p=" << rng.uniform(0.05, 0.3) << ")";
    add(s.str());
  }
  if (coin()) {
    std::ostringstream s;
    s << "stm.vbox.prune=delay(d=" << rng.uniform_int(20, 100) << "us,p=0.5)";
    add(s.str());
  }
  if (coin()) {
    std::ostringstream s;
    s << "serve.worker.fail=error(p=" << rng.uniform(0.02, 0.2) << ")";
    add(s.str());
  }
  if (coin()) {
    std::ostringstream s;
    s << "serve.worker.begin=delay(d=" << rng.uniform_int(100, 2000)
      << "us,p=0.3)";
    add(s.str());
  }
  if (coin()) {
    std::ostringstream s;
    s << "serve.queue.push=delay(d=" << rng.uniform_int(10, 100)
      << "us,p=0.2)";
    add(s.str());
  }
  if (coin()) {
    // Occasionally blind the monitor entirely: the watchdog must notice the
    // stalled windows and revert the actuator without wedging the run.
    add("runtime.monitor.drop_commit=error(p=1)");
  }
  if (net) {
    if (coin()) {
      std::ostringstream s;
      s << "net.accept=error(p=" << rng.uniform(0.05, 0.3) << ")";
      add(s.str());
    }
    if (coin()) {
      std::ostringstream s;
      s << "net.read=error(p=" << rng.uniform(0.005, 0.05) << ")";
      add(s.str());
    }
    if (coin()) {
      std::ostringstream s;
      s << "net.write=error(p=" << rng.uniform(0.005, 0.05) << ")";
      add(s.str());
    }
    if (coin()) {
      std::ostringstream s;
      s << "net.read=delay(d=" << rng.uniform_int(50, 500) << "us,p=0.2)";
      add(s.str());
    }
  }
  if (router) {
    if (coin()) {
      // Forced local shed before any forward: the dispatch-time escape hatch.
      std::ostringstream s;
      s << "router.forward=error(p=" << rng.uniform(0.01, 0.1) << ")";
      add(s.str());
    }
    if (coin()) {
      // ShardLink::forward reports the backend unreachable even though the
      // socket is fine — the caller must fall back to a router-origin shed.
      std::ostringstream s;
      s << "router.backend_down=error(p=" << rng.uniform(0.01, 0.1) << ")";
      add(s.str());
    }
    if (coin()) {
      // Starve the rebalancer: placement decisions stop while traffic and
      // stats polling continue, then resume on the next epoch.
      add("router.rebalance=error(p=1)");
    }
    if (coin()) {
      // Blind health ticks: the poll observes no stats from any shard,
      // driving healthy→suspect (and occasionally all the way to a
      // spurious eviction — which must heal through probation).
      std::ostringstream s;
      s << "router.poll_timeout=error(p=" << rng.uniform(0.1, 0.3) << ")";
      add(s.str());
    }
    if (coin()) {
      // Membership ops rejected as if invalid; the churn driver retries.
      std::ostringstream s;
      s << "router.admit=error(p=" << rng.uniform(0.05, 0.2) << ")";
      add(s.str());
    }
    if (coin()) {
      std::ostringstream s;
      s << "router.retire=error(p=" << rng.uniform(0.05, 0.2) << ")";
      add(s.str());
    }
  }
  return spec.str();
}

int check(bool ok, const std::string& what, int& failures) {
  if (ok) {
    std::cout << "  [ok]   " << what << "\n";
  } else {
    std::cout << "  [FAIL] " << what << "\n";
    ++failures;
  }
  return failures;
}

int run_soak(const SoakParams& params) {
  stm::StmConfig stm_cfg;
  stm_cfg.pool_threads = 2;
  stm_cfg.initial_top = 2;
  stm_cfg.initial_children = 2;
  stm::Stm stm{stm_cfg};
  util::WallClock clock;
  auto workload = serve::make_servable_workload(params.workload, stm,
                                                params.seed);
  serve::ServeConfig serve_cfg;
  serve_cfg.workers = params.workers;
  serve_cfg.queue_capacity = 256;
  serve_cfg.request_timeout = params.request_timeout;
  serve::ServeEngine engine{stm, workload.handler, clock, serve_cfg};

  // --net: put a loopback NetServer in front of the engine and offer the
  // open-loop stream through real sockets (reconnecting through the churn
  // the net.* failpoints inject).
  std::unique_ptr<net::NetServer> server;
  if (params.net) server = std::make_unique<net::NetServer>(engine, net::NetServer::HandlerTable{});

  std::atomic<bool> stop{false};
  std::optional<net::NetLoadResult> net_result;
  std::jthread traffic{[&] {
    if (params.net) {
      net::NetLoadParams load;
      load.port = server->port();
      load.connections = 3;
      load.rate = params.rate;
      load.duration = params.seconds;
      load.deadline_us =
          static_cast<std::uint64_t>(params.request_timeout * 1e6);
      load.seed = params.seed ^ 0x9e3779b97f4a7c15ull;
      load.drain_grace = 1.0;
      net_result = net::run_netload(load);
      return;
    }
    util::Rng rng{params.seed ^ 0x9e3779b97f4a7c15ull};
    while (!stop.load(std::memory_order_relaxed)) {
      (void)engine.submit();
      std::this_thread::sleep_for(
          std::chrono::duration<double>(rng.exponential(params.rate)));
    }
  }};

  // Live tuning with the watchdog armed: chaos epochs that blind the monitor
  // should surface as stalled windows + reverts, not a wedged controller.
  const opt::ConfigSpace space{4};
  runtime::ControllerParams ctl_params;
  ctl_params.max_window_seconds = 0.2;
  ctl_params.watchdog_stall_windows = 2;
  runtime::TuningController controller{
      stm, std::make_unique<opt::RandomSearch>(space, params.seed),
      std::make_unique<runtime::FixedTimePolicy>(0.05), clock, ctl_params};
  controller.set_latency_source(&engine.kpi_source());
  std::jthread tuner{[&] {
    controller.tune_and_watch(
        [&] {
          return std::make_unique<opt::RandomSearch>(space, params.seed + 1);
        },
        params.seconds);
  }};

  // Chaos epochs: a fresh randomized schedule every 200-500 ms.
  util::Rng chaos_rng{params.seed};
  std::size_t epochs = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(params.seconds);
  const bool inject = util::FailpointRegistry::compiled_in();
  while (std::chrono::steady_clock::now() < deadline) {
    if (inject) {
      const std::string spec = random_schedule(chaos_rng, params.net);
      util::FailpointRegistry::instance().disarm_all();
      if (!spec.empty()) {
        util::FailpointRegistry::instance().arm_from_string(spec);
      }
      ++epochs;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds{chaos_rng.uniform_int(200, 500)});
  }
  util::FailpointRegistry::instance().disarm_all();

  stop.store(true, std::memory_order_relaxed);
  traffic = {};  // join the submitter before closing admission
  tuner = {};
  if (server) {
    server->shutdown();  // ordered drain: engine + loop + flush
  } else {
    engine.drain_and_stop();
  }
  const serve::ServeReport report = engine.report();
  const runtime::WatchdogReport& watchdog = controller.watchdog();

  std::cout << "chaos_soak: workload=" << params.workload
            << " seconds=" << params.seconds << " seed=" << params.seed
            << " epochs=" << epochs << (inject ? "" : " (failpoints compiled out)")
            << "\n";
  std::cout << "  offered=" << report.offered << " admitted=" << report.admitted
            << " shed=" << report.shed << " completed=" << report.completed
            << " expired=" << report.expired << " failed=" << report.failed
            << "\n";
  std::cout << "  watchdog: stalled_windows=" << watchdog.stalled_windows
            << " reverts=" << watchdog.reverts << "\n";
  if (server) {
    const net::NetServerReport wire = server->report();
    std::cout << "  wire: accepted=" << wire.accepted
              << " rejected=" << wire.rejected_accepts
              << " disconnects=" << wire.disconnects
              << " decoded=" << wire.requests_decoded
              << " written=" << wire.responses_written
              << " dropped=" << wire.responses_dropped << "\n";
    if (net_result) {
      std::cout << "  client: sent=" << net_result->sent
                << " ok=" << net_result->ok << " shed=" << net_result->shed
                << " io_errors=" << net_result->io_errors
                << " reconnects=" << net_result->reconnects
                << " unanswered=" << net_result->unanswered << "\n";
    }
  }

  int failures = 0;
  check(report.offered == report.admitted + report.shed,
        "offered == admitted + shed", failures);
  check(report.admitted ==
            report.completed + report.expired + report.failed,
        "admitted == completed + expired + failed", failures);
  check(report.queue_depth == 0, "queue drained to depth 0", failures);
  check(report.completed > 0, "bounded completion: progress was made",
        failures);
  check(workload.verify(), "workload transactional state consistent",
        failures);
  if (server) {
    const net::NetServerReport wire = server->report();
    check(wire.requests_decoded == wire.responses_enqueued,
          "wire: decoded == responses enqueued", failures);
    check(wire.responses_enqueued ==
              wire.responses_written + wire.responses_dropped,
          "wire: enqueued == written + dropped", failures);
    check(!net_result || net_result->sent > 0,
          "wire: client offered traffic", failures);
  }
  if (failures != 0) {
    std::cout << "chaos_soak: " << failures << " invariant violation(s)\n";
    return 1;
  }
  std::cout << "chaos_soak: all invariants hold\n";
  return 0;
}

/// --router: the whole distributed tier under one chaos schedule — two
/// backend shards, a Router rebalancing between them, netload through the
/// router — with every ledger in the topology asserted at the end. A
/// membership-churn timeline runs underneath the failpoint schedule: a
/// third shard is admitted mid-run (and must earn its ring arcs through
/// probation), shard b is killed outright to drive the redial-budget →
/// evict path, and the dynamic shard is retired again near the end — all
/// while the same ledgers must stay exact.
int run_router_soak(const SoakParams& params) {
  struct BackendShard {
    BackendShard(const SoakParams& params, std::uint64_t seed)
        : stm(shard_stm()),
          workload(serve::make_servable_workload(params.workload, stm, seed)),
          engine(stm, workload.handler, clock, shard_serve(params, seed)),
          server(engine, {}) {}

    static stm::StmConfig shard_stm() {
      stm::StmConfig cfg;
      cfg.pool_threads = 2;
      cfg.initial_top = 2;
      cfg.initial_children = 2;
      return cfg;
    }
    static serve::ServeConfig shard_serve(const SoakParams& params,
                                          std::uint64_t seed) {
      serve::ServeConfig cfg;
      cfg.workers = params.workers;
      cfg.queue_capacity = 256;
      cfg.request_timeout = params.request_timeout;
      cfg.seed = seed;
      return cfg;
    }

    util::WallClock clock;
    stm::Stm stm;
    serve::ServableWorkload workload;
    serve::ServeEngine engine;
    net::NetServer server;
  };

  BackendShard shard_a{params, params.seed};
  BackendShard shard_b{params, params.seed + 1};
  std::optional<BackendShard> shard_c;  // admitted mid-run by the churn driver

  router::RouterConfig router_cfg;
  router_cfg.backoff.attempt_timeout_seconds = 0.25;
  router_cfg.backoff.initial_backoff_seconds = 0.02;
  router_cfg.backoff.max_backoff_seconds = 0.1;
  // Aggressive cadence and a tight SLO so delay chaos actually triggers
  // migrations; drain-then-cut keeps them drop-free regardless.
  router_cfg.stats_poll_seconds = 0.1;
  router_cfg.rebalance_seconds = 0.25;
  router_cfg.rebalance.slo_p99_us = 5'000;
  router_cfg.rebalance.min_tenant_requests = 8;
  router_cfg.migration_timeout_seconds = 0.25;
  // A small redial budget so the hard-killed shard burns through it and is
  // evicted while the soak still has runway to exercise post-evict traffic.
  router_cfg.redial_budget = 4;
  router_cfg.dead_probe_seconds = 0.2;
  router::Router router{
      {router::ShardAddress{0, "127.0.0.1", shard_a.server.port()},
       router::ShardAddress{1, "127.0.0.1", shard_b.server.port()}},
      router_cfg};

  std::optional<net::NetLoadResult> net_result;
  std::jthread traffic{[&] {
    net::NetLoadParams load;
    load.port = router.port();
    load.connections = 3;
    load.rate = params.rate;
    load.duration = params.seconds;
    load.tenants = 8;
    load.deadline_us =
        static_cast<std::uint64_t>(params.request_timeout * 1e6);
    load.seed = params.seed ^ 0x9e3779b97f4a7c15ull;
    load.drain_grace = 1.0;
    net_result = net::run_netload(load);
  }};

  util::Rng chaos_rng{params.seed};
  std::size_t epochs = 0;
  const auto started = std::chrono::steady_clock::now();
  const auto deadline =
      started + std::chrono::duration<double>(params.seconds);
  const bool inject = util::FailpointRegistry::compiled_in();
  // Membership churn interleaved with the failpoint epochs. Admit/retire
  // go through the same path the wire's Membership frames reach, so the
  // router.admit / router.retire failpoints may veto them — the driver
  // simply retries on the next epoch, exactly like an external operator.
  bool admitted = false;
  bool killed = false;
  bool retired = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (inject) {
      const std::string spec =
          random_schedule(chaos_rng, /*net=*/true, /*router=*/true);
      util::FailpointRegistry::instance().disarm_all();
      if (!spec.empty()) {
        util::FailpointRegistry::instance().arm_from_string(spec);
      }
      ++epochs;
    }
    const double frac = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started)
                            .count() /
                        params.seconds;
    if (!admitted && frac > 0.25) {
      if (!shard_c) shard_c.emplace(params, params.seed + 2);
      admitted =
          router.admit_shard({2, "127.0.0.1", shard_c->server.port()}).ok;
    }
    if (!killed && frac > 0.5) {
      shard_b.server.shutdown();  // hard kill: drives redial budget → evict
      killed = true;
    }
    if (admitted && !retired && frac > 0.75) {
      retired = router.retire_shard(2).ok;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds{chaos_rng.uniform_int(200, 500)});
  }
  util::FailpointRegistry::instance().disarm_all();

  traffic = {};        // client drains before the tier comes down
  router.shutdown();   // answers every in-flight, then closes the links
  shard_a.server.shutdown();
  shard_b.server.shutdown();
  if (shard_c) shard_c->server.shutdown();

  const router::RouterReport rr = router.report();
  const net::NetServerReport router_wire = router.server_report();
  std::cout << "chaos_soak --router: workload=" << params.workload
            << " seconds=" << params.seconds << " seed=" << params.seed
            << " epochs=" << epochs
            << (inject ? "" : " (failpoints compiled out)") << "\n";
  std::cout << "  router: dispatched=" << rr.dispatched
            << " forwarded=" << rr.forwarded << " shed_local=" << rr.shed_local
            << " returned=" << rr.returned << " synthesized=" << rr.synthesized
            << " late=" << rr.late_responses << "\n";
  std::cout << "  router: held=" << rr.held << " migrations="
            << rr.migrations_completed << "/" << rr.migrations_started
            << " forced_cuts=" << rr.forced_cuts
            << " rebalance_rounds=" << rr.rebalance_rounds << "\n";
  std::cout << "  membership: admits=" << rr.admits
            << " retires=" << rr.retires << " evictions=" << rr.evictions
            << " ring_joins=" << rr.readmits
            << " (churn: admitted=" << (admitted ? "yes" : "no")
            << " killed=" << (killed ? "yes" : "no")
            << " retired=" << (retired ? "yes" : "no") << ")\n";
  if (net_result) {
    std::cout << "  client: sent=" << net_result->sent
              << " ok=" << net_result->ok << " shed=" << net_result->shed
              << " io_errors=" << net_result->io_errors
              << " reconnects=" << net_result->reconnects
              << " unanswered=" << net_result->unanswered << "\n";
  }

  int failures = 0;
  check(rr.dispatched == rr.forwarded + rr.shed_local,
        "router: dispatched == forwarded + shed_local", failures);
  check(rr.forwarded == rr.returned, "router: forwarded == returned",
        failures);
  check(router_wire.requests_decoded == router_wire.responses_enqueued,
        "router wire: decoded == responses enqueued", failures);
  check(router_wire.responses_enqueued ==
            router_wire.responses_written + router_wire.responses_dropped,
        "router wire: enqueued == written + dropped", failures);
  std::uint64_t completed = 0;
  std::vector<std::pair<std::string, BackendShard*>> backends{
      {"shard a", &shard_a}, {"shard b", &shard_b}};
  if (shard_c) backends.emplace_back("shard c", &*shard_c);
  for (auto& [name, backend] : backends) {
    const serve::ServeReport report = backend->engine.report();
    const net::NetServerReport wire = backend->server.report();
    completed += report.completed;
    check(report.offered == report.admitted + report.shed,
          name + ": offered == admitted + shed", failures);
    check(report.admitted == report.completed + report.expired + report.failed,
          name + ": admitted == completed + expired + failed", failures);
    check(report.queue_depth == 0, name + ": queue drained to depth 0",
          failures);
    check(wire.requests_decoded == wire.responses_enqueued,
          name + " wire: decoded == responses enqueued", failures);
    check(wire.responses_enqueued ==
              wire.responses_written + wire.responses_dropped,
          name + " wire: enqueued == written + dropped", failures);
    check(backend->workload.verify(),
          name + ": workload transactional state consistent", failures);
  }
  check(completed > 0, "bounded completion: progress was made", failures);
  check(!net_result || net_result->sent > 0, "client offered traffic",
        failures);
  // Churn accounting: counters only assert the transitions the driver
  // actually landed (failpoints may have vetoed some); the eviction check
  // needs enough post-kill runway for the redial budget to burn down.
  if (admitted) {
    check(rr.admits >= 1, "membership: runtime admit recorded", failures);
  }
  if (retired) {
    check(rr.retires >= 1, "membership: runtime retire recorded", failures);
  }
  if (killed && params.seconds >= 4) {
    check(rr.evictions >= 1, "membership: killed shard was evicted",
          failures);
  }
  if (failures != 0) {
    std::cout << "chaos_soak: " << failures << " invariant violation(s)\n";
    return 1;
  }
  std::cout << "chaos_soak: all invariants hold\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const SoakParams params = parse_args(argc, argv);
    return params.router ? run_router_soak(params) : run_soak(params);
  } catch (const std::exception& e) {
    std::cerr << "chaos_soak: unexpected exception: " << e.what() << "\n";
    return 1;
  }
}

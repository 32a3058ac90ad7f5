#pragma once
// Router — the distributed serving tier's front end. One Router owns a
// NetServer facing clients (same wire protocol as a shard), a ShardLink per
// backend shard, a consistent-hash ring placing tenants onto shards, and a
// Rebalancer proposing conservative placement moves from polled shard KPIs.
//
// It implements net::RequestDispatcher: the owned NetServer hands it every
// decoded Request frame on the server's loop thread, and the Router either
// forwards the frame to the tenant's shard (tracking it as a "flight" keyed
// by a router token) or answers locally with a router-origin kShed. Every
// ShardLink is a socket on the same loop, and shard responses complete
// inline from its fd handler, so ALL routing state — flights, placement
// overrides, migrations, per-tenant counters, the links themselves — is
// loop-thread-only and lock-free. The router runs on that one thread.
//
// Ledger: the router extends the server's decoded == enqueued == written +
// dropped invariant across the hop. Internally, after shutdown:
//
//   dispatched == forwarded + shed_local     (every frame answered somewhere)
//   forwarded  == returned                   (every forward completed exactly
//                                             once — by the shard, or by a
//                                             synthesized backend-down shed)
//
// Responses route by token, never by placement, which is what makes tenant
// migration drop-free: a request in flight on the old shard completes to its
// original respond callback no matter where the tenant routes by then.
//
// Migration is drain-then-cut: new requests for a migrating tenant are held
// (bounded queue), the router waits for the tenant's in-flight count on the
// old shard to reach zero, then flips the override and forwards the held
// frames in arrival order to the new shard. A force-cut timer bounds the
// wait — cutting early is safe for the same token-routing reason.
//
// Membership is elastic: each backend is a Member carrying a ShardLink plus
// a ShardHealth machine ticked once per stats poll. A member that burns its
// link's redial budget (or racks up poll misses) is declared dead: evicted
// from the ring, its tenants re-placed through the ordinary drain-then-cut
// path, and a link still up (a shard that stopped answering) is reset so
// its in-flight requests are answered; the link keeps slow-probing so
// recovery is noticed — a
// returning shard re-enters through probation and rejoins the ring only
// after N clean polls. Shards can also be admitted and retired at runtime
// (wire Membership frames / `autopn router-ctl`); every ring change is
// appended to an ordered membership log, and the ring is always exactly the
// fold of that log (see health.hpp) — which is what makes placement
// reproducible across routers. The ledger invariants hold across every
// transition because nothing about completion routing changes: responses
// route by token, and a link is only destroyed after its close()
// synthesized an answer for every outstanding token.
//
// Failpoint sites: router.forward (dispatch-time forced local shed),
// router.backend_down (ShardLink::forward reports the backend unreachable),
// router.rebalance (skips a rebalance round), router.poll_timeout (a poll
// tick observes no stats from any shard — drives suspect/dead edges),
// router.admit / router.retire (membership ops rejected as if invalid).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/dispatcher.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "router/health.hpp"
#include "router/rebalancer.hpp"
#include "router/ring.hpp"
#include "router/shard_link.hpp"

namespace autopn::router {

struct RouterConfig {
  /// Client-facing listener (port 0 = kernel-assigned, see port()). Its
  /// max_outbound_bytes also caps what each shard link may hold queued.
  net::NetServerConfig server;
  /// Redial schedule for downed shards; shapes each cycle's attempt
  /// timeout and backoff.
  net::BackoffPolicy backoff;
  /// Consecutive failed dials per outage before a link reports its budget
  /// exhausted — the fast path to declaring a shard dead (0 = never).
  std::uint64_t redial_budget = 8;
  /// Slow-probe cadence for a budget-exhausted (dead) backend.
  double dead_probe_seconds = 1.0;
  HealthConfig health;
  RebalanceConfig rebalance;
  bool rebalance_enabled = true;
  /// Per-shard KPI poll cadence. Health reads "did a StatsFrame land since
  /// the last tick?", so keep it above a shard's stats round trip.
  double stats_poll_seconds = 0.2;
  double rebalance_seconds = 1.0;    ///< placement decision cadence
  /// Held-frame cap per migrating tenant; overflow is a router-origin shed.
  std::size_t max_held_per_tenant = 256;
  /// Force-cut bound on drain-then-cut (seconds the router waits for a
  /// migrating tenant's in-flight count to reach zero).
  double migration_timeout_seconds = 1.0;
  /// Backoff hint carried by router-origin sheds.
  std::uint64_t shed_retry_after_us = 20'000;
  std::size_t vnodes_per_shard = 64;
  /// Bound on a retiring shard's drain: once its in-flight count reaches
  /// zero — or this many seconds pass — the link is closed and the member
  /// forgotten. Token routing makes the forced close drop-free (stranded
  /// flights settle as synthesized sheds).
  double retire_timeout_seconds = 1.0;
};

/// Router-side accounting; see the file comment for the invariants.
struct RouterReport {
  std::uint64_t dispatched = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t shed_local = 0;   ///< router-origin answers (no backend,
                                  ///< hold overflow, drain, failpoint)
  std::uint64_t returned = 0;     ///< flight completions delivered
  std::uint64_t synthesized = 0;  ///< subset of returned: backend-down sheds
  std::uint64_t late_responses = 0;  ///< completion for an unknown token
  std::uint64_t held = 0;            ///< frames parked during migrations
  std::uint64_t migrations_started = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t forced_cuts = 0;  ///< migrations cut by the timeout
  std::uint64_t rebalance_rounds = 0;
  // Membership churn (see the file comment):
  std::uint64_t admits = 0;     ///< members created at runtime
  std::uint64_t retires = 0;    ///< administrative removals accepted
  std::uint64_t evictions = 0;  ///< health-driven ring removals
  std::uint64_t readmits = 0;   ///< ring joins earned through probation
};

class Router final : public net::RequestDispatcher {
 public:
  /// Connects to nothing yet — each ShardLink dials without blocking on the
  /// router's loop, so a Router starts serving (and shedding router-origin)
  /// immediately even when every shard is still down. Throws only if the
  /// client-facing listener cannot bind.
  explicit Router(std::vector<ShardAddress> shards, RouterConfig config = {});
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // RequestDispatcher — invoked by the owned NetServer on its loop thread.
  void dispatch(net::RequestFrame frame, RespondFn respond) override;
  void drain() override;
  [[nodiscard]] net::StatsFrame stats() override;
  [[nodiscard]] net::MembershipFrame membership(
      const net::MembershipRequest& request) override;

  /// Client-facing port (resolves config.server.port == 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return server_->port(); }

  /// Ordered close: stops the client listener (which drains this dispatcher
  /// — every in-flight request is answered — then flushes), and shuts every
  /// shard link down. Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] RouterReport report() const;
  [[nodiscard]] net::NetServerReport server_report() const {
    return server_->report();
  }

  /// The shard `tenant_id` currently routes to (override table, else ring).
  /// Synchronizes with the loop thread; any thread except the loop thread.
  [[nodiscard]] std::optional<std::uint32_t> shard_of(std::uint16_t tenant_id);

  /// Manually starts a drain-then-cut migration (same path the rebalancer
  /// takes); used by tests and the CLI. No-op if the tenant is already
  /// migrating or already routed to `to_shard`, or the shard is unknown.
  void migrate_tenant(std::uint16_t tenant_id, std::uint32_t to_shard);

  /// In-process membership control — the same operations the wire's
  /// Membership frames reach, for tests and embedding callers. All three
  /// synchronize with the loop thread; call from any thread EXCEPT the
  /// loop thread, and not after shutdown() (they return ok=false then).
  net::MembershipFrame admit_shard(const ShardAddress& address);
  net::MembershipFrame retire_shard(std::uint32_t shard_id);
  net::MembershipFrame membership_status();

  /// The rebalancer's capacity recommendation over the current snapshot
  /// (same thread rules as membership_status).
  [[nodiscard]] ScaleProposal scale_recommendation();

  /// Liveness per shard id: (id, link connected). Synchronizes with the
  /// loop thread (membership mutates at runtime); any thread except the
  /// loop thread. Empty after shutdown().
  [[nodiscard]] std::vector<std::pair<std::uint32_t, bool>> shard_health();

  /// Per-shard health + the latest polled KPIs — what the CLI renders as
  /// the tier's SLO table. Same thread rules as shard_health().
  struct ShardStatus {
    std::uint32_t shard_id = 0;
    bool healthy = false;  ///< link has a live connection
    HealthState health = HealthState::kHealthy;
    bool in_ring = false;
    std::uint64_t reconnects = 0;
    std::uint64_t redial_attempts = 0;
    /// The link's socket writes; forwards per write = the hop's batching.
    std::uint64_t socket_writes = 0;
    std::string last_error;
    std::optional<net::StatsFrame> stats;
  };
  [[nodiscard]] std::vector<ShardStatus> shard_status();

 private:
  struct Flight {
    RespondFn respond;
    std::uint16_t tenant = 0;
  };
  struct Held {
    net::RequestFrame frame;
    RespondFn respond;
  };
  struct Migration {
    std::uint32_t to_shard = 0;
    std::deque<Held> held;
    net::EventLoop::TimerId force_cut_timer = 0;
  };
  /// One backend shard: its link plus all membership/health bookkeeping.
  /// Loop-thread-only, like the link itself.
  struct Member {
    ShardAddress address;
    std::unique_ptr<ShardLink> link;
    ShardHealth health;
    bool in_ring = false;
    bool retiring = false;
    /// link->stats_received() at the previous poll tick (poll_ok = grew).
    std::uint64_t stats_seen = 0;
    std::chrono::steady_clock::time_point retire_deadline{};
  };

  // Loop-thread-only paths.
  void forward_or_shed(net::RequestFrame frame, RespondFn respond);
  void complete(std::uint64_t token, net::ResponseFrame response);
  void start_migration(std::uint16_t tenant_id, std::uint32_t to_shard);
  void cut_over(std::uint16_t tenant_id, bool forced);
  void respond_local_shed(const RespondFn& respond, net::Status status,
                          net::ShedDetail detail = net::ShedDetail::kNone);
  void arm_stats_timer();
  void arm_rebalance_timer();
  void poll_shard_stats();
  void rebalance_round();
  [[nodiscard]] std::uint32_t placement_of(std::uint16_t tenant_id) const;

  // Membership paths (loop thread).
  [[nodiscard]] std::unique_ptr<ShardLink> make_link(ShardAddress address);
  void append_log(MembershipEvent event, std::uint32_t shard_id);
  void on_health_transition(std::uint32_t shard_id, Member& member,
                            const HealthTransition& transition);
  /// Re-places everything routed at `shard_id`: redirects in-progress
  /// migrations targeting it and drain-then-cuts override tenants to
  /// their ring owner. Ring-placed tenants re-own implicitly.
  void migrate_off(std::uint32_t shard_id);
  void finalize_retire(std::uint32_t shard_id);
  [[nodiscard]] net::MembershipFrame do_admit(
      const net::MembershipRequest& request);
  [[nodiscard]] net::MembershipFrame do_retire(std::uint32_t shard_id);
  [[nodiscard]] net::MembershipFrame do_status();
  /// Fills a reply's member table, log, and scale recommendation.
  void populate_status(net::MembershipFrame& reply);
  [[nodiscard]] std::vector<ShardSnapshot> build_snapshots() const;

  /// Posts `task` to the loop and blocks until it ran. Not from the loop
  /// thread.
  void run_on_loop(net::EventLoop::Task task);

  RouterConfig config_;
  HashRing ring_;
  Rebalancer rebalancer_;

  std::atomic<std::uint64_t> dispatched_{0};
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> shed_local_{0};
  std::atomic<std::uint64_t> returned_{0};
  std::atomic<std::uint64_t> synthesized_{0};
  std::atomic<std::uint64_t> late_responses_{0};
  std::atomic<std::uint64_t> held_{0};
  std::atomic<std::uint64_t> migrations_started_{0};
  std::atomic<std::uint64_t> migrations_completed_{0};
  std::atomic<std::uint64_t> forced_cuts_{0};
  std::atomic<std::uint64_t> rebalance_rounds_{0};
  std::atomic<std::uint64_t> admits_{0};
  std::atomic<std::uint64_t> retires_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> readmits_{0};
  std::atomic<bool> shut_down_{false};

  // Loop-thread-only routing state (accessed on server_->loop()'s thread).
  std::uint64_t next_token_ = 1;
  bool draining_ = false;
  std::unordered_map<std::uint64_t, Flight> flights_;
  std::unordered_map<std::uint16_t, std::uint32_t> overrides_;
  std::unordered_map<std::uint16_t, Migration> migrations_;
  std::unordered_map<std::uint16_t, std::size_t> tenant_inflight_;
  std::unordered_map<std::uint16_t, std::uint64_t> tenant_requests_;
  std::vector<MembershipRecord> log_;  ///< ordered; ring == fold of log
  std::uint64_t next_log_seq_ = 1;

  /// Members outlive server_ (declared before it): NetServer's shutdown
  /// runs drain(), which closes the links on the loop; a closed link's
  /// destructor touches nothing, so it may run after the loop stopped.
  std::unordered_map<std::uint32_t, Member> members_;
  std::unique_ptr<net::NetServer> server_;
};

}  // namespace autopn::router

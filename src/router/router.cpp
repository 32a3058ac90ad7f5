#include "router/router.hpp"

#include <algorithm>
#include <future>
#include <utility>

#include "util/failpoint.hpp"

namespace autopn::router {

Router::Router(std::vector<ShardAddress> shards, RouterConfig config)
    : config_(std::move(config)),
      ring_(config_.vnodes_per_shard),
      rebalancer_(config_.rebalance) {
  server_ = std::make_unique<net::NetServer>(*this, config_.server);
  // Links are loop-owned, so the bootstrap members are built on the loop.
  // Bootstrap shards skip probation: a router whose whole initial set sat
  // out N polls would serve nothing but sheds at startup. The health
  // machine demotes any of them that turn out to be down.
  run_on_loop([this, &shards] {
    for (ShardAddress& shard : shards) {
      const std::uint32_t id = shard.id;
      Member member;
      member.address = shard;
      member.link = make_link(std::move(shard));
      member.health = ShardHealth{config_.health};
      member.in_ring = true;
      ring_.add_shard(id);
      append_log(MembershipEvent::kAdmit, id);
      append_log(MembershipEvent::kJoin, id);
      members_.emplace(id, std::move(member));
    }
    arm_stats_timer();
    arm_rebalance_timer();
  });
}

Router::~Router() { shutdown(); }

std::unique_ptr<ShardLink> Router::make_link(ShardAddress address) {
  ShardLinkConfig link_config;
  link_config.backoff = config_.backoff;
  link_config.shed_retry_after_us = config_.shed_retry_after_us;
  link_config.redial_budget = config_.redial_budget;
  link_config.dead_probe_seconds = config_.dead_probe_seconds;
  link_config.max_outbound_bytes = config_.server.max_outbound_bytes;
  return std::make_unique<ShardLink>(
      server_->loop(), std::move(address), link_config,
      [this](std::uint64_t token, net::ResponseFrame response) {
        complete(token, std::move(response));
      });
}

void Router::dispatch(net::RequestFrame frame, RespondFn respond) {
  // Invoked by the owned NetServer on its loop thread — which is what
  // makes the lock-free routing state below sound.
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  if (draining_) {
    respond_local_shed(respond, net::Status::kClosing);
    return;
  }
  AUTOPN_FAILPOINT("router.forward", {
    respond_local_shed(respond, net::Status::kShed);
    return;
  });
  const std::uint16_t tenant = frame.tenant_id;
  tenant_requests_[tenant] += 1;
  const auto migration = migrations_.find(tenant);
  if (migration != migrations_.end()) {
    if (migration->second.held.size() >= config_.max_held_per_tenant) {
      respond_local_shed(respond, net::Status::kShed);
      return;
    }
    held_.fetch_add(1, std::memory_order_relaxed);
    migration->second.held.push_back(
        Held{std::move(frame), std::move(respond)});
    return;
  }
  forward_or_shed(std::move(frame), std::move(respond));
}

void Router::forward_or_shed(net::RequestFrame frame, RespondFn respond) {
  const std::uint16_t tenant = frame.tenant_id;
  const auto it = members_.find(placement_of(tenant));
  if (it == members_.end()) {
    // No such backend (empty ring, or a stale override the eviction path
    // has not re-placed yet) — a dead-backend shed tells the client this
    // needs membership action, not a quick retry.
    respond_local_shed(respond, net::Status::kShed,
                       net::ShedDetail::kDeadBackend);
    return;
  }
  Member& member = it->second;
  if (member.health.state() == HealthState::kDead) {
    respond_local_shed(respond, net::Status::kShed,
                       net::ShedDetail::kDeadBackend);
    return;
  }
  const std::uint64_t token = next_token_++;
  if (!member.link->forward(token, std::move(frame))) {
    // A live-ish member whose link is momentarily down or backed up (the
    // shard is not taking bytes): a blip.
    respond_local_shed(respond, net::Status::kShed,
                       net::ShedDetail::kTransient);
    return;
  }
  // No insert-after-response race here: complete() runs from the link's fd
  // handler on this same loop thread, which cannot run until we return.
  forwarded_.fetch_add(1, std::memory_order_relaxed);
  tenant_inflight_[tenant] += 1;
  flights_.emplace(token, Flight{std::move(respond), tenant});
}

void Router::complete(std::uint64_t token, net::ResponseFrame response) {
  const auto it = flights_.find(token);
  if (it == flights_.end()) {
    late_responses_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Flight flight = std::move(it->second);
  flights_.erase(it);
  returned_.fetch_add(1, std::memory_order_relaxed);
  if (response.shed_origin == net::ShedOrigin::kRouter) {
    synthesized_.fetch_add(1, std::memory_order_relaxed);
  }
  const auto inflight = tenant_inflight_.find(flight.tenant);
  if (inflight != tenant_inflight_.end() && --inflight->second == 0) {
    tenant_inflight_.erase(inflight);
    if (migrations_.find(flight.tenant) != migrations_.end()) {
      cut_over(flight.tenant, /*forced=*/false);
    }
  }
  flight.respond(std::move(response));
}

void Router::start_migration(std::uint16_t tenant_id, std::uint32_t to_shard) {
  if (draining_) return;
  if (members_.find(to_shard) == members_.end()) return;
  if (migrations_.find(tenant_id) != migrations_.end()) return;
  if (placement_of(tenant_id) == to_shard) return;
  migrations_started_.fetch_add(1, std::memory_order_relaxed);
  Migration migration;
  migration.to_shard = to_shard;
  migration.force_cut_timer = server_->loop().add_timer(
      config_.migration_timeout_seconds, [this, tenant_id] {
        if (migrations_.find(tenant_id) != migrations_.end()) {
          forced_cuts_.fetch_add(1, std::memory_order_relaxed);
          cut_over(tenant_id, /*forced=*/true);
        }
      });
  migrations_.emplace(tenant_id, std::move(migration));
  if (tenant_inflight_.find(tenant_id) == tenant_inflight_.end()) {
    cut_over(tenant_id, /*forced=*/false);
  }
}

void Router::cut_over(std::uint16_t tenant_id, bool forced) {
  const auto it = migrations_.find(tenant_id);
  if (it == migrations_.end()) return;
  Migration migration = std::move(it->second);
  migrations_.erase(it);
  if (!forced) server_->loop().cancel_timer(migration.force_cut_timer);
  overrides_[tenant_id] = migration.to_shard;
  migrations_completed_.fetch_add(1, std::memory_order_relaxed);
  // Held frames go out in arrival order; a forced cut may interleave them
  // with stragglers still completing on the old shard, which is safe —
  // responses route by token, not placement.
  for (Held& held : migration.held) {
    forward_or_shed(std::move(held.frame), std::move(held.respond));
  }
}

void Router::respond_local_shed(const RespondFn& respond, net::Status status,
                                net::ShedDetail detail) {
  shed_local_.fetch_add(1, std::memory_order_relaxed);
  net::ResponseFrame response;
  response.status = status;
  response.retry_after_us = config_.shed_retry_after_us;
  response.shed_origin = net::ShedOrigin::kRouter;
  response.shed_detail = detail;
  respond(std::move(response));
}

void Router::arm_stats_timer() {
  if (draining_) return;
  server_->loop().add_timer(config_.stats_poll_seconds, [this] {
    poll_shard_stats();
    arm_stats_timer();
  });
}

void Router::arm_rebalance_timer() {
  if (draining_ || !config_.rebalance_enabled) return;
  server_->loop().add_timer(config_.rebalance_seconds, [this] {
    rebalance_round();
    arm_rebalance_timer();
  });
}

void Router::poll_shard_stats() {
  if (draining_) return;
  bool poll_timeout = false;
  AUTOPN_FAILPOINT("router.poll_timeout", poll_timeout = true);
  for (auto& [id, member] : members_) member.link->request_stats();
  // Health runs one tick behind the poll it just sent: poll_ok asks "did a
  // StatsFrame land since the LAST tick?", which makes the observation a
  // pure read — no waiting on the answer inside the loop thread.
  std::vector<std::uint32_t> retired;
  for (auto& [id, member] : members_) {
    if (member.retiring) {
      if (member.link->in_flight() == 0 ||
          std::chrono::steady_clock::now() >= member.retire_deadline) {
        retired.push_back(id);
      }
      continue;
    }
    HealthObservation observation;
    observation.connected = member.link->healthy();
    const std::uint64_t seen = member.link->stats_received();
    observation.poll_ok = !poll_timeout && seen > member.stats_seen;
    member.stats_seen = seen;
    observation.budget_exhausted = member.link->budget_exhausted();
    if (const auto transition = member.health.tick(observation)) {
      on_health_transition(id, member, *transition);
    }
  }
  for (const std::uint32_t id : retired) finalize_retire(id);
}

void Router::on_health_transition(std::uint32_t shard_id, Member& member,
                                  const HealthTransition& transition) {
  if (transition.to == HealthState::kDead && member.in_ring) {
    // Evict: take the dead shard's arcs away so placement converges, and
    // re-place whatever routed onto it by override. The member itself
    // stays — its link slow-probes, and any reconnect starts probation.
    member.in_ring = false;
    ring_.remove_shard(shard_id);
    append_log(MembershipEvent::kEvict, shard_id);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    migrate_off(shard_id);
    // A dead shard whose connection is still up has stopped answering (or
    // reading): the requests it holds are answered now, with synthesized
    // sheds, not whenever the connection dies. The link redials, and a
    // shard that answers again earns its way back through probation.
    member.link->reset();
  } else if (transition.to == HealthState::kHealthy && !member.in_ring) {
    // Probation passed — a recovered shard, or a fresh admit proving
    // itself. Joining the ring re-owns arcs instantly; in-flight requests
    // complete by token, so the join is drop-free by construction.
    member.in_ring = true;
    ring_.add_shard(shard_id);
    append_log(MembershipEvent::kJoin, shard_id);
    readmits_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Router::migrate_off(std::uint32_t shard_id) {
  // In-progress migrations aimed at the shard: redirect to the tenant's
  // ring owner (the shard no longer owns arcs, so the ring never picks it).
  for (auto& [tenant, migration] : migrations_) {
    if (migration.to_shard == shard_id) {
      migration.to_shard =
          ring_.owner_of_tenant(tenant).value_or(migration.to_shard);
    }
  }
  // Override tenants pinned to the shard: ordinary drain-then-cut back to
  // their ring owner. Ring-placed tenants re-owned implicitly above.
  std::vector<std::uint16_t> pinned;
  for (const auto& [tenant, shard] : overrides_) {
    if (shard == shard_id) pinned.push_back(tenant);
  }
  for (const std::uint16_t tenant : pinned) {
    if (const std::optional<std::uint32_t> owner =
            ring_.owner_of_tenant(tenant)) {
      start_migration(tenant, *owner);
    } else {
      overrides_.erase(tenant);  // empty ring; nothing to migrate onto
    }
  }
}

void Router::append_log(MembershipEvent event, std::uint32_t shard_id) {
  log_.push_back(MembershipRecord{next_log_seq_++, event, shard_id});
}

void Router::finalize_retire(std::uint32_t shard_id) {
  const auto it = members_.find(shard_id);
  if (it == members_.end()) return;
  // close() synthesizes a completion for every stranded token inline, and
  // complete() may cut a migration over through other links — so the link
  // closes before its member is erased, never while members_ is mid-erase.
  it->second.link->close();
  members_.erase(shard_id);
}

net::MembershipFrame Router::membership(const net::MembershipRequest& request) {
  // Loop thread: the owned NetServer answers kMembershipRequest inline.
  switch (request.op) {
    case net::MembershipOp::kAdd:
      return do_admit(request);
    case net::MembershipOp::kRemove:
      return do_retire(request.shard_id);
    case net::MembershipOp::kStatus:
      return do_status();
  }
  net::MembershipFrame reply;
  reply.ok = false;
  reply.message = "unknown membership op";
  return reply;
}

net::MembershipFrame Router::do_admit(const net::MembershipRequest& request) {
  net::MembershipFrame reply;
  if (draining_) {
    reply.ok = false;
    reply.message = "router is draining";
    return reply;
  }
  AUTOPN_FAILPOINT("router.admit", {
    reply.ok = false;
    reply.message = "injected fault: router.admit";
    populate_status(reply);
    return reply;
  });
  if (request.host.empty() || request.port == 0) {
    reply.ok = false;
    reply.message = "admit needs a host and a nonzero port";
    populate_status(reply);
    return reply;
  }
  if (members_.find(request.shard_id) != members_.end()) {
    reply.ok = false;
    reply.message = "shard id is already a member";
    populate_status(reply);
    return reply;
  }
  Member member;
  member.address = ShardAddress{request.shard_id, request.host, request.port};
  member.link = make_link(member.address);
  member.health = ShardHealth{config_.health};
  member.health.force(HealthState::kProbation);
  append_log(MembershipEvent::kAdmit, request.shard_id);
  members_.emplace(request.shard_id, std::move(member));
  admits_.fetch_add(1, std::memory_order_relaxed);
  reply.ok = true;
  reply.message = "admitted; joins the ring after probation";
  populate_status(reply);
  return reply;
}

net::MembershipFrame Router::do_retire(std::uint32_t shard_id) {
  net::MembershipFrame reply;
  if (draining_) {
    reply.ok = false;
    reply.message = "router is draining";
    return reply;
  }
  AUTOPN_FAILPOINT("router.retire", {
    reply.ok = false;
    reply.message = "injected fault: router.retire";
    populate_status(reply);
    return reply;
  });
  const auto it = members_.find(shard_id);
  if (it == members_.end()) {
    reply.ok = false;
    reply.message = "unknown shard id";
    populate_status(reply);
    return reply;
  }
  Member& member = it->second;
  if (member.retiring) {
    reply.ok = false;
    reply.message = "shard is already retiring";
    populate_status(reply);
    return reply;
  }
  if (member.in_ring) {
    member.in_ring = false;
    ring_.remove_shard(shard_id);
  }
  append_log(MembershipEvent::kRetire, shard_id);
  member.retiring = true;
  member.health.force(HealthState::kRetiring);
  member.retire_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(config_.retire_timeout_seconds));
  retires_.fetch_add(1, std::memory_order_relaxed);
  migrate_off(shard_id);
  reply.ok = true;
  reply.message = "retiring; link closes once drained";
  populate_status(reply);
  return reply;
}

net::MembershipFrame Router::do_status() {
  net::MembershipFrame reply;
  reply.ok = true;
  populate_status(reply);
  return reply;
}

void Router::populate_status(net::MembershipFrame& reply) {
  const ScaleProposal scale = rebalancer_.propose_scale(build_snapshots());
  reply.scale_action = static_cast<std::uint8_t>(scale.action);
  reply.scale_shard = scale.shard_id;
  reply.members.reserve(members_.size());
  for (const auto& [id, member] : members_) {
    net::MemberInfo info;
    info.shard_id = id;
    info.host = member.address.host;
    info.port = member.address.port;
    info.health = static_cast<std::uint8_t>(member.health.state());
    info.in_ring = member.in_ring;
    info.redial_attempts = member.link->redial_attempts();
    info.reconnects = member.link->reconnects();
    info.last_error = member.link->last_error();
    reply.members.push_back(std::move(info));
  }
  std::sort(reply.members.begin(), reply.members.end(),
            [](const net::MemberInfo& a, const net::MemberInfo& b) {
              return a.shard_id < b.shard_id;
            });
  reply.log.reserve(log_.size());
  for (const MembershipRecord& record : log_) {
    reply.log.push_back(net::MembershipLogEntry{
        record.seq, static_cast<std::uint8_t>(record.event), record.shard_id});
  }
}

std::vector<ShardSnapshot> Router::build_snapshots() const {
  std::vector<ShardSnapshot> snapshots;
  snapshots.reserve(members_.size());
  for (const auto& [id, member] : members_) {
    ShardSnapshot snapshot;
    snapshot.shard_id = id;
    // "Healthy" to the rebalancer means "a valid migration target": in the
    // ring, not on its way out, and actually connected.
    snapshot.healthy =
        member.in_ring && !member.retiring && member.link->healthy();
    if (const std::optional<net::StatsFrame>& stats =
            member.link->latest_stats()) {
      snapshot.p99_us = stats->p99_us;
      snapshot.queue_depth = stats->queue_depth;
      snapshot.slots.reserve(stats->tenants.size());
      for (const net::TenantStat& t : stats->tenants) {
        snapshot.slots.push_back(SlotStat{t.tenant, t.count, t.p99_us});
      }
    }
    snapshots.push_back(std::move(snapshot));
  }
  return snapshots;
}

void Router::rebalance_round() {
  if (draining_) return;
  AUTOPN_FAILPOINT("router.rebalance", return);
  rebalance_rounds_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<ShardSnapshot> snapshots = build_snapshots();
  std::vector<TenantLoad> loads;
  loads.reserve(tenant_requests_.size());
  for (const auto& [tenant, requests] : tenant_requests_) {
    loads.push_back(TenantLoad{tenant, placement_of(tenant), requests});
  }
  for (const Move& move : rebalancer_.propose(snapshots, loads)) {
    start_migration(move.tenant_id, move.to_shard);
  }
  tenant_requests_.clear();  // each round judges a fresh traffic window
}

std::uint32_t Router::placement_of(std::uint16_t tenant_id) const {
  const auto it = overrides_.find(tenant_id);
  if (it != overrides_.end()) return it->second;
  return ring_.owner_of_tenant(tenant_id).value_or(0);
}

void Router::drain() {
  // One loop task. Stop routing — which also freezes membership (admit/
  // retire/health all check draining_) — and answer everything parked in
  // held queues: those frames were dispatched but never forwarded, so they
  // settle as router-origin kClosing sheds. Then close every link; each
  // synthesizes a router-origin shed for its in-flight tokens inline.
  run_on_loop([this] {
    draining_ = true;
    for (auto& [tenant, migration] : migrations_) {
      server_->loop().cancel_timer(migration.force_cut_timer);
      for (Held& held : migration.held) {
        respond_local_shed(held.respond, net::Status::kClosing);
      }
    }
    migrations_.clear();
    // Closed from a copy: synthesized completions never run while members_
    // is being iterated.
    std::vector<ShardLink*> links;
    links.reserve(members_.size());
    for (auto& [id, member] : members_) links.push_back(member.link.get());
    for (ShardLink* link : links) link->close();
    // The flight table must be empty now; any leftover would break
    // exactly-once, so settle it as returned (it WAS forwarded) rather
    // than leak the respond callback.
    for (auto& [token, flight] : flights_) {
      returned_.fetch_add(1, std::memory_order_relaxed);
      synthesized_.fetch_add(1, std::memory_order_relaxed);
      net::ResponseFrame response;
      response.status = net::Status::kClosing;
      response.retry_after_us = config_.shed_retry_after_us;
      response.shed_origin = net::ShedOrigin::kRouter;
      flight.respond(std::move(response));
    }
    flights_.clear();
  });
}

net::StatsFrame Router::stats() {
  // Loop thread (the server answers kStatsRequest frames there). Counters
  // sum across shards; percentiles take the worst shard — the number an
  // SLO monitor wants from a tier, not a meaningless average of averages.
  net::StatsFrame out;
  std::unordered_map<std::uint16_t, net::TenantStat> slots;
  for (auto& [id, member] : members_) {
    const std::optional<net::StatsFrame>& stats = member.link->latest_stats();
    if (!stats) continue;
    out.offered += stats->offered;
    out.completed += stats->completed;
    out.shed += stats->shed;
    out.expired += stats->expired;
    out.failed += stats->failed;
    out.queue_depth += stats->queue_depth;
    out.p50_us = std::max(out.p50_us, stats->p50_us);
    out.p95_us = std::max(out.p95_us, stats->p95_us);
    out.p99_us = std::max(out.p99_us, stats->p99_us);
    out.retry_after_us = std::max(out.retry_after_us, stats->retry_after_us);
    for (const net::TenantStat& t : stats->tenants) {
      net::TenantStat& slot = slots[t.tenant];
      slot.tenant = t.tenant;
      slot.count += t.count;
      slot.p99_us = std::max(slot.p99_us, t.p99_us);
    }
  }
  out.shed += shed_local_.load(std::memory_order_relaxed);
  out.tenants.reserve(slots.size());
  for (auto& [slot, stat] : slots) out.tenants.push_back(stat);
  std::sort(out.tenants.begin(), out.tenants.end(),
            [](const net::TenantStat& a, const net::TenantStat& b) {
              return a.tenant < b.tenant;
            });
  return out;
}

void Router::shutdown() {
  if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
  server_->shutdown();  // runs drain(): links close, flights settle
}

RouterReport Router::report() const {
  RouterReport report;
  report.dispatched = dispatched_.load(std::memory_order_relaxed);
  report.forwarded = forwarded_.load(std::memory_order_relaxed);
  report.shed_local = shed_local_.load(std::memory_order_relaxed);
  report.returned = returned_.load(std::memory_order_relaxed);
  report.synthesized = synthesized_.load(std::memory_order_relaxed);
  report.late_responses = late_responses_.load(std::memory_order_relaxed);
  report.held = held_.load(std::memory_order_relaxed);
  report.migrations_started =
      migrations_started_.load(std::memory_order_relaxed);
  report.migrations_completed =
      migrations_completed_.load(std::memory_order_relaxed);
  report.forced_cuts = forced_cuts_.load(std::memory_order_relaxed);
  report.rebalance_rounds = rebalance_rounds_.load(std::memory_order_relaxed);
  report.admits = admits_.load(std::memory_order_relaxed);
  report.retires = retires_.load(std::memory_order_relaxed);
  report.evictions = evictions_.load(std::memory_order_relaxed);
  report.readmits = readmits_.load(std::memory_order_relaxed);
  return report;
}

std::optional<std::uint32_t> Router::shard_of(std::uint16_t tenant_id) {
  if (shut_down_.load(std::memory_order_acquire)) return std::nullopt;
  std::uint32_t shard = 0;
  run_on_loop([this, tenant_id, &shard] { shard = placement_of(tenant_id); });
  return shard;
}

void Router::migrate_tenant(std::uint16_t tenant_id, std::uint32_t to_shard) {
  if (shut_down_.load(std::memory_order_acquire)) return;
  server_->loop().post(
      [this, tenant_id, to_shard] { start_migration(tenant_id, to_shard); });
}

net::MembershipFrame Router::admit_shard(const ShardAddress& address) {
  net::MembershipFrame reply;
  if (shut_down_.load(std::memory_order_acquire)) {
    reply.ok = false;
    reply.message = "router is shut down";
    return reply;
  }
  net::MembershipRequest request;
  request.op = net::MembershipOp::kAdd;
  request.shard_id = address.id;
  request.host = address.host;
  request.port = address.port;
  run_on_loop([this, &request, &reply] { reply = membership(request); });
  return reply;
}

net::MembershipFrame Router::retire_shard(std::uint32_t shard_id) {
  net::MembershipFrame reply;
  if (shut_down_.load(std::memory_order_acquire)) {
    reply.ok = false;
    reply.message = "router is shut down";
    return reply;
  }
  run_on_loop([this, shard_id, &reply] { reply = do_retire(shard_id); });
  return reply;
}

net::MembershipFrame Router::membership_status() {
  net::MembershipFrame reply;
  if (shut_down_.load(std::memory_order_acquire)) {
    reply.ok = false;
    reply.message = "router is shut down";
    return reply;
  }
  run_on_loop([this, &reply] { reply = do_status(); });
  return reply;
}

ScaleProposal Router::scale_recommendation() {
  ScaleProposal proposal;
  if (shut_down_.load(std::memory_order_acquire)) return proposal;
  run_on_loop([this, &proposal] {
    proposal = rebalancer_.propose_scale(build_snapshots());
  });
  return proposal;
}

std::vector<std::pair<std::uint32_t, bool>> Router::shard_health() {
  std::vector<std::pair<std::uint32_t, bool>> health;
  if (shut_down_.load(std::memory_order_acquire)) return health;
  run_on_loop([this, &health] {
    health.reserve(members_.size());
    for (const auto& [id, member] : members_) {
      health.emplace_back(id, member.link->healthy());
    }
  });
  std::sort(health.begin(), health.end());
  return health;
}

std::vector<Router::ShardStatus> Router::shard_status() {
  std::vector<ShardStatus> status;
  if (shut_down_.load(std::memory_order_acquire)) return status;
  run_on_loop([this, &status] {
    status.reserve(members_.size());
    for (const auto& [id, member] : members_) {
      ShardStatus row;
      row.shard_id = id;
      row.healthy = member.link->healthy();
      row.health = member.health.state();
      row.in_ring = member.in_ring;
      row.reconnects = member.link->reconnects();
      row.redial_attempts = member.link->redial_attempts();
      row.socket_writes = member.link->socket_writes();
      row.last_error = member.link->last_error();
      row.stats = member.link->latest_stats();
      status.push_back(std::move(row));
    }
  });
  std::sort(status.begin(), status.end(),
            [](const ShardStatus& a, const ShardStatus& b) {
              return a.shard_id < b.shard_id;
            });
  return status;
}

void Router::run_on_loop(net::EventLoop::Task task) {
  std::promise<void> done;
  std::future<void> ran = done.get_future();
  server_->loop().post([&task, &done] {
    task();
    done.set_value();
  });
  ran.wait();
}

}  // namespace autopn::router

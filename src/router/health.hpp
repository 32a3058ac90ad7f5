#pragma once
// Shard health state machine and the ordered membership log — the pure
// (no I/O, no clock) core of the router's elastic-membership tier. The
// Router owns one ShardHealth per member and feeds it one HealthObservation
// per stats-poll tick; the returned transition, if any, tells the Router
// what to do to the ring (evict a dead shard, readmit one that survived
// probation). Keeping the machine pure makes every edge deterministic and
// directly unit-testable without sockets or timers.
//
// States:
//
//            budget exhausted ─────────────────────────┐
//                 │                                    v
//   kHealthy ──misses──> kSuspect ──misses/budget──> kDead
//      ^                    │                          │ reconnect
//      │     poll ok        │                          v
//      ├────────────────────┘                     kProbation
//      │            probation_passes consecutive ok    │
//      └───────────────────────────────────────────────┘
//                                        (disconnect → back to kDead)
//
//   kRetiring is entered only administratively (Router::retire) and never
//   left by tick() — a retiring shard drains and is then forgotten.
//
// A "miss" is one poll tick where the link was disconnected or no fresh
// StatsFrame arrived since the previous tick. The redial budget
// (ShardLinkConfig::redial_budget) is the fast path to kDead: a backend
// whose address is gone fails the budget in a few seconds, while a merely
// slow one degrades through kSuspect on the miss counter.
//
// The membership log is the authority on ring contents: the live HashRing
// must always equal ring_members() folded over the log. kAdmit is
// administrative (the member exists, links dial) — only kJoin puts a shard
// in the ring, and kEvict/kRetire take it out. Two routers replaying the
// same log therefore agree on placement exactly (see
// router_membership_test's property test).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace autopn::router {

enum class HealthState : std::uint8_t {
  kHealthy = 0,
  kSuspect = 1,
  kDead = 2,
  kProbation = 3,
  kRetiring = 4,
};

[[nodiscard]] std::string to_string(HealthState state);

struct HealthConfig {
  /// Consecutive poll misses before a healthy shard turns suspect.
  std::uint32_t suspect_after = 2;
  /// Consecutive poll misses (counted from the first) before a suspect
  /// shard is declared dead even if redials are still being attempted.
  std::uint32_t dead_after = 10;
  /// Consecutive successful polls a probationary shard must pass before it
  /// rejoins the ring as healthy.
  std::uint32_t probation_passes = 3;
};

/// What the Router observed about one member during one poll interval.
struct HealthObservation {
  bool connected = false;         ///< link's connection is up right now
  bool poll_ok = false;           ///< a fresh StatsFrame arrived this tick
  bool budget_exhausted = false;  ///< link burned its redial budget
};

struct HealthTransition {
  HealthState from = HealthState::kHealthy;
  HealthState to = HealthState::kHealthy;
};

class ShardHealth {
 public:
  explicit ShardHealth(HealthConfig config = {}) : config_(config) {}

  /// Advances the machine by one poll tick. Returns the state change this
  /// observation caused, or std::nullopt when the state held.
  std::optional<HealthTransition> tick(const HealthObservation& observation);

  /// Administrative override (retire, or re-admit of a known id); resets
  /// the miss/pass counters so the new state starts from a clean slate.
  void force(HealthState state);

  [[nodiscard]] HealthState state() const noexcept { return state_; }
  [[nodiscard]] std::uint32_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint32_t passes() const noexcept { return passes_; }

 private:
  HealthConfig config_;
  HealthState state_ = HealthState::kHealthy;
  std::uint32_t misses_ = 0;  ///< consecutive failed polls (healthy/suspect)
  std::uint32_t passes_ = 0;  ///< consecutive ok polls (probation)
};

/// One entry of the ordered membership log. `seq` is assigned by the
/// Router, strictly increasing from 1.
enum class MembershipEvent : std::uint8_t {
  kAdmit = 0,   ///< member created (links dialing); NOT yet in the ring
  kRetire = 1,  ///< administratively removed from the ring (drains out)
  kEvict = 2,   ///< health-driven removal from the ring
  kJoin = 3,    ///< entered the ring (bootstrap, admit, or probation pass)
};

[[nodiscard]] std::string to_string(MembershipEvent event);

struct MembershipRecord {
  std::uint64_t seq = 0;
  MembershipEvent event = MembershipEvent::kAdmit;
  std::uint32_t shard_id = 0;
};

/// Folds the log into the set of in-ring shard ids (sorted ascending).
/// kJoin inserts, kEvict/kRetire erase, kAdmit is a no-op — so the result
/// is exactly what the live HashRing must contain, and two routers
/// replaying the same log place tenants identically.
[[nodiscard]] std::vector<std::uint32_t> ring_members(
    const std::vector<MembershipRecord>& log);

}  // namespace autopn::router

#pragma once
// Runtime statistics and contention profiling for the STM, factored out of
// the Stm god-class and sharded so neither ever serializes a hot path:
//
//  * StmStats — the begin/commit/read/write/abort counters, each a
//    util::ShardedCounter (per-shard cache-line-padded relaxed atomics,
//    aggregate-on-read), so concurrent transactions never contend on one
//    counter line;
//  * ContentionProfiler — the "which box keeps failing validation" profiler.
//    The abort path previously took a global mutex around an unordered_map;
//    it is now a fixed-capacity lock-free open-addressed table of
//    (box, count) pairs — one hash probe + one relaxed fetch_add per sample,
//    with an explicit dropped() counter if the table ever fills.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stm/exceptions.hpp"
#include "util/sharded.hpp"

namespace autopn::stm {

class VBoxBase;

/// Point-in-time copy of the runtime counters.
struct StmStatsSnapshot {
  std::uint64_t top_commits = 0;
  std::uint64_t top_aborts = 0;
  std::uint64_t child_commits = 0;
  std::uint64_t child_aborts = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  // Abort breakdown by conflict kind (top_aborts + child_aborts ==
  // validation + sibling + explicit + injected).
  std::uint64_t aborts_validation = 0;  ///< top-level read-set validation
  std::uint64_t aborts_sibling = 0;     ///< child vs sibling merge conflicts
  /// Always 0: containers track whole boxes, so no conflict kind maps here.
  /// Kept so readers of the abort breakdown built against it still compile.
  std::uint64_t aborts_predicate = 0;
  std::uint64_t aborts_explicit = 0;    ///< user-requested retry()
  std::uint64_t aborts_injected = 0;    ///< failpoint-injected faults
  /// Top-level transactions that exhausted their retry budget and completed
  /// holding the commit mutex from snapshot to install (the
  /// starvation-escalation path).
  std::uint64_t top_escalations = 0;

  [[nodiscard]] double top_abort_rate() const {
    const double attempts = static_cast<double>(top_commits + top_aborts);
    return attempts > 0 ? static_cast<double>(top_aborts) / attempts : 0.0;
  }
};

/// Sharded runtime counters. Every bump is one relaxed fetch_add on a
/// thread-private cache line; snapshot() aggregates across shards. Reads and
/// writes are bumped once per transaction (Tx::~Tx), not once per access.
class StmStats {
 public:
  explicit StmStats(
      std::size_t shards = util::ShardedCounter::default_shards());

  StmStats(const StmStats&) = delete;
  StmStats& operator=(const StmStats&) = delete;

  void bump_read(std::uint64_t n = 1) noexcept { reads_.add(n); }
  void bump_write(std::uint64_t n = 1) noexcept { writes_.add(n); }
  void bump_top_commit() noexcept { top_commits_.add(); }
  void bump_top_abort(ConflictKind kind) noexcept {
    top_aborts_.add();
    bump_conflict_kind(kind);
  }
  void bump_child_commit() noexcept { child_commits_.add(); }
  void bump_child_abort(ConflictKind kind) noexcept {
    child_aborts_.add();
    bump_conflict_kind(kind);
  }
  void bump_top_escalation() noexcept { top_escalations_.add(); }

  [[nodiscard]] StmStatsSnapshot snapshot() const;
  void reset() noexcept;

 private:
  void bump_conflict_kind(ConflictKind kind) noexcept;

  util::ShardedCounter top_commits_;
  util::ShardedCounter top_aborts_;
  util::ShardedCounter child_commits_;
  util::ShardedCounter child_aborts_;
  util::ShardedCounter reads_;
  util::ShardedCounter writes_;
  util::ShardedCounter aborts_validation_;
  util::ShardedCounter aborts_sibling_;
  util::ShardedCounter aborts_explicit_;
  util::ShardedCounter aborts_injected_;
  util::ShardedCounter top_escalations_;
};

/// Lock-free contention-hotspot profiler: counts, per VBox, how many
/// top-level validation conflicts it caused. Off by default; while disabled,
/// note() is a single relaxed load.
///
/// Implementation: open-addressed table of (atomic key, atomic count) slots,
/// linear probing, keys claimed by CAS and never unclaimed while profiling
/// runs. If more distinct boxes conflict than the table holds, further
/// samples of unseen boxes are counted in dropped() instead of silently
/// vanishing. reset() clears the table; resetting while transactions are
/// actively aborting may misattribute a handful of in-flight samples (the
/// profiler is a diagnostic, not an accounting ledger).
class ContentionProfiler {
 public:
  struct Hotspot {
    std::string label;
    std::uint64_t conflicts = 0;
  };

  explicit ContentionProfiler(std::size_t capacity = kDefaultCapacity);

  ContentionProfiler(const ContentionProfiler&) = delete;
  ContentionProfiler& operator=(const ContentionProfiler&) = delete;

  static constexpr std::size_t kDefaultCapacity = 1024;

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records one validation conflict on `box`. No-op unless enabled.
  void note(const VBoxBase* box) noexcept;

  /// The `top_n` most conflict-prone boxes observed since the last reset
  /// (descending). Labels come from VBoxBase::set_label, falling back to a
  /// pointer rendering; boxes sharing a label are aggregated into one entry.
  [[nodiscard]] std::vector<Hotspot> hotspots(std::size_t top_n = 10) const;

  void reset() noexcept;

  /// Samples dropped because the table was full (0 in healthy use).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  // A slot is claimed by CAS-ing `key` from nullptr to the box and is never
  // unclaimed while profiling runs, so each box owns exactly one slot.
  struct Slot {
    std::atomic<const VBoxBase*> key{nullptr};
    std::atomic<std::uint64_t> count{0};
  };

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  std::vector<Slot> slots_;
  std::size_t mask_;
};

}  // namespace autopn::stm

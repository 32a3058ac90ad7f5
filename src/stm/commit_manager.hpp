#pragma once
// The top-level commit protocol. The CommitManager owns the STM's
// serialization point: under one commit mutex it validates a transaction's
// global read set against the version chains, installs its write set at a
// fresh clock version, and publishes that version. A starving transaction
// escalates by taking that same mutex before its snapshot and holding it
// through its body and install (lock_exclusive), so no commit can land in
// between and its validation cannot fail.
//
// This deliberately departs from JVSTM's lock-free helping commit: measured
// against it, the mutex ties end to end and is faster on the single-thread
// commit path, and on libstdc++ the helping protocol's chain head
// (std::atomic<std::shared_ptr>) is itself lock-based (DESIGN.md §9.5).
//
// The manager depends only on the narrow runtime environment it is
// constructed with (clock, snapshot registry for pruning bounds, contention
// profiler for conflict attribution), never on Stm itself — it is
// independently constructible and unit-tested (tests/stm_commit_manager_test).

#include <cstdint>
#include <memory>
#include <vector>

#include "stm/snapshot_registry.hpp"
#include "stm/stats.hpp"
#include "stm/vbox.hpp"
#include "util/sync.hpp"

namespace autopn::stm {

/// One write to install: the box and its new value.
struct CommitWrite {
  VBoxBase* box = nullptr;
  std::shared_ptr<const void> value;
};

/// One top-level commit, materialized from the transaction's read and write
/// sets.
struct CommitRequest {
  /// The root snapshot the transaction read from.
  std::uint64_t snapshot = 0;
  /// Boxes read from the global version chain; the commit is valid only
  /// while each still has newest_version() <= snapshot at serialization
  /// time.
  std::vector<const VBoxBase*> read_boxes;
  /// New values to install, one entry per written box.
  std::vector<CommitWrite> writes;
};

class CommitManager {
 public:
  CommitManager(sync::Atomic<std::uint64_t>& clock, SnapshotRegistry& snapshots,
                ContentionProfiler& profiler)
      : clock_(&clock), snapshots_(&snapshots), profiler_(&profiler) {}

  CommitManager(const CommitManager&) = delete;
  CommitManager& operator=(const CommitManager&) = delete;

  /// Proof that the caller holds the commit mutex; released on destruction.
  class Exclusive {
   private:
    friend class CommitManager;
    explicit Exclusive(sync::Mutex& mutex) : lock_(mutex) {}
    sync::UniqueLock lock_;
  };

  /// Takes the commit mutex. An escalated attempt holds it from before its
  /// snapshot through commit(req, held): no other commit lands in between.
  [[nodiscard]] Exclusive lock_exclusive() { return Exclusive{mutex_}; }

  /// Serializes one top-level commit: validates `req.read_boxes`, then
  /// installs `req.writes` at a fresh version, publishing it to the clock.
  /// Throws ConflictError{kTopLevelValidation} when a read is stale (the
  /// failing box is reported to the contention profiler first).
  /// `req.writes` may be consumed even on failure; the caller rebuilds it on
  /// retry.
  void commit(CommitRequest& req);

  /// The same commit, under a mutex the caller already holds. When `held`
  /// was taken before `req.snapshot` was read, the validation is vacuous.
  void commit(CommitRequest& req, const Exclusive& held);

 private:
  /// Every read box's newest version must still be at or below the
  /// snapshot. Reports the first failing box and throws.
  void validate_or_throw(const CommitRequest& req) const;

  sync::Atomic<std::uint64_t>* clock_;
  SnapshotRegistry* snapshots_;
  ContentionProfiler* profiler_;
  sync::Mutex mutex_;  ///< the serialization point: validate + install + publish
};

}  // namespace autopn::stm

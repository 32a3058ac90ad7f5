#pragma once
// The top-level commit protocol. The CommitManager owns the STM's
// serialization point: under one commit mutex it validates a transaction's
// global read set and predicates against the version chains, installs its
// write set at a fresh clock version, and publishes that version.
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

#include "stm/predicate.hpp"
#include "stm/snapshot_registry.hpp"
#include "stm/stats.hpp"
#include "stm/vbox.hpp"
#include "util/sync.hpp"

namespace autopn::stm {

/// One write to install: either a full value (box-granularity overwrite) or
/// a datatype op log applied to the newest committed value inside the commit
/// serialization — commit-time delta install, the reason two disjoint-key
/// transactions can both commit into one bucket without either clobbering
/// the other's entries.
struct CommitWrite {
  VBoxBase* box = nullptr;
  std::shared_ptr<const void> value;        ///< full overwrite (delta null)
  std::shared_ptr<const DeltaBase> delta;   ///< op log (value null)
};

/// One top-level commit, materialized from the transaction's read/write/
/// predicate sets.
struct CommitRequest {
  /// The root snapshot the transaction read from.
  std::uint64_t snapshot = 0;
  /// Boxes read exactly from the global version chain; the commit is valid
  /// only while each still has newest_version() <= snapshot at serialization
  /// time.
  std::vector<const VBoxBase*> read_boxes;
  /// Semantic predicates anchored on committed state; each must still
  /// holds() over its box's newest committed value at serialization time.
  /// Unlike read_boxes this tolerates the box having moved on — only changes
  /// that flip the predicate (the guarded key, the guarded cursor bound)
  /// abort.
  std::vector<std::shared_ptr<const PredicateBase>> predicates;
  /// New values / op logs to install, one entry per written box.
  std::vector<CommitWrite> writes;
};

class CommitManager {
 public:
  CommitManager(sync::Atomic<std::uint64_t>& clock, SnapshotRegistry& snapshots,
                ContentionProfiler& profiler)
      : clock_(&clock), snapshots_(&snapshots), profiler_(&profiler) {}

  CommitManager(const CommitManager&) = delete;
  CommitManager& operator=(const CommitManager&) = delete;

  /// Serializes one top-level commit: validates `req.read_boxes` and
  /// `req.predicates`, then installs `req.writes` at a fresh version,
  /// publishing it to the clock. Throws ConflictError{kTopLevelValidation}
  /// when an exact read is stale and ConflictError{kPredicate} when a
  /// predicate no longer holds (the failing box — with the predicate's
  /// sub-key, where it has one — is reported to the contention profiler
  /// first). `req.writes` may be consumed even on failure; the caller
  /// rebuilds it on retry.
  void commit(CommitRequest& req);

 private:
  /// Every read box's newest version must still be at or below the
  /// snapshot, and every predicate must still hold over its box's newest
  /// committed value. Reports the first failing box and throws.
  void validate_or_throw(const CommitRequest& req) const;

  /// Materializes one write for installation at `version`: the full value,
  /// or the delta applied to the box's newest committed value. Must run
  /// under mutex_, after validation.
  [[nodiscard]] static std::shared_ptr<const void> materialize(
      const CommitWrite& write, std::uint64_t version);

  sync::Atomic<std::uint64_t>* clock_;
  SnapshotRegistry* snapshots_;
  ContentionProfiler* profiler_;
  sync::Mutex mutex_;  ///< the serialization point: validate + install + publish
};

}  // namespace autopn::stm

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
// (an atomic shared pointer) is itself lock-based (DESIGN.md §9.5).
//
// The manager depends only on the narrow runtime environment it is
// constructed with (clock, snapshot registry for pruning bounds, contention
// profiler for conflict attribution), never on Stm itself — it is
// independently constructible and unit-tested (tests/stm_commit_manager_test).

#include <cstdint>
#include <span>

#include "stm/snapshot_registry.hpp"
#include "stm/stats.hpp"
#include "stm/vbox.hpp"
#include "util/sync.hpp"

namespace autopn::stm {

class Tx;

/// One box a transaction read or wrote, as its box set (tx.hpp) holds it;
/// the commit manager validates and installs straight from these.
struct TxEntry {
  VBoxBase* box = nullptr;
  /// The pending write, owned; empty when the box was not written.
  BodyPtr pending{};
  /// The cached read, borrowed from the chain or an ancestor's pending
  /// write; nullptr when the box was not read.
  const Body* seen = nullptr;
  /// When read(): the ancestor whose pending write the read consumed
  /// (nullptr for the global chain at the root snapshot), and that ancestor
  /// entry's stamp at read time.
  Tx* owner = nullptr;
  std::uint64_t read_stamp = 0;
  /// When written(): the transaction's monotone stamp for the entry, bumped
  /// whenever a child merges a write into it.
  std::uint64_t write_stamp = 0;

  [[nodiscard]] bool read() const noexcept { return seen != nullptr; }
  [[nodiscard]] bool written() const noexcept { return pending != nullptr; }
  /// What the transaction sees: its pending write, else its cached read.
  [[nodiscard]] const Body* body() const noexcept {
    return written() ? pending.get() : seen;
  }
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
  /// snapshot through commit(snapshot, entries, held): no other commit lands
  /// in between.
  [[nodiscard]] Exclusive lock_exclusive() { return Exclusive{mutex_}; }

  /// Serializes one top-level commit of a transaction that read from
  /// `snapshot`: every read() entry's box must still have newest_version()
  /// <= snapshot, and then every written() entry's body is installed at a
  /// fresh version, which is published to the clock; the chains take the
  /// installed bodies from their entries. Throws
  /// ConflictError{kTopLevelValidation} when a read is stale (the failing
  /// box is reported to the contention profiler first); validation runs
  /// before any install, so a failed commit leaves every body with its
  /// entry.
  void commit(std::uint64_t snapshot, std::span<TxEntry> entries);

  /// The same commit, under a mutex the caller already holds. When `held`
  /// was taken before `snapshot` was read, the validation is vacuous.
  void commit(std::uint64_t snapshot, std::span<TxEntry> entries,
              const Exclusive& held);

 private:
  sync::Atomic<std::uint64_t>* clock_;
  SnapshotRegistry* snapshots_;
  ContentionProfiler* profiler_;
  sync::Mutex mutex_;  ///< the serialization point: validate + install + publish
};

}  // namespace autopn::stm

#pragma once
// Transaction contexts for the multi-version PN-STM with closed parallel
// nesting (paper §III-A).
//
// Model: a top-level (root) transaction takes a snapshot of the global
// version clock; all reads in its tree resolve against that snapshot plus the
// tree's tentative writes, so snapshots are always consistent and no
// read-time validation is needed. A transaction may spawn children that run
// in parallel with one another (never with their parent — the parent's own
// body is suspended in run_children, where its thread runs children itself,
// matching the nested transaction model where only childless transactions
// access data).
//
// Read resolution order for a transaction X reading box B:
//   1. X's own write set;
//   2. X's cached reads (repeatable reads within one attempt);
//   3. the nearest ancestor write set holding B, walking towards the root
//      (each guarded by the ancestor's merge mutex, since X's siblings
//      commit-merge into those sets concurrently);
//   4. the global version chain at the root snapshot.
//
// The conflict unit is the versioned box, as in JVSTM: a read entry remembers
// the one level it resolved at — the ancestor whose pending write it
// consumed (with that entry's stamp), or the global chain — and commit-time
// revalidation requires the box untouched since (stamp equality at that
// merge level, version <= snapshot at top level).
//
// Child commit merges the child's write set into the parent under the
// parent's merge mutex after validating the child's reads against what
// siblings merged since. Reads resolved above the parent are propagated
// upwards and validated when the enclosing transaction itself commits
// (compositional validation). Top-level commit materializes the global read
// set and the write set into a CommitRequest and hands it to the Stm's
// CommitManager, which validates the reads against the version chains and
// installs new versions under its commit mutex (see stm/commit_manager.hpp).

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <mutex>
#include <utility>
#include <vector>

#include "stm/commit_manager.hpp"
#include "stm/exceptions.hpp"
#include "stm/vbox.hpp"
#include "util/thread_pool.hpp"
#include "util/thread_annotations.hpp"

namespace autopn::stm {

class Stm;

/// Transaction handle passed to user code. Created and retried by the Stm
/// runtime (top-level) or by Tx::run_children (nested); never constructed by
/// applications directly.
class Tx {
 public:
  Tx(const Tx&) = delete;
  Tx& operator=(const Tx&) = delete;

  /// Runs each body as a child transaction of this transaction and returns
  /// once all have committed. The calling thread runs the children itself,
  /// in order; idle workers of the Stm's nested-transaction pool steal the
  /// rest in parallel, as far as the actuator's per-tree limit `c` (threads
  /// running inside this tree at once, the caller's included) allows. A
  /// child that hits a sibling conflict is retried alone.
  void run_children(std::vector<std::function<void(Tx&)>> bodies);

  /// Requests an abort-and-retry of this transaction attempt.
  [[noreturn]] void retry() { throw ConflictError{ConflictKind::kExplicitRetry}; }

  /// True for a top-level transaction.
  [[nodiscard]] bool is_top_level() const noexcept { return parent_ == nullptr; }

  /// Nesting depth: 0 for top-level, 1 for its children, ...
  [[nodiscard]] int depth() const noexcept { return depth_; }

  /// The root snapshot all global reads in this tree resolve against.
  [[nodiscard]] std::uint64_t snapshot() const noexcept { return snapshot_; }

  /// Untyped transactional read; returns the value's erased pointer and
  /// records a read of the box. VBox<T>::read is the typed entry point.
  [[nodiscard]] std::shared_ptr<const void> read_raw(const VBoxBase& box);

  /// Untyped transactional write (buffered full overwrite).
  void write_raw(const VBoxBase& box, std::shared_ptr<const void> value);

  /// Number of entries in the write set (diagnostics).
  [[nodiscard]] std::size_t write_set_size() const noexcept { return writes_.size(); }

  /// Number of read-set entries (diagnostics).
  [[nodiscard]] std::size_t read_set_size() const noexcept { return reads_.size(); }

 private:
  friend class Stm;

  struct WriteEntry {
    std::shared_ptr<const void> value;  ///< pending full overwrite
    std::uint64_t stamp;  ///< parent-local monotone stamp; bumped on merge
  };

  /// One resolved read: the cached value (repeatable within the attempt)
  /// plus where it resolved, for commit-time revalidation.
  struct ReadEntry {
    std::shared_ptr<const void> value;
    /// The ancestor whose pending write the read consumed; nullptr when it
    /// resolved in the global chain at the root snapshot.
    Tx* owner = nullptr;
    std::uint64_t stamp = 0;  ///< owner's entry stamp at read time
  };

  /// `child_limit` sizes the tree's budget; only a root's is used.
  Tx(Stm& stm, Tx* parent, std::uint64_t snapshot, std::size_t child_limit = 1);

  /// One child of run_children: runs `body` in a fresh child transaction
  /// and merges it, retrying on sibling conflicts up to the retry budget.
  void run_child(const std::function<void(Tx&)>& body);

  /// Resolves the value visible to this transaction ABOVE its own write set:
  /// the nearest ancestor entry, else the global chain at the root snapshot.
  [[nodiscard]] ReadEntry resolve_above(VBoxBase* box);

  /// Validates this child's reads against the parent's current write set and
  /// merges writes and reads upwards. Throws ConflictError on a sibling
  /// conflict.
  void commit_into_parent();

  /// Top-level commit: validate global reads, install writes. Throws
  /// ConflictError on validation failure. `held` is the commit mutex an
  /// escalated attempt has held since before its snapshot, else nullptr.
  void commit_top_level(const CommitManager::Exclusive* held);

  Stm* stm_;
  Tx* parent_;
  Tx* root_;
  std::uint64_t snapshot_;
  int depth_;

  // merge_mutex_ guards writes_/reads_/next_stamp_ when
  // the transaction is suspended in run_children and its children read from
  // or merge into it. While the transaction itself runs, nobody else touches
  // its sets, but children lock unconditionally for simplicity (uncontended
  // fast path).
  std::mutex merge_mutex_;
  std::unordered_map<VBoxBase*, WriteEntry> writes_ AUTOPN_GUARDED_BY(merge_mutex_);
  std::unordered_map<VBoxBase*, ReadEntry> reads_ AUTOPN_GUARDED_BY(merge_mutex_);
  std::uint64_t next_stamp_ AUTOPN_GUARDED_BY(merge_mutex_) = 1;

  /// Per-tree child-concurrency budget (limit c); only the root's is used.
  util::ForkBudget budget_;

  /// Set on roots created by Stm::read_only(); writes anywhere in the tree
  /// then throw std::logic_error (checked in write_raw via the root).
  bool read_only_ = false;

  /// Set on roots running the starvation-escalation path (holding the
  /// commit mutex). Failpoint sites skip injection for escalated trees so
  /// an armed fault cannot sabotage the guaranteed-completion path.
  bool escalated_ = false;
};

// ---- typed VBox accessors (need the full Tx definition) --------------------

template <typename T>
T VBox<T>::read(Tx& tx) const {
  return *static_cast<const T*>(tx.read_raw(*this).get());
}

template <typename T>
void VBox<T>::write(Tx& tx, T value) const {
  tx.write_raw(*this, std::make_shared<const T>(std::move(value)));
}

}  // namespace autopn::stm

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
//   1. X's own write set (deltas materialized over the levels below);
//   2. X's cached reads (repeatable reads within one attempt);
//   3. nearest-ancestor write sets, walking towards the root (each guarded by
//      the ancestor's merge mutex, since X's siblings commit-merge into those
//      sets concurrently);
//   4. the global version chain at the root snapshot.
//
// Two kinds of read are tracked (stm/predicate.hpp):
//   * exact reads (read_raw) — the classic box-granularity entry: the read
//     entry remembers every ancestor write it consumed (owner + stamp) and
//     whether it bottomed out in the global chain, and commit-time
//     revalidation requires the box untouched (stamp equality at each merge
//     level, version <= snapshot at top level);
//   * semantic reads (read_semantic + add_predicate) — the container
//     registers a PredicateBase instead; revalidation re-evaluates the
//     predicate against the then-current value at each serialization point,
//     so disjoint-key operations on a shared box no longer conflict.
//
// Child commit merges the child's write set into the parent under the
// parent's merge mutex after validating the child's exact reads (stamps) and
// predicates (overlaps/holds against what siblings merged since) — deltas
// compose by op-log concatenation with fresh stamps. Reads and predicates of
// higher ancestors and of global state are propagated upwards and validated
// when the enclosing transaction itself commits (compositional validation).
// Top-level commit materializes the global read set, the predicate set and
// the write set (values and deltas) into a CommitRequest and hands it to the
// Stm's CommitManager, which validates both against the version chains /
// newest committed values and installs new versions under its commit mutex
// (see stm/commit_manager.hpp).

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <mutex>
#include <utility>
#include <vector>

#include "stm/exceptions.hpp"
#include "stm/predicate.hpp"
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
  /// records an exact (box-granularity) read. VBox<T>::read is the typed
  /// entry point.
  [[nodiscard]] std::shared_ptr<const void> read_raw(const VBoxBase& box);

  /// Untyped transactional write (buffered full overwrite).
  void write_raw(const VBoxBase& box, std::shared_ptr<const void> value);

  // ---- semantic (datatype-aware) tracking -----------------------------

  /// Semantic read: resolves the value visible to this transaction (pending
  /// deltas materialized) WITHOUT recording an exact read. The caller must
  /// follow up with add_predicate() describing what it actually depends on;
  /// the resolution provenance is cached so the predicate can be anchored at
  /// the level whose tentative write it consumed.
  [[nodiscard]] std::shared_ptr<const void> read_semantic(const VBoxBase& box);

  /// Appends a datatype op log to the box's write entry (composing with any
  /// pending delta or materializing over a pending full value). The delta is
  /// applied to the newest committed value at install time.
  void write_delta(const VBoxBase& box, std::unique_ptr<DeltaBase> delta);

  /// Registers a semantic predicate for a box previously resolved with
  /// read_semantic, anchored at the levels that resolution consumed. No-ops
  /// when the box is already covered by an exact read (strictly stronger).
  /// When an ancestor's *tentative* op may have determined the guarded fact
  /// (the predicate overlaps() one of the resolution's ancestor deltas), the
  /// predicate becomes tree-local: validated at each merge level but never
  /// against committed state — by top-level commit the deciding op has
  /// merged into the root's own write set and will install, so a
  /// committed-state check would always falsely fail.
  void add_predicate(const VBoxBase& box,
                     std::shared_ptr<const PredicateBase> predicate);

  /// This transaction's own pending delta on `box` (nullptr when none, or
  /// when the pending write is a full value). Containers use it to tell
  /// self-determined facts (no predicate needed) from inherited ones.
  [[nodiscard]] const DeltaBase* pending_delta(const VBoxBase& box) const;

  /// True when this transaction has a pending *full overwrite* of `box` —
  /// every fact about the box is then self-determined and needs no
  /// predicate.
  [[nodiscard]] bool has_pending_overwrite(const VBoxBase& box) const;

  /// Number of entries in the write set (diagnostics).
  [[nodiscard]] std::size_t write_set_size() const noexcept { return writes_.size(); }

  /// Number of exact read-set entries (diagnostics).
  [[nodiscard]] std::size_t read_set_size() const noexcept { return reads_.size(); }

  /// Number of registered semantic predicates (diagnostics).
  [[nodiscard]] std::size_t predicate_count() const noexcept { return preds_.size(); }

 private:
  friend class Stm;

  struct WriteEntry {
    /// Pending full overwrite; null for delta-only entries. A full value
    /// always subsumes (drops) any older delta on the same box.
    std::shared_ptr<const void> value;
    /// Pending op log, applied to the newest committed value at install
    /// time; null for full-value entries.
    std::shared_ptr<DeltaBase> delta;
    std::uint64_t stamp;  ///< parent-local monotone stamp; bumped on merge
  };

  /// Levels whose pending write entries a resolution consumed, nearest
  /// first: (owning transaction, its entry's stamp at read time).
  using OwnerList = std::vector<std::pair<Tx*, std::uint64_t>>;

  /// One resolved read: the cached materialized value (repeatable within the
  /// attempt) plus provenance for commit-time revalidation. Exact entries
  /// revalidate structurally (stamp per owner level, version at top);
  /// semantic resolutions share the struct but live in sem_reads_ and are
  /// revalidated through predicates instead.
  struct ReadEntry {
    std::shared_ptr<const void> value;
    OwnerList owners;
    bool global_base = false;  ///< resolution reached the global chain
    /// Snapshots (clones) of the ancestor deltas the resolution applied,
    /// kept so add_predicate can ask a predicate whether a tentative op may
    /// have determined its fact (the tree-local test).
    std::vector<std::shared_ptr<const DeltaBase>> anc_deltas;
  };

  struct PredEntry {
    std::shared_ptr<const PredicateBase> pred;
    OwnerList owners;
    bool global_base = false;
  };

  /// `child_limit` sizes the tree's budget; only a root's is used.
  Tx(Stm& stm, Tx* parent, std::uint64_t snapshot, std::size_t child_limit = 1);

  /// One child of run_children: runs `body` in a fresh child transaction
  /// and merges it, retrying on sibling conflicts up to the retry budget.
  void run_child(const std::function<void(Tx&)>& body);

  /// Resolves the value visible to this transaction ABOVE its own write set:
  /// nearest-ancestor entries (materializing pending deltas) down to the
  /// global chain at the root snapshot. Fills owners/global_base provenance.
  [[nodiscard]] ReadEntry resolve_above(VBoxBase* box);

  /// Shared body of read_raw/read_semantic: the cached-or-resolved base
  /// value for `box` from the given cache map, with this tx's own pending
  /// delta (if any) materialized on top of the returned value by the caller.
  [[nodiscard]] const ReadEntry& base_entry(
      VBoxBase* box, std::unordered_map<VBoxBase*, ReadEntry>& cache);

  /// Validates this child's exact reads and predicates against the parent's
  /// current write set and merges writes/reads/predicates upwards. Throws
  /// ConflictError on a sibling conflict.
  void commit_into_parent();

  /// Top-level commit: validate global reads + predicates, install writes
  /// (values and deltas). Throws ConflictError on validation failure.
  void commit_top_level();

  Stm* stm_;
  Tx* parent_;
  Tx* root_;
  std::uint64_t snapshot_;
  int depth_;

  // merge_mutex_ guards writes_/reads_/sem_reads_/preds_/next_stamp_ when
  // the transaction is suspended in run_children and its children read from
  // or merge into it. While the transaction itself runs, nobody else touches
  // its sets, but children lock unconditionally for simplicity (uncontended
  // fast path).
  std::mutex merge_mutex_;
  std::unordered_map<VBoxBase*, WriteEntry> writes_ AUTOPN_GUARDED_BY(merge_mutex_);
  std::unordered_map<VBoxBase*, ReadEntry> reads_ AUTOPN_GUARDED_BY(merge_mutex_);
  /// Semantic resolution cache: same shape as reads_, but carries no
  /// revalidation duty itself (the registered predicates do) and is never
  /// propagated — it only pins repeatable reads and provenance.
  std::unordered_map<VBoxBase*, ReadEntry> sem_reads_ AUTOPN_GUARDED_BY(merge_mutex_);
  std::vector<PredEntry> preds_ AUTOPN_GUARDED_BY(merge_mutex_);
  std::uint64_t next_stamp_ AUTOPN_GUARDED_BY(merge_mutex_) = 1;

  /// Per-tree child-concurrency budget (limit c); only the root's is used.
  util::ForkBudget budget_;

  /// Set on roots created by Stm::read_only(); writes anywhere in the tree
  /// then throw std::logic_error (checked in write_raw via the root).
  bool read_only_ = false;

  /// Set on roots running the starvation-escalation path (exclusive of all
  /// other commits). Failpoint sites skip injection for escalated trees so
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

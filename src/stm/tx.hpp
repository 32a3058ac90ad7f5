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
// In a read-only tree (Stm::read_only) nothing is written, so steps 1–3
// can never find B: every read goes straight to the chain at the root
// snapshot and records nothing. The root's registered snapshot keeps that
// body reachable, and a snapshot read never needs validating.
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
// (compositional validation). Top-level commit hands the root's entries to
// the Stm's CommitManager, which validates the reads against the version
// chains and installs the written bodies under its commit mutex (see
// stm/commit_manager.hpp).
//
// Value ownership: a write builds one ValueBody<T>, which never changes
// after. A written entry owns its body; a read entry borrows a chain body
// (kept alive by the root's registered snapshot) or an ancestor's pending
// one. A pending body that is replaced — by a rewrite in the same
// transaction, or by a child's merged write while siblings may still borrow
// it — goes on its owner's retire list, chained through its unused `next`.
// A transaction frees that list and the bodies it still owns when it ends;
// a merge hands the child's bodies to the parent, and the top-level install
// hands the root's to the chains. So VBox<T>::read's reference stays valid
// and unchanged until the attempt ends.
//
// Bookkeeping stays with the thread: a Tx is built and destroyed on one
// thread's stack. When it ends, its box set's storage, cleared, passes to the
// next Tx begun on that thread (root, retry or child). A thread keeps up to
// kSpareSets (tx.cpp), enough for its nesting depth, and frees storage for
// more than kSpareSetMaxEntries entries, so a bulk load is not held on to.
// Reads and writes are counted in the Tx and added to the Stm's statistics
// once, when it ends, committed or aborted.

#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "stm/commit_manager.hpp"
#include "stm/exceptions.hpp"
#include "stm/vbox.hpp"
#include "util/function_ref.hpp"
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

  /// Runs body(child, i) for i in [0, count), each in a child transaction
  /// of this transaction, and returns once all have committed. The calling
  /// thread runs the children itself, in order; idle workers of the Stm's
  /// nested-transaction pool steal the rest in parallel, as far as the
  /// actuator's per-tree limit `c` (threads running inside this tree at
  /// once, the caller's included) allows. A child that hits a sibling
  /// conflict is retried alone.
  void run_children(std::size_t count,
                    util::FunctionRef<void(Tx&, std::size_t)> body);

  /// The same, one child per element of `bodies`.
  void run_children(std::vector<std::function<void(Tx&)>> bodies) {
    run_children(bodies.size(), [&](Tx& child, std::size_t i) { bodies[i](child); });
  }

  /// Requests an abort-and-retry of this transaction attempt.
  [[noreturn]] void retry() { throw ConflictError{ConflictKind::kExplicitRetry}; }

  /// True for a top-level transaction.
  [[nodiscard]] bool is_top_level() const noexcept { return parent_ == nullptr; }

  /// Nesting depth: 0 for top-level, 1 for its children, ...
  [[nodiscard]] int depth() const noexcept { return depth_; }

  /// The root snapshot all global reads in this tree resolve against.
  [[nodiscard]] std::uint64_t snapshot() const noexcept { return snapshot_; }

  /// Number of boxes this transaction has written (diagnostics).
  [[nodiscard]] std::size_t write_set_size() const noexcept;

  /// Number of boxes in the read set (diagnostics); 0 in a read-only tree.
  [[nodiscard]] std::size_t read_set_size() const noexcept;

  /// Entries a box set scans linearly before it builds its index.
  static constexpr std::size_t kLinearSetMax = 8;

  /// Frees the bodies it still owns; adds its reads and writes to the stats.
  ~Tx();

 private:
  friend class Stm;
  template <typename T>
  friend class VBox;

  using Entry = TxEntry;

  /// The entries of one transaction, keyed by box, in insertion order. Up
  /// to kLinearSetMax entries a lookup scans them; past that it probes
  /// `index_`, a power-of-two table of entry positions + 1 (0 = empty slot)
  /// kept at most half full and rebuilt on growth. Neither allocates per
  /// entry, and the storage is reused from set to set on one thread.
  class BoxSet {
   public:
    /// Takes over the storage a set that ended on this thread left, if any.
    BoxSet() noexcept;
    /// Frees the entries' bodies and leaves the storage to the next set.
    ~BoxSet();
    BoxSet(const BoxSet&) = delete;
    BoxSet& operator=(const BoxSet&) = delete;

    [[nodiscard]] Entry* find(const VBoxBase* box) noexcept;
    /// Appends `entry`, whose box must not be in the set yet. The returned
    /// reference is valid until the next insertion.
    Entry& insert(Entry&& entry);
    Entry& find_or_insert(VBoxBase* box) {
      if (Entry* entry = find(box)) return *entry;
      return insert(Entry{.box = box});
    }
    [[nodiscard]] std::vector<Entry>& entries() noexcept { return entries_; }
    [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
      return entries_;
    }

   private:
    [[nodiscard]] std::size_t slot_of(const VBoxBase* box) const noexcept;
    void index(std::uint32_t position) noexcept;
    void rebuild(std::size_t slots);

    std::vector<Entry> entries_;
    std::vector<std::uint32_t> index_;
    int shift_ = 64;  ///< 64 - log2(index_.size())
  };

  /// `child_limit` sizes the tree's budget; only a root's is used.
  Tx(Stm& stm, Tx* parent, std::uint64_t snapshot, std::size_t child_limit = 1);

  /// Child `index` of run_children: runs body(child, index) in a fresh child
  /// transaction and merges it, retrying on sibling conflicts up to the
  /// retry budget.
  void run_child(util::FunctionRef<void(Tx&, std::size_t)> body,
                 std::size_t index);

  /// Untyped access behind VBox<T>: the body this transaction sees (recorded
  /// in its read set), and a buffered full overwrite of `box`.
  [[nodiscard]] const Body* read_body(const VBoxBase& box);
  void write_body(const VBoxBase& box, BodyPtr body);

  /// Resolves the value visible to this transaction ABOVE its own write set
  /// (the nearest ancestor entry, else the global chain at the root
  /// snapshot), as the read entry to record.
  [[nodiscard]] Entry resolve_above(VBoxBase* box);

  /// The body of `box` in the global chain at the root snapshot; throws
  /// std::logic_error when the box was never seeded.
  [[nodiscard]] const Body* read_at_snapshot(const VBoxBase* box) const;

  /// Keeps a replaced pending body, which may be borrowed, until this ends.
  void retire(Body* body) noexcept;

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
  /// Reads and writes of this transaction, added to the Stm's stats by ~Tx.
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;

  // merge_mutex_ guards set_/next_stamp_/retired_ when the transaction is
  // suspended in run_children and its children read from or merge into it.
  // While the transaction itself runs, nobody else touches its set, but
  // children lock unconditionally for simplicity (uncontended fast path).
  std::mutex merge_mutex_;
  BoxSet set_ AUTOPN_GUARDED_BY(merge_mutex_);
  std::uint64_t next_stamp_ AUTOPN_GUARDED_BY(merge_mutex_) = 1;
  /// Replaced pending bodies, newest first, chained through Body::next.
  Body* retired_ AUTOPN_GUARDED_BY(merge_mutex_) = nullptr;

  /// Per-tree child-concurrency budget (limit c); only the root's is used.
  util::ForkBudget budget_;

  /// Set on roots created by Stm::read_only(); writes anywhere in the tree
  /// then throw std::logic_error (checked in write_body via the root).
  bool read_only_ = false;

  /// Set on roots running the starvation-escalation path (holding the
  /// commit mutex). Failpoint sites skip injection for escalated trees so
  /// an armed fault cannot sabotage the guaranteed-completion path.
  bool escalated_ = false;
};

// ---- typed VBox accessors (need the full Tx definition) --------------------

template <typename T>
const T& VBox<T>::read(Tx& tx) const {
  return ValueBody<T>::of(tx.read_body(*this));
}

template <typename T>
void VBox<T>::write(Tx& tx, T value) const {
  tx.write_body(*this, ValueBody<T>::make(std::move(value)));
}

}  // namespace autopn::stm

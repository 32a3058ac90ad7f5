#include "stm/tx.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <utility>

#include "stm/stm.hpp"
#include "util/failpoint.hpp"

namespace autopn::stm {

namespace {

/// Box-set storage a thread keeps: how many sets, of at most how many entries.
constexpr std::size_t kSpareSets = 4;
constexpr std::size_t kSpareSetMaxEntries = 64;

/// Cleared box-set storage that transactions which ended on this thread
/// left for the next ones, in the first `count` slots.
struct SpareSets {
  std::array<std::vector<TxEntry>, kSpareSets> entries;
  std::array<std::vector<std::uint32_t>, kSpareSets> index;
  std::size_t count = 0;
};
thread_local SpareSets spare_sets;

}  // namespace

Tx::Tx(Stm& stm, Tx* parent, std::uint64_t snapshot, std::size_t child_limit)
    : stm_(&stm),
      parent_(parent),
      root_(parent != nullptr ? parent->root_ : this),
      snapshot_(snapshot),
      depth_(parent != nullptr ? parent->depth_ + 1 : 0),
      budget_(child_limit) {}

Tx::~Tx() {
  destroy_chain(retired_);
  if (reads_ != 0) stm_->counters().bump_read(reads_);
  if (writes_ != 0) stm_->counters().bump_write(writes_);
}

// ---- BoxSet ----------------------------------------------------------------

Tx::BoxSet::BoxSet() noexcept {
  SpareSets& spares = spare_sets;
  if (spares.count == 0) return;
  --spares.count;
  entries_.swap(spares.entries[spares.count]);
  index_.swap(spares.index[spares.count]);
}

Tx::BoxSet::~BoxSet() {
  entries_.clear();
  index_.clear();
  SpareSets& spares = spare_sets;
  const std::size_t capacity = entries_.capacity();
  if (capacity == 0 || capacity > kSpareSetMaxEntries || spares.count == kSpareSets) {
    return;
  }
  entries_.swap(spares.entries[spares.count]);
  index_.swap(spares.index[spares.count]);
  ++spares.count;
}

std::size_t Tx::BoxSet::slot_of(const VBoxBase* box) const noexcept {
  // Fibonacci hashing: boxes that sit at a fixed stride in memory (a TLog
  // segment, a TArray) spread over the whole table.
  return static_cast<std::size_t>(
      (reinterpret_cast<std::uintptr_t>(box) * 0x9e3779b97f4a7c15ULL) >> shift_);
}

Tx::Entry* Tx::BoxSet::find(const VBoxBase* box) noexcept {
  if (index_.empty()) {
    for (Entry& entry : entries_) {
      if (entry.box == box) return &entry;
    }
    return nullptr;
  }
  const std::size_t mask = index_.size() - 1;
  for (std::size_t slot = slot_of(box);; slot = (slot + 1) & mask) {
    const std::uint32_t position = index_[slot];
    if (position == 0) return nullptr;
    if (entries_[position - 1].box == box) return &entries_[position - 1];
  }
}

Tx::Entry& Tx::BoxSet::insert(Entry&& entry) {
  if (entries_.empty()) entries_.reserve(kLinearSetMax);
  entries_.push_back(std::move(entry));
  const std::size_t size = entries_.size();
  if (size > kLinearSetMax && 2 * size > index_.size()) {
    rebuild(std::max<std::size_t>(4 * kLinearSetMax, 2 * index_.size()));
  } else if (!index_.empty()) {
    index(static_cast<std::uint32_t>(size));
  }
  return entries_.back();
}

void Tx::BoxSet::index(std::uint32_t position) noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = slot_of(entries_[position - 1].box);
  while (index_[slot] != 0) slot = (slot + 1) & mask;
  index_[slot] = position;
}

void Tx::BoxSet::rebuild(std::size_t slots) {
  index_.assign(slots, 0);
  shift_ = 64 - std::countr_zero(slots);
  for (std::uint32_t position = 1; position <= entries_.size(); ++position) {
    index(position);
  }
}

// ---- Tx ----------------------------------------------------------------------

std::size_t Tx::write_set_size() const noexcept {
  return static_cast<std::size_t>(
      std::ranges::count_if(set_.entries(), &Entry::written));
}

std::size_t Tx::read_set_size() const noexcept {
  return static_cast<std::size_t>(
      std::ranges::count_if(set_.entries(), &Entry::read));
}

const Body* Tx::read_at_snapshot(const VBoxBase* box) const {
  const Body* body = box->body_at(root_->snapshot_);
  if (body == nullptr) {
    throw std::logic_error{"transactional read of an uninitialized VBox"};
  }
  return body;
}

void Tx::retire(Body* body) noexcept {
  body->next.store(retired_, std::memory_order_relaxed);
  retired_ = body;
}

Tx::Entry Tx::resolve_above(VBoxBase* box) {
  for (Tx* anc = parent_; anc != nullptr; anc = anc->parent_) {
    std::scoped_lock lock{anc->merge_mutex_};
    if (const Entry* entry = anc->set_.find(box);
        entry != nullptr && entry->written()) {
      return Entry{.box = box, .seen = entry->body(), .owner = anc,
                   .read_stamp = entry->write_stamp};
    }
  }
  return Entry{.box = box, .seen = read_at_snapshot(box)};
}

const Body* Tx::read_body(const VBoxBase& cbox) {
  auto* box = const_cast<VBoxBase*>(&cbox);
  ++reads_;

  // A read-only tree writes nothing, so only the chain can hold the box.
  if (root_->read_only_) return read_at_snapshot(box);
  // 1.–2. own (tentative) writes win, then cached reads (repeatable within
  // one attempt regardless of concurrent sibling merges — the conflict
  // surfaces at commit-time validation): either is the entry's body.
  if (const Entry* entry = set_.find(box)) return entry->body();
  // 3.–4. the nearest ancestor write towards the root, else the global chain.
  return set_.insert(resolve_above(box)).body();
}

void Tx::write_body(const VBoxBase& cbox, BodyPtr body) {
  if (root_->read_only_) {
    throw std::logic_error{"write inside a read-only transaction"};
  }
  auto* box = const_cast<VBoxBase*>(&cbox);
  ++writes_;
  Entry& entry = set_.find_or_insert(box);
  if (entry.written()) {
    // This transaction may still hold a reference into the body it replaces.
    retire(entry.pending.release());
  } else {
    entry.write_stamp = next_stamp_++;
  }
  entry.pending = std::move(body);
}

void Tx::commit_into_parent() {
  // Chaos hook: forge a sibling conflict on the child merge path. Escalated
  // trees are exempt so the guaranteed-completion path cannot be sabotaged.
  if (!root_->escalated_) {
    AUTOPN_FAILPOINT("stm.child.merge",
                     throw ConflictError{ConflictKind::kInjected});
  }
  Tx* parent = parent_;
  std::scoped_lock lock{parent->merge_mutex_};

  // ---- phase 1: validate (nothing mutated until everything passes) -----
  //
  // Reads against sibling commits that merged into the parent since this
  // child started:
  //  * a read that consumed the parent's entry needs that entry's writer
  //    stamp unchanged;
  //  * a read resolved without the parent's involvement needs the box still
  //    absent from the parent's write set (had it been there at read time,
  //    the ancestor walk would have found it first, so presence now proves
  //    a sibling wrote after our read);
  //  * propagation collision: if the parent already tracks a read of the
  //    same box that resolved elsewhere, the tree observed the box in two
  //    distinct states — retry this child so it re-reads the current one.
  for (const Entry& mine : set_.entries()) {
    if (!mine.read()) continue;
    const Entry* theirs = parent->set_.find(mine.box);
    const bool parent_wrote = theirs != nullptr && theirs->written();
    if (mine.owner == parent) {
      if (!parent_wrote || theirs->write_stamp != mine.read_stamp) {
        throw ConflictError{ConflictKind::kSiblingWrite};
      }
      continue;
    }
    if (parent_wrote) throw ConflictError{ConflictKind::kSiblingWrite};
    if (theirs != nullptr && theirs->read() &&
        (theirs->owner != mine.owner || theirs->read_stamp != mine.read_stamp)) {
      throw ConflictError{ConflictKind::kStaleReRead};
    }
  }

  // ---- phase 2: merge (this is the serialization point of the child
  // among its siblings) ---------------------------------------------------
  //
  // Writes land in the parent under a fresh parent stamp. Reads resolved
  // above the parent propagate upwards; they are validated when the parent
  // itself commits one level up (compositional validation). Reads of the
  // parent's own tentative writes are discharged here: the stamp check
  // above was their last obligation — later siblings serialize after this
  // child, and the parent itself resumes only after all children join. A
  // propagated read never replaces the parent's cached read: an existing
  // read holds the same state.
  for (Entry& mine : set_.entries()) {
    if (!mine.written() && mine.owner == parent) continue;
    Entry& theirs = parent->set_.find_or_insert(mine.box);
    if (mine.written()) {
      if (theirs.written()) parent->retire(theirs.pending.release());
      theirs.pending = std::move(mine.pending);
      theirs.write_stamp = parent->next_stamp_++;
    }
    if (mine.read() && mine.owner != parent && !theirs.read()) {
      theirs.seen = mine.seen;
      theirs.owner = mine.owner;
      theirs.read_stamp = mine.read_stamp;
    }
  }
}

void Tx::run_children(std::size_t count,
                      util::FunctionRef<void(Tx&, std::size_t)> body) {
  // Help-first: this thread runs the children itself, in order, on the
  // tree's unit it already holds, while idle pool workers steal the rest
  // only as far as the tree's budget c leaves room (util/thread_pool.hpp).
  stm_->pool().fork_join(root_->budget_, count,
                         [&](std::size_t i) { run_child(body, i); });
}

void Tx::run_child(util::FunctionRef<void(Tx&, std::size_t)> body,
                   std::size_t index) {
  unsigned attempt = 0;
  const unsigned budget = stm_->config().retry_budget;
  for (;;) {
    Tx child{*stm_, this, snapshot_};
    try {
      body(child, index);
      child.commit_into_parent();
      stm_->counters().bump_child_commit();
      return;
    } catch (const ConflictError& conflict) {
      stm_->counters().bump_child_abort(conflict.kind());
      ++attempt;
      // The child is starving among its siblings: give up on the
      // partial-abort retry and surface the conflict to the top level,
      // whose own budget guarantees completion (escalated, if need be).
      // Without this bound a pathologically conflicting child pins its
      // whole tree in run_children forever.
      if (budget != 0 && attempt >= budget) throw;
      stm_->backoff(attempt);
    }
  }
}

void Tx::commit_top_level(const CommitManager::Exclusive* held) {
  // Transactions with no writes commit trivially: their snapshot is a
  // consistent cut of the multi-version store.
  if (write_set_size() == 0) return;

  // Chaos hook: forge a top-level validation failure just before the commit
  // manager runs the real protocol. Skipped for escalated attempts — under
  // the held commit mutex the retry loop relies on commits not failing.
  if (!escalated_) {
    AUTOPN_FAILPOINT("stm.commit.validate",
                     throw ConflictError{ConflictKind::kInjected});
  }

  // Every read left at the root resolved in the global chain: reads of a
  // tree's own tentative writes were discharged at the level that owns them.
  if (held != nullptr) {
    stm_->commit_manager().commit(snapshot_, set_.entries(), *held);
  } else {
    stm_->commit_manager().commit(snapshot_, set_.entries());
  }
}

}  // namespace autopn::stm

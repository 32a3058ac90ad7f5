#include "stm/tx.hpp"

#include <stdexcept>
#include <utility>

#include "stm/stm.hpp"
#include "util/failpoint.hpp"

namespace autopn::stm {

Tx::Tx(Stm& stm, Tx* parent, std::uint64_t snapshot, std::size_t child_limit)
    : stm_(&stm),
      parent_(parent),
      root_(parent != nullptr ? parent->root_ : this),
      snapshot_(snapshot),
      depth_(parent != nullptr ? parent->depth_ + 1 : 0),
      budget_(child_limit) {}

Tx::ReadEntry Tx::resolve_above(VBoxBase* box) {
  for (Tx* anc = parent_; anc != nullptr; anc = anc->parent_) {
    std::scoped_lock lock{anc->merge_mutex_};
    if (auto it = anc->writes_.find(box); it != anc->writes_.end()) {
      return ReadEntry{it->second.value, anc, it->second.stamp};
    }
  }
  const Body* body = box->body_at(root_->snapshot_);
  if (body == nullptr) {
    throw std::logic_error{"transactional read of an uninitialized VBox"};
  }
  return ReadEntry{body->value.read(), nullptr, 0};
}

std::shared_ptr<const void> Tx::read_raw(const VBoxBase& cbox) {
  auto* box = const_cast<VBoxBase*>(&cbox);
  stm_->counters().bump_read();

  // 1. own (tentative) writes win.
  if (auto it = writes_.find(box); it != writes_.end()) return it->second.value;
  // 2.–4. cached (repeatable within one attempt regardless of concurrent
  // sibling merges — the conflict surfaces at commit-time validation), else
  // the nearest ancestor write towards the root, else the global chain.
  if (auto it = reads_.find(box); it != reads_.end()) return it->second.value;
  return reads_.emplace(box, resolve_above(box)).first->second.value;
}

void Tx::write_raw(const VBoxBase& cbox, std::shared_ptr<const void> value) {
  if (root_->read_only_) {
    throw std::logic_error{"write inside a read-only transaction"};
  }
  auto* box = const_cast<VBoxBase*>(&cbox);
  stm_->counters().bump_write();
  auto [it, inserted] = writes_.try_emplace(box, WriteEntry{nullptr, next_stamp_});
  if (inserted) {
    ++next_stamp_;
  }
  it->second.value = std::move(value);
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
  for (auto& [box, read_entry] : reads_) {
    auto write_it = parent->writes_.find(box);
    if (read_entry.owner == parent) {
      if (write_it == parent->writes_.end() ||
          write_it->second.stamp != read_entry.stamp) {
        throw ConflictError{ConflictKind::kSiblingWrite};
      }
      continue;
    }
    if (write_it != parent->writes_.end()) {
      throw ConflictError{ConflictKind::kSiblingWrite};
    }
    if (auto it = parent->reads_.find(box); it != parent->reads_.end() &&
        (it->second.owner != read_entry.owner ||
         it->second.stamp != read_entry.stamp)) {
      throw ConflictError{ConflictKind::kStaleReRead};
    }
  }

  // ---- phase 2: merge (this is the serialization point of the child
  // among its siblings) ---------------------------------------------------
  for (auto& [box, write_entry] : writes_) {
    parent->writes_[box] =
        WriteEntry{std::move(write_entry.value), parent->next_stamp_++};
  }
  // Propagate reads resolved above the parent upwards; they are validated
  // when the parent itself commits one level up (compositional validation).
  // Reads of the parent's own tentative writes are discharged here: the
  // stamp check above was their last obligation — later siblings serialize
  // after this child, and the parent itself resumes only after all children
  // join.
  for (auto& [box, read_entry] : reads_) {
    if (read_entry.owner == parent) continue;
    parent->reads_.emplace(box, std::move(read_entry));
  }
}

void Tx::run_children(std::vector<std::function<void(Tx&)>> bodies) {
  // Help-first: this thread runs the children itself, in order, on the
  // tree's unit it already holds, while idle pool workers steal the rest
  // only as far as the tree's budget c leaves room (util/thread_pool.hpp).
  stm_->pool().fork_join(root_->budget_, bodies.size(),
                         [&](std::size_t i) { run_child(bodies[i]); });
}

void Tx::run_child(const std::function<void(Tx&)>& body) {
  unsigned attempt = 0;
  const unsigned budget = stm_->config().retry_budget;
  for (;;) {
    Tx child{*stm_, this, snapshot_};
    try {
      body(child);
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
  if (writes_.empty()) return;

  // Chaos hook: forge a top-level validation failure just before the commit
  // manager runs the real protocol. Skipped for escalated attempts — under
  // the held commit mutex the retry loop relies on commits not failing.
  if (!escalated_) {
    AUTOPN_FAILPOINT("stm.commit.validate",
                     throw ConflictError{ConflictKind::kInjected});
  }

  // Materialize the read/write sets once and hand the request to the commit
  // manager, which owns the serialization. Every read left at the root
  // resolved in the global chain: reads of a tree's own tentative writes
  // were discharged at the level that owns the write.
  CommitRequest request;
  request.snapshot = snapshot_;
  request.read_boxes.reserve(reads_.size());
  for (const auto& [box, read_entry] : reads_) request.read_boxes.push_back(box);
  request.writes.reserve(writes_.size());
  for (auto& [box, write_entry] : writes_) {
    request.writes.push_back(CommitWrite{box, std::move(write_entry.value)});
  }
  if (held != nullptr) {
    stm_->commit_manager().commit(request, *held);
  } else {
    stm_->commit_manager().commit(request);
  }
}

}  // namespace autopn::stm

#include "stm/tx.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "stm/commit_manager.hpp"
#include "stm/stm.hpp"
#include "util/failpoint.hpp"

namespace autopn::stm {

namespace {

/// Finds the (owner, stamp) pair for `owner` in an owner list.
template <typename Owners>
auto find_owner(Owners& owners, const void* owner) {
  return std::find_if(owners.begin(), owners.end(),
                      [owner](const auto& pair) { return pair.first == owner; });
}

}  // namespace

Tx::Tx(Stm& stm, Tx* parent, std::uint64_t snapshot, std::size_t child_limit)
    : stm_(&stm),
      parent_(parent),
      root_(parent != nullptr ? parent->root_ : this),
      snapshot_(snapshot),
      depth_(parent != nullptr ? parent->depth_ + 1 : 0),
      budget_(child_limit) {}

Tx::ReadEntry Tx::resolve_above(VBoxBase* box) {
  ReadEntry entry;
  // Deltas found on the way down to a base value, nearest ancestor first.
  // Cloned under the owning ancestor's mutex: the live object keeps growing
  // as that ancestor's other children merge ops into it.
  std::vector<std::unique_ptr<DeltaBase>> pending;
  std::shared_ptr<const void> base;
  bool have_base = false;
  for (Tx* anc = parent_; anc != nullptr; anc = anc->parent_) {
    std::scoped_lock lock{anc->merge_mutex_};
    auto it = anc->writes_.find(box);
    if (it == anc->writes_.end()) continue;
    entry.owners.emplace_back(anc, it->second.stamp);
    if (it->second.delta != nullptr) {
      pending.push_back(it->second.delta->clone());
      continue;  // a delta needs the base beneath it
    }
    base = it->second.value;
    have_base = true;
    break;
  }
  if (!have_base) {
    const Body* body = box->body_at(root_->snapshot_);
    if (body == nullptr && pending.empty()) {
      throw std::logic_error{"transactional read of an uninitialized VBox"};
    }
    if (body != nullptr) base = body->value.read();
    entry.global_base = true;
  }
  // Materialize outermost-first so ops apply in tree serialization order;
  // commit_version 0 stamps touched entries as tentative (kTentativeEver).
  for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
    base = (*it)->apply(base.get(), 0);
  }
  entry.anc_deltas.reserve(pending.size());
  for (auto& delta : pending) {
    entry.anc_deltas.emplace_back(std::move(delta));
  }
  entry.value = std::move(base);
  return entry;
}

const Tx::ReadEntry& Tx::base_entry(
    VBoxBase* box, std::unordered_map<VBoxBase*, ReadEntry>& cache) {
  if (auto it = cache.find(box); it != cache.end()) return it->second;
  // The sibling cache may already pin a resolution for this box; reuse it so
  // exact and semantic reads within one attempt always agree (and an exact
  // read silently promotes an earlier semantic resolution).
  auto& other = (&cache == &reads_) ? sem_reads_ : reads_;
  if (auto it = other.find(box); it != other.end()) {
    return cache.emplace(box, it->second).first->second;
  }
  return cache.emplace(box, resolve_above(box)).first->second;
}

std::shared_ptr<const void> Tx::read_raw(const VBoxBase& cbox) {
  auto* box = const_cast<VBoxBase*>(&cbox);
  stm_->counters().bump_read();

  // 1. own (tentative) writes win.
  if (auto it = writes_.find(box); it != writes_.end()) {
    if (it->second.delta == nullptr) return it->second.value;
    // Delta-only entry: the result also depends on the base beneath it, so
    // an exact read of the base is recorded.
    const ReadEntry& base = base_entry(box, reads_);
    return it->second.delta->apply(base.value.get(), 0);
  }
  // 2.–4. cached (repeatable within one attempt regardless of concurrent
  // sibling merges — the conflict surfaces at commit-time validation), else
  // nearest-ancestor writes towards the root, else the global chain.
  return base_entry(box, reads_).value;
}

std::shared_ptr<const void> Tx::read_semantic(const VBoxBase& cbox) {
  auto* box = const_cast<VBoxBase*>(&cbox);
  stm_->counters().bump_read();

  if (auto it = writes_.find(box); it != writes_.end()) {
    if (it->second.delta == nullptr) return it->second.value;
    const ReadEntry& base = base_entry(box, sem_reads_);
    return it->second.delta->apply(base.value.get(), 0);
  }
  return base_entry(box, sem_reads_).value;
}

void Tx::write_raw(const VBoxBase& cbox, std::shared_ptr<const void> value) {
  if (root_->read_only_) {
    throw std::logic_error{"write inside a read-only transaction"};
  }
  auto* box = const_cast<VBoxBase*>(&cbox);
  stm_->counters().bump_write();
  auto [it, inserted] = writes_.try_emplace(box, WriteEntry{nullptr, nullptr, next_stamp_});
  if (inserted) {
    ++next_stamp_;
  }
  it->second.value = std::move(value);
  it->second.delta = nullptr;  // a full value subsumes any pending delta
}

void Tx::write_delta(const VBoxBase& cbox, std::unique_ptr<DeltaBase> delta) {
  if (root_->read_only_) {
    throw std::logic_error{"write inside a read-only transaction"};
  }
  auto* box = const_cast<VBoxBase*>(&cbox);
  stm_->counters().bump_write();
  auto it = writes_.find(box);
  if (it == writes_.end()) {
    const std::uint64_t stamp = next_stamp_++;
    delta->restamp(stamp);
    writes_.emplace(box, WriteEntry{nullptr, std::move(delta), stamp});
    return;
  }
  if (it->second.value != nullptr) {
    // Delta over our own full value: materialize immediately — the entry
    // stays a full overwrite, which subsumes the op.
    it->second.value = delta->apply(it->second.value.get(), 0);
    return;
  }
  it->second.delta->absorb(*delta, it->second.stamp);
}

void Tx::add_predicate(const VBoxBase& cbox,
                       std::shared_ptr<const PredicateBase> predicate) {
  auto* box = const_cast<VBoxBase*>(&cbox);
  // An exact read of the box subsumes any predicate over its value.
  if (reads_.contains(box)) return;
  auto it = sem_reads_.find(box);
  if (it == sem_reads_.end()) {
    throw std::logic_error{"add_predicate without a prior read_semantic"};
  }
  // Tree-local test: if any ancestor op the resolution applied may have
  // determined this fact (map ops are blind upserts/erases, so an op on the
  // guarded key *fully* determines its state), the fact is justified by the
  // tree's own pending write — it must not be checked against committed
  // state, where that write has not landed yet.
  bool tree_local = false;
  for (const auto& delta : it->second.anc_deltas) {
    if (predicate->overlaps(*delta, 0)) {
      tree_local = true;
      break;
    }
  }
  PredEntry entry{std::move(predicate), it->second.owners,
                  tree_local ? false : it->second.global_base};
  if (entry.owners.empty() && !entry.global_base) return;  // nothing to validate
  for (const auto& existing : preds_) {
    if (existing.pred->box() == box && existing.pred->same_as(*entry.pred) &&
        existing.owners == entry.owners &&
        existing.global_base == entry.global_base) {
      return;
    }
  }
  preds_.push_back(std::move(entry));
}

const DeltaBase* Tx::pending_delta(const VBoxBase& cbox) const {
  auto* box = const_cast<VBoxBase*>(&cbox);
  auto it = writes_.find(box);
  return it != writes_.end() ? it->second.delta.get() : nullptr;
}

bool Tx::has_pending_overwrite(const VBoxBase& cbox) const {
  auto* box = const_cast<VBoxBase*>(&cbox);
  auto it = writes_.find(box);
  return it != writes_.end() && it->second.value != nullptr;
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
  // Exact reads against sibling commits that merged into the parent since
  // this child started:
  //  * a level this child consumed a parent entry from must carry an
  //    unchanged writer stamp;
  //  * boxes resolved without the parent's involvement must not have
  //    appeared in the parent's write set at all (had they been there at
  //    read time, the ancestor walk would have found them first, so presence
  //    now proves a sibling wrote after our read).
  for (auto& [box, read_entry] : reads_) {
    auto owner_it = find_owner(read_entry.owners, parent);
    auto write_it = parent->writes_.find(box);
    if (owner_it != read_entry.owners.end()) {
      if (write_it == parent->writes_.end() ||
          write_it->second.stamp != owner_it->second) {
        throw ConflictError{ConflictKind::kSiblingWrite};
      }
    } else if (write_it != parent->writes_.end()) {
      throw ConflictError{ConflictKind::kSiblingWrite};
    }
  }
  // Propagation-collision pre-check: if the parent already tracks a read of
  // the same box with *different* provenance, the tree observed the box in
  // two distinct states — retry this child so it re-reads the current one
  // (kStaleReRead). Checked before any mutation so the throw is clean.
  for (auto& [box, read_entry] : reads_) {
    OwnerList remaining = read_entry.owners;
    if (auto owner_it = find_owner(remaining, parent); owner_it != remaining.end()) {
      remaining.erase(owner_it);
    }
    if (remaining.empty() && !read_entry.global_base) continue;  // discharged
    if (auto it = parent->reads_.find(box); it != parent->reads_.end()) {
      if (it->second.owners != remaining ||
          it->second.global_base != read_entry.global_base) {
        throw ConflictError{ConflictKind::kStaleReRead};
      }
    }
  }
  // Predicates: re-evaluate semantically instead of comparing stamps. A
  // changed parent entry only aborts when the change can affect the
  // predicate's truth — ops on other keys (overlaps() == false) or a full
  // value the predicate still holds() over sail through. This is the whole
  // point of the refactor: sibling merges on shared boxes stop being
  // conflicts unless they touch what this child actually depends on.
  for (auto& pred_entry : preds_) {
    auto* box = const_cast<VBoxBase*>(pred_entry.pred->box());
    auto owner_it = find_owner(pred_entry.owners, parent);
    auto write_it = parent->writes_.find(box);
    if (owner_it != pred_entry.owners.end()) {
      if (write_it == parent->writes_.end()) {
        throw ConflictError{ConflictKind::kPredicate};  // entry vanished
      }
      if (write_it->second.stamp != owner_it->second) {
        const WriteEntry& we = write_it->second;
        const bool still_valid =
            we.delta != nullptr
                ? !pred_entry.pred->overlaps(*we.delta, owner_it->second)
                : pred_entry.pred->holds(we.value.get());
        if (!still_valid) throw ConflictError{ConflictKind::kPredicate};
      }
    } else if (write_it != parent->writes_.end()) {
      // Entry appeared after our read: every op in it postdates us.
      const WriteEntry& we = write_it->second;
      const bool still_valid = we.delta != nullptr
                                   ? !pred_entry.pred->overlaps(*we.delta, 0)
                                   : pred_entry.pred->holds(we.value.get());
      if (!still_valid) throw ConflictError{ConflictKind::kPredicate};
    }
  }

  // ---- phase 2: merge (this is the serialization point of the child
  // among its siblings) ---------------------------------------------------
  for (auto& [box, write_entry] : writes_) {
    const std::uint64_t stamp = parent->next_stamp_++;
    auto it = parent->writes_.find(box);
    if (write_entry.delta != nullptr) {
      if (it == parent->writes_.end()) {
        write_entry.delta->restamp(stamp);
        parent->writes_.emplace(
            box, WriteEntry{nullptr, std::move(write_entry.delta), stamp});
      } else if (it->second.delta != nullptr) {
        it->second.delta->absorb(*write_entry.delta, stamp);
        it->second.stamp = stamp;
      } else {
        // Delta over a sibling's full value: materialize now (still
        // tentative); the entry stays a full overwrite.
        write_entry.delta->restamp(stamp);
        it->second.value = write_entry.delta->apply(it->second.value.get(), 0);
        it->second.stamp = stamp;
      }
    } else {
      auto& slot = parent->writes_[box];
      slot.value = std::move(write_entry.value);
      slot.delta = nullptr;  // a full value subsumes any pending delta
      slot.stamp = stamp;
    }
  }
  // Propagate reads/predicates not fully anchored at the parent upwards;
  // they are validated when the parent itself commits one level up
  // (compositional validation). Entries whose only dependency was the
  // parent's own tentative write are discharged here: the stamp/overlap
  // check above was their last obligation — later siblings serialize after
  // this child, and the parent itself resumes only after all children join.
  for (auto& [box, read_entry] : reads_) {
    if (auto owner_it = find_owner(read_entry.owners, parent);
        owner_it != read_entry.owners.end()) {
      read_entry.owners.erase(owner_it);
    }
    if (read_entry.owners.empty() && !read_entry.global_base) continue;
    parent->reads_.emplace(box, std::move(read_entry));
  }
  for (auto& pred_entry : preds_) {
    if (auto owner_it = find_owner(pred_entry.owners, parent);
        owner_it != pred_entry.owners.end()) {
      pred_entry.owners.erase(owner_it);
    }
    if (pred_entry.owners.empty() && !pred_entry.global_base) continue;
    auto* box = pred_entry.pred->box();
    const bool duplicate = std::any_of(
        parent->preds_.begin(), parent->preds_.end(), [&](const PredEntry& p) {
          return p.pred->box() == box && p.pred->same_as(*pred_entry.pred) &&
                 p.owners == pred_entry.owners &&
                 p.global_base == pred_entry.global_base;
        });
    if (!duplicate) parent->preds_.push_back(std::move(pred_entry));
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

void Tx::commit_top_level() {
  // Transactions with no writes commit trivially: their snapshot is a
  // consistent cut of the multi-version store, and any predicates were
  // evaluated against that same cut.
  if (writes_.empty()) return;

  // Chaos hooks: forge a top-level validation failure just before the commit
  // manager runs the real protocol. Skipped for escalated attempts — under
  // exclusivity the retry loop relies on commits not failing.
  if (!escalated_) {
    AUTOPN_FAILPOINT("stm.commit.validate",
                     throw ConflictError{ConflictKind::kInjected});
    if (!preds_.empty()) {
      AUTOPN_FAILPOINT("stm.commit.validate_pred",
                       throw ConflictError{ConflictKind::kInjected});
    }
  }

  // Materialize the read/write/predicate sets once and hand the request to
  // the commit manager, which owns the serialization. By construction every
  // surviving entry at the root is anchored on committed state: owner lists
  // were popped level by level on the way up, and tree-local entries were
  // discharged at their owning level.
  CommitRequest request;
  request.snapshot = snapshot_;
  request.read_boxes.reserve(reads_.size());
  for (const auto& [box, read_entry] : reads_) {
    if (read_entry.global_base) request.read_boxes.push_back(box);
  }
  request.predicates.reserve(preds_.size());
  for (auto& pred_entry : preds_) {
    if (pred_entry.global_base) {
      request.predicates.push_back(std::move(pred_entry.pred));
    }
  }
  request.writes.reserve(writes_.size());
  for (auto& [box, write_entry] : writes_) {
    request.writes.push_back(CommitWrite{box, std::move(write_entry.value),
                                         std::move(write_entry.delta)});
  }
  stm_->commit_manager().commit(request);
}

}  // namespace autopn::stm

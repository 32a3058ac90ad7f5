#include "stm/commit_manager.hpp"

#include "stm/exceptions.hpp"
#include "util/failpoint.hpp"

namespace autopn::stm {

void CommitManager::validate_or_throw(const CommitRequest& req) const {
  for (const VBoxBase* box : req.read_boxes) {
    if (box->newest_version() > req.snapshot) {
      profiler_->note(box);
      throw ConflictError{ConflictKind::kTopLevelValidation};
    }
  }
  // Predicates re-evaluate against the newest *committed* value rather than
  // comparing versions: the box may have moved past the snapshot, but only a
  // change that flips the guarded fact (the key's entry version, a cursor
  // bound) aborts. This is where disjoint-key updates to one bucket stop
  // costing false aborts.
  for (const auto& pred : req.predicates) {
    const Body* newest = pred->box()->newest();
    if (newest == nullptr || !pred->holds(newest->value.read().get())) {
      profiler_->note(pred->box(), pred->profile_key());
      throw ConflictError{ConflictKind::kPredicate};
    }
  }
}

std::shared_ptr<const void> CommitManager::materialize(const CommitWrite& write,
                                                       std::uint64_t version) {
  if (write.delta == nullptr) return write.value;
  // Chaos hook (delay-only): stall between reading the install base and
  // producing the new value, stretching the hold time of the commit mutex.
  AUTOPN_FAILPOINT("stm.map.install");
  const Body* newest = write.box->newest();
  return write.delta->apply(
      newest != nullptr ? newest->value.read().get() : nullptr, version);
}

void CommitManager::commit(CommitRequest& req) {
  sync::ScopedLock lock{mutex_};
  validate_or_throw(req);
  const std::uint64_t version = clock_->load(std::memory_order_relaxed) + 1;
  const std::uint64_t min_active = snapshots_->min_active();
  for (auto& write : req.writes) {
    write.box->install(materialize(write, version), version, min_active);
  }
  // seq_cst publish so the snapshot registry's publish-and-validate handshake
  // (snapshot_registry.hpp) totally orders this against registrations.
  clock_->store(version, std::memory_order_seq_cst);
}

}  // namespace autopn::stm

#include "stm/commit_manager.hpp"

#include <utility>

#include "stm/exceptions.hpp"

namespace autopn::stm {

void CommitManager::validate_or_throw(const CommitRequest& req) const {
  for (const VBoxBase* box : req.read_boxes) {
    if (box->newest_version() > req.snapshot) {
      profiler_->note(box);
      throw ConflictError{ConflictKind::kTopLevelValidation};
    }
  }
}

void CommitManager::commit(CommitRequest& req) {
  const Exclusive held{mutex_};
  commit(req, held);
}

void CommitManager::commit(CommitRequest& req, const Exclusive& /*held*/) {
  validate_or_throw(req);
  const std::uint64_t version = clock_->load(std::memory_order_relaxed) + 1;
  const std::uint64_t min_active = snapshots_->min_active();
  for (auto& write : req.writes) {
    write.box->install(std::move(write.value), version, min_active);
  }
  // seq_cst publish so the snapshot registry's publish-and-validate handshake
  // (snapshot_registry.hpp) totally orders this against registrations.
  clock_->store(version, std::memory_order_seq_cst);
}

}  // namespace autopn::stm

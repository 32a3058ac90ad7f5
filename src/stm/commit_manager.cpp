#include "stm/commit_manager.hpp"

#include <utility>

#include "stm/exceptions.hpp"

namespace autopn::stm {

void CommitManager::commit(std::uint64_t snapshot, std::span<TxEntry> entries) {
  const Exclusive held{mutex_};
  commit(snapshot, entries, held);
}

void CommitManager::commit(std::uint64_t snapshot, std::span<TxEntry> entries,
                           const Exclusive& /*held*/) {
  for (const TxEntry& entry : entries) {
    if (entry.read() && entry.box->newest_version() > snapshot) {
      profiler_->note(entry.box);
      throw ConflictError{ConflictKind::kTopLevelValidation};
    }
  }
  const std::uint64_t version = clock_->load(std::memory_order_relaxed) + 1;
  const std::uint64_t min_active = snapshots_->min_active();
  for (TxEntry& entry : entries) {
    if (entry.written()) {
      entry.box->install(std::move(entry.pending), version, min_active);
    }
  }
  // seq_cst publish so the snapshot registry's publish-and-validate handshake
  // (snapshot_registry.hpp) totally orders this against registrations.
  clock_->store(version, std::memory_order_seq_cst);
}

}  // namespace autopn::stm

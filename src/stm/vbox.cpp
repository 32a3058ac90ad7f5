#include "stm/vbox.hpp"

#include "util/failpoint.hpp"

namespace autopn::stm {

void destroy_chain(Body* body) noexcept {
  while (body != nullptr) {
    Body* next = body->next.load(std::memory_order_relaxed);
    body->destroy(body);
    body = next;
  }
}

VBoxBase::~VBoxBase() { destroy_chain(head_.load(std::memory_order_relaxed)); }

const Body* VBoxBase::body_at(std::uint64_t snapshot) const noexcept {
  const Body* b = head_.load(std::memory_order_acquire);
  while (b != nullptr && b->version.read() > snapshot) {
    b = b->next.load(std::memory_order_acquire);
  }
  return b;
}

void VBoxBase::prune(Body* from, std::uint64_t min_active_snapshot) noexcept {
  // At most one pruner per box. Every install — and so every prune — runs
  // under the commit mutex, so two pruners never meet; the guard stays so
  // that pruning keeps no hidden dependence on that lock (a second pruner
  // would traverse the tail while the first truncates and frees it). Pruning
  // is an optimization, so on contention we simply skip — the next install
  // retries with a fresher (larger) min_active_snapshot and reclaims more.
  if (prune_busy_.exchange(true, std::memory_order_acquire)) return;
  // Chaos hook (delay mode): hold the prune guard — and with it the commit
  // mutex — longer, stretching commit serialization while readers traverse.
  AUTOPN_FAILPOINT("stm.vbox.prune");
  Body* keep = from;
  for (;;) {
    Body* next = keep->next.load(std::memory_order_relaxed);
    if (next == nullptr || keep->version.read() <= min_active_snapshot) break;
    keep = next;
  }
  destroy_chain(keep->next.exchange(nullptr, std::memory_order_release));
  prune_busy_.store(false, std::memory_order_release);
}

void VBoxBase::install(BodyPtr owned, std::uint64_t version,
                       std::uint64_t min_active_snapshot) {
  Body* body = owned.release();
  body->version.write() = version;
  body->next.store(head_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  head_.store(body, std::memory_order_release);

  // Prune bodies unreachable by any active snapshot: keep every body newer
  // than min_active_snapshot plus the newest body at or below it. A reader
  // with snapshot s >= min_active_snapshot stops its traversal on a retained
  // body, so freeing older ones is safe (see header contract).
  prune(body, min_active_snapshot);
}

std::size_t VBoxBase::chain_length() const noexcept {
  std::size_t n = 0;
  for (const Body* b = newest(); b != nullptr;
       b = b->next.load(std::memory_order_acquire)) {
    ++n;
  }
  return n;
}

}  // namespace autopn::stm

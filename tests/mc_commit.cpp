// Model-checks the top-level commit protocol (CommitManager) through the sync
// seam: two committers race full commits to disjoint boxes while a reader
// takes a snapshot of the clock and resolves both boxes at it, so every
// interleaving of the commit mutex, the body-chain install and the seq_cst
// clock publish against an unsynchronized reader is explored. Exhaustive
// success proves the spelled memory orders are SUFFICIENT for the protocol
// invariants (dense versions, both writes installed, every version at or
// below a published clock value visible to a reader, no data race on a
// body's plain fields) — not merely explicit.

#include <cstdint>
#include <memory>

#include "mc/explore.hpp"
#include "mc_harness.hpp"
#include "stm/commit_manager.hpp"
#include "stm/snapshot_registry.hpp"
#include "stm/stats.hpp"
#include "stm/vbox.hpp"
#include "util/sync.hpp"

namespace {

namespace mc = autopn::mc;
namespace stm = autopn::stm;
namespace sync = autopn::sync;

struct World {
  sync::Atomic<std::uint64_t> clock{0};
  stm::SnapshotRegistry registry{clock, 2};
  stm::ContentionProfiler profiler;
  stm::CommitManager manager{clock, registry, profiler};
  stm::VBox<int> box_a{0};
  stm::VBox<int> box_b{0};

  /// What the reader saw: its snapshot and, per box, the body it resolved.
  std::uint64_t snapshot = 0;
  std::uint64_t seen_version_a = 0;
  std::uint64_t seen_version_b = 0;
  int seen_a = -1;
  int seen_b = -1;
};

void commit_to(const std::shared_ptr<World>& w, stm::VBoxBase& box, int value) {
  stm::CommitRequest req;
  req.snapshot = w->clock.load(std::memory_order_seq_cst);
  req.writes.emplace_back(&box, std::make_shared<const int>(value));
  // Disjoint write sets with empty read sets never conflict.
  w->manager.commit(req);
}

void read_at_snapshot(const std::shared_ptr<World>& w) {
  w->snapshot = w->clock.load(std::memory_order_acquire);
  const stm::Body* a = w->box_a.body_at(w->snapshot);
  const stm::Body* b = w->box_b.body_at(w->snapshot);
  w->seen_version_a = a->version.read();
  w->seen_version_b = b->version.read();
  w->seen_a = *static_cast<const int*>(a->value.read().get());
  w->seen_b = *static_cast<const int*>(b->value.read().get());
}

void body() {
  auto w = std::make_shared<World>();
  mc::Thread t1{[w] { commit_to(w, w->box_a, 1); }};
  mc::Thread t2{[w] { commit_to(w, w->box_b, 2); }};
  mc::Thread reader{[w] { read_at_snapshot(w); }};
  t1.join();
  t2.join();
  reader.join();

  // Serialization invariants, checked at quiescence in EVERY interleaving.
  MC_ASSERT(w->clock.load(std::memory_order_seq_cst) == 2,
            "two commits claim exactly two versions (dense clock)");
  MC_ASSERT(w->box_a.peek() == 1 && w->box_b.peek() == 2,
            "both write sets installed");
  const std::uint64_t va = w->box_a.newest_version();
  const std::uint64_t vb = w->box_b.newest_version();
  MC_ASSERT(va != vb && va >= 1 && va <= 2 && vb >= 1 && vb <= 2,
            "each commit owns a distinct version in {1,2}");

  // Snapshot visibility: a version at or below the clock value the reader
  // loaded was installed before it was published, so the reader resolves it;
  // a later version stays invisible.
  const bool a_visible = va <= w->snapshot;
  const bool b_visible = vb <= w->snapshot;
  MC_ASSERT(w->seen_version_a == (a_visible ? va : 0) &&
                w->seen_a == (a_visible ? 1 : 0),
            "reader resolves box a to its newest version <= snapshot");
  MC_ASSERT(w->seen_version_b == (b_visible ? vb : 0) &&
                w->seen_b == (b_visible ? 2 : 0),
            "reader resolves box b to its newest version <= snapshot");
}

}  // namespace

int main(int argc, char** argv) {
  return autopn::mc_harness::run(argc, argv, "mc_commit", body);
}

// Model-checks the top-level commit protocol (CommitManager) through the sync
// seam. Three threads race on two boxes, each registering its snapshot in
// the SnapshotRegistry as Stm::run_top does (so pruning never frees a body
// it still walks):
//
//   * an escalated committer takes the commit mutex (lock_exclusive), then
//     its snapshot, reads box a at it and installs the increment under the
//     lock it still holds — the starvation-escalation path of Stm::run_top;
//   * a normal committer reads box a at its snapshot and commits the
//     increment together with a blind write of box b, box a in its read
//     set, retrying on a validation conflict;
//   * a reader takes a snapshot and resolves both boxes at it.
//
// So every interleaving of the commit mutex, the body-chain install and the
// seq_cst clock publish against the escalated hold and an unsynchronized
// reader is explored. Exhaustive success proves the spelled memory orders are
// SUFFICIENT for the protocol invariants — not merely explicit:
//
//   * the escalated commit never fails validation and installs at its
//     snapshot + 1;
//   * no lost update on box a (two increments, final value 2);
//   * versions stay dense (two commits own versions 1 and 2);
//   * every version at or below a published clock value is visible to a
//     reader, and no body's plain fields are raced.
//
// --weaken-escalation swaps in a mutant escalated committer (here in the
// harness, not in src/) that takes its snapshot and reads BEFORE taking the
// commit mutex, and takes it only to commit. The normal commit can then land
// in the gap, and the checker must report the escalated validation failing
// with a replayable schedule (run with --expect-failure as the
// mc_commit_weakened CTest fixture).

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "mc/explore.hpp"
#include "mc_harness.hpp"
#include "stm/commit_manager.hpp"
#include "stm/exceptions.hpp"
#include "stm/snapshot_registry.hpp"
#include "stm/stats.hpp"
#include "stm/vbox.hpp"
#include "util/sync.hpp"

namespace {

namespace mc = autopn::mc;
namespace stm = autopn::stm;
namespace sync = autopn::sync;

bool weaken_escalation = false;

struct World {
  sync::Atomic<std::uint64_t> clock{0};
  stm::SnapshotRegistry registry{clock, 4};
  stm::ContentionProfiler profiler;
  stm::CommitManager manager{clock, registry, profiler};
  stm::VBox<int> box_a{0};
  stm::VBox<int> box_b{0};

  /// The version the escalated committer installed at.
  std::uint64_t escalated_version = 0;

  /// What the reader saw: its snapshot and, per box, the body it resolved.
  std::uint64_t snapshot = 0;
  std::uint64_t seen_version_a = 0;
  std::uint64_t seen_version_b = 0;
  int seen_a = -1;
  int seen_b = -1;
};

int value_at(const stm::VBoxBase& box, std::uint64_t snapshot) {
  return stm::ValueBody<int>::of(box.body_at(snapshot));
}

/// The entry of a committer that read `box` at `snapshot` and writes it
/// incremented: one entry both read and written, as in a Tx's box set.
stm::TxEntry increment_entry(std::uint64_t snapshot, stm::VBoxBase& box) {
  return stm::TxEntry{.box = &box,
                      .pending = stm::ValueBody<int>::make(value_at(box, snapshot) + 1),
                      .seen = box.body_at(snapshot)};
}

/// A blind write of `value` to `box`.
stm::TxEntry write_entry(stm::VBoxBase& box, int value) {
  return stm::TxEntry{.box = &box, .pending = stm::ValueBody<int>::make(value)};
}

void escalated_increment(const std::shared_ptr<World>& w) {
  const auto held = w->manager.lock_exclusive();
  const auto handle = w->registry.acquire();
  const std::uint64_t snapshot = handle.snapshot();
  stm::TxEntry entry = increment_entry(snapshot, w->box_a);
  try {
    w->manager.commit(snapshot, {&entry, 1}, held);
  } catch (const stm::ConflictError&) {
    MC_ASSERT(false, "an escalated commit never fails validation");
  }
  w->escalated_version = w->box_a.newest_version();
  MC_ASSERT(w->escalated_version == snapshot + 1,
            "the escalated commit installs at its snapshot + 1");
}

/// The mutant: snapshot and read first, commit mutex only at commit time.
void weakened_escalated_increment(const std::shared_ptr<World>& w) {
  const auto handle = w->registry.acquire();
  stm::TxEntry entry = increment_entry(handle.snapshot(), w->box_a);
  const auto held = w->manager.lock_exclusive();
  try {
    w->manager.commit(handle.snapshot(), {&entry, 1}, held);
  } catch (const stm::ConflictError&) {
    MC_ASSERT(false, "an escalated commit never fails validation");
  }
  w->escalated_version = w->box_a.newest_version();
}

void normal_increment(const std::shared_ptr<World>& w) {
  for (;;) {
    const auto handle = w->registry.acquire();
    // A blind write beside the increment: one commit installs two boxes.
    stm::TxEntry entries[] = {increment_entry(handle.snapshot(), w->box_a),
                              write_entry(w->box_b, 2)};
    try {
      w->manager.commit(handle.snapshot(), entries);
      return;
    } catch (const stm::ConflictError&) {
      // The escalated commit landed after our snapshot: read again.
    }
  }
}

void read_at_snapshot(const std::shared_ptr<World>& w) {
  const auto handle = w->registry.acquire();
  w->snapshot = handle.snapshot();
  const stm::Body* a = w->box_a.body_at(w->snapshot);
  const stm::Body* b = w->box_b.body_at(w->snapshot);
  w->seen_version_a = a->version.read();
  w->seen_version_b = b->version.read();
  w->seen_a = stm::ValueBody<int>::of(a);
  w->seen_b = stm::ValueBody<int>::of(b);
}

void body() {
  auto w = std::make_shared<World>();
  mc::Thread escalated{[w] {
    if (weaken_escalation) {
      weakened_escalated_increment(w);
    } else {
      escalated_increment(w);
    }
  }};
  mc::Thread normal{[w] { normal_increment(w); }};
  mc::Thread reader{[w] { read_at_snapshot(w); }};
  escalated.join();
  normal.join();
  reader.join();

  // Serialization invariants, checked at quiescence in EVERY interleaving.
  MC_ASSERT(w->clock.load(std::memory_order_seq_cst) == 2,
            "two commits claim exactly two versions (dense clock)");
  MC_ASSERT(w->box_a.peek() == 2, "no lost update: both increments landed");
  MC_ASSERT(w->box_b.peek() == 2, "the normal commit's second write installed");
  const std::uint64_t ve = w->escalated_version;
  const std::uint64_t vb = w->box_b.newest_version();
  MC_ASSERT(ve != vb && ve >= 1 && ve <= 2 && vb >= 1 && vb <= 2,
            "each commit owns a distinct version in {1,2}");
  const std::uint64_t vn = vb;  // the normal commit installed both boxes
  const std::uint64_t va_first = ve < vn ? ve : vn;
  const std::uint64_t va_second = ve < vn ? vn : ve;
  MC_ASSERT(w->box_a.newest_version() == va_second,
            "box a's newest version is its later increment");

  // Snapshot visibility: a version at or below the clock value the reader
  // loaded was installed before it was published, so the reader resolves it;
  // a later version stays invisible. Box a's k-th version holds the value k.
  const int a_visible = (va_first <= w->snapshot ? 1 : 0) +
                        (va_second <= w->snapshot ? 1 : 0);
  const std::uint64_t va_seen =
      a_visible == 0 ? 0 : (a_visible == 1 ? va_first : va_second);
  MC_ASSERT(w->seen_version_a == va_seen && w->seen_a == a_visible,
            "reader resolves box a to its newest version <= snapshot");
  const bool b_visible = vb <= w->snapshot;
  MC_ASSERT(w->seen_version_b == (b_visible ? vb : 0) &&
                w->seen_b == (b_visible ? 2 : 0),
            "reader resolves box b to its newest version <= snapshot");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--weaken-escalation") == 0) {
      weaken_escalation = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  return autopn::mc_harness::run(static_cast<int>(passthrough.size()),
                                 passthrough.data(), "mc_commit", body);
}

// Model-checks the help-first fork/join protocol of util::ThreadPool through
// the sync seam: a caller forks two tasks under a budget of two while two
// modeled workers serve the pool; task 1 forks two subtasks of its own, so
// stealing from a nested batch, the caller's lend-while-waiting and the last
// task's unit hand-off all come into play. Exhaustive success proves, in every schedule:
//
//   * exactly once   — each task and subtask ran once;
//   * budget         — never more than two tasks of the tree ran at once;
//   * join edge      — every task's plain writes happen-before the caller's
//                      reads after fork_join returns (no data race);
//   * units          — the caller holds its unit again after the join, and
//                      no stolen unit is left behind;
//   * no lost wakeup — no schedule deadlocks.
//
// --weaken-handoff flips util::detail::mc_weaken_handoff: the last stolen
// task returns its unit to the budget instead of handing it to the waiting
// caller. The caller then resumes without a unit, and the checker must
// report the broken unit count with a replayable schedule (run with
// --expect-failure as the mc_fork_join_weakened CTest fixture).

#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

#include "mc/explore.hpp"
#include "mc_harness.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace mc = autopn::mc;
namespace sync = autopn::sync;
namespace util = autopn::util;

constexpr std::size_t kLimit = 2;

struct World {
  util::ThreadPool pool{util::ThreadPool::Unstaffed{}};
  util::ForkBudget budget{kLimit};
  // Tasks 0, 1 of the root batch, then subtasks 0, 1 of task 1. Written by
  // whichever thread ran the task; read only after the joins.
  mc::ModelShared<int> runs[4];
  sync::Atomic<int> running{0};
};

void enter(World& w) {
  const int now = w.running.fetch_add(1, std::memory_order_acq_rel) + 1;
  MC_ASSERT(now <= static_cast<int>(kLimit), "the budget is never exceeded");
}

void leave(World& w) { w.running.fetch_sub(1, std::memory_order_acq_rel); }

void body() {
  auto w = std::make_shared<World>();
  mc::Thread worker1{[w] { w->pool.serve(); }};
  mc::Thread worker2{[w] { w->pool.serve(); }};

  w->pool.fork_join(w->budget, 2, [&w = *w](std::size_t i) {
    enter(w);
    ++w.runs[i].write();
    leave(w);
    if (i == 1) {
      w.pool.fork_join(w.budget, 2, [&w](std::size_t j) {
        enter(w);
        ++w.runs[2 + j].write();
        leave(w);
      });
    }
  });
  for (const auto& runs : w->runs) {
    MC_ASSERT(runs.read() == 1, "every task ran exactly once");
  }
  MC_ASSERT(w->pool.in_use(w->budget) == 1,
            "the caller holds its unit again and no stolen unit is left");

  w->pool.shutdown();
  worker1.join();
  worker2.join();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--weaken-handoff") == 0) {
      util::detail::mc_weaken_handoff = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  return autopn::mc_harness::run(static_cast<int>(passthrough.size()),
                                 passthrough.data(), "mc_fork_join", body);
}

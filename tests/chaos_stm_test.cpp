// Chaos tests of the STM self-healing layer: injected conflicts via
// failpoints, bounded retry with starvation escalation, deadline give-up,
// and the backoff schedule's bound.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "stm/exceptions.hpp"
#include "stm/stm.hpp"
#include "stm/vbox.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace autopn::stm {
namespace {

class ChaosStmTest : public ::testing::Test {
 protected:
  void TearDown() override { util::FailpointRegistry::instance().disarm_all(); }
};

/// Waits for `latch` at most `limit`; false when it did not open in time.
bool wait_for(std::latch& latch, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!latch.try_wait()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST_F(ChaosStmTest, BackoffDelayIsCappedAndJittered) {
  util::Rng rng{42};
  const auto ceiling = kBackoffBase * (1u << kBackoffCapAttempt);
  for (unsigned attempt = 0; attempt < 40; ++attempt) {
    const auto delay = backoff_delay(attempt, rng);
    const auto attempt_ceiling =
        kBackoffBase * (1u << std::min(attempt, kBackoffCapAttempt));
    EXPECT_LT(delay, attempt_ceiling) << "attempt " << attempt;
    EXPECT_GE(delay, attempt_ceiling / 2) << "attempt " << attempt;
    EXPECT_LT(delay, ceiling);  // the global bound, even at attempt 40
  }
  // Jitter: repeated draws at one attempt must not all coincide.
  std::vector<std::chrono::microseconds> draws;
  for (int i = 0; i < 16; ++i) draws.push_back(backoff_delay(10, rng));
  bool varied = false;
  for (const auto d : draws) varied = varied || d != draws.front();
  EXPECT_TRUE(varied);
}

TEST_F(ChaosStmTest, EscalationCompletesUnderCertainInjectedConflict) {
  if (!util::FailpointRegistry::compiled_in()) GTEST_SKIP();
  util::FailpointRegistry::instance().arm_from_string(
      "stm.commit.validate=error(p=1)");
  StmConfig config;
  config.retry_budget = 4;
  Stm stm{config};
  VBox<int> box;
  stm.run_top([&](Tx& tx) { box.write(tx, 0); });  // init (also injected!)
  stm.run_top([&](Tx& tx) { box.write(tx, box.read(tx) + 1); });
  util::FailpointRegistry::instance().disarm_all();
  EXPECT_EQ(stm.read_only<int>([&](Tx& tx) { return box.read(tx); }), 1);
  const StmStatsSnapshot stats = stm.stats();
  // Every normal attempt was injected-aborted, so both transactions can only
  // have finished through escalation.
  EXPECT_EQ(stats.top_escalations, 2u);
  EXPECT_GE(stats.aborts_injected, 8u);  // 4 budgeted attempts each
  EXPECT_EQ(stats.top_commits, 3u);      // 2 escalated + 1 read-only
}

TEST_F(ChaosStmTest, RetryBudgetZeroNeverEscalates) {
  if (!util::FailpointRegistry::compiled_in()) GTEST_SKIP();
  util::FailpointRegistry::instance().arm_from_string(
      "stm.commit.validate=error(p=1,n=6)");  // clears after 6 aborts
  StmConfig config;
  config.retry_budget = 0;  // retry forever, never escalate
  Stm stm{config};
  VBox<int> box;
  stm.run_top([&](Tx& tx) { box.write(tx, 7); });
  EXPECT_EQ(stm.read_only<int>([&](Tx& tx) { return box.read(tx); }), 7);
  const StmStatsSnapshot stats = stm.stats();
  EXPECT_EQ(stats.top_escalations, 0u);
  EXPECT_EQ(stats.aborts_injected, 6u);
}

TEST_F(ChaosStmTest, AmbientScopedDeadlinePropagatesWithoutOptions) {
  if (!util::FailpointRegistry::compiled_in()) GTEST_SKIP();
  util::FailpointRegistry::instance().arm_from_string(
      "stm.commit.validate=error(p=1)");
  StmConfig config;
  config.retry_budget = 0;
  Stm stm{config};
  VBox<int> box;
  {
    ScopedDeadline deadline{[] { return true; }};
    EXPECT_THROW(stm.run_top([&](Tx& tx) { box.write(tx, 1); }),
                 DeadlineExceeded);
  }
  // Scope gone: the (still armed, but now probabilistic-off) predicate no
  // longer applies; with the failpoint disarmed the run commits normally.
  util::FailpointRegistry::instance().disarm_all();
  stm.run_top([&](Tx& tx) { box.write(tx, 2); });
  EXPECT_EQ(stm.read_only<int>([&](Tx& tx) { return box.read(tx); }), 2);
}

TEST_F(ChaosStmTest, ProbabilisticInjectionEventuallyCommitsEveryTx) {
  if (!util::FailpointRegistry::compiled_in()) GTEST_SKIP();
  util::FailpointRegistry::instance().arm_from_string(
      "stm.commit.validate=error(p=0.5);stm.child.merge=error(p=0.2)");
  StmConfig config;
  config.pool_threads = 2;
  config.initial_top = 4;
  config.initial_children = 2;
  config.retry_budget = 16;
  Stm stm{config};
  VBox<long> box;
  stm.run_top([&](Tx& tx) { box.write(tx, 0); });

  constexpr int kThreads = 4;
  constexpr int kTxPerThread = 25;
  std::vector<std::jthread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kTxPerThread; ++i) {
        stm.run_top([&](Tx& tx) {
          tx.run_children({[&](Tx& child) {
            box.write(child, box.read(child) + 1);
          }});
        });
      }
    });
  }
  threads.clear();  // join
  util::FailpointRegistry::instance().disarm_all();
  // Snapshot stats before the verification read — read_only is itself a
  // top-level transaction and would bump top_commits.
  const StmStatsSnapshot stats = stm.stats();
  EXPECT_EQ(stats.top_commits, 1u + kThreads * kTxPerThread);
  EXPECT_GT(stats.aborts_injected, 0u);
  EXPECT_EQ(stm.read_only<long>([&](Tx& tx) { return box.read(tx); }),
            kThreads * kTxPerThread);
}

TEST_F(ChaosStmTest, StarvationVictimCompletesUnderRealContention) {
  // No failpoints needed: a genuinely starved read-modify-write against
  // faster writers must complete within its budget via escalation.
  StmConfig config;
  config.initial_top = 4;
  config.retry_budget = 8;
  Stm stm{config};
  VBox<long> hot;
  stm.run_top([&](Tx& tx) { hot.write(tx, 0); });

  std::atomic<bool> stop{false};
  std::vector<std::jthread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        stm.run_top([&](Tx& tx) { hot.write(tx, hot.read(tx) + 1); });
      }
    });
  }
  // The victim does slow transactions over the same hot box; without
  // escalation it could abort unboundedly against the tight writer loops.
  for (int i = 0; i < 5; ++i) {
    stm.run_top([&](Tx& tx) {
      const long value = hot.read(tx);
      std::this_thread::sleep_for(std::chrono::microseconds{500});
      hot.write(tx, value + 1000000);
    });
  }
  stop.store(true, std::memory_order_relaxed);
  writers.clear();  // join
  const long final_value =
      stm.read_only<long>([&](Tx& tx) { return hot.read(tx); });
  EXPECT_GE(final_value, 5000000L);  // all five victim increments landed
}

TEST_F(ChaosStmTest, EscalatedAttemptBlocksCommitsNotBodies) {
  if (!util::FailpointRegistry::compiled_in()) GTEST_SKIP();
  StmConfig config;
  config.initial_top = 2;
  config.retry_budget = 1;
  Stm stm{config};
  VBox<int> box;
  stm.run_top([&](Tx& tx) { box.write(tx, 0); });
  // One injected abort exhausts the budget of 1, so the next attempt of the
  // transaction that takes it escalates.
  util::FailpointRegistry::instance().arm_from_string(
      "stm.commit.validate=error(p=1,n=1)");
  const StmStatsSnapshot before = stm.stats();

  std::latch escalated_read{1};
  std::latch writer_body_done{1};
  std::atomic<int> escalating_runs{0};
  std::atomic<int> writer_runs{0};
  bool writer_ran_in_time = false;
  std::jthread writer{[&] {
    if (!wait_for(escalated_read, std::chrono::seconds{2})) return;
    stm.run_top([&](Tx& tx) {
      const int value = box.read(tx);
      box.write(tx, value + 10);
      if (writer_runs.fetch_add(1, std::memory_order_relaxed) == 0) {
        writer_body_done.count_down();
      }
    });
  }};
  stm.run_top([&](Tx& tx) {
    const int value = box.read(tx);
    // The first attempt takes the injected abort; the second is escalated
    // and holds the commit mutex while a normal writer runs its whole body
    // on the same box.
    if (escalating_runs.fetch_add(1, std::memory_order_relaxed) == 1) {
      escalated_read.count_down();
      writer_ran_in_time = wait_for(writer_body_done, std::chrono::seconds{2});
    }
    box.write(tx, value + 1);
  });
  writer.join();

  EXPECT_TRUE(writer_ran_in_time)
      << "a normal writer could not run its body during an escalation";
  EXPECT_EQ(escalating_runs.load(), 2);
  EXPECT_EQ(stm.read_only<int>([&](Tx& tx) { return box.read(tx); }), 11);
  const StmStatsSnapshot after = stm.stats();
  EXPECT_EQ(after.aborts_injected - before.aborts_injected, 1u);
  // The writer's first attempt read the box before the escalated commit
  // landed, so its validation failed; the escalated attempt never failed.
  EXPECT_GE(writer_runs.load(), 2);
  EXPECT_GE(after.aborts_validation - before.aborts_validation, 1u);
  EXPECT_EQ(after.aborts_validation - before.aborts_validation,
            static_cast<std::uint64_t>(writer_runs.load() - 1));
}

TEST_F(ChaosStmTest, EscalatedAttemptsIgnoreArmedFailpoints) {
  if (!util::FailpointRegistry::compiled_in()) GTEST_SKIP();
  // p=1 on both the validate and merge sites: if escalation did not mask
  // injection, this would loop forever instead of finishing.
  util::FailpointRegistry::instance().arm_from_string(
      "stm.commit.validate=error(p=1);stm.child.merge=error(p=1)");
  StmConfig config;
  config.retry_budget = 2;
  Stm stm{config};
  VBox<int> box;
  stm.run_top([&](Tx& tx) {
    tx.run_children({[&](Tx& child) { box.write(child, 11); }});
  });
  util::FailpointRegistry::instance().disarm_all();
  EXPECT_EQ(stm.read_only<int>([&](Tx& tx) { return box.read(tx); }), 11);
  EXPECT_GE(stm.stats().top_escalations, 1u);
}

}  // namespace
}  // namespace autopn::stm

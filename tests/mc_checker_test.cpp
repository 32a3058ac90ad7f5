// Unit tests for the model checker itself (src/mc), running in the REGULAR
// build: the mc:: primitives are used explicitly here, so the scheduler,
// happens-before engine, and exploration strategies get tier-1 coverage
// without an AUTOPN_MC configure. The component harnesses that check the
// production code through the seam live in tests/mc_commit.cpp etc.
// and build only under the `mc` preset.

#include <memory>

#include <gtest/gtest.h>

#include "mc/explore.hpp"
#include "mc/model_sync.hpp"

namespace autopn::mc {
namespace {

Options small_exhaustive() {
  Options opts;
  opts.mode = Mode::kExhaustive;
  opts.preemption_bound = 2;
  opts.max_schedules = 50000;
  opts.max_steps = 2000;
  return opts;
}

// ---- happens-before engine ------------------------------------------------

TEST(McChecker, ReleaseAcquireMessagePassingIsRaceFree) {
  const Result r = explore(small_exhaustive(), [] {
    auto flag = std::make_shared<ModelAtomic<bool>>(false);
    auto data = std::make_shared<ModelShared<int>>(0);
    Thread writer{[=] {
      data->write() = 42;
      flag->store(true, std::memory_order_release);
    }};
    Thread reader{[=] {
      if (flag->load(std::memory_order_acquire)) {
        MC_ASSERT(data->read() == 42, "published value must be visible");
      }
    }};
    writer.join();
    reader.join();
  });
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_GT(r.schedules, 1u);
}

TEST(McChecker, RelaxedPublishIsReportedAsRace) {
  // The exact annotation-weakening shape the component harnesses rely on:
  // same code as above, but the store no longer carries a release edge, so
  // the reader's payload access races in every schedule where the flag is
  // observed true.
  const Result r = explore(small_exhaustive(), [] {
    auto flag = std::make_shared<ModelAtomic<bool>>(false);
    auto data = std::make_shared<ModelShared<int>>(0);
    Thread writer{[=] {
      data->write() = 42;
      flag->store(true, std::memory_order_relaxed);
    }};
    Thread reader{[=] {
      if (flag->load(std::memory_order_acquire)) (void)data->read();
    }};
    writer.join();
    reader.join();
  });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failures.front().kind, FailureKind::kRace);
  EXPECT_FALSE(r.failures.front().schedule.empty());
  EXPECT_FALSE(r.failures.front().trace.empty());
}

TEST(McChecker, RelaxedRmwContinuesReleaseSequence) {
  // C++20 release sequences: a relaxed RMW by another thread does not break
  // the chain from the original release store, but a relaxed plain store
  // does. The fetch_add variant must stay race-free.
  const Result r = explore(small_exhaustive(), [] {
    auto flag = std::make_shared<ModelAtomic<int>>(0);
    auto data = std::make_shared<ModelShared<int>>(0);
    Thread writer{[=] {
      data->write() = 1;
      flag->store(1, std::memory_order_release);
    }};
    Thread bumper{[=] { flag->fetch_add(1, std::memory_order_relaxed); }};
    Thread reader{[=] {
      if (flag->load(std::memory_order_acquire) == 2) (void)data->read();
    }};
    writer.join();
    bumper.join();
    reader.join();
  });
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(McChecker, MutexProtectsSharedCell) {
  const Result r = explore(small_exhaustive(), [] {
    auto m = std::make_shared<ModelMutex>();
    auto counter = std::make_shared<ModelShared<int>>(0);
    auto bump = [=] {
      m->lock();
      ++counter->write();
      m->unlock();
    };
    Thread t1{bump};
    Thread t2{bump};
    t1.join();
    t2.join();
    MC_ASSERT(counter->read() == 2, "both increments must land");
  });
  EXPECT_TRUE(r.ok()) << r.summary();
}

// ---- failure detection ----------------------------------------------------

TEST(McChecker, FindsLostUpdateViaAssert) {
  // Non-atomic read-modify-write on an atomic: exhaustive search must find
  // the interleaving where one increment is lost.
  const Result r = explore(small_exhaustive(), [] {
    auto counter = std::make_shared<ModelAtomic<int>>(0);
    auto bump = [=] {
      const int v = counter->load(std::memory_order_relaxed);
      counter->store(v + 1, std::memory_order_relaxed);
    };
    Thread t1{bump};
    Thread t2{bump};
    t1.join();
    t2.join();
    MC_ASSERT(counter->load(std::memory_order_relaxed) == 2, "lost update");
  });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failures.front().kind, FailureKind::kAssert);
}

TEST(McChecker, FindsAbbaDeadlock) {
  const Result r = explore(small_exhaustive(), [] {
    auto m1 = std::make_shared<ModelMutex>();
    auto m2 = std::make_shared<ModelMutex>();
    Thread t1{[=] {
      m1->lock();
      m2->lock();
      m2->unlock();
      m1->unlock();
    }};
    Thread t2{[=] {
      m2->lock();
      m1->lock();
      m1->unlock();
      m2->unlock();
    }};
    t1.join();
    t2.join();
  });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failures.front().kind, FailureKind::kDeadlock);
}

TEST(McChecker, CondVarHandshakeIsCleanInAllSchedules) {
  const Result r = explore(small_exhaustive(), [] {
    auto m = std::make_shared<ModelMutex>();
    auto cv = std::make_shared<ModelCondVar>();
    auto ready = std::make_shared<ModelShared<bool>>(false);
    Thread consumer{[=] {
      std::unique_lock<ModelMutex> lk{*m};
      cv->wait(lk, [&] { return ready->read(); });
      MC_ASSERT(ready->read(), "woke without the predicate");
    }};
    Thread producer{[=] {
      {
        std::unique_lock<ModelMutex> lk{*m};
        ready->write() = true;
      }
      cv->notify_one();
    }};
    consumer.join();
    producer.join();
  });
  EXPECT_TRUE(r.ok()) << r.summary();
}

// ---- exploration strategies -----------------------------------------------

TEST(McChecker, ReplayReproducesAFailureDeterministically) {
  auto lost_update_body = [] {
    auto counter = std::make_shared<ModelAtomic<int>>(0);
    auto bump = [=] {
      const int v = counter->load(std::memory_order_relaxed);
      counter->store(v + 1, std::memory_order_relaxed);
    };
    Thread t1{bump};
    Thread t2{bump};
    t1.join();
    t2.join();
    MC_ASSERT(counter->load(std::memory_order_relaxed) == 2, "lost update");
  };
  const Result found = explore(small_exhaustive(), lost_update_body);
  ASSERT_FALSE(found.ok());

  Options replay;
  replay.mode = Mode::kReplay;
  replay.replay = parse_schedule(found.failures.front().schedule);
  const Result replayed = explore(replay, lost_update_body);
  EXPECT_EQ(replayed.schedules, 1u);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.failures.front().kind, FailureKind::kAssert);
  // Determinism: the replayed failure reproduces the original schedule.
  EXPECT_EQ(replayed.failures.front().schedule,
            found.failures.front().schedule);
}

TEST(McChecker, PctModeFindsTheLostUpdate) {
  Options opts;
  opts.mode = Mode::kPct;
  opts.max_schedules = 2000;
  opts.max_steps = 2000;
  opts.pct_change_points = 2;
  opts.seed = 7;
  const Result r = explore(opts, [] {
    auto counter = std::make_shared<ModelAtomic<int>>(0);
    auto bump = [=] {
      const int v = counter->load(std::memory_order_relaxed);
      counter->store(v + 1, std::memory_order_relaxed);
    };
    Thread t1{bump};
    Thread t2{bump};
    t1.join();
    t2.join();
    MC_ASSERT(counter->load(std::memory_order_relaxed) == 2, "lost update");
  });
  EXPECT_FALSE(r.ok());
}

TEST(McChecker, SleepSetsPruneIndependentInterleavings) {
  // Two threads on DIFFERENT atomics commute everywhere: sleep sets should
  // collapse the tree far below the dependent variant's size.
  auto count = [](bool same_object) {
    Options opts = small_exhaustive();
    const Result r = explore(opts, [same_object] {
      auto a = std::make_shared<ModelAtomic<int>>(0);
      auto b = std::make_shared<ModelAtomic<int>>(0);
      Thread t1{[=] { a->store(1, std::memory_order_seq_cst); }};
      Thread t2{[=] {
        (same_object ? a : b)->store(2, std::memory_order_seq_cst);
      }};
      t1.join();
      t2.join();
    });
    EXPECT_TRUE(r.ok()) << r.summary();
    return r.schedules;
  };
  EXPECT_LE(count(/*same_object=*/false), count(/*same_object=*/true));
}

TEST(McChecker, BudgetExhaustionIsReported) {
  Options opts = small_exhaustive();
  opts.max_schedules = 1;
  const Result r = explore(opts, [] {
    auto a = std::make_shared<ModelAtomic<int>>(0);
    Thread t1{[=] { a->store(1, std::memory_order_seq_cst); }};
    Thread t2{[=] { a->store(2, std::memory_order_seq_cst); }};
    t1.join();
    t2.join();
  });
  EXPECT_EQ(r.schedules, 1u);
  EXPECT_TRUE(r.budget_exhausted);
}

TEST(McChecker, ParseScheduleRejectsMalformedInput) {
  EXPECT_EQ(parse_schedule("0,1,2"), (std::vector<int>{0, 1, 2}));
  EXPECT_THROW(parse_schedule(""), std::invalid_argument);
  EXPECT_THROW(parse_schedule("0,x"), std::invalid_argument);
  EXPECT_THROW(parse_schedule("0,-1"), std::invalid_argument);
}

TEST(McChecker, StepCapReportsLivelock) {
  Options opts = small_exhaustive();
  opts.max_steps = 50;
  opts.max_schedules = 4;
  const Result r = explore(opts, [] {
    auto a = std::make_shared<ModelAtomic<int>>(0);
    Thread spinner{[=] {
      for (;;) {
        if (a->load(std::memory_order_acquire) != 0) break;
      }
    }};
    Thread setter{[=] { a->store(1, std::memory_order_release); }};
    spinner.join();
    setter.join();
  });
  // Some schedule starves the setter long enough to trip the cap.
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failures.front().kind, FailureKind::kStepCap);
}

}  // namespace
}  // namespace autopn::mc

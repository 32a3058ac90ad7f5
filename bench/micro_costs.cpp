// Micro-benchmarks (google-benchmark) of the building blocks whose cost the
// paper argues must stay negligible (§V-B model choice, §VII-E):
//  * STM primitives: transactional read/write, top-level commit, nested
//    spawn/merge;
//  * one TPC-C transaction after a long history, whose cost must not grow
//    with how many transactions ran before it, and one Vacation transaction;
//  * M5 model-tree training and prediction at online training-set sizes;
//  * bagging ensemble fit (k=10) and EI sweep over the full 198-point space;
//  * KPI monitor per-commit cost.
//
// Every STM row and the TPC-C and Vacation rows also report `allocs/op`:
// heap allocations per iteration, counted by the replacement operator new below.
// It lives in this binary only; the libraries are never instrumented.

#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "ml/bagging.hpp"
#include "opt/config_space.hpp"
#include "opt/ei.hpp"
#include "runtime/monitor.hpp"
#include "stm/containers.hpp"
#include "stm/stm.hpp"
#include "util/rng.hpp"
#include "workloads/tpcc.hpp"
#include "workloads/vacation.hpp"

using namespace autopn;

namespace {

/// Heap allocations made by any thread of this process so far.
std::atomic<std::uint64_t> allocations{0};

}  // namespace

// Neither replacement is inlined: gcc would otherwise see malloc() meet
// operator delete, or operator new meet free(), and warn of a mismatch
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}

namespace {

/// Sets the `allocs/op` counter from the allocations made since `before`
/// (read just before the timed loop). The count is process-wide, so it
/// includes pool workers running children, and a multi-threaded row reports
/// it from thread 0 alone; google-benchmark divides by the iterations of
/// all threads.
void report_allocs(benchmark::State& state, std::uint64_t before) {
  if (state.thread_index() != 0) return;
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(allocations.load(std::memory_order_relaxed) - before),
      benchmark::Counter::kAvgIterations);
}

stm::StmConfig bench_config() {
  stm::StmConfig cfg;
  cfg.pool_threads = 2;
  cfg.initial_top = 4;
  cfg.initial_children = 4;
  return cfg;
}

void BM_StmReadOnlyTx(benchmark::State& state) {
  stm::Stm stm{bench_config()};
  stm::VBox<int> box{42};
  const std::uint64_t before = allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    int v = 0;
    stm.run_top([&](stm::Tx& tx) { v = box.read(tx); });
    benchmark::DoNotOptimize(v);
  }
  report_allocs(state, before);
}
BENCHMARK(BM_StmReadOnlyTx);

void BM_StmWriteCommit(benchmark::State& state) {
  stm::Stm stm{bench_config()};
  stm::VBox<int> box{0};
  int i = 0;
  const std::uint64_t before = allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    stm.run_top([&](stm::Tx& tx) { box.write(tx, ++i); });
  }
  report_allocs(state, before);
}
BENCHMARK(BM_StmWriteCommit);

void BM_StmContendedCommit(benchmark::State& state) {
  // Two application threads hammering one box.
  static stm::Stm* shared_stm = nullptr;
  static stm::VBox<long>* shared_box = nullptr;
  if (state.thread_index() == 0) {
    shared_stm = new stm::Stm{bench_config()};
    shared_box = new stm::VBox<long>{0L};
  }
  const std::uint64_t before = allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    shared_stm->run_top(
        [&](stm::Tx& tx) { shared_box->write(tx, shared_box->read(tx) + 1); });
  }
  report_allocs(state, before);
  if (state.thread_index() == 0) {
    delete shared_box;
    delete shared_stm;
    shared_box = nullptr;
    shared_stm = nullptr;
  }
}
BENCHMARK(BM_StmContendedCommit)->Threads(2)->UseRealTime();

void BM_StmReadsPerTx(benchmark::State& state) {
  const auto reads = static_cast<std::size_t>(state.range(0));
  stm::Stm stm{bench_config()};
  stm::TArray<int> arr{reads, 1};
  const std::uint64_t before = allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    long sum = 0;
    stm.run_top([&](stm::Tx& tx) {
      for (std::size_t k = 0; k < reads; ++k) sum += arr.read(tx, k);
    });
    benchmark::DoNotOptimize(sum);
  }
  report_allocs(state, before);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(reads));
}
BENCHMARK(BM_StmReadsPerTx)->Arg(16)->Arg(256);

void BM_StmReadOnlyReadsPerTx(benchmark::State& state) {
  // The same reads through Stm::read_only, which records no read set.
  const auto reads = static_cast<std::size_t>(state.range(0));
  stm::Stm stm{bench_config()};
  stm::TArray<int> arr{reads, 1};
  const std::uint64_t before = allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const long sum = stm.read_only<long>([&](stm::Tx& tx) {
      long total = 0;
      for (std::size_t k = 0; k < reads; ++k) total += arr.read(tx, k);
      return total;
    });
    benchmark::DoNotOptimize(sum);
  }
  report_allocs(state, before);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(reads));
}
BENCHMARK(BM_StmReadOnlyReadsPerTx)->Arg(16)->Arg(256);

void BM_StmNestedSpawnMerge(benchmark::State& state) {
  const auto children = static_cast<std::size_t>(state.range(0));
  stm::Stm stm{bench_config()};
  stm::TArray<int> arr{children, 0};
  const std::uint64_t before = allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    stm.run_top([&](stm::Tx& tx) {
      std::vector<std::function<void(stm::Tx&)>> kids;
      kids.reserve(children);
      for (std::size_t k = 0; k < children; ++k) {
        kids.emplace_back([&arr, k](stm::Tx& child) { arr.write(child, k, 1); });
      }
      tx.run_children(std::move(kids));
    });
  }
  report_allocs(state, before);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(children));
}
BENCHMARK(BM_StmNestedSpawnMerge)->Arg(2)->Arg(8);

void BM_StmNestedSpawnMergeIndexed(benchmark::State& state) {
  // The same children through the indexed run_children, which borrows one
  // body for all of them instead of taking a vector of std::function.
  const auto children = static_cast<std::size_t>(state.range(0));
  stm::Stm stm{bench_config()};
  stm::TArray<int> arr{children, 0};
  const std::uint64_t before = allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    stm.run_top([&](stm::Tx& tx) {
      tx.run_children(children, [&arr](stm::Tx& child, std::size_t k) {
        arr.write(child, k, 1);
      });
    });
  }
  report_allocs(state, before);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(children));
}
BENCHMARK(BM_StmNestedSpawnMergeIndexed)->Arg(2)->Arg(8);

void BM_TpccTxAfter(benchmark::State& state) {
  // The servable TPC-C config (2 warehouses) on one thread: range(0)
  // transactions run untimed, then each iteration times one more.
  stm::Stm stm{bench_config()};
  workloads::TpccConfig cfg;
  cfg.warehouses = 2;
  workloads::TpccBenchmark tpcc{stm, cfg};
  util::Rng rng{cfg.seed};
  tpcc.run_many(static_cast<std::size_t>(state.range(0)), rng);
  const std::uint64_t before = allocations.load(std::memory_order_relaxed);
  for (auto _ : state) tpcc.run_one(rng);
  report_allocs(state, before);
}
// A fixed iteration count runs the warm-up once per repetition; otherwise
// google-benchmark reruns the whole function while it sizes the count.
BENCHMARK(BM_TpccTxAfter)
    ->Arg(20'000)
    ->Arg(1'000'000)
    ->Iterations(20'000)
    ->Unit(benchmark::kMicrosecond);

void BM_VacationTxAfter(benchmark::State& state) {
  // The default (write-heavy) Vacation mix on one thread: range(0)
  // transactions run untimed, then each iteration times one more: 2,000 of
  // each, as in the mix tests/cost_budget_test bounds.
  stm::Stm stm{bench_config()};
  workloads::VacationConfig cfg;
  workloads::VacationBenchmark vacation{stm, cfg};
  util::Rng rng{cfg.seed};
  vacation.run_many(static_cast<std::size_t>(state.range(0)), rng);
  const std::uint64_t before = allocations.load(std::memory_order_relaxed);
  for (auto _ : state) vacation.run_one(rng);
  report_allocs(state, before);
}
BENCHMARK(BM_VacationTxAfter)
    ->Arg(2'000)
    ->Iterations(2'000)
    ->Unit(benchmark::kMicrosecond);

ml::Dataset make_training_set(std::size_t n) {
  util::Rng rng{11};
  ml::Dataset data{2};
  for (std::size_t i = 0; i < n; ++i) {
    const double t = 1.0 + static_cast<double>(rng.uniform_index(48));
    const double c = 1.0 + static_cast<double>(rng.uniform_index(8));
    data.add(std::array{t, c}, t * 10.0 / (1.0 + 0.05 * t * c));
  }
  return data;
}

void BM_M5TreeFit(benchmark::State& state) {
  const auto data = make_training_set(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto tree = ml::M5Tree::fit(data);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_M5TreeFit)->Arg(9)->Arg(30)->Arg(100);

void BM_M5TreePredict(benchmark::State& state) {
  const auto tree = ml::M5Tree::fit(make_training_set(30));
  const std::array<double, 2> x{20.0, 2.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.predict(x));
  }
}
BENCHMARK(BM_M5TreePredict);

void BM_BaggingFit10(benchmark::State& state) {
  const auto data = make_training_set(static_cast<std::size_t>(state.range(0)));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto ensemble = ml::BaggingEnsemble::fit(data, 10, {}, ++seed);
    benchmark::DoNotOptimize(ensemble);
  }
}
BENCHMARK(BM_BaggingFit10)->Arg(9)->Arg(30);

void BM_EiSweepFullSpace(benchmark::State& state) {
  // One SMBO iteration's acquisition cost: predict + EI over all 198 configs.
  const auto ensemble = ml::BaggingEnsemble::fit(make_training_set(30), 10, {}, 3);
  const opt::ConfigSpace space{48};
  for (auto _ : state) {
    double best = 0.0;
    for (const opt::Config& cfg : space.all()) {
      const auto p = ensemble.predict(
          std::array{static_cast<double>(cfg.t), static_cast<double>(cfg.c)});
      best = std::max(best, opt::expected_improvement(p.mean, p.stddev(), 100.0));
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_EiSweepFullSpace);

void BM_MonitorOnCommit(benchmark::State& state) {
  runtime::CvAdaptivePolicy policy{0.10, 1000000};  // never completes
  policy.begin_window(0.0);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.001;
    benchmark::DoNotOptimize(policy.on_commit(t));
  }
}
BENCHMARK(BM_MonitorOnCommit);

}  // namespace

BENCHMARK_MAIN();

// Live end-to-end tests: the tuning controller driving a real Stm with
// application threads executing transactions concurrently.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "opt/autopn_optimizer.hpp"
#include "opt/baselines.hpp"
#include "runtime/controller.hpp"
#include "workloads/array_bench.hpp"

namespace autopn::runtime {
namespace {

stm::StmConfig live_config() {
  stm::StmConfig cfg;
  cfg.max_cores = 4;
  cfg.pool_threads = 2;
  cfg.initial_top = 2;
  cfg.initial_children = 1;
  return cfg;
}

TEST(Actuator, AppliesAndReportsConfig) {
  stm::Stm stm{live_config()};
  Actuator actuator{stm};
  actuator.apply(opt::Config{3, 2});
  EXPECT_EQ(stm.top_limit(), 3u);
  EXPECT_EQ(stm.child_limit(), 2u);
  EXPECT_EQ(actuator.current(), (opt::Config{3, 2}));
}

TEST(Actuator, InhibitedActuatorLeavesStmAlone) {
  stm::Stm stm{live_config()};
  Actuator actuator{stm};
  actuator.set_enabled(false);
  actuator.apply(opt::Config{4, 4});
  EXPECT_EQ(stm.top_limit(), 2u);   // unchanged
  EXPECT_EQ(stm.child_limit(), 1u);
  EXPECT_EQ(actuator.current(), (opt::Config{4, 4}));  // still remembered
}

/// Drives the Array workload from background threads until stopped.
class WorkloadDriver {
 public:
  WorkloadDriver(workloads::ArrayBenchmark& bench, int threads) {
    for (int i = 0; i < threads; ++i) {
      threads_.emplace_back([this, &bench, i] {
        util::Rng rng{static_cast<std::uint64_t>(1000 + i)};
        while (!stop_.load(std::memory_order_relaxed)) bench.run_one(rng);
      });
    }
  }
  ~WorkloadDriver() { stop_.store(true); }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::jthread> threads_;
};

TEST(Controller, MeasuresLiveThroughput) {
  stm::Stm stm{live_config()};
  workloads::ArrayConfig acfg;
  acfg.array_size = 64;
  workloads::ArrayBenchmark bench{stm, acfg};
  WorkloadDriver driver{bench, 2};

  util::WallClock clock;
  opt::ConfigSpace space{4};
  ControllerParams params;
  params.max_window_seconds = 2.0;
  TuningController controller{
      stm, std::make_unique<opt::GridSearch>(space),
      std::make_unique<FixedTimePolicy>(0.05), clock, params};
  const Measurement m = controller.measure_once();
  EXPECT_GT(m.commits, 0u);
  EXPECT_GT(m.throughput, 0.0);
}

TEST(Controller, TunesWithGridSearchLive) {
  stm::Stm stm{live_config()};
  workloads::ArrayConfig acfg;
  acfg.array_size = 64;
  workloads::ArrayBenchmark bench{stm, acfg};
  WorkloadDriver driver{bench, 2};

  util::WallClock clock;
  opt::ConfigSpace space{4};
  ControllerParams params;
  params.max_window_seconds = 1.0;
  TuningController controller{
      stm, std::make_unique<opt::GridSearch>(space),
      std::make_unique<FixedTimePolicy>(0.02), clock, params};
  const TuningReport report = controller.tune();
  EXPECT_GT(report.explorations, 0u);
  EXPECT_TRUE(space.valid(report.chosen));
  // The winning configuration was actually applied.
  EXPECT_EQ(static_cast<int>(stm.top_limit()), report.chosen.t);
  EXPECT_EQ(static_cast<int>(stm.child_limit()), report.chosen.c);
}

TEST(Controller, AutoPnLiveEndToEnd) {
  stm::Stm stm{live_config()};
  workloads::ArrayConfig acfg;
  acfg.array_size = 32;
  workloads::ArrayBenchmark bench{stm, acfg};
  WorkloadDriver driver{bench, 2};

  util::WallClock clock;
  opt::ConfigSpace space{4};
  opt::AutoPnParams ap;
  ap.bootstrap_points = 9;
  ControllerParams params;
  params.max_window_seconds = 1.0;
  TuningController controller{
      stm, std::make_unique<opt::AutoPnOptimizer>(space, ap, 1),
      std::make_unique<CvAdaptivePolicy>(0.25, 3), clock, params};
  const TuningReport report = controller.tune();
  EXPECT_TRUE(space.valid(report.chosen));
  EXPECT_GE(report.explorations, 3u);
  EXPECT_LE(report.explorations, space.size());
  // Observations carry positive KPIs (the workload was live).
  std::size_t positive = 0;
  for (const auto& obs : report.observations) positive += obs.kpi > 0.0;
  EXPECT_GT(positive, report.observations.size() / 2);
}

TEST(Controller, InhibitedActuationStillTunes) {
  // §VII-E methodology: monitoring + modeling active, actuator inhibited.
  stm::Stm stm{live_config()};
  workloads::ArrayConfig acfg;
  acfg.array_size = 32;
  workloads::ArrayBenchmark bench{stm, acfg};
  WorkloadDriver driver{bench, 2};

  util::WallClock clock;
  opt::ConfigSpace space{4};
  ControllerParams params;
  params.actuate = false;
  params.max_window_seconds = 1.0;
  TuningController controller{
      stm, std::make_unique<opt::GridSearch>(space),
      std::make_unique<FixedTimePolicy>(0.02), clock, params};
  (void)controller.tune();
  // Limits never moved off their initial values.
  EXPECT_EQ(stm.top_limit(), 2u);
  EXPECT_EQ(stm.child_limit(), 1u);
}

TEST(Controller, AbortRateKpiPrefersLowContentionConfigs) {
  // With the abort-rate KPI (commit efficiency), the tuner should gravitate
  // to low top-level parallelism on a contended workload.
  stm::Stm stm{live_config()};
  workloads::ArrayConfig acfg;
  acfg.array_size = 64;
  acfg.update_fraction = 0.9;  // whole-array scans conflict heavily
  workloads::ArrayBenchmark bench{stm, acfg};
  WorkloadDriver driver{bench, 3};

  util::WallClock clock;
  opt::ConfigSpace space{4};
  ControllerParams params;
  params.kpi = KpiKind::kAbortRate;
  params.max_window_seconds = 0.5;
  TuningController controller{stm, std::make_unique<opt::GridSearch>(space),
                              std::make_unique<FixedTimePolicy>(0.05), clock,
                              params};
  const auto report = controller.tune();
  // Every observation is a commit-efficiency in [0, 1].
  for (const auto& obs : report.observations) {
    EXPECT_GE(obs.kpi, 0.0);
    EXPECT_LE(obs.kpi, 1.0);
  }
  EXPECT_TRUE(space.valid(report.chosen));
}

TEST(Controller, LatencyKpiMatchesThroughputOrdering) {
  stm::Stm stm{live_config()};
  workloads::ArrayConfig acfg;
  acfg.array_size = 32;
  workloads::ArrayBenchmark bench{stm, acfg};
  WorkloadDriver driver{bench, 2};

  util::WallClock clock;
  opt::ConfigSpace space{4};
  ControllerParams params;
  params.kpi = KpiKind::kLatency;
  params.max_window_seconds = 0.5;
  TuningController controller{stm, std::make_unique<opt::GridSearch>(space),
                              std::make_unique<FixedTimePolicy>(0.02), clock,
                              params};
  const auto report = controller.tune();
  EXPECT_GT(report.explorations, 0u);
  for (const auto& obs : report.observations) EXPECT_GE(obs.kpi, 0.0);
}

TEST(Controller, TuneAndWatchRunsAtLeastOneRound) {
  stm::Stm stm{live_config()};
  workloads::ArrayConfig acfg;
  acfg.array_size = 32;
  workloads::ArrayBenchmark bench{stm, acfg};
  WorkloadDriver driver{bench, 2};

  util::WallClock clock;
  opt::ConfigSpace space{4};
  ControllerParams params;
  params.max_window_seconds = 0.5;
  TuningController controller{stm, std::make_unique<opt::GridSearch>(space),
                              std::make_unique<FixedTimePolicy>(0.01), clock,
                              params};
  const std::size_t rounds = controller.tune_and_watch(
      [&space] { return std::make_unique<opt::GridSearch>(space); },
      /*duration_seconds=*/0.3);
  EXPECT_GE(rounds, 1u);
  EXPECT_TRUE(space.valid(controller.actuator().current()));
}

TEST(Controller, TuneAndWatchRetunesOnWorkloadShift) {
  // Start with a light workload; after the first tuning round, switch the
  // drivers to a heavy-contention variant — the throughput shift must fire
  // CUSUM and trigger a second tuning round.
  stm::Stm stm{live_config()};
  workloads::ArrayConfig light_cfg;
  light_cfg.array_size = 32;
  light_cfg.update_fraction = 0.0;
  workloads::ArrayBenchmark light{stm, light_cfg};
  workloads::ArrayConfig heavy_cfg;
  heavy_cfg.array_size = 512;
  heavy_cfg.update_fraction = 0.9;
  workloads::ArrayBenchmark heavy{stm, heavy_cfg};

  std::atomic<bool> shifted{false};
  std::atomic<bool> stop{false};
  std::vector<std::jthread> drivers;
  for (int i = 0; i < 2; ++i) {
    drivers.emplace_back([&, i] {
      util::Rng rng{static_cast<std::uint64_t>(3000 + i)};
      while (!stop.load()) {
        if (shifted.load()) {
          heavy.run_one(rng);
        } else {
          light.run_one(rng);
        }
      }
    });
  }

  util::WallClock clock;
  opt::ConfigSpace space{4};
  ControllerParams params;
  params.max_window_seconds = 0.5;
  TuningController controller{stm, std::make_unique<opt::GridSearch>(space),
                              std::make_unique<FixedTimePolicy>(0.02), clock,
                              params};
  // Flip the workload shortly into the watch phase.
  std::jthread shifter{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{400});
    shifted.store(true);
  }};
  const std::size_t rounds = controller.tune_and_watch(
      [&space] { return std::make_unique<opt::GridSearch>(space); },
      /*duration_seconds=*/2.5);
  stop.store(true);
  drivers.clear();
  EXPECT_GE(rounds, 2u);  // the shift forced at least one re-tuning
}

/// Hands out a fixed batch of request latencies on every drain.
class FakeLatencySource final : public LatencySource {
 public:
  explicit FakeLatencySource(std::vector<double> batch) : batch_(std::move(batch)) {}
  std::vector<double> drain_latencies() override {
    ++drains_;
    return batch_;
  }
  [[nodiscard]] int drains() const noexcept { return drains_; }

 private:
  std::vector<double> batch_;
  int drains_ = 0;
};

TEST(Controller, LatencySourceSamplesOverrideWindowGaps) {
  stm::Stm stm{live_config()};
  workloads::ArrayConfig acfg;
  acfg.array_size = 64;
  workloads::ArrayBenchmark bench{stm, acfg};
  WorkloadDriver driver{bench, 2};

  util::WallClock clock;
  opt::ConfigSpace space{4};
  ControllerParams params;
  params.max_window_seconds = 2.0;
  TuningController controller{
      stm, std::make_unique<opt::GridSearch>(space),
      std::make_unique<FixedTimePolicy>(0.05), clock, params};
  FakeLatencySource source{std::vector<double>(100, 0.010)};
  controller.set_latency_source(&source);

  const Measurement m = controller.measure_once();
  // Drained twice: once to discard pre-window samples, once at window end.
  EXPECT_EQ(source.drains(), 2);
  EXPECT_EQ(m.latency_samples, 100u);
  EXPECT_NEAR(m.mean_latency, 0.010, 1e-9);
  EXPECT_NEAR(m.p99_latency, 0.010, 1e-9);
}

TEST(Controller, LatencyKpiUsesRequestLatencies) {
  stm::Stm stm{live_config()};
  workloads::ArrayConfig acfg;
  acfg.array_size = 64;
  workloads::ArrayBenchmark bench{stm, acfg};
  WorkloadDriver driver{bench, 2};

  util::WallClock clock;
  opt::ConfigSpace space{4};
  ControllerParams params;
  params.kpi = KpiKind::kLatency;
  params.max_window_seconds = 1.0;
  TuningController controller{
      stm, std::make_unique<opt::GridSearch>(space),
      std::make_unique<FixedTimePolicy>(0.02), clock, params};
  FakeLatencySource source{std::vector<double>(10, 0.004)};
  controller.set_latency_source(&source);

  const auto report = controller.tune();
  ASSERT_FALSE(report.observations.empty());
  // Every window saw the 4 ms request latency => KPI = 1/0.004 = 250.
  for (const auto& obs : report.observations) EXPECT_NEAR(obs.kpi, 250.0, 1e-6);
}

/// Advisor stub: predicts a high KPI for low-t configurations and a low one
/// for everything else (any fixed scale works — the controller only ever
/// compares two predictions).
class LowTAdvisor final : public ConfigAdvisor {
 public:
  double predicted_kpi(const opt::Config& config) override {
    return config.t <= 2 ? 1.0 : 0.1;
  }
};

TEST(Controller, ModelVetoBlocksPredictedRegressions) {
  stm::Stm stm{live_config()};
  workloads::ArrayConfig acfg;
  acfg.array_size = 64;
  workloads::ArrayBenchmark bench{stm, acfg};
  WorkloadDriver driver{bench, 2};

  util::WallClock clock;
  // The grid runs to its end (no early stop), so the proposals always reach
  // the t > 2 configurations, however flat the measured surface is.
  opt::ConfigSpace space{4};
  ControllerParams params;
  params.max_window_seconds = 1.0;
  params.model_veto_band = 0.5;
  params.model_veto_blocks = true;
  TuningController controller{
      stm, std::make_unique<opt::GridSearch>(space, space.size()),
      std::make_unique<FixedTimePolicy>(0.02), clock, params};
  LowTAdvisor advisor;
  controller.set_config_advisor(&advisor);

  const TuningReport report = controller.tune();
  const VetoReport& vetoes = controller.vetoes();
  // The space contains t > 2 configurations; each is flagged AND blocked
  // (ratio 0.1 < 1 - band), so none of them burned a live window.
  EXPECT_GE(vetoes.flagged, 1u);
  EXPECT_EQ(vetoes.blocked, vetoes.flagged);
  for (const auto& obs : report.observations) EXPECT_LE(obs.config.t, 2);
  EXPECT_LE(report.chosen.t, 2);
  for (const auto& event : vetoes.events) {
    EXPECT_GT(event.proposal.t, 2);
    EXPECT_LT(event.predicted_ratio, 0.5);
    EXPECT_TRUE(event.blocked);
  }
}

TEST(Controller, ModelVetoLogsWithoutBlockingByDefault) {
  stm::Stm stm{live_config()};
  workloads::ArrayConfig acfg;
  acfg.array_size = 64;
  workloads::ArrayBenchmark bench{stm, acfg};
  WorkloadDriver driver{bench, 2};

  util::WallClock clock;
  opt::ConfigSpace space{4};  // the whole grid, as above
  ControllerParams params;
  params.max_window_seconds = 1.0;
  params.model_veto_band = 0.5;  // model_veto_blocks stays false
  TuningController controller{
      stm, std::make_unique<opt::GridSearch>(space, space.size()),
      std::make_unique<FixedTimePolicy>(0.02), clock, params};
  LowTAdvisor advisor;
  controller.set_config_advisor(&advisor);

  const TuningReport report = controller.tune();
  EXPECT_GE(controller.vetoes().flagged, 1u);
  EXPECT_EQ(controller.vetoes().blocked, 0u);
  // Advisory mode: every configuration was still measured live.
  EXPECT_EQ(report.explorations, space.size());
}

TEST(Controller, NoAdvisorOrZeroBandNeverVetoes) {
  stm::Stm stm{live_config()};
  workloads::ArrayConfig acfg;
  acfg.array_size = 64;
  workloads::ArrayBenchmark bench{stm, acfg};
  WorkloadDriver driver{bench, 2};

  util::WallClock clock;
  opt::ConfigSpace space{4};
  ControllerParams params;
  params.max_window_seconds = 1.0;  // model_veto_band stays 0
  TuningController controller{
      stm, std::make_unique<opt::GridSearch>(space),
      std::make_unique<FixedTimePolicy>(0.02), clock, params};
  LowTAdvisor advisor;
  controller.set_config_advisor(&advisor);  // attached but band disables it
  (void)controller.tune();
  EXPECT_EQ(controller.vetoes().flagged, 0u);
  EXPECT_EQ(controller.vetoes().blocked, 0u);
}

TEST(Controller, ChangeDetectorRoundTrip) {
  stm::Stm stm{live_config()};
  util::WallClock clock;
  opt::ConfigSpace space{4};
  TuningController controller{
      stm, std::make_unique<opt::GridSearch>(space),
      std::make_unique<FixedTimePolicy>(0.01), clock, {}};
  controller.arm_change_detector(100.0);
  EXPECT_FALSE(controller.check_for_change(101.0));
  bool detected = false;
  for (int i = 0; i < 20 && !detected; ++i) {
    detected = controller.check_for_change(160.0);
  }
  EXPECT_TRUE(detected);
}

}  // namespace
}  // namespace autopn::runtime

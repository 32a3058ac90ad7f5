// autopn — command-line interface to the library's studies. Each
// subcommand, with its arguments, its flags and their defaults, its handler
// and its one-line summary, is a row of kCommands at the end of this file;
// `autopn` with no arguments prints that table.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "model/advisor.hpp"
#include "model/compose.hpp"
#include "net/netload.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "router/router.hpp"
#include "opt/autopn_optimizer.hpp"
#include "opt/baselines.hpp"
#include "opt/runner.hpp"
#include "runtime/controller.hpp"
#include "serve/engine.hpp"
#include "serve/handlers.hpp"
#include "serve/loadgen.hpp"
#include "sim/des.hpp"
#include "sim/surface.hpp"
#include "sim/trace.hpp"
#include "sim/workload.hpp"
#include "util/failpoint.hpp"
#include "util/table.hpp"

using namespace autopn;

namespace {

/// A malformed command line: main() prints it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Sanity ceiling on --cores, --workers and --connections: each starts (or
/// sizes a search space that starts) about one thread per unit.
constexpr int kMaxThreads = 1024;

/// Step cap of the trace-driven tuning runs; no optimizer gets near it.
constexpr std::size_t kMaxSteps = 400;

/// `text` as a T in lo..hi, else a UsageError naming `flag`. The whole text
/// must parse: no "12abc", no "-1" read as 2^64-1, no nan or inf.
template <typename T>
T parse_number(const std::string& text, const std::string& flag, T lo, T hi,
               const char* noun = "a number") {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  bool ok = error == std::errc{} && stop == end && lo <= value && value <= hi;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::ostringstream message;
    message << flag << " wants " << noun << " in " << lo << ".." << hi
            << " (got '" << text << "')";
    throw UsageError{message.str()};
  }
  return value;
}

std::uint16_t parse_port(const std::string& text, const std::string& what) {
  return parse_number<std::uint16_t>(text, what, 0, 65535, "a port");
}

struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Splits `flag`'s HOST:PORT value at its last colon.
HostPort split_host_port(const std::string& spec, const std::string& flag) {
  const auto sep = spec.rfind(':');
  if (sep == std::string::npos) {
    throw UsageError{flag + " wants HOST:PORT (got '" + spec + "')"};
  }
  return HostPort{spec.substr(0, sep), parse_port(spec.substr(sep + 1), flag)};
}

/// The port a `serve`/`router` process wrote to its --port-file. An
/// unreadable file is a runtime error (exit 1); an out-of-range number is a
/// UsageError.
std::uint16_t read_port_file(const std::string& path) {
  std::ifstream in{path};
  std::string text;
  if (!(in >> text)) {
    throw std::runtime_error{"cannot read port from " + path};
  }
  return parse_port(text, "port file " + path);
}

/// The parsed command line. A subcommand's row in kCommands sets the
/// defaults of the flags it takes, and its handler reads only those.
struct Options {
  std::vector<std::string> args;  ///< positional arguments
  std::set<std::string> given;    ///< flags named on the command line
  // tuning and model
  std::string optimizer;
  std::uint64_t seed{};
  int cores{};
  double shed_target{};  ///< model: shed-fraction target for what-ifs
  // serve
  std::string workload;
  double rate{};      ///< open-loop arrivals/s (before serve's shift)
  double duration{};  ///< serving/offering time, seconds
  double shift{};     ///< serve: rate multiplier for the second half
  std::size_t workers{};
  double request_timeout{};  ///< per-request deadline, seconds (0 = none)
  bool model_warm{};         ///< warm-start the tuner from the model
  double model_veto{};       ///< veto band (0 = off); vetoes block
  // wire: serve --listen, router, netload, router-ctl
  std::optional<HostPort> listen;
  std::string port_file;  ///< serve/router: write the bound port; else read it
  std::string host;
  std::uint16_t port{};  ///< 0 = take it from --port-file
  std::size_t connections{};
  bool closed_loop{};
  double think_time{};  ///< netload closed loop: mean think seconds
  std::uint16_t tenants{};
  std::size_t payload{};
  std::uint64_t deadline_us{};
  std::vector<HostPort> shards;
  std::vector<std::string> shard_port_files;
  double slo_ms{};
  double rebalance_interval{};
  bool no_rebalance{};
  std::uint64_t redial_budget{};
  std::string scale_file;
  std::optional<std::uint32_t> shard_id;
};

/// Stores one flag's value into `field`: a switch sets its bool, a number
/// must lie in lo..hi (hi = 0: the type's whole range, nonnegative reals).
template <auto field, auto lo = 0, auto hi = 0>
void store(Options& o, const std::string& value, const std::string& flag) {
  using T = std::remove_reference_t<decltype(o.*field)>;
  if constexpr (std::is_same_v<T, bool>) {
    o.*field = true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    o.*field = value;
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    (o.*field).push_back(value);
  } else {
    using Limits = std::numeric_limits<T>;
    const T top = hi != 0              ? static_cast<T>(hi)
                  : Limits::has_infinity ? Limits::infinity()
                                         : Limits::max();
    o.*field = parse_number<T>(value, flag, static_cast<T>(lo), top);
  }
}

struct Flag {
  const char* name;
  const char* metavar;  ///< nullptr: a switch, which takes no value
  void (*set)(Options&, const std::string& value, const std::string& flag);
};

const Flag kFlags[] = {
    {"--failpoints", "SPEC",
     [](Options&, const std::string& value, const std::string&) {
       util::FailpointRegistry::instance().arm_from_string(value);
     }},
    {"--optimizer", "NAME", store<&Options::optimizer>},
    {"--seed", "N", store<&Options::seed>},
    {"--cores", "N", store<&Options::cores, 1, kMaxThreads>},
    {"--shed-target", "F", store<&Options::shed_target>},
    {"--workload", "W", store<&Options::workload>},
    {"--rate", "R", store<&Options::rate>},
    {"--duration", "S", store<&Options::duration>},
    {"--shift", "F", store<&Options::shift>},
    {"--workers", "N", store<&Options::workers, 1, kMaxThreads>},
    {"--request-timeout", "S", store<&Options::request_timeout>},
    {"--model-warm", nullptr, store<&Options::model_warm>},
    {"--model-veto", "BAND", store<&Options::model_veto>},
    {"--listen", "ADDR:PORT",
     [](Options& o, const std::string& value, const std::string& flag) {
       o.listen = split_host_port(value, flag);
     }},
    {"--port-file", "F", store<&Options::port_file>},
    {"--host", "H", store<&Options::host>},
    {"--port", "P",
     [](Options& o, const std::string& value, const std::string& flag) {
       o.port = parse_port(value, flag);
     }},
    {"--connections", "N", store<&Options::connections, 1, kMaxThreads>},
    {"--closed-loop", nullptr, store<&Options::closed_loop>},
    {"--think", "S", store<&Options::think_time>},
    {"--tenants", "N", store<&Options::tenants>},
    {"--payload", "BYTES", store<&Options::payload, 0, net::kMaxPayloadBytes>},
    {"--deadline-us", "U", store<&Options::deadline_us>},
    {"--shard", "HOST:PORT",
     [](Options& o, const std::string& value, const std::string& flag) {
       o.shards.push_back(split_host_port(value, flag));
     }},
    {"--shard-port-file", "F", store<&Options::shard_port_files>},
    {"--slo-ms", "MS", store<&Options::slo_ms>},
    {"--rebalance-interval", "S", store<&Options::rebalance_interval>},
    {"--no-rebalance", nullptr, store<&Options::no_rebalance>},
    {"--redial-budget", "N", store<&Options::redial_budget>},
    {"--scale-file", "F", store<&Options::scale_file>},
    {"--shard-id", "N",
     [](Options& o, const std::string& value, const std::string& flag) {
       o.shard_id = parse_number<std::uint32_t>(
           value, flag, 0, std::numeric_limits<std::uint32_t>::max());
     }},
};

const Flag* find_flag(const std::string& name) {
  for (const Flag& flag : kFlags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

/// The target port from --port, or from --port-file when one is named.
std::uint16_t target_port(const Options& o, const std::string& command) {
  const std::uint16_t port =
      o.port_file.empty() ? o.port : read_port_file(o.port_file);
  if (port == 0) throw UsageError{command + " needs --port or --port-file"};
  return port;
}

/// The backends named by --shard, then those named by --shard-port-file.
std::vector<HostPort> shard_addresses(const Options& o, const std::string& command) {
  std::vector<HostPort> shards = o.shards;
  for (const std::string& file : o.shard_port_files) {
    shards.push_back(HostPort{"127.0.0.1", read_port_file(file)});
  }
  if (shards.empty()) {
    throw UsageError{command + " needs --shard HOST:PORT or --shard-port-file F"};
  }
  return shards;
}

std::unique_ptr<opt::Optimizer> make_optimizer(const std::string& name,
                                               const opt::ConfigSpace& space,
                                               std::uint64_t seed,
                                               const opt::Prior* prior = nullptr) {
  if (name == "autopn" || name == "smbo") {
    opt::AutoPnParams params;
    params.hill_climb_refinement = name == "autopn";
    if (prior != nullptr) params.prior = *prior;
    return std::make_unique<opt::AutoPnOptimizer>(space, params, seed);
  }
  if (name == "random") return std::make_unique<opt::RandomSearch>(space, seed);
  if (name == "grid") return std::make_unique<opt::GridSearch>(space);
  if (name == "hc") return std::make_unique<opt::HillClimbing>(space, seed);
  if (name == "sa") return std::make_unique<opt::SimulatedAnnealing>(space, seed);
  if (name == "ga") return std::make_unique<opt::GeneticAlgorithm>(space, seed);
  throw std::invalid_argument{"unknown optimizer " + name};
}

std::string membership_log(const std::vector<net::MembershipLogEntry>& log) {
  std::string text;
  for (const net::MembershipLogEntry& entry : log) {
    text += " " + std::to_string(entry.seq) + ":" +
            router::to_string(static_cast<router::MembershipEvent>(entry.event)) +
            "(" + std::to_string(entry.shard_id) + ")";
  }
  return text;
}

int cmd_workloads(const Options&) {
  const opt::ConfigSpace space{48};
  util::TextTable table{{"workload", "optimum", "thr@opt", "opt/(1,1)"}};
  for (const auto& params : sim::paper_workloads()) {
    const sim::SurfaceModel model{params, 48};
    const auto optimum = model.optimum(space);
    table.add_row({params.name, optimum.config.to_string(),
                   util::fmt_double(optimum.throughput, 0),
                   util::fmt_double(optimum.throughput /
                                        model.mean_throughput(opt::Config{1, 1}),
                                    2)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_surface(const Options& o) {
  const opt::ConfigSpace space{o.cores};
  const sim::SurfaceModel model{sim::workload_by_name(o.args[0]), o.cores};
  util::TextTable table{{"(t,c)", "thr", "latency(ms)", "abort", "DFO"}};
  for (const opt::Config& cfg : space.all()) {
    table.add_row({cfg.to_string(), util::fmt_double(model.mean_throughput(cfg), 0),
                   util::fmt_double(model.mean_latency(cfg) * 1e3, 3),
                   util::fmt_percent(model.top_abort_probability(cfg)),
                   util::fmt_percent(model.distance_from_optimum(space, cfg))});
  }
  table.print(std::cout);
  return 0;
}

/// model: capacity what-ifs answered offline by the compositional model
/// (DESIGN.md §14) — predicted throughput/p50/p99/shed at an arrival rate,
/// the shifted-rate question, the max sustainable rate for a shed target,
/// and the min-shards answer.
int cmd_model(const Options& o) {
  const std::string& workload = o.args[0];
  model::PipelineParams pipeline;
  pipeline.workload = sim::workload_by_name(workload);
  pipeline.cores = o.cores;
  pipeline.workers = o.workers;
  pipeline.queue_capacity = 512;
  const model::CompositionalModel m{pipeline};
  const opt::ConfigSpace space{o.cores};

  std::cout << "pipeline: " << workload << ", " << o.workers << " workers, queue "
            << pipeline.queue_capacity << ", " << o.cores << " cores; open-loop "
            << util::fmt_double(o.rate, 0) << " req/s\n";

  const auto best = m.best_at(space, o.rate);
  util::TextTable table{
      {"(t,c)", "thr", "p50(ms)", "p99(ms)", "shed", "util", "abort"}};
  for (const opt::Config& cfg : {opt::Config{1, 1}, opt::Config{1, o.cores},
                                 opt::Config{o.cores, 1}, best.config}) {
    if (!space.valid(cfg)) continue;
    const model::Prediction p = m.predict(cfg, o.rate);
    table.add_row({cfg.to_string() + (cfg == best.config ? " *" : ""),
                   util::fmt_double(p.throughput, 0),
                   util::fmt_double(p.p50 * 1e3, 2),
                   util::fmt_double(p.p99 * 1e3, 2),
                   util::fmt_percent(p.shed_fraction),
                   util::fmt_percent(p.utilization),
                   util::fmt_percent(p.abort_rate)});
  }
  table.print(std::cout);
  std::cout << "* best predicted configuration at this rate\n";

  const double shifted_rate = o.rate * o.shift;
  const model::Prediction shifted = m.predict(best.config, shifted_rate);
  std::cout << "at " << util::fmt_double(o.shift, 1) << "x rate ("
            << util::fmt_double(shifted_rate, 0) << " req/s): p99 "
            << util::fmt_double(shifted.p99 * 1e3, 2) << " ms, shed "
            << util::fmt_percent(shifted.shed_fraction) << ", throughput "
            << util::fmt_double(shifted.throughput, 0) << " req/s\n";
  std::cout << "max rate for shed <= " << util::fmt_percent(o.shed_target) << ": "
            << util::fmt_double(m.max_rate_for_shed(best.config, o.shed_target), 0)
            << " req/s (capacity "
            << util::fmt_double(m.capacity(best.config), 0) << " req/s)\n";
  const std::size_t shards =
      m.min_shards_for_shed(shifted_rate, best.config, o.shed_target);
  std::cout << "min shards for shed <= " << util::fmt_percent(o.shed_target)
            << " at " << util::fmt_double(shifted_rate, 0) << " req/s: "
            << (shards > 64 ? "> 64" : std::to_string(shards)) << "\n";
  return 0;
}

int cmd_tune(const Options& o) {
  const std::string& workload = o.args[0];
  const opt::ConfigSpace space{o.cores};
  const sim::SurfaceModel model{sim::workload_by_name(workload), o.cores};
  auto optimizer = make_optimizer(o.optimizer, space, o.seed);
  util::Rng noise{o.seed ^ 0xabc};
  std::cout << "tuning " << workload << " with " << optimizer->name() << " over "
            << space.size() << " configurations\n";
  const opt::RunResult run = opt::run_to_convergence(
      *optimizer, [&](const opt::Config& c) { return model.sample(c, 1.0, noise); },
      kMaxSteps);
  util::TextTable steps{{"step", "config", "measured", "best so far", "DFO"}};
  double best = 0.0;
  opt::Config incumbent{1, 1};
  for (std::size_t i = 0; i < run.steps.size(); ++i) {
    const opt::TraceStep& step = run.steps[i];
    if (step.kpi > best) {
      best = step.kpi;
      incumbent = step.config;
    }
    steps.add_row({std::to_string(i + 1), step.config.to_string(),
                   util::fmt_double(step.kpi, 0), incumbent.to_string(),
                   util::fmt_percent(model.distance_from_optimum(space, incumbent))});
  }
  steps.print(std::cout);
  std::cout << "final: " << incumbent.to_string() << " (DFO "
            << util::fmt_percent(model.distance_from_optimum(space, incumbent))
            << ") after " << run.explorations() << " explorations\n";
  return 0;
}

int cmd_compare(const Options& o) {
  const opt::ConfigSpace space{o.cores};
  const sim::SurfaceModel model{sim::workload_by_name(o.args[0]), o.cores};
  util::TextTable table{{"optimizer", "chosen", "DFO", "explorations"}};
  for (const std::string name : {"autopn", "smbo", "random", "grid", "hc", "sa", "ga"}) {
    auto optimizer = make_optimizer(name, space, o.seed);
    util::Rng noise{o.seed ^ 0xdef};
    const auto result = opt::run_to_convergence(
        *optimizer, [&](const opt::Config& c) { return model.sample(c, 1.0, noise); },
        kMaxSteps);
    table.add_row({name, result.final_best.to_string(),
                   util::fmt_percent(
                       model.distance_from_optimum(space, result.final_best)),
                   std::to_string(result.explorations())});
  }
  table.print(std::cout);
  return 0;
}

int cmd_des_tune(const Options& o) {
  const std::string& workload = o.args[0];
  const opt::ConfigSpace space{o.cores};
  const sim::DesParams des_params =
      sim::des_from_workload(sim::workload_by_name(workload), o.cores);
  auto optimizer = make_optimizer(o.optimizer, space, o.seed);
  std::cout << "tuning " << workload << " on the discrete-event simulator with "
            << optimizer->name() << "\n";
  std::uint64_t window = 0;
  const opt::RunResult run = opt::run_to_convergence(
      *optimizer,
      [&](const opt::Config& c) {
        sim::DesSimulator sim{des_params, c, o.seed + window++};
        return sim.run_commits(200, 5.0).throughput();
      },
      kMaxSteps);
  sim::DesSimulator verify{des_params, run.final_best, o.seed ^ 0xfff};
  const auto long_run = verify.run(3.0);
  std::cout << "chosen " << run.final_best.to_string() << " after "
            << run.explorations() << " explorations; long-run DES throughput "
            << util::fmt_double(long_run.throughput(), 0) << " tx/s, abort rate "
            << util::fmt_percent(long_run.abort_rate()) << "\n";
  return 0;
}

int cmd_record(const Options& o) {
  const std::string& workload = o.args[0];
  const std::string& file = o.args[1];
  const opt::ConfigSpace space{o.cores};
  const sim::SurfaceModel model{sim::workload_by_name(workload), o.cores};
  const auto trace = sim::SurfaceTrace::record(model, space, 10, 600.0, o.seed);
  std::ofstream out{file};
  if (!out) {
    std::cerr << "cannot open " << file << "\n";
    return 1;
  }
  trace.save(out);
  std::cout << "recorded " << trace.size() << " configurations of " << workload
            << " to " << file << "\n";
  return 0;
}

int cmd_info(const Options& o) {
  const std::string& file = o.args[0];
  std::ifstream in{file};
  if (!in) {
    std::cerr << "cannot open " << file << "\n";
    return 1;
  }
  const auto trace = sim::SurfaceTrace::load(in);
  const auto optimum = trace.optimum();
  std::cout << "workload: " << trace.workload() << "\ncores: " << trace.cores()
            << "\nconfigurations: " << trace.size()
            << "\noptimum: " << optimum.config.to_string() << " @ "
            << util::fmt_double(optimum.throughput, 1) << "\n";
  return 0;
}

/// Maps a servable workload name onto the sim preset that parameterizes the
/// compositional model for it. Model assists are shape-relative (prior
/// rescaling, model-relative veto), so preset-level fidelity suffices.
std::string sim_preset_for(const std::string& serve_workload) {
  if (serve_workload == "tpcc") return "tpcc-med";
  if (serve_workload == "vacation") return "vacation-med";
  if (serve_workload == "array") return "array-0.01";
  if (serve_workload == "array-high") return "array-90";
  return serve_workload;  // already a sim preset name
}

/// serve: the live path — a real PN-STM behind the serving engine, and the
/// AutoPN controller retuning (t, c) on the running system via CUSUM. The
/// traffic is in-process open-loop arrivals whose rate shifts halfway
/// through, or, with --listen, whatever reaches a NetServer in front of the
/// engine over TCP (drive it with `autopn netload`).
int cmd_serve(const Options& o) {
  if (o.listen && (o.given.count("--rate") > 0 || o.given.count("--shift") > 0)) {
    throw UsageError{"serve --listen takes no --rate or --shift: netload sets the rate"};
  }
  const std::string& name = o.args.empty() ? o.workload : o.args[0];
  stm::StmConfig stm_cfg;
  stm_cfg.max_cores = static_cast<std::size_t>(o.cores);
  stm_cfg.pool_threads = std::max<std::size_t>(2, o.workers);
  stm::Stm stm{stm_cfg};
  util::WallClock clock;
  auto workload = serve::make_servable_workload(name, stm, o.seed ^ 0x5e);

  serve::ServeConfig serve_cfg;
  serve_cfg.workers = o.workers;
  serve_cfg.queue_capacity = 512;
  serve_cfg.seed = o.seed;
  serve_cfg.request_timeout = o.request_timeout;
  serve::ServeEngine engine{stm, workload.handler, clock, serve_cfg};
  const opt::ConfigSpace space{o.cores};

  // Optional model assists: a warm-start prior for the optimizer and/or a
  // veto advisor for the controller, both from the compositional model of
  // the sim preset closest to the served workload.
  std::optional<model::TunerAdvisor> advisor;
  std::optional<opt::Prior> prior;
  if (o.model_warm || o.model_veto > 0.0) {
    model::PipelineParams pipeline;
    pipeline.workload = sim::workload_by_name(sim_preset_for(name));
    pipeline.cores = o.cores;
    pipeline.workers = o.workers;
    pipeline.queue_capacity = serve_cfg.queue_capacity;
    model::CompositionalModel m{pipeline};
    if (o.model_warm) prior = model::make_prior(m, space);
    if (o.model_veto > 0.0) advisor.emplace(std::move(m));
  }

  runtime::ControllerParams params;
  params.max_window_seconds = 0.5;
  params.model_veto_band = o.model_veto;
  params.model_veto_blocks = o.model_veto > 0.0;
  const opt::Prior* prior_ptr = prior.has_value() ? &*prior : nullptr;
  runtime::TuningController controller{
      stm, make_optimizer(o.optimizer, space, o.seed, prior_ptr),
      std::make_unique<runtime::FixedTimePolicy>(0.05), clock, params};
  controller.set_latency_source(&engine.kpi_source());
  if (advisor.has_value()) controller.set_config_advisor(&*advisor);

  std::optional<net::NetServer> server;
  const double rates[2] = {o.rate, o.rate * o.shift};
  if (o.listen) {
    net::NetServerConfig net_cfg;
    net_cfg.bind_address = o.listen->host;
    net_cfg.port = o.listen->port;
    server.emplace(engine, net::NetServer::HandlerTable{}, net_cfg);
    if (!o.port_file.empty()) std::ofstream{o.port_file} << server->port() << "\n";
    std::cout << "listening on " << net_cfg.bind_address << ":" << server->port()
              << " — " << name << " workload, " << o.workers
              << " workers, serving for " << util::fmt_double(o.duration, 1) << "s\n"
              << std::flush;
  } else {
    std::cout << "serving " << name << ": " << o.workers << " workers, queue "
              << serve_cfg.queue_capacity << ", open-loop "
              << util::fmt_double(rates[0], 0) << " req/s shifting to "
              << util::fmt_double(rates[1], 0) << " req/s at t="
              << util::fmt_double(o.duration / 2, 1) << "s; " << o.optimizer
              << " tuning live over " << space.size() << " configurations\n";
  }

  const double start = clock.now();
  std::size_t rounds = 0;
  std::jthread tuner{[&] {
    rounds = controller.tune_and_watch(
        [&] { return make_optimizer(o.optimizer, space, o.seed, prior_ptr); },
        o.duration);
  }};
  std::vector<serve::OpenLoopResult> phases;
  for (int i = 0; !server && i < 2; ++i) {
    serve::OpenLoopParams phase;
    phase.rate = rates[i];
    phase.duration = o.duration / 2;
    phase.seed = o.seed ^ (i == 0 ? 0xaa : 0xbb);
    phases.push_back(serve::run_open_loop(engine, phase));
  }
  tuner.join();
  const double elapsed = clock.now() - start;

  bool wire_exact = true;
  if (server) {
    server->shutdown();
    const net::NetServerReport wire = server->report();
    util::TextTable ledger{{"accepted", "disconnects", "decoded", "written",
                            "dropped", "shed", "bp pauses"}};
    ledger.add_row({std::to_string(wire.accepted), std::to_string(wire.disconnects),
                    std::to_string(wire.requests_decoded),
                    std::to_string(wire.responses_written),
                    std::to_string(wire.responses_dropped),
                    std::to_string(wire.shed_responses),
                    std::to_string(wire.backpressure_pauses)});
    ledger.print(std::cout);
    if (wire.accept.count > 0) {
      std::cout << "wire stages:   accept p50 "
                << util::fmt_double(wire.accept.p50 * 1e6, 1) << " µs p99 "
                << util::fmt_double(wire.accept.p99 * 1e6, 1) << " µs; reply p50 "
                << util::fmt_double(wire.reply.p50 * 1e6, 1) << " µs p99 "
                << util::fmt_double(wire.reply.p99 * 1e6, 1) << " µs\n";
    }
    wire_exact = wire.ledger_exact();
    std::cout << "wire ledger:   "
              << (wire_exact ? "exact (decoded == written + dropped)" : "VIOLATED")
              << "\n";
  } else {
    engine.drain_and_stop();
    util::TextTable table{{"phase", "rate", "offered", "shed", "max depth"}};
    for (std::size_t i = 0; i < phases.size(); ++i) {
      table.add_row({std::to_string(i + 1), util::fmt_double(rates[i], 0),
                     std::to_string(phases[i].offered),
                     util::fmt_percent(phases[i].shed_fraction()),
                     std::to_string(phases[i].max_queue_depth)});
    }
    table.print(std::cout);
  }

  const serve::ServeReport report = engine.report();
  std::cout << "tuning rounds: " << rounds
            << (!server && rounds >= 2 ? " (the rate shift triggered a re-tune)" : "")
            << "\nchosen (t,c):  (" << stm.top_limit() << "," << stm.child_limit()
            << ")\nthroughput:    "
            << util::fmt_double(
                   static_cast<double>(report.completed) / std::max(elapsed, 1e-9), 0)
            << " req/s (" << report.completed << " completed in "
            << util::fmt_double(elapsed, 2) << "s)\nlatency (ms):  p50 "
            << util::fmt_double(report.latency.p50 * 1e3, 2) << "  p95 "
            << util::fmt_double(report.latency.p95 * 1e3, 2) << "  p99 "
            << util::fmt_double(report.latency.p99 * 1e3, 2)
            << "\nshed fraction: " << util::fmt_percent(report.shed_fraction)
            << " (" << report.shed << "/" << report.offered << " offered)\n"
            << "retry-after:   " << util::fmt_double(report.retry_after_hint * 1e3, 1)
            << " ms (hint a request shed right now would receive)\n";
  if (report.queue_wait.count > 0) {
    // Per-stage breakdown of the end-to-end latency — the production
    // counters the compositional model fits from.
    util::TextTable stages{{"stage", "mean(ms)", "p50(ms)", "p99(ms)"}};
    for (const auto& [stage, s] :
         {std::pair{"queue wait", report.queue_wait}, std::pair{"service", report.service}}) {
      stages.add_row({stage, util::fmt_double(s.mean * 1e3, 2),
                      util::fmt_double(s.p50 * 1e3, 2), util::fmt_double(s.p99 * 1e3, 2)});
    }
    stages.print(std::cout);
  }
  if (report.tenants.size() > 1) {
    util::TextTable tenants{{"tenant", "requests", "p50(ms)", "p95(ms)", "p99(ms)"}};
    for (const auto& t : report.tenants) {
      tenants.add_row({std::to_string(t.tenant), std::to_string(t.latency.count),
                       util::fmt_double(t.latency.p50 * 1e3, 2),
                       util::fmt_double(t.latency.p95 * 1e3, 2),
                       util::fmt_double(t.latency.p99 * 1e3, 2)});
    }
    tenants.print(std::cout);
  }
  if (o.model_warm || o.model_veto > 0.0) {
    std::cout << "model assist:  " << (o.model_warm ? "warm-start prior" : "")
              << (o.model_warm && o.model_veto > 0.0 ? " + " : "")
              << (o.model_veto > 0.0
                      ? "veto band " + util::fmt_percent(o.model_veto) + " (" +
                            std::to_string(controller.vetoes().flagged) +
                            " flagged, " +
                            std::to_string(controller.vetoes().blocked) + " blocked)"
                      : "")
              << "\n";
  }
  if (report.expired > 0 || o.request_timeout > 0.0) {
    std::cout << "expired:       " << report.expired << " (deadline "
              << util::fmt_double(o.request_timeout * 1e3, 0) << " ms)\n";
  }
  if (report.failed > 0) {
    std::cout << "failed:        " << report.failed << " (handler errors)\n";
  }
  if (!wire_exact) return 1;
  if (!workload.verify()) {
    std::cerr << "consistency check FAILED\n";
    return 1;
  }
  std::cout << "consistency:   OK\n";
  return 0;
}

/// router: the distributed serving tier's front end — consistent-hash
/// placement of tenants over `autopn serve --listen` shards, per-shard KPI
/// polling, and ContTune-conservative latency-driven rebalancing. Serves
/// the same wire protocol as a shard, so `autopn netload` drives it
/// unchanged.
int cmd_router(const Options& o) {
  if (!o.listen) throw UsageError{"router needs --listen ADDR:PORT"};
  std::vector<router::ShardAddress> shards;
  for (HostPort& shard : shard_addresses(o, "router")) {
    const auto id = static_cast<std::uint32_t>(shards.size());
    shards.push_back(router::ShardAddress{id, std::move(shard.host), shard.port});
  }

  router::RouterConfig cfg;
  cfg.server.bind_address = o.listen->host;
  cfg.server.port = o.listen->port;
  cfg.rebalance.slo_p99_us = static_cast<std::uint64_t>(o.slo_ms * 1e3);
  cfg.rebalance_seconds = o.rebalance_interval;
  cfg.rebalance_enabled = !o.no_rebalance;
  cfg.redial_budget = o.redial_budget;
  router::Router router{shards, cfg};

  if (!o.port_file.empty()) std::ofstream{o.port_file} << router.port() << "\n";
  std::cout << "routing on " << cfg.server.bind_address << ":" << router.port()
            << " → " << shards.size() << " shards, SLO p99 "
            << util::fmt_double(o.slo_ms, 1) << " ms, rebalance "
            << (cfg.rebalance_enabled
                    ? "every " + util::fmt_double(cfg.rebalance_seconds, 1) + "s"
                    : "off")
            << ", serving for " << util::fmt_double(o.duration, 1) << "s\n"
            << std::flush;

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(o.duration));
  int tick = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    // Publish the rebalancer's capacity recommendation for an external
    // autoscaler (scripts/run_cluster.sh --elastic) to act on.
    if (!o.scale_file.empty() && ++tick % 5 == 0) {
      const router::ScaleProposal scale = router.scale_recommendation();
      std::ofstream out{o.scale_file};
      out << router::to_string(scale.action);
      if (scale.action == router::ScaleAction::kRemove) {
        out << " " << scale.shard_id;
      }
      out << "\n";
    }
  }

  // Snapshot the per-shard SLO table before shutdown tears the links down.
  const auto status = router.shard_status();
  const auto members = router.membership_status();
  router.shutdown();

  util::TextTable slo{{"shard", "state", "ring", "offered", "completed", "shed",
                       "depth", "p50(ms)", "p99(ms)", "reconn", "redials"}};
  for (const auto& s : status) {
    const net::StatsFrame stats = s.stats.value_or(net::StatsFrame{});
    slo.add_row({std::to_string(s.shard_id), router::to_string(s.health),
                 s.in_ring ? "yes" : "NO",
                 std::to_string(stats.offered), std::to_string(stats.completed),
                 std::to_string(stats.shed), std::to_string(stats.queue_depth),
                 util::fmt_double(static_cast<double>(stats.p50_us) / 1e3, 2),
                 util::fmt_double(static_cast<double>(stats.p99_us) / 1e3, 2),
                 std::to_string(s.reconnects),
                 std::to_string(s.redial_attempts)});
  }
  slo.print(std::cout);

  const router::RouterReport report = router.report();
  util::TextTable ledger{{"dispatched", "forwarded", "shed@router", "returned",
                          "synth", "held", "migrations", "forced cuts"}};
  ledger.add_row({std::to_string(report.dispatched),
                  std::to_string(report.forwarded),
                  std::to_string(report.shed_local),
                  std::to_string(report.returned),
                  std::to_string(report.synthesized),
                  std::to_string(report.held),
                  std::to_string(report.migrations_completed),
                  std::to_string(report.forced_cuts)});
  ledger.print(std::cout);
  const bool router_exact = report.ledger_exact();
  const bool wire_exact = router.server_report().ledger_exact();
  std::cout << "router ledger: "
            << (router_exact
                    ? "exact (dispatched == forwarded + shed, forwarded == returned)"
                    : "VIOLATED")
            << "\nwire ledger:   "
            << (wire_exact ? "exact (decoded == written + dropped)" : "VIOLATED")
            << "\nmembership:    " << report.admits << " admits, "
            << report.retires << " retires, " << report.evictions
            << " evictions, " << report.readmits << " ring joins\n";
  if (!members.log.empty()) {
    std::cout << "membership log:" << membership_log(members.log) << "\n";
  }
  return router_exact && wire_exact ? 0 : 1;
}

/// router-ctl: membership control client. Speaks the Membership frame
/// pair at a running router — admit a shard, retire one, or read the
/// member table, membership log, and scale recommendation. A plain shard
/// answers ok=false ("not supported").
int cmd_router_ctl(const Options& o) {
  const std::string& action = o.args[0];
  const std::uint16_t port = target_port(o, "router-ctl");
  net::MembershipRequest request;
  if (action == "add" || action == "remove") {
    if (!o.shard_id) throw UsageError{"router-ctl " + action + " needs --shard-id N"};
    request.shard_id = *o.shard_id;
    request.op = net::MembershipOp::kRemove;
    if (action == "add") {
      HostPort shard = shard_addresses(o, "router-ctl add").front();
      request.op = net::MembershipOp::kAdd;
      request.host = std::move(shard.host);
      request.port = shard.port;
    }
  } else if (action == "status") {
    request.op = net::MembershipOp::kStatus;
  } else {
    throw UsageError{"router-ctl wants add, remove, or status (got '" + action + "')"};
  }

  auto client = net::Client::connect(o.host, port, 2.0);
  if (!client.send_membership(request)) {
    std::cerr << "failed to send membership request\n";
    return 1;
  }
  const auto reply = client.poll_membership(2.0);
  if (!reply) {
    std::cerr << "no membership response within 2s\n";
    return 1;
  }
  if (!reply->message.empty()) {
    std::cout << (reply->ok ? "" : "rejected: ") << reply->message << "\n";
  }
  util::TextTable table{{"shard", "address", "state", "ring", "redials",
                         "reconn", "last error"}};
  for (const net::MemberInfo& m : reply->members) {
    table.add_row({std::to_string(m.shard_id),
                   m.host + ":" + std::to_string(m.port),
                   router::to_string(static_cast<router::HealthState>(m.health)),
                   m.in_ring ? "yes" : "NO",
                   std::to_string(m.redial_attempts),
                   std::to_string(m.reconnects), m.last_error});
  }
  table.print(std::cout);
  const auto scale = static_cast<router::ScaleAction>(reply->scale_action);
  std::cout << "log:" << membership_log(reply->log)
            << "\nscale: " << router::to_string(scale);
  if (scale == router::ScaleAction::kRemove) std::cout << " " << reply->scale_shard;
  std::cout << "\n";
  return reply->ok ? 0 : 1;
}

int cmd_netload(const Options& o) {
  net::NetLoadParams params;
  params.host = o.host;
  params.port = target_port(o, "netload");
  params.connections = o.connections;
  params.closed_loop = o.closed_loop;
  params.rate = o.rate;
  params.think_time = o.think_time;
  params.duration = o.duration;
  params.tenants = o.tenants;
  params.payload_bytes = o.payload;
  params.deadline_us = o.deadline_us;
  params.seed = o.seed;

  std::cout << "netload → " << params.host << ":" << params.port << " — "
            << params.connections << " connections, "
            << (params.closed_loop
                    ? "closed loop"
                    : "open loop @ " + util::fmt_double(params.rate, 0) + " req/s")
            << " for " << util::fmt_double(params.duration, 1) << "s\n";
  const net::NetLoadResult result = net::run_netload(params);

  util::TextTable counts{{"sent", "ok", "shed", "shed@rtr", "rtr-dead",
                          "rtr-blip", "expired", "failed", "rejected",
                          "io errs", "reconn", "unanswered"}};
  counts.add_row({std::to_string(result.sent), std::to_string(result.ok),
                  std::to_string(result.shed),
                  std::to_string(result.shed_router),
                  std::to_string(result.shed_router_dead),
                  std::to_string(result.shed_router_transient),
                  std::to_string(result.expired),
                  std::to_string(result.failed), std::to_string(result.rejected),
                  std::to_string(result.io_errors),
                  std::to_string(result.reconnects),
                  std::to_string(result.unanswered)});
  counts.print(std::cout);
  const double seconds = std::max(result.duration, 1e-9);
  std::cout << "achieved:      "
            << util::fmt_double(static_cast<double>(result.sent) / seconds, 0)
            << " req/s offered, "
            << util::fmt_double(static_cast<double>(result.ok) / seconds, 0)
            << " req/s served\nlatency (ms):  p50 "
            << util::fmt_double(result.latency.p50 * 1e3, 2) << "  p95 "
            << util::fmt_double(result.latency.p95 * 1e3, 2) << "  p99 "
            << util::fmt_double(result.latency.p99 * 1e3, 2)
            << "  (client-observed)\n";
  if (result.shed > 0) {
    std::cout << "mean retry-after: "
              << util::fmt_double(result.mean_retry_after * 1e3, 1)
              << " ms over " << result.shed << " shed responses\n";
  }
  // An all-zero answered count means the server never responded — fail the
  // smoke rather than report a vacuous success.
  return result.answered() > 0 ? 0 : 1;
}

/// One subcommand: its positional arguments ("[x]" is optional), the flags
/// it takes with their defaults (nullptr: none), its handler and summary.
/// Every subcommand also takes the global --failpoints.
struct Command {
  const char* name;
  std::vector<const char*> args;
  std::vector<std::pair<const char*, const char*>> flags;
  int (*run)(const Options&);
  const char* about;

  [[nodiscard]] bool takes(const std::string& flag) const {
    return flag == "--failpoints" ||
           std::any_of(flags.begin(), flags.end(),
                       [&](const auto& entry) { return flag == entry.first; });
  }
  [[nodiscard]] std::string synopsis() const {
    std::string text = std::string{"autopn "} + name;
    for (const char* arg : args) text += std::string{" "} + arg;
    return text;
  }
};

const std::vector<Command> kCommands = {
    {"workloads", {}, {}, cmd_workloads, "list the 10 paper workloads and their optima"},
    {"surface", {"<workload>"}, {{"--cores", "48"}}, cmd_surface,
     "print a workload's throughput surface"},
    {"model",
     {"<workload>"},
     {{"--rate", "600"}, {"--workers", "4"}, {"--cores", "48"}, {"--shift", "4"},
      {"--shed-target", "0.01"}},
     cmd_model,
     "capacity what-ifs answered by the compositional model"},
    {"tune", {"<workload>"}, {{"--optimizer", "autopn"}, {"--seed", "1"}, {"--cores", "48"}},
     cmd_tune, "run one tuner (autopn|smbo|random|grid|hc|sa|ga) trace-driven"},
    {"compare", {"<workload>"}, {{"--seed", "1"}, {"--cores", "48"}}, cmd_compare,
     "run every tuner on one workload"},
    {"des-tune", {"<workload>"}, {{"--optimizer", "autopn"}, {"--seed", "1"}, {"--cores", "48"}},
     cmd_des_tune, "run one tuner on the discrete-event simulator"},
    {"record", {"<workload>", "<file>"}, {{"--cores", "48"}, {"--seed", "1"}}, cmd_record,
     "record an offline trace to a file"},
    {"info", {"<file>"}, {}, cmd_info, "summarize a recorded trace"},
    {"serve",
     {"[workload]"},
     {{"--workload", "tpcc"}, {"--rate", "600"}, {"--duration", "4"}, {"--shift", "4"},
      {"--workers", "4"}, {"--optimizer", "autopn"}, {"--cores", "8"}, {"--seed", "1"},
      {"--request-timeout", "0"}, {"--model-warm", nullptr}, {"--model-veto", "0"},
      {"--listen", nullptr}, {"--port-file", nullptr}},
     cmd_serve,
     "serve array|array-high|vacation|tpcc, tuning live; --listen: over TCP"},
    {"netload",
     {},
     {{"--host", "127.0.0.1"}, {"--port", nullptr}, {"--port-file", nullptr},
      {"--connections", "4"}, {"--rate", "600"}, {"--closed-loop", nullptr},
      {"--think", "0.001"}, {"--duration", "4"}, {"--tenants", "1"}, {"--payload", "0"},
      {"--deadline-us", "0"}, {"--seed", "1"}},
     cmd_netload,
     "offer traffic over TCP to --port or the port in --port-file"},
    {"router",
     {},
     {{"--listen", nullptr}, {"--shard", nullptr}, {"--shard-port-file", nullptr},
      {"--port-file", nullptr}, {"--duration", "4"}, {"--slo-ms", "50"},
      {"--rebalance-interval", "1"}, {"--no-rebalance", nullptr},
      {"--redial-budget", "8"}, {"--scale-file", nullptr}},
     cmd_router,
     "route tenants over the --shard/--shard-port-file backends (repeatable)"},
    {"router-ctl",
     {"add|remove|status"},
     {{"--port", nullptr}, {"--port-file", nullptr}, {"--host", "127.0.0.1"},
      {"--shard-id", nullptr}, {"--shard", nullptr}, {"--shard-port-file", nullptr}},
     cmd_router_ctl,
     "admit (add), retire (remove) or list the shards of a router"},
};

int usage() {
  std::cerr << "usage: autopn <subcommand> ...   (flag values shown are defaults)\n";
  for (const Command& c : kCommands) {
    std::string line = "  " + c.synopsis();
    for (const auto& [name, value] : c.flags) {
      const char* shown = value != nullptr ? value : find_flag(name)->metavar;
      const std::string item = std::string{" ["} + name +
                               (shown != nullptr ? std::string{" "} + shown : "") + "]";
      if (line.size() + item.size() > 78) {
        std::cerr << line << "\n";
        line = std::string(8, ' ');
      }
      line += item;
    }
    std::cerr << line << "\n      " << c.about << "\n";
  }
  std::cerr << "global: --failpoints 'name=kind(args)[;...]'  e.g.\n"
               "        --failpoints 'stm.commit.validate=error(p=0.1);stm.vbox.prune=delay(d=1ms)'\n"
               "        (before or after the subcommand; also read from the\n"
               "        AUTOPN_FAILPOINTS environment variable; no-op unless the\n"
               "        build compiles failpoints in)\n";
  return 2;
}

/// The subcommand named on the command line (nullptr: none, or unknown) and
/// its Options: the row's defaults, then what the command line gives.
std::pair<const Command*, Options> parse(const std::vector<std::string>& argv) {
  const Command* command = nullptr;
  Options o{};
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& word = argv[i];
    if (word.rfind("--", 0) != 0) {
      if (command != nullptr) {
        o.args.push_back(word);
        continue;
      }
      for (const Command& c : kCommands) {
        if (word == c.name) command = &c;
      }
      if (command == nullptr) return {nullptr, o};
      for (const auto& [name, value] : command->flags) {
        if (value != nullptr) find_flag(name)->set(o, value, name);
      }
      continue;
    }
    const Flag* flag = find_flag(word);
    if (command == nullptr && word != "--failpoints") return {nullptr, o};
    if (flag == nullptr || (command != nullptr && !command->takes(word))) {
      throw UsageError{std::string{command->name} + " does not take " + word};
    }
    std::string value;
    if (flag->metavar != nullptr) {
      if (++i == argv.size()) throw UsageError{word + " needs a value"};
      value = argv[i];
    }
    flag->set(o, value, word);
    o.given.insert(word);
  }
  if (command != nullptr) {
    const auto required = static_cast<std::size_t>(
        std::count_if(command->args.begin(), command->args.end(),
                      [](const char* arg) { return arg[0] != '['; }));
    if (o.args.size() < required || o.args.size() > command->args.size()) {
      throw UsageError{"usage: " + command->synopsis() + " [flags]"};
    }
  }
  return {command, o};
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto [command, opts] = parse({argv + 1, argv + argc});
    return command == nullptr ? usage() : command->run(opts);
  } catch (const UsageError& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}

// autopn — command-line interface to the library's studies.
//
//   autopn workloads                      list the 10 paper workloads & optima
//   autopn surface <workload>             print a throughput surface
//   autopn tune <workload> [opts]         run one tuner trace-driven, log steps
//   autopn compare <workload> [--seed N]  all tuners on one workload
//   autopn record <workload> <file>       record an offline trace to a file
//   autopn info <file>                    summarize a recorded trace
//   autopn serve [--workload W] [opts]    live serving engine + AutoPN tuning
//
// tune options: --optimizer autopn|smbo|random|grid|hc|sa|ga  --seed N
//               --cores N (default 48)
// serve options: --workload array|array-high|vacation|tpcc  --rate R
//                --duration S  --workers N  --shift F  --cores N  --seed N

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "model/advisor.hpp"
#include "model/compose.hpp"
#include "net/netload.hpp"
#include "net/server.hpp"
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

int usage() {
  std::cerr << "usage: autopn <workloads|surface|model|tune|compare|des-tune|record|info|serve> ...\n"
               "  autopn workloads\n"
               "  autopn surface <workload> [--cores N]\n"
               "  autopn model <workload> [--rate R] [--workers N] [--cores N]\n"
               "               [--shift F] [--shed-target F]   (capacity what-ifs)\n"
               "  autopn tune <workload> [--optimizer NAME] [--seed N] [--cores N]\n"
               "  autopn compare <workload> [--seed N] [--cores N]\n"
               "  autopn des-tune <workload> [--optimizer NAME] [--seed N]\n"
               "  autopn record <workload> <file> [--cores N]\n"
               "  autopn info <file>\n"
               "  autopn serve [--workload W] [--rate R] [--duration S] [--workers N]\n"
               "               [--shift F] [--optimizer NAME] [--cores N] [--seed N]\n"
               "               [--request-timeout S] [--model-warm] [--model-veto BAND]\n"
               "  autopn serve --listen ADDR:PORT [--port-file F] [--duration S]\n"
               "               [--workload W] [--workers N] ...   (0.0.0.0:0 = any port)\n"
               "  autopn netload [--host H] [--port P | --port-file F] [--connections N]\n"
               "               [--rate R | --closed-loop [--think S]] [--duration S]\n"
               "               [--tenants N] [--payload BYTES] [--deadline-us U] [--seed N]\n"
               "  autopn router --listen ADDR:PORT (--shard HOST:PORT | --shard-port-file F)...\n"
               "               [--port-file F] [--duration S] [--slo-ms MS]\n"
               "               [--rebalance-interval S] [--no-rebalance]\n"
               "               [--redial-budget N] [--scale-file F]\n"
               "  autopn router-ctl add (--port P | --port-file F) --shard-id N\n"
               "               (--shard HOST:PORT | --shard-port-file F)   [--host H]\n"
               "  autopn router-ctl remove (--port P | --port-file F) --shard-id N\n"
               "  autopn router-ctl status (--port P | --port-file F)\n"
               "global: --failpoints 'name=kind(args)[;...]'  e.g.\n"
               "        --failpoints 'stm.commit.validate=error(p=0.1);stm.vbox.prune=delay(d=1ms)'\n"
               "        (also read from the AUTOPN_FAILPOINTS environment variable;\n"
               "        no-op unless the build compiles failpoints in)\n";
  return 2;
}

/// A malformed command-line value: main() prints it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A TCP port from text; anything but a whole number in 0..65535 is a
/// UsageError naming `what` (a bare stoul cast would wrap 70000 to 4464).
std::uint16_t parse_port(const std::string& text, const std::string& what) {
  std::size_t used = 0;
  unsigned long value = 0;
  try {
    value = std::stoul(text, &used);
  } catch (const std::logic_error&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || value > 65535) {
    throw UsageError{what + " wants a port in 0..65535 (got '" + text + "')"};
  }
  return static_cast<std::uint16_t>(value);
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

struct Options {
  std::string optimizer = "autopn";
  std::uint64_t seed = 1;
  int cores = 48;
  bool cores_given = false;
  // serve-only knobs
  std::string workload = "tpcc";
  double rate = 600.0;      ///< open-loop arrivals/s before the shift
  double duration = 4.0;    ///< total serving time; the rate shifts halfway
  double shift = 4.0;       ///< rate multiplier for the second phase
  std::size_t workers = 4;  ///< engine worker threads
  double request_timeout = 0.0;  ///< per-request deadline, seconds (0 = none)
  // model knobs (model subcommand / serve warm-start+veto)
  bool model_warm = false;   ///< serve: warm-start the tuner from the model
  double model_veto = 0.0;   ///< serve: veto band (0 = off); vetoes block
  double shed_target = 0.01; ///< model: shed-fraction target for what-ifs
  // network knobs (serve --listen / netload)
  std::string listen;       ///< serve: "addr:port" to put the engine on the wire
  std::string port_file;    ///< serve: write the bound port; netload: read it
  std::string host = "127.0.0.1";  ///< netload target
  std::uint16_t port = 0;          ///< netload target
  std::size_t connections = 4;     ///< netload connections
  bool closed_loop = false;        ///< netload: closed loop instead of Poisson
  double think_time = 0.001;       ///< netload closed loop: mean think seconds
  std::uint16_t tenants = 1;       ///< netload: round-robined tenant ids
  std::size_t payload = 0;         ///< netload: request payload bytes
  std::uint64_t deadline_us = 0;   ///< netload: client deadline on the wire
  // router knobs
  std::vector<std::string> shards;            ///< router: HOST:PORT backends
  std::vector<std::string> shard_port_files;  ///< router: loopback backends
  double slo_ms = 50.0;            ///< router: rebalance SLO on shard p99
  double rebalance_interval = 1.0; ///< router: placement decision cadence
  bool no_rebalance = false;       ///< router: disable the rebalancer
  std::uint64_t redial_budget = 8; ///< router: failed dials before dead
  std::string scale_file;          ///< router: write scale recommendations
  std::uint32_t shard_id = 0;      ///< router-ctl: add/remove target id
  bool shard_id_given = false;
};

Options parse_options(const std::vector<std::string>& args, std::size_t start) {
  Options opts;
  std::size_t i = start;
  while (i < args.size()) {
    // No-argument flags first; everything else consumes a value.
    if (args[i] == "--closed-loop") {
      opts.closed_loop = true;
      ++i;
      continue;
    }
    if (args[i] == "--no-rebalance") {
      opts.no_rebalance = true;
      ++i;
      continue;
    }
    if (args[i] == "--model-warm") {
      opts.model_warm = true;
      ++i;
      continue;
    }
    if (i + 1 >= args.size()) {
      throw std::invalid_argument{"option " + args[i] + " needs a value"};
    }
    if (args[i] == "--optimizer") {
      opts.optimizer = args[i + 1];
    } else if (args[i] == "--seed") {
      opts.seed = std::stoull(args[i + 1]);
    } else if (args[i] == "--cores") {
      opts.cores = std::stoi(args[i + 1]);
      opts.cores_given = true;
    } else if (args[i] == "--workload") {
      opts.workload = args[i + 1];
    } else if (args[i] == "--rate") {
      opts.rate = std::stod(args[i + 1]);
    } else if (args[i] == "--duration") {
      opts.duration = std::stod(args[i + 1]);
    } else if (args[i] == "--shift") {
      opts.shift = std::stod(args[i + 1]);
    } else if (args[i] == "--workers") {
      opts.workers = std::stoul(args[i + 1]);
    } else if (args[i] == "--request-timeout") {
      opts.request_timeout = std::stod(args[i + 1]);
    } else if (args[i] == "--model-veto") {
      opts.model_veto = std::stod(args[i + 1]);
    } else if (args[i] == "--shed-target") {
      opts.shed_target = std::stod(args[i + 1]);
    } else if (args[i] == "--listen") {
      opts.listen = args[i + 1];
    } else if (args[i] == "--port-file") {
      opts.port_file = args[i + 1];
    } else if (args[i] == "--host") {
      opts.host = args[i + 1];
    } else if (args[i] == "--port") {
      opts.port = parse_port(args[i + 1], "--port");
    } else if (args[i] == "--connections") {
      opts.connections = std::stoul(args[i + 1]);
    } else if (args[i] == "--think") {
      opts.think_time = std::stod(args[i + 1]);
    } else if (args[i] == "--tenants") {
      opts.tenants = static_cast<std::uint16_t>(std::stoul(args[i + 1]));
    } else if (args[i] == "--payload") {
      opts.payload = std::stoul(args[i + 1]);
    } else if (args[i] == "--deadline-us") {
      opts.deadline_us = std::stoull(args[i + 1]);
    } else if (args[i] == "--shard") {
      opts.shards.push_back(args[i + 1]);
    } else if (args[i] == "--shard-port-file") {
      opts.shard_port_files.push_back(args[i + 1]);
    } else if (args[i] == "--slo-ms") {
      opts.slo_ms = std::stod(args[i + 1]);
    } else if (args[i] == "--rebalance-interval") {
      opts.rebalance_interval = std::stod(args[i + 1]);
    } else if (args[i] == "--redial-budget") {
      opts.redial_budget = std::stoull(args[i + 1]);
    } else if (args[i] == "--scale-file") {
      opts.scale_file = args[i + 1];
    } else if (args[i] == "--shard-id") {
      opts.shard_id = static_cast<std::uint32_t>(std::stoul(args[i + 1]));
      opts.shard_id_given = true;
    } else if (args[i] == "--failpoints") {
      // Arm immediately — global, not an Options field: failpoints are
      // process-wide and must be live before any workload code runs.
      util::FailpointRegistry::instance().arm_from_string(args[i + 1]);
    } else {
      throw std::invalid_argument{"unknown option " + args[i]};
    }
    i += 2;
  }
  return opts;
}

std::unique_ptr<opt::Optimizer> make_optimizer(const std::string& name,
                                               const opt::ConfigSpace& space,
                                               std::uint64_t seed,
                                               const opt::Prior* prior = nullptr) {
  if (name == "autopn") {
    opt::AutoPnParams params;
    if (prior != nullptr) params.prior = *prior;
    return std::make_unique<opt::AutoPnOptimizer>(space, params, seed);
  }
  if (name == "smbo") {
    opt::AutoPnParams params;
    params.hill_climb_refinement = false;
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

int cmd_workloads() {
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

int cmd_surface(const std::string& workload, const Options& opts) {
  const opt::ConfigSpace space{opts.cores};
  const sim::SurfaceModel model{sim::workload_by_name(workload), opts.cores};
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
int cmd_model(const std::string& workload, const Options& opts) {
  model::PipelineParams pipeline;
  pipeline.workload = sim::workload_by_name(workload);
  pipeline.cores = opts.cores;
  pipeline.workers = opts.workers;
  pipeline.queue_capacity = 512;
  const model::CompositionalModel m{pipeline};
  const opt::ConfigSpace space{opts.cores};

  std::cout << "pipeline: " << workload << ", " << opts.workers
            << " workers, queue " << pipeline.queue_capacity << ", "
            << opts.cores << " cores; open-loop "
            << util::fmt_double(opts.rate, 0) << " req/s\n";

  const auto best = m.best_at(space, opts.rate);
  util::TextTable table{
      {"(t,c)", "thr", "p50(ms)", "p99(ms)", "shed", "util", "abort"}};
  std::vector<opt::Config> rows{{1, 1},
                                {1, std::max(1, opts.cores)},
                                {std::max(1, opts.cores), 1},
                                best.config};
  for (const opt::Config& cfg : rows) {
    if (!space.valid(cfg)) continue;
    const model::Prediction p = m.predict(cfg, opts.rate);
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

  const double shifted_rate = opts.rate * opts.shift;
  const model::Prediction shifted = m.predict(best.config, shifted_rate);
  std::cout << "at " << util::fmt_double(opts.shift, 1) << "x rate ("
            << util::fmt_double(shifted_rate, 0) << " req/s): p99 "
            << util::fmt_double(shifted.p99 * 1e3, 2) << " ms, shed "
            << util::fmt_percent(shifted.shed_fraction) << ", throughput "
            << util::fmt_double(shifted.throughput, 0) << " req/s\n";
  std::cout << "max rate for shed <= " << util::fmt_percent(opts.shed_target)
            << ": "
            << util::fmt_double(m.max_rate_for_shed(best.config, opts.shed_target), 0)
            << " req/s (capacity "
            << util::fmt_double(m.capacity(best.config), 0) << " req/s)\n";
  const std::size_t shards =
      m.min_shards_for_shed(shifted_rate, best.config, opts.shed_target);
  std::cout << "min shards for shed <= " << util::fmt_percent(opts.shed_target)
            << " at " << util::fmt_double(shifted_rate, 0) << " req/s: ";
  if (shards > 64) {
    std::cout << "> 64\n";
  } else {
    std::cout << shards << "\n";
  }
  return 0;
}

int cmd_tune(const std::string& workload, const Options& opts) {
  const opt::ConfigSpace space{opts.cores};
  const sim::SurfaceModel model{sim::workload_by_name(workload), opts.cores};
  auto optimizer = make_optimizer(opts.optimizer, space, opts.seed);
  util::Rng noise{opts.seed ^ 0xabc};
  std::cout << "tuning " << workload << " with " << optimizer->name() << " over "
            << space.size() << " configurations\n";
  util::TextTable steps{{"step", "config", "measured", "best so far", "DFO"}};
  std::size_t step = 0;
  double best = 0.0;
  opt::Config incumbent{1, 1};
  while (auto proposal = optimizer->propose()) {
    const double kpi = model.sample(*proposal, 1.0, noise);
    optimizer->observe(*proposal, kpi);
    if (kpi > best) {
      best = kpi;
      incumbent = *proposal;
    }
    steps.add_row({std::to_string(++step), proposal->to_string(),
                   util::fmt_double(kpi, 0), incumbent.to_string(),
                   util::fmt_percent(model.distance_from_optimum(space, incumbent))});
    if (step > 400) break;
  }
  steps.print(std::cout);
  std::cout << "final: " << incumbent.to_string() << " (DFO "
            << util::fmt_percent(model.distance_from_optimum(space, incumbent))
            << ") after " << step << " explorations\n";
  return 0;
}

int cmd_compare(const std::string& workload, const Options& opts) {
  const opt::ConfigSpace space{opts.cores};
  const sim::SurfaceModel model{sim::workload_by_name(workload), opts.cores};
  util::TextTable table{{"optimizer", "chosen", "DFO", "explorations"}};
  for (const std::string name : {"autopn", "smbo", "random", "grid", "hc", "sa", "ga"}) {
    auto optimizer = make_optimizer(name, space, opts.seed);
    util::Rng noise{opts.seed ^ 0xdef};
    const auto result = opt::run_to_convergence(
        *optimizer, [&](const opt::Config& c) { return model.sample(c, 1.0, noise); },
        400);
    table.add_row({name, result.final_best.to_string(),
                   util::fmt_percent(
                       model.distance_from_optimum(space, result.final_best)),
                   std::to_string(result.explorations())});
  }
  table.print(std::cout);
  return 0;
}

int cmd_record(const std::string& workload, const std::string& file,
               const Options& opts) {
  const opt::ConfigSpace space{opts.cores};
  const sim::SurfaceModel model{sim::workload_by_name(workload), opts.cores};
  const auto trace = sim::SurfaceTrace::record(model, space, 10, 600.0, opts.seed);
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

int cmd_des_tune(const std::string& workload, const Options& opts) {
  const opt::ConfigSpace space{opts.cores};
  const sim::DesParams des_params =
      sim::des_from_workload(sim::workload_by_name(workload), opts.cores);
  auto optimizer = make_optimizer(opts.optimizer, space, opts.seed);
  std::cout << "tuning " << workload << " on the discrete-event simulator with "
            << optimizer->name() << "\n";
  std::size_t step = 0;
  while (auto proposal = optimizer->propose()) {
    sim::DesSimulator sim{des_params, *proposal, opts.seed + step};
    const auto window = sim.run_commits(200, 5.0);
    optimizer->observe(*proposal, window.throughput());
    ++step;
    if (step > 400) break;
  }
  const opt::Config chosen = optimizer->best();
  sim::DesSimulator verify{des_params, chosen, opts.seed ^ 0xfff};
  const auto long_run = verify.run(3.0);
  std::cout << "chosen " << chosen.to_string() << " after " << step
            << " explorations; long-run DES throughput "
            << util::fmt_double(long_run.throughput(), 0) << " tx/s, abort rate "
            << util::fmt_percent(long_run.abort_rate()) << "\n";
  return 0;
}

/// SLO lines shared by the in-process and network serve paths: the queue's
/// current retry-after hint and the per-tenant latency breakdown.
void print_slo_details(const serve::ServeReport& report) {
  std::cout << "retry-after:   "
            << util::fmt_double(report.retry_after_hint * 1e3, 1)
            << " ms (hint a request shed right now would receive)\n";
  if (report.queue_wait.count > 0) {
    // Per-stage breakdown of the end-to-end latency — the production
    // counters the compositional model fits from.
    util::TextTable stages{{"stage", "mean(ms)", "p50(ms)", "p99(ms)"}};
    stages.add_row({"queue wait", util::fmt_double(report.queue_wait.mean * 1e3, 2),
                    util::fmt_double(report.queue_wait.p50 * 1e3, 2),
                    util::fmt_double(report.queue_wait.p99 * 1e3, 2)});
    stages.add_row({"service", util::fmt_double(report.service.mean * 1e3, 2),
                    util::fmt_double(report.service.p50 * 1e3, 2),
                    util::fmt_double(report.service.p99 * 1e3, 2)});
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

/// serve --listen: the full stack on the wire — NetServer in front of the
/// engine, the AutoPN controller tuning live, traffic arriving over TCP
/// (drive it with `autopn netload`).
int cmd_serve_net(const Options& opts) {
  const HostPort listen = split_host_port(opts.listen, "--listen");
  net::NetServerConfig net_cfg;
  net_cfg.bind_address = listen.host;
  net_cfg.port = listen.port;

  const int cores = opts.cores_given ? opts.cores : 8;
  stm::StmConfig stm_cfg;
  stm_cfg.max_cores = static_cast<std::size_t>(cores);
  stm_cfg.pool_threads = std::max<std::size_t>(2, opts.workers);
  stm::Stm stm{stm_cfg};
  util::WallClock clock;
  auto workload = serve::make_servable_workload(opts.workload, stm, opts.seed ^ 0x5e);

  serve::ServeConfig serve_cfg;
  serve_cfg.workers = opts.workers;
  serve_cfg.queue_capacity = 512;
  serve_cfg.seed = opts.seed;
  serve_cfg.request_timeout = opts.request_timeout;
  serve::ServeEngine engine{stm, workload.handler, clock, serve_cfg};
  net::NetServer server{engine, {}, net_cfg};

  if (!opts.port_file.empty()) {
    std::ofstream out{opts.port_file};
    out << server.port() << "\n";
  }
  std::cout << "listening on " << net_cfg.bind_address << ":" << server.port()
            << " — " << opts.workload << " workload, " << opts.workers
            << " workers, serving for " << util::fmt_double(opts.duration, 1)
            << "s\n"
            << std::flush;

  const opt::ConfigSpace space{cores};
  runtime::ControllerParams params;
  params.max_window_seconds = 0.5;
  runtime::TuningController controller{
      stm, make_optimizer(opts.optimizer, space, opts.seed),
      std::make_unique<runtime::FixedTimePolicy>(0.05), clock, params};
  controller.set_latency_source(&engine.kpi_source());

  const double start = clock.now();
  const std::size_t rounds = controller.tune_and_watch(
      [&] { return make_optimizer(opts.optimizer, space, opts.seed); },
      opts.duration);
  const double elapsed = clock.now() - start;
  server.shutdown();

  const net::NetServerReport wire = server.report();
  const serve::ServeReport report = engine.report();
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
  const bool ledger_exact =
      wire.requests_decoded == wire.responses_enqueued &&
      wire.responses_enqueued == wire.responses_written + wire.responses_dropped;
  std::cout << "wire ledger:   "
            << (ledger_exact ? "exact (decoded == written + dropped)"
                             : "VIOLATED")
            << "\ntuning rounds: " << rounds << "\nchosen (t,c):  ("
            << stm.top_limit() << "," << stm.child_limit()
            << ")\nthroughput:    "
            << util::fmt_double(static_cast<double>(report.completed) /
                                    std::max(elapsed, 1e-9),
                                0)
            << " req/s (" << report.completed << " completed)\nlatency (ms):  p50 "
            << util::fmt_double(report.latency.p50 * 1e3, 2) << "  p95 "
            << util::fmt_double(report.latency.p95 * 1e3, 2) << "  p99 "
            << util::fmt_double(report.latency.p99 * 1e3, 2)
            << "\nshed fraction: " << util::fmt_percent(report.shed_fraction)
            << " (" << report.shed << "/" << report.offered << " offered)\n";
  print_slo_details(report);
  if (!ledger_exact) return 1;
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
int cmd_router(const Options& opts) {
  if (opts.listen.empty()) {
    std::cerr << "router needs --listen ADDR:PORT\n";
    return 2;
  }
  const HostPort listen = split_host_port(opts.listen, "--listen");

  std::vector<router::ShardAddress> shards;
  std::uint32_t next_id = 0;
  for (const std::string& spec : opts.shards) {
    HostPort shard = split_host_port(spec, "--shard");
    shards.push_back(
        router::ShardAddress{next_id++, std::move(shard.host), shard.port});
  }
  for (const std::string& file : opts.shard_port_files) {
    shards.push_back(
        router::ShardAddress{next_id++, "127.0.0.1", read_port_file(file)});
  }
  if (shards.empty()) {
    std::cerr << "router needs at least one --shard or --shard-port-file\n";
    return 2;
  }

  router::RouterConfig cfg;
  cfg.server.bind_address = listen.host;
  cfg.server.port = listen.port;
  cfg.rebalance.slo_p99_us = static_cast<std::uint64_t>(opts.slo_ms * 1e3);
  cfg.rebalance_seconds = opts.rebalance_interval;
  cfg.rebalance_enabled = !opts.no_rebalance;
  cfg.redial_budget = opts.redial_budget;
  router::Router router{shards, cfg};

  if (!opts.port_file.empty()) {
    std::ofstream out{opts.port_file};
    out << router.port() << "\n";
  }
  std::cout << "routing on " << cfg.server.bind_address << ":" << router.port()
            << " → " << shards.size() << " shards, SLO p99 "
            << util::fmt_double(opts.slo_ms, 1) << " ms, rebalance "
            << (cfg.rebalance_enabled
                    ? "every " + util::fmt_double(cfg.rebalance_seconds, 1) + "s"
                    : "off")
            << ", serving for " << util::fmt_double(opts.duration, 1) << "s\n"
            << std::flush;

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(opts.duration));
  int tick = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    // Publish the rebalancer's capacity recommendation for an external
    // autoscaler (scripts/run_cluster.sh --elastic) to act on.
    if (!opts.scale_file.empty() && ++tick % 5 == 0) {
      const router::ScaleProposal scale = router.scale_recommendation();
      std::ofstream out{opts.scale_file};
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
  const net::NetServerReport wire = router.server_report();
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
  const bool router_ledger_exact =
      report.dispatched == report.forwarded + report.shed_local &&
      report.forwarded == report.returned && report.late_responses == 0;
  const bool wire_ledger_exact =
      wire.requests_decoded == wire.responses_enqueued &&
      wire.responses_enqueued == wire.responses_written + wire.responses_dropped;
  std::cout << "router ledger: "
            << (router_ledger_exact
                    ? "exact (dispatched == forwarded + shed, forwarded == returned)"
                    : "VIOLATED")
            << "\nwire ledger:   "
            << (wire_ledger_exact ? "exact (decoded == written + dropped)"
                                  : "VIOLATED")
            << "\nmembership:    " << report.admits << " admits, "
            << report.retires << " retires, " << report.evictions
            << " evictions, " << report.readmits << " ring joins\n";
  if (!members.log.empty()) {
    std::cout << "membership log:";
    for (const net::MembershipLogEntry& entry : members.log) {
      std::cout << " " << entry.seq << ":"
                << router::to_string(
                       static_cast<router::MembershipEvent>(entry.event))
                << "(" << entry.shard_id << ")";
    }
    std::cout << "\n";
  }
  return router_ledger_exact && wire_ledger_exact ? 0 : 1;
}

/// router-ctl: membership control client. Speaks the Membership frame
/// pair at a running router — admit a shard, retire one, or read the
/// member table, membership log, and scale recommendation. A plain shard
/// answers ok=false ("not supported").
int cmd_router_ctl(const std::string& action, const Options& opts) {
  const std::uint16_t port =
      opts.port_file.empty() ? opts.port : read_port_file(opts.port_file);
  if (port == 0) {
    std::cerr << "router-ctl needs --port or --port-file\n";
    return 2;
  }

  net::MembershipRequest request;
  if (action == "add") {
    request.op = net::MembershipOp::kAdd;
    if (!opts.shard_id_given) {
      std::cerr << "router-ctl add needs --shard-id N\n";
      return 2;
    }
    request.shard_id = opts.shard_id;
    if (!opts.shards.empty()) {
      HostPort shard = split_host_port(opts.shards.front(), "--shard");
      request.host = std::move(shard.host);
      request.port = shard.port;
    } else if (!opts.shard_port_files.empty()) {
      request.host = "127.0.0.1";
      request.port = read_port_file(opts.shard_port_files.front());
    } else {
      std::cerr << "router-ctl add needs --shard HOST:PORT or "
                   "--shard-port-file F\n";
      return 2;
    }
  } else if (action == "remove") {
    request.op = net::MembershipOp::kRemove;
    if (!opts.shard_id_given) {
      std::cerr << "router-ctl remove needs --shard-id N\n";
      return 2;
    }
    request.shard_id = opts.shard_id;
  } else if (action == "status") {
    request.op = net::MembershipOp::kStatus;
  } else {
    std::cerr << "router-ctl wants add, remove, or status (got '" << action
              << "')\n";
    return 2;
  }

  auto client = net::Client::connect(opts.host, port, 2.0);
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
  std::cout << "log:";
  for (const net::MembershipLogEntry& entry : reply->log) {
    std::cout << " " << entry.seq << ":"
              << router::to_string(
                     static_cast<router::MembershipEvent>(entry.event))
              << "(" << entry.shard_id << ")";
  }
  std::cout << "\nscale: "
            << router::to_string(
                   static_cast<router::ScaleAction>(reply->scale_action));
  if (static_cast<router::ScaleAction>(reply->scale_action) ==
      router::ScaleAction::kRemove) {
    std::cout << " " << reply->scale_shard;
  }
  std::cout << "\n";
  return reply->ok ? 0 : 1;
}

int cmd_netload(const Options& opts) {
  net::NetLoadParams params;
  params.host = opts.host;
  params.port =
      opts.port_file.empty() ? opts.port : read_port_file(opts.port_file);
  if (params.port == 0) {
    std::cerr << "netload needs --port or --port-file\n";
    return 2;
  }
  params.connections = opts.connections;
  params.closed_loop = opts.closed_loop;
  params.rate = opts.rate;
  params.think_time = opts.think_time;
  params.duration = opts.duration;
  params.tenants = opts.tenants;
  params.payload_bytes = opts.payload;
  params.deadline_us = opts.deadline_us;
  params.seed = opts.seed;

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
  std::cout << "achieved:      "
            << util::fmt_double(static_cast<double>(result.sent) /
                                    std::max(result.duration, 1e-9),
                                0)
            << " req/s offered, "
            << util::fmt_double(static_cast<double>(result.ok) /
                                    std::max(result.duration, 1e-9),
                                0)
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

int cmd_serve(const Options& opts) {
  if (!opts.listen.empty()) return cmd_serve_net(opts);
  // The live path: a real PN-STM behind the serving engine, open-loop
  // traffic whose arrival rate shifts halfway through, and the AutoPN
  // controller retuning (t, c) on the running system via CUSUM.
  const int cores = opts.cores_given ? opts.cores : 8;
  stm::StmConfig stm_cfg;
  stm_cfg.max_cores = static_cast<std::size_t>(cores);
  stm_cfg.pool_threads = std::max<std::size_t>(2, opts.workers);
  stm::Stm stm{stm_cfg};
  util::WallClock clock;
  auto workload = serve::make_servable_workload(opts.workload, stm, opts.seed ^ 0x5e);

  serve::ServeConfig serve_cfg;
  serve_cfg.workers = opts.workers;
  serve_cfg.queue_capacity = 512;
  serve_cfg.seed = opts.seed;
  serve_cfg.request_timeout = opts.request_timeout;
  serve::ServeEngine engine{stm, workload.handler, clock, serve_cfg};

  const opt::ConfigSpace space{cores};

  // Optional model assists: a warm-start prior for the optimizer and/or a
  // veto advisor for the controller, both from the compositional model of
  // the sim preset closest to the served workload.
  std::optional<model::TunerAdvisor> advisor;
  std::optional<opt::Prior> prior;
  if (opts.model_warm || opts.model_veto > 0.0) {
    model::PipelineParams pipeline;
    pipeline.workload = sim::workload_by_name(sim_preset_for(opts.workload));
    pipeline.cores = cores;
    pipeline.workers = opts.workers;
    pipeline.queue_capacity = serve_cfg.queue_capacity;
    model::CompositionalModel m{pipeline};
    if (opts.model_warm) prior = model::make_prior(m, space);
    if (opts.model_veto > 0.0) advisor.emplace(std::move(m));
  }

  runtime::ControllerParams params;
  params.max_window_seconds = 0.5;
  params.model_veto_band = opts.model_veto;
  params.model_veto_blocks = opts.model_veto > 0.0;
  const opt::Prior* prior_ptr = prior.has_value() ? &*prior : nullptr;
  runtime::TuningController controller{
      stm, make_optimizer(opts.optimizer, space, opts.seed, prior_ptr),
      std::make_unique<runtime::FixedTimePolicy>(0.05), clock, params};
  controller.set_latency_source(&engine.kpi_source());
  if (advisor.has_value()) controller.set_config_advisor(&*advisor);

  const double shifted_rate = opts.rate * opts.shift;
  std::cout << "serving " << opts.workload << ": " << opts.workers
            << " workers, queue " << serve_cfg.queue_capacity << ", open-loop "
            << util::fmt_double(opts.rate, 0) << " req/s shifting to "
            << util::fmt_double(shifted_rate, 0) << " req/s at t="
            << util::fmt_double(opts.duration / 2, 1) << "s; "
            << opts.optimizer << " tuning live over " << space.size()
            << " configurations\n";

  const double start = clock.now();
  std::size_t rounds = 0;
  std::jthread tuner{[&] {
    rounds = controller.tune_and_watch(
        [&] { return make_optimizer(opts.optimizer, space, opts.seed, prior_ptr); },
        opts.duration);
  }};

  serve::OpenLoopParams phase;
  phase.rate = opts.rate;
  phase.duration = opts.duration / 2;
  phase.seed = opts.seed ^ 0xaa;
  const serve::OpenLoopResult p1 = serve::run_open_loop(engine, phase);
  phase.rate = shifted_rate;
  phase.seed = opts.seed ^ 0xbb;
  const serve::OpenLoopResult p2 = serve::run_open_loop(engine, phase);
  tuner.join();
  const double elapsed = clock.now() - start;
  engine.drain_and_stop();

  util::TextTable phases{{"phase", "rate", "offered", "shed", "max depth"}};
  phases.add_row({"1", util::fmt_double(opts.rate, 0), std::to_string(p1.offered),
                  util::fmt_percent(p1.shed_fraction()),
                  std::to_string(p1.max_queue_depth)});
  phases.add_row({"2", util::fmt_double(shifted_rate, 0), std::to_string(p2.offered),
                  util::fmt_percent(p2.shed_fraction()),
                  std::to_string(p2.max_queue_depth)});
  phases.print(std::cout);

  const serve::ServeReport report = engine.report();
  std::cout << "tuning rounds: " << rounds
            << (rounds >= 2 ? " (the rate shift triggered a re-tune)" : "")
            << "\nchosen (t,c):  (" << stm.top_limit() << "," << stm.child_limit()
            << ")\nthroughput:    "
            << util::fmt_double(static_cast<double>(report.completed) / elapsed, 0)
            << " req/s (" << report.completed << " completed in "
            << util::fmt_double(elapsed, 2) << "s)\nlatency (ms):  p50 "
            << util::fmt_double(report.latency.p50 * 1e3, 2) << "  p95 "
            << util::fmt_double(report.latency.p95 * 1e3, 2) << "  p99 "
            << util::fmt_double(report.latency.p99 * 1e3, 2)
            << "\nshed fraction: " << util::fmt_percent(report.shed_fraction)
            << " (" << report.shed << "/" << report.offered << " offered)\n";
  print_slo_details(report);
  if (opts.model_warm || opts.model_veto > 0.0) {
    std::cout << "model assist:  "
              << (opts.model_warm ? "warm-start prior" : "")
              << (opts.model_warm && opts.model_veto > 0.0 ? " + " : "")
              << (opts.model_veto > 0.0
                      ? "veto band " + util::fmt_percent(opts.model_veto) +
                            " (" + std::to_string(controller.vetoes().flagged) +
                            " flagged, " +
                            std::to_string(controller.vetoes().blocked) +
                            " blocked)"
                      : "")
              << "\n";
  }
  if (report.expired > 0 || opts.request_timeout > 0.0) {
    std::cout << "expired:       " << report.expired << " (deadline "
              << util::fmt_double(opts.request_timeout * 1e3, 0) << " ms)\n";
  }
  if (report.failed > 0) {
    std::cout << "failed:        " << report.failed << " (handler errors)\n";
  }
  if (!workload.verify()) {
    std::cerr << "consistency check FAILED\n";
    return 1;
  }
  std::cout << "consistency:   OK\n";
  return 0;
}

int cmd_info(const std::string& file) {
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

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    // The global --failpoints flag may precede the subcommand (it also works
    // anywhere after it, handled in parse_options).
    while (args.size() >= 2 && args[0] == "--failpoints") {
      util::FailpointRegistry::instance().arm_from_string(args[1]);
      args.erase(args.begin(), args.begin() + 2);
    }
    if (args.empty()) return usage();
    const std::string& cmd = args[0];
    if (cmd == "workloads") return cmd_workloads();
    if (cmd == "surface" && args.size() >= 2) {
      return cmd_surface(args[1], parse_options(args, 2));
    }
    if (cmd == "model" && args.size() >= 2) {
      return cmd_model(args[1], parse_options(args, 2));
    }
    if (cmd == "tune" && args.size() >= 2) {
      return cmd_tune(args[1], parse_options(args, 2));
    }
    if (cmd == "compare" && args.size() >= 2) {
      return cmd_compare(args[1], parse_options(args, 2));
    }
    if (cmd == "des-tune" && args.size() >= 2) {
      return cmd_des_tune(args[1], parse_options(args, 2));
    }
    if (cmd == "record" && args.size() >= 3) {
      return cmd_record(args[1], args[2], parse_options(args, 3));
    }
    if (cmd == "info" && args.size() >= 2) return cmd_info(args[1]);
    if (cmd == "netload") return cmd_netload(parse_options(args, 1));
    if (cmd == "router") return cmd_router(parse_options(args, 1));
    if (cmd == "router-ctl" && args.size() >= 2) {
      return cmd_router_ctl(args[1], parse_options(args, 2));
    }
    if (cmd == "serve") {
      // Accept both `serve tpcc` and `serve --workload tpcc`.
      if (args.size() >= 2 && args[1][0] != '-') {
        Options opts = parse_options(args, 2);
        opts.workload = args[1];
        return cmd_serve(opts);
      }
      return cmd_serve(parse_options(args, 1));
    }
    return usage();
  } catch (const UsageError& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}

// net_serve: what does the wire cost? The same workload is served twice —
// once submitted in-process (loadgen straight into ServeEngine) and once
// over a loopback TCP socket (netload → NetServer → the same engine) — and
// the p50/p95/p99 latencies are compared. The delta is the full protocol
// stack: framing, epoll dispatch, the completion post back to the loop, and
// a kernel round-trip each way.
//
// Two latency vantage points are reported for the network cell: the engine's
// enqueue→completion latency (directly comparable with the in-process cell —
// this is the overhead the *server* adds) and the client-observed
// send→response latency (what a caller on the wire actually experiences).
//
// Usage: bench/net_serve [rate] [duration_s] [connections] [payload_bytes]

#include <cstdint>
#include <iostream>
#include <string>

#include "net/netload.hpp"
#include "net/server.hpp"
#include "serve/engine.hpp"
#include "serve/handlers.hpp"
#include "serve/loadgen.hpp"
#include "stm/stm.hpp"
#include "util/clock.hpp"
#include "util/table.hpp"

namespace {

using namespace autopn;

struct Params {
  std::string workload = "array";
  double rate = 2000.0;
  double duration = 2.0;
  std::size_t connections = 4;
  std::size_t payload_bytes = 64;
  std::size_t workers = 4;
  std::uint64_t seed = 23;
};

stm::StmConfig stm_config(const Params& p) {
  stm::StmConfig cfg;
  cfg.max_cores = 8;
  cfg.pool_threads = p.workers;
  cfg.initial_top = 4;
  cfg.initial_children = 1;
  return cfg;
}

serve::ServeConfig serve_config(const Params& p) {
  serve::ServeConfig cfg;
  cfg.workers = p.workers;
  cfg.queue_capacity = 4096;
  cfg.shed_watermark = 4096;
  cfg.seed = p.seed;
  return cfg;
}

std::string fmt_ms(double seconds) { return util::fmt_double(seconds * 1e3, 3); }

struct Cell {
  std::string name;
  std::uint64_t completed = 0;
  double duration = 0.0;
  serve::LatencyRecorder::Summary latency;
};

void add_row(util::TextTable& table, const Cell& cell) {
  table.add_row({cell.name,
                 util::fmt_double(static_cast<double>(cell.completed) /
                                      std::max(cell.duration, 1e-9),
                                  0),
                 fmt_ms(cell.latency.p50), fmt_ms(cell.latency.p95),
                 fmt_ms(cell.latency.p99)});
}

Cell run_in_process(const Params& p) {
  stm::Stm stm{stm_config(p)};
  util::WallClock clock;
  auto workload = serve::make_servable_workload(p.workload, stm, p.seed);
  serve::ServeEngine engine{stm, workload.handler, clock, serve_config(p)};
  serve::OpenLoopParams open;
  open.rate = p.rate;
  open.duration = p.duration;
  open.seed = p.seed;
  const auto result = serve::run_open_loop(engine, open);
  engine.drain_and_stop();
  const auto report = engine.report();
  return {"in-process", report.completed, result.duration, report.latency};
}

int run_loopback(const Params& p, util::TextTable& table) {
  stm::Stm stm{stm_config(p)};
  util::WallClock clock;
  auto workload = serve::make_servable_workload(p.workload, stm, p.seed);
  serve::ServeEngine engine{stm, workload.handler, clock, serve_config(p)};
  net::NetServer server{engine, {}};

  net::NetLoadParams load;
  load.port = server.port();
  load.connections = p.connections;
  load.rate = p.rate;
  load.duration = p.duration;
  load.payload_bytes = p.payload_bytes;
  load.seed = p.seed ^ 0x6e;
  const auto result = net::run_netload(load);
  server.shutdown();

  const auto report = engine.report();
  add_row(table, {"loopback (server)", report.completed, result.duration,
                  report.latency});
  add_row(table, {"loopback (client)", result.ok, result.duration,
                  result.latency});

  const auto wire = server.report();
  const bool exact = wire.ledger_exact();
  std::cout << "wire: " << wire.requests_decoded << " decoded, "
            << wire.responses_written << " written, " << wire.responses_dropped
            << " dropped, ledger " << (exact ? "exact" : "VIOLATED") << "\n";
  return exact ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  if (argc > 1) p.rate = std::stod(argv[1]);
  if (argc > 2) p.duration = std::stod(argv[2]);
  if (argc > 3) p.connections = std::stoul(argv[3]);
  if (argc > 4) p.payload_bytes = std::stoul(argv[4]);

  std::cout << "net_serve: " << p.workload << " @ "
            << util::fmt_double(p.rate, 0) << " req/s for "
            << util::fmt_double(p.duration, 1) << "s, " << p.connections
            << " connections, " << p.payload_bytes << "B payloads\n";

  util::TextTable table{{"path", "req/s", "p50(ms)", "p95(ms)", "p99(ms)"}};
  const Cell in_process = run_in_process(p);
  add_row(table, in_process);
  const int rc = run_loopback(p, table);
  table.print(std::cout);
  std::cout << "\nthe (server) row minus the in-process row is the server-side "
               "protocol overhead;\nthe (client) row additionally includes the "
               "kernel round-trip both ways.\n";
  return rc;
}

#pragma once
// netload — the wire-side load generator: what src/serve/loadgen is to the
// in-process engine, this is to a NetServer across real sockets. It reuses
// the same arrival processes (serve::PoissonArrivals for the open loop,
// exponential think times for the closed loop) so in-process and loopback
// runs are directly comparable, which is exactly what bench/net_serve needs
// to quantify protocol overhead.
//
//  * Open loop: `connections` sender/receiver thread pairs, each pacing an
//    independent Poisson stream at rate/connections — requests are sent
//    without waiting for responses (pipelined on the connection), responses
//    are matched to send timestamps for client-observed latency.
//  * Closed loop: one synchronous client per connection — send, wait for
//    that response, honor a shed response's retry-after hint, think, repeat.
//
// Chaos-friendly: a connection that dies (injected net.* faults, server
// restart) is counted and — when `reconnect` is set — re-established, so a
// soak can keep offering load through connection churn.

#include <cstdint>
#include <string>

#include "serve/latency.hpp"

namespace autopn::net {

struct NetLoadParams {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t connections = 4;
  bool closed_loop = false;
  double rate = 500.0;        ///< open loop: aggregate arrivals/s (Poisson)
  double think_time = 0.001;  ///< closed loop: mean think seconds (exp)
  double duration = 1.0;      ///< seconds of generation
  std::uint16_t handler_id = 0;
  /// Requests round-robin tenant ids 0..tenants-1 (per-tenant SLO columns).
  std::uint16_t tenants = 1;
  std::size_t payload_bytes = 0;   ///< opaque padding per request
  std::uint64_t deadline_us = 0;   ///< client deadline carried on the wire
  std::uint64_t seed = 1;
  bool reconnect = true;  ///< re-dial a dead connection and keep going
  /// Seconds to wait for straggler responses after generation stops.
  double drain_grace = 2.0;
};

struct NetLoadResult {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;         ///< kShed + kClosing responses (all tiers)
  std::uint64_t shed_router = 0;  ///< subset of `shed` with router origin
  /// Subsets of `shed_router` split by the Response shed-detail byte: sheds
  /// for a shard the router declared dead (placement should converge away)
  /// versus transient blips (mid-flight disconnect, drain, hold overflow).
  std::uint64_t shed_router_dead = 0;
  std::uint64_t shed_router_transient = 0;
  std::uint64_t expired = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t io_errors = 0;   ///< failed sends / broken connections
  std::uint64_t reconnects = 0;
  /// Sent but unanswered when the run (incl. drain_grace) ended — mid-request
  /// disconnects land here, matching the server's responses_dropped.
  std::uint64_t unanswered = 0;
  double duration = 0.0;
  /// Client-observed send→response latency of ok responses.
  serve::LatencyRecorder::Summary latency;
  double mean_retry_after = 0.0;  ///< over shed responses, seconds

  [[nodiscard]] std::uint64_t answered() const {
    return ok + shed + expired + failed + rejected;
  }
};

/// Runs the configured load against host:port; blocks for duration (plus
/// drain grace). Throws only when the very first connection cannot be
/// established (nothing to measure) — mid-run failures are counted.
[[nodiscard]] NetLoadResult run_netload(const NetLoadParams& params);

}  // namespace autopn::net

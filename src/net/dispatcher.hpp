#pragma once
// RequestDispatcher — the seam between NetServer's connection machinery and
// whatever actually executes requests. NetServer owns sockets, framing,
// backpressure, and the response ledger; a dispatcher owns the semantics of
// one decoded Request frame. Two implementations exist:
//
//   * EngineDispatcher (here): the original single-process path — handler
//     table lookup, ServeEngine admission, shed/closing verdicts. A
//     NetServer constructed from a ServeEngine uses this internally, so the
//     serving behavior of `autopn serve --listen` is unchanged.
//   * router::Router (src/router/): forwards the frame to a backend shard
//     over its ShardLink (a socket on the same loop) and responds with the
//     shard's answer (or a router-origin shed when no shard is reachable).
//
// Contract: dispatch() must eventually invoke `respond` EXACTLY once per
// call, from any thread — that is what keeps the server's response ledger
// (decoded == enqueued == written + dropped) exact across implementations.
// drain() is called during server shutdown after reads have stopped; it
// must block until every outstanding dispatch has responded.

#include <cstdint>
#include <functional>

#include "net/wire.hpp"
#include "serve/engine.hpp"

namespace autopn::net {

class RequestDispatcher {
 public:
  /// Sends the response for one dispatched request. The server fills in
  /// request_id; liveness is the server's problem (a dead connection
  /// counts the response as dropped).
  /// Safe to invoke from any thread, including inside dispatch() itself.
  using RespondFn = std::function<void(ResponseFrame)>;

  virtual ~RequestDispatcher() = default;

  /// Must call `respond` exactly once, now or later.
  virtual void dispatch(RequestFrame frame, RespondFn respond) = 0;

  /// Blocks until every outstanding dispatch has responded. Called once
  /// during server shutdown, after no further dispatches can arrive.
  virtual void drain() = 0;

  /// KPI aggregates served to a kStatsRequest.
  [[nodiscard]] virtual StatsFrame stats() = 0;

  /// Answer to a kMembershipRequest, invoked on the server's loop thread.
  /// The base implementation rejects with ok=false — only the routing tier
  /// owns a mutable shard set; a plain shard answering "not supported" is
  /// the correct protocol outcome.
  [[nodiscard]] virtual MembershipFrame membership(
      const MembershipRequest& request);
};

/// The single-process dispatcher: bridges frames into a ServeEngine, which
/// must outlive this object. Handler ids index `handlers` (an empty table
/// exposes only id 0, the engine's default handler); out-of-range ids get a
/// kRejected response without touching the engine.
class EngineDispatcher final : public RequestDispatcher {
 public:
  using HandlerTable = std::vector<serve::RequestHandler>;

  EngineDispatcher(serve::ServeEngine& engine, HandlerTable handlers);

  void dispatch(RequestFrame frame, RespondFn respond) override;
  void drain() override;
  [[nodiscard]] StatsFrame stats() override;

 private:
  serve::ServeEngine* engine_;
  const HandlerTable handlers_;  ///< immutable after construction
};

}  // namespace autopn::net

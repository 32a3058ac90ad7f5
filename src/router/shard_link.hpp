#pragma once
// ShardLink — the router's connection to one backend shard: one TCP socket
// on the router NetServer's EventLoop. The link is loop-owned (built,
// called and closed on that loop thread only), so it needs no lock and no
// atomic. A small state machine driven by epoll readiness and loop timers:
//
//   connecting   non-blocking connect, waiting for EPOLLOUT;
//   handshaking  Hello sent, waiting for the HelloAck (same attempt timer);
//   up           EPOLLIN → one recv(MSG_DONTWAIT); each decoded Response
//                goes to on_response inline, a StatsFrame to latest_stats();
//   down         no socket; a loop timer redials.
//
// Sends never block. forward() only appends the encoded frame to the link's
// net::BufferedWriter; the first append since the writer emptied posts one
// flush, which runs at the end of the loop round, so every request the
// round forwards to this shard shares one send. A flush the socket cannot
// take whole arms EPOLLOUT, and the link keeps reading the shard's answers
// meanwhile. A link holding more than `max_outbound_bytes` refuses
// forward() — the router sheds that request — so a shard that stops reading
// costs its own tenants, never the loop. A failed send is a lost connection.
// The bytes the shard's socket took are out of the link's sight: if the
// shard never answers them, the router's health machine declares it dead
// and reset() answers them.
//
// Health: the link is up while its handshaken connection lives — the
// handshake IS the health check, failed by a peer that speaks garbage or
// never answers. When the connection dies the link marks itself down,
// synthesizes a router-origin kShed for every in-flight token inline (every
// forwarded request is answered by someone), and redials with capped-
// exponential backoff. After `redial_budget` consecutive failures in one
// outage it flags budget_exhausted() (the router's health machine then
// declares the shard dead) and drops to a slow probe every
// `dead_probe_seconds`, so a resurrected backend is still detected.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "net/buffered_writer.hpp"
#include "net/client.hpp"
#include "net/event_loop.hpp"
#include "net/wire.hpp"

namespace autopn::router {

struct ShardAddress {
  std::uint32_t id = 0;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct ShardLinkConfig {
  net::BackoffPolicy backoff;  ///< per-redial-cycle schedule
  /// retry_after_us carried by synthesized backend-down sheds.
  std::uint64_t shed_retry_after_us = 20'000;
  /// Consecutive failed dials in one outage before the link flags
  /// budget_exhausted() and switches to the slow probe. 0 = unlimited
  /// (legacy redial-forever behaviour, full backoff schedule only).
  std::uint64_t redial_budget = 8;
  /// Probe cadence once the budget is exhausted — slow enough to leave a
  /// dead address alone, fast enough that recovery is noticed promptly.
  double dead_probe_seconds = 1.0;
  /// forward() refuses while more than this is queued for the shard (the
  /// router passes its NetServerConfig value).
  std::size_t max_outbound_bytes = 256 * 1024;
};

class ShardLink {
 public:
  /// Called for every forwarded token exactly once — with the shard's real
  /// response, or a synthesized router-origin kShed when the connection
  /// died first. Runs inline on the loop thread; it may forward() through
  /// this or any other link, but must not close or destroy a link.
  using ResponseFn =
      std::function<void(std::uint64_t token, net::ResponseFrame response)>;

  /// Starts dialing at once (non-blocking). Loop thread only.
  ShardLink(net::EventLoop& loop, ShardAddress address, ShardLinkConfig config,
            ResponseFn on_response);
  /// Closes the link; a link that was close()d already touches nothing, so
  /// it may be destroyed after its loop stopped.
  ~ShardLink();

  ShardLink(const ShardLink&) = delete;
  ShardLink& operator=(const ShardLink&) = delete;

  /// Queues one request for the round's flush. False when the link is not
  /// up or holds more than max_outbound_bytes — the caller owns the
  /// response in that case; on_response will NOT fire for this token.
  bool forward(std::uint64_t token, net::RequestFrame frame);

  /// Best-effort stats poll; the answer lands in latest_stats().
  void request_stats();

  [[nodiscard]] const std::optional<net::StatsFrame>& latest_stats() const {
    return latest_stats_;
  }
  [[nodiscard]] bool healthy() const noexcept { return state_ == State::kUp; }
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return inflight_.size();
  }
  /// Bytes queued for the shard that its socket has not taken yet.
  [[nodiscard]] std::size_t queued_bytes() const noexcept {
    return writer_.pending();
  }
  /// Lifetime count of send() calls that moved bytes.
  [[nodiscard]] std::uint64_t socket_writes() const noexcept {
    return writer_.writes();
  }
  /// Lifetime count of completed handshakes (the first connect included).
  [[nodiscard]] std::uint64_t reconnects() const noexcept {
    return reconnects_;
  }
  /// Lifetime count of failed dial attempts (any outage).
  [[nodiscard]] std::uint64_t redial_attempts() const noexcept {
    return redial_attempts_;
  }
  /// True while the current outage has burned its redial budget; cleared
  /// the moment a dial succeeds.
  [[nodiscard]] bool budget_exhausted() const noexcept {
    return budget_exhausted_;
  }
  /// Lifetime count of StatsFrames received — the router snapshots this
  /// each poll tick to decide poll_ok (did a fresh frame arrive?).
  [[nodiscard]] std::uint64_t stats_received() const noexcept {
    return stats_received_;
  }
  /// Human-readable reason of the most recent failed dial ("" if none).
  [[nodiscard]] const std::string& last_error() const noexcept {
    return last_error_;
  }

  /// Stops dialing, closes the socket, and synthesizes a response for every
  /// in-flight token inline. Idempotent; afterwards no callback fires.
  void close();
  /// Gives an up connection up as lost — the router's verdict on a shard
  /// that stopped answering: every in-flight token is answered inline with
  /// a synthesized kShed, queued bytes are dropped, and the link redials.
  void reset();

 private:
  enum class State { kConnecting, kHandshaking, kUp, kDown, kClosed };

  void dial();
  void on_event(std::uint32_t events);
  /// The TCP connect finished: send the Hello.
  void start_handshake();
  /// One recv(MSG_DONTWAIT) into the decoder; false once the shard closed
  /// or reset the connection.
  [[nodiscard]] bool receive();
  void dispatch_frames();
  /// Handles one decoded frame; false on a frame the link cannot accept.
  [[nodiscard]] bool on_frame(const net::Frame& frame);
  /// Call before appending: posts the round's flush unless one is due.
  void schedule_flush();
  /// Sends what the socket takes; a remainder arms EPOLLOUT.
  void flush();
  /// The one teardown: a failed dial is counted and redialed on the
  /// backoff timer; a lost connection synthesizes its stranded tokens and
  /// redials at once. `reason` becomes last_error() for a failed dial.
  void failed(std::string reason);
  void drop_socket();
  void cancel_timer();
  void synthesize_all();

  net::EventLoop& loop_;
  ShardAddress address_;
  ShardLinkConfig config_;
  ResponseFn on_response_;

  State state_ = State::kDown;
  int fd_ = -1;
  net::FrameDecoder decoder_;
  net::BufferedWriter writer_;
  /// Attempt or redial timer while not up; 0 = none.
  net::EventLoop::TimerId timer_ = 0;
  /// Router tokens awaiting a response; a token is also the wire request id.
  std::unordered_set<std::uint64_t> inflight_;

  double backoff_seconds_ = 0.0;     ///< next redial wait in this outage
  std::uint64_t outage_failures_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t redial_attempts_ = 0;
  std::uint64_t stats_received_ = 0;
  bool budget_exhausted_ = false;
  std::optional<net::StatsFrame> latest_stats_;
  std::string last_error_;
  /// Dies with the link, so a flush posted before that does nothing.
  std::shared_ptr<void> alive_ = std::make_shared<char>();
};

}  // namespace autopn::router

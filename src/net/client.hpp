#pragma once
// Blocking client for the wire protocol — the counterpart of NetServer used
// by netload, the benches, and the tests. One Client owns one TCP
// connection; connect() performs the Hello/HelloAck handshake before
// returning, so a constructed client is ready to send.
//
// Responses can arrive out of request order (the engine's workers complete
// requests concurrently), so the client keeps a small reorder buffer:
// recv() hands back responses in arrival order, call() filters for one
// specific request id while buffering the rest.
//
// Thread model: at most one sender thread (send/call) and one receiver
// thread (recv) — the socket is full-duplex and the two paths share only
// the atomic request-id counter. netload's open-loop generator uses exactly
// this split; single-threaded request/response use is the degenerate case.
//
// I/O failures (peer reset, mid-request disconnect chaos) are not
// exceptions here: they mark the client closed, send() returns false and
// recv() returns std::nullopt, and the caller decides whether to reconnect.
// Only establishment errors (connect/handshake) throw.

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace autopn::net {

/// Retry schedule for connect_with_backoff: capped exponential delays
/// between attempts, each attempt bounded by `attempt_timeout_seconds`
/// (which covers both the TCP connect and the handshake).
struct BackoffPolicy {
  double attempt_timeout_seconds = 1.0;
  double initial_backoff_seconds = 0.05;
  double max_backoff_seconds = 1.0;
  int max_attempts = 5;
};

// Connection building blocks shared by Client::connect and callers that
// drive the same steps from an event loop (router::ShardLink).

/// Creates a CLOEXEC, non-blocking TCP socket and starts connecting it to
/// host:port. Returns the fd: once it is writable, call finish_connect.
/// Throws std::system_error on an immediate failure, having closed the fd.
int start_connect(const std::string& host, std::uint16_t port);

/// Completes a connect started by start_connect: SO_ERROR says whether the
/// three-way handshake succeeded, then the fd goes back to blocking mode
/// with TCP_NODELAY. Throws std::system_error on failure; the caller closes.
void finish_connect(int fd);

/// Blocking full-buffer send; false on any I/O error.
bool send_all(int fd, const std::uint8_t* data, std::size_t size);

class Client {
 public:
  /// Connects and completes the handshake; throws std::system_error on
  /// connection failure and std::runtime_error on a rejected/garbled
  /// handshake. `timeout_seconds` bounds the TCP connect (non-blocking
  /// connect + poll — a dead or firewalled backend fails in bounded time
  /// instead of pinning the caller to the kernel's SYN retry schedule)
  /// and, separately, the handshake wait.
  static Client connect(const std::string& host, std::uint16_t port,
                        double timeout_seconds = 5.0);

  /// Retrying wrapper: attempts connect() under `policy`, sleeping the
  /// capped-exponential backoff between failures. std::nullopt once
  /// max_attempts establishment failures accumulate — never throws.
  static std::optional<Client> connect_with_backoff(
      const std::string& host, std::uint16_t port,
      const BackoffPolicy& policy = {});

  Client() = default;  ///< disconnected shell; send/recv fail until connect
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request frame (blocking write — server-side read
  /// backpressure propagates here as a stalled send). Returns the request
  /// id, or std::nullopt when the connection is/became unusable.
  std::optional<std::uint64_t> send(
      std::uint16_t handler_id = 0, std::uint16_t tenant_id = 0,
      std::uint64_t deadline_us = 0,
      const std::vector<std::uint8_t>& payload = {});

  /// Next response in arrival order; waits up to `timeout_seconds`.
  /// std::nullopt on timeout or a dead connection (check closed()).
  std::optional<ResponseFrame> recv(double timeout_seconds);

  /// Simple RPC: send + wait for that id (other responses are buffered for
  /// later recv/call). std::nullopt on timeout or connection loss.
  std::optional<ResponseFrame> call(std::uint16_t handler_id = 0,
                                    std::uint16_t tenant_id = 0,
                                    std::uint64_t deadline_us = 0,
                                    double timeout_seconds = 5.0);

  /// Asks the server for its KPI aggregates; false if the connection is
  /// closed. The answer arrives via poll_stats().
  bool send_stats_request();

  /// Next buffered StatsFrame, reading the socket up to `timeout_seconds`.
  /// Response frames seen while waiting are buffered for recv()/call().
  std::optional<StatsFrame> poll_stats(double timeout_seconds);

  /// Sends one membership control request; false if the connection is
  /// closed. The answer arrives via poll_membership().
  bool send_membership(const MembershipRequest& request);

  /// Next buffered MembershipFrame, reading the socket up to
  /// `timeout_seconds`. Other frames seen while waiting are buffered.
  std::optional<MembershipFrame> poll_membership(double timeout_seconds);

  [[nodiscard]] bool connected() const noexcept {
    return fd_ >= 0 && !closed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_relaxed);
  }

  void close();

 private:
  /// Reads until ≥1 response is buffered or the deadline passes.
  bool fill_buffer(double timeout_seconds);

  /// One recv+decode round, polling only while the socket is empty; true
  /// after any successfully processed batch (which may have buffered only
  /// stats or the handshake ack).
  bool read_batch(double timeout_seconds);

  int fd_ = -1;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<bool> closed_{false};  ///< either side may observe the break
  bool handshaken_ = false;          ///< receiver side: HelloAck(ok) seen
  FrameDecoder decoder_;
  std::deque<ResponseFrame> pending_;
  std::deque<StatsFrame> pending_stats_;
  std::deque<MembershipFrame> pending_membership_;
};

}  // namespace autopn::net

#include "net/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

namespace autopn::net {

namespace {

using SteadyClock = std::chrono::steady_clock;

template <typename TimePoint>
double seconds_until(TimePoint deadline) {
  return std::chrono::duration<double>(deadline - SteadyClock::now()).count();
}

/// Waits until a connect started by start_connect makes `fd` writable.
/// Throws ETIMEDOUT once `timeout_seconds` pass.
void wait_connected(int fd, double timeout_seconds) {
  const auto deadline =
      SteadyClock::now() + std::chrono::duration<double>(timeout_seconds);
  int rc = 0;
  do {
    pollfd pfd{fd, POLLOUT, 0};
    const double remaining = std::max(seconds_until(deadline), 0.0);
    rc = ::poll(&pfd, 1, static_cast<int>(remaining * 1e3) + 1);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) throw std::system_error{errno, std::generic_category(), "poll"};
  if (rc == 0) {
    throw std::system_error{ETIMEDOUT, std::generic_category(), "connect"};
  }
}

}  // namespace

int start_connect(const std::string& host, std::uint16_t port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::system_error{errno, std::generic_category(), "socket"};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::system_error{EINVAL, std::generic_category(), "inet_pton"};
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0 &&
      errno != EINPROGRESS) {
    const int saved = errno;
    ::close(fd);
    throw std::system_error{saved, std::generic_category(), "connect"};
  }
  return fd;
}

void finish_connect(int fd) {
  int err = 0;
  socklen_t len = sizeof err;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    throw std::system_error{errno, std::generic_category(), "getsockopt"};
  }
  if (err != 0) {
    throw std::system_error{err, std::generic_category(), "connect"};
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) < 0) {
    throw std::system_error{errno, std::generic_category(), "fcntl"};
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

Client Client::connect(const std::string& host, std::uint16_t port,
                       double timeout_seconds) {
  // Bounded-time TCP connect: a dead or firewalled backend fails in bounded
  // time instead of pinning the caller to the kernel's SYN retry schedule.
  const int fd = start_connect(host, port);
  try {
    wait_connected(fd, timeout_seconds);
    finish_connect(fd);
  } catch (...) {
    ::close(fd);
    throw;
  }

  Client client;
  client.fd_ = fd;

  std::vector<std::uint8_t> hello;
  encode_hello(hello);
  if (!send_all(fd, hello.data(), hello.size())) {
    client.close();
    throw std::runtime_error{"handshake send failed"};
  }
  // Wait for the HelloAck before handing the client out: a version-
  // mismatched server answers ok=false and the caller learns immediately.
  const auto deadline =
      SteadyClock::now() + std::chrono::duration<double>(timeout_seconds);
  while (!client.handshaken_) {
    if (!client.read_batch(seconds_until(deadline))) {
      client.close();
      throw std::runtime_error{
          "handshake: no accepting HelloAck (wire version mismatch?)"};
    }
  }
  return client;
}

std::optional<Client> Client::connect_with_backoff(const std::string& host,
                                                   std::uint16_t port,
                                                   const BackoffPolicy& policy) {
  double backoff = policy.initial_backoff_seconds;
  for (int attempt = 0; attempt < std::max(policy.max_attempts, 1); ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(backoff * 2.0, policy.max_backoff_seconds);
    }
    try {
      return Client::connect(host, port, policy.attempt_timeout_seconds);
    } catch (const std::exception&) {
      // establishment failure — fall through to the next attempt
    }
  }
  return std::nullopt;
}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_id_(other.next_id_.load(std::memory_order_relaxed)),
      closed_(other.closed_.load(std::memory_order_relaxed)),
      handshaken_(other.handshaken_),
      decoder_(std::move(other.decoder_)),
      pending_(std::move(other.pending_)),
      pending_stats_(std::move(other.pending_stats_)),
      pending_membership_(std::move(other.pending_membership_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    next_id_.store(other.next_id_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    closed_.store(other.closed_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    handshaken_ = other.handshaken_;
    decoder_ = std::move(other.decoder_);
    pending_ = std::move(other.pending_);
    pending_stats_ = std::move(other.pending_stats_);
    pending_membership_ = std::move(other.pending_membership_);
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  closed_.store(true, std::memory_order_relaxed);
}

std::optional<std::uint64_t> Client::send(
    std::uint16_t handler_id, std::uint16_t tenant_id, std::uint64_t deadline_us,
    const std::vector<std::uint8_t>& payload) {
  if (!connected()) return std::nullopt;
  RequestFrame frame;
  frame.request_id = next_id_.fetch_add(1, std::memory_order_relaxed);
  frame.handler_id = handler_id;
  frame.tenant_id = tenant_id;
  frame.deadline_us = deadline_us;
  frame.payload = payload;
  std::vector<std::uint8_t> bytes;
  encode_request(bytes, frame);
  if (!send_all(fd_, bytes.data(), bytes.size())) {
    closed_.store(true, std::memory_order_relaxed);
    return std::nullopt;
  }
  return frame.request_id;
}

bool Client::fill_buffer(double timeout_seconds) {
  const auto deadline =
      SteadyClock::now() +
      std::chrono::duration<double>(std::max(timeout_seconds, 0.0));
  while (pending_.empty()) {
    if (!read_batch(seconds_until(deadline))) return false;
  }
  return true;
}

bool Client::read_batch(double timeout_seconds) {
  const auto deadline =
      SteadyClock::now() +
      std::chrono::duration<double>(std::max(timeout_seconds, 0.0));
  for (;;) {
    if (closed_.load(std::memory_order_relaxed) || fd_ < 0) return false;
    // Try the socket first: when bytes are already waiting (a batch of
    // responses, or a reply that beat us here) the poll would only say so.
    std::array<std::uint8_t, 16384> buf;
    const ssize_t n = ::recv(fd_, buf.data(), buf.size(), MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const double remaining = seconds_until(deadline);
      if (remaining <= 0.0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, static_cast<int>(remaining * 1e3) + 1);
      if (rc < 0 && errno != EINTR) {
        closed_.store(true, std::memory_order_relaxed);
        return false;
      }
      if (rc == 0) return false;  // timeout
      continue;
    }
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      closed_.store(true, std::memory_order_relaxed);
      return false;
    }
    decoder_.feed(buf.data(), static_cast<std::size_t>(n));
    while (auto frame = decoder_.next()) {
      if (frame->type == FrameType::kHelloAck) {
        const auto ack = parse_hello_ack(frame->body);
        if (!ack || !ack->ok) {
          closed_.store(true, std::memory_order_relaxed);
          return false;
        }
        handshaken_ = true;
        continue;  // handshake complete; keep draining data frames
      }
      if (frame->type == FrameType::kStatsResponse) {
        auto stats = parse_stats(frame->body);
        if (!stats) {
          closed_.store(true, std::memory_order_relaxed);
          return false;
        }
        pending_stats_.push_back(std::move(*stats));
        continue;
      }
      if (frame->type == FrameType::kMembershipResponse) {
        auto membership = parse_membership(frame->body);
        if (!membership) {
          closed_.store(true, std::memory_order_relaxed);
          return false;
        }
        pending_membership_.push_back(std::move(*membership));
        continue;
      }
      if (frame->type != FrameType::kResponse) {
        closed_.store(true, std::memory_order_relaxed);
        return false;
      }
      auto response = parse_response(frame->body);
      if (!response) {
        closed_.store(true, std::memory_order_relaxed);
        return false;
      }
      pending_.push_back(std::move(*response));
    }
    if (decoder_.failed()) {
      closed_.store(true, std::memory_order_relaxed);
      return false;
    }
    // One successful read batch processed (possibly only a HelloAck or a
    // StatsFrame): report success so each caller can re-check its own
    // wait condition — handshaken_, pending_, or pending_stats_.
    return true;
  }
}

std::optional<ResponseFrame> Client::recv(double timeout_seconds) {
  const auto deadline =
      SteadyClock::now() +
      std::chrono::duration<double>(std::max(timeout_seconds, 0.0));
  while (pending_.empty()) {
    if (!fill_buffer(seconds_until(deadline))) {
      if (pending_.empty()) return std::nullopt;
      break;
    }
  }
  if (pending_.empty()) return std::nullopt;
  ResponseFrame response = std::move(pending_.front());
  pending_.pop_front();
  return response;
}

bool Client::send_stats_request() {
  if (!connected()) return false;
  std::vector<std::uint8_t> bytes;
  encode_stats_request(bytes);
  if (!send_all(fd_, bytes.data(), bytes.size())) {
    closed_.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

std::optional<StatsFrame> Client::poll_stats(double timeout_seconds) {
  const auto deadline =
      SteadyClock::now() +
      std::chrono::duration<double>(std::max(timeout_seconds, 0.0));
  while (pending_stats_.empty()) {
    // Response frames seen while waiting stay buffered for recv()/call().
    if (!read_batch(seconds_until(deadline))) return std::nullopt;
  }
  StatsFrame stats = std::move(pending_stats_.front());
  pending_stats_.pop_front();
  return stats;
}

bool Client::send_membership(const MembershipRequest& request) {
  if (!connected()) return false;
  std::vector<std::uint8_t> bytes;
  encode_membership_request(bytes, request);
  if (!send_all(fd_, bytes.data(), bytes.size())) {
    closed_.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

std::optional<MembershipFrame> Client::poll_membership(double timeout_seconds) {
  const auto deadline =
      SteadyClock::now() +
      std::chrono::duration<double>(std::max(timeout_seconds, 0.0));
  while (pending_membership_.empty()) {
    // Response/stats frames seen while waiting stay buffered for later.
    if (!read_batch(seconds_until(deadline))) return std::nullopt;
  }
  MembershipFrame membership = std::move(pending_membership_.front());
  pending_membership_.pop_front();
  return membership;
}

std::optional<ResponseFrame> Client::call(std::uint16_t handler_id,
                                          std::uint16_t tenant_id,
                                          std::uint64_t deadline_us,
                                          double timeout_seconds) {
  const auto id = send(handler_id, tenant_id, deadline_us);
  if (!id) return std::nullopt;
  const auto deadline =
      SteadyClock::now() + std::chrono::duration<double>(timeout_seconds);
  for (;;) {
    // Scan the reorder buffer for our id first.
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->request_id == *id) {
        ResponseFrame response = std::move(*it);
        pending_.erase(it);
        return response;
      }
    }
    const double remaining = seconds_until(deadline);
    if (remaining <= 0.0 || closed_.load(std::memory_order_relaxed)) {
      return std::nullopt;
    }
    if (!fill_buffer(remaining) &&
        closed_.load(std::memory_order_relaxed)) {
      return std::nullopt;
    }
  }
}

}  // namespace autopn::net

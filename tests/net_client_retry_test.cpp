// Client establishment under hostile conditions: a never-accepting listener
// (full backlog — SYNs dropped, the old blocking connect() would pin the
// caller to the kernel retry schedule for minutes), a closed port, and
// connect_with_backoff's capped-exponential retry both giving up after
// max_attempts and succeeding once a server appears mid-schedule. Also pins
// the handshake verdict from the client's side: an ack with ok=false (a
// server of another wire version) makes connect() throw.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/wire.hpp"

namespace autopn::net {
namespace {

using SteadyClock = std::chrono::steady_clock;

double elapsed_seconds(SteadyClock::time_point since) {
  return std::chrono::duration<double>(SteadyClock::now() - since).count();
}

/// A listening socket that never calls accept(): with the minimum backlog
/// pre-filled, the kernel drops further SYNs and a connect attempt hangs
/// until its own timeout fires.
class NeverAcceptingListener {
 public:
  NeverAcceptingListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd_, 0) != 0) {
      throw std::runtime_error{"listener setup failed"};
    }
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    // Pre-fill the accept queue so the connection under test cannot even
    // complete the TCP handshake. A couple of fillers covers the backlog
    // fudge the kernel applies on top of listen(fd, 0).
    for (int i = 0; i < 3; ++i) {
      const int filler = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_in target{};
      target.sin_family = AF_INET;
      target.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      target.sin_port = htons(port_);
      timeval tv{0, 200000};  // bound each filler's own connect to 200ms
      ::setsockopt(filler, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
      ::connect(filler, reinterpret_cast<sockaddr*>(&target), sizeof target);
      fillers_.push_back(filler);
    }
  }

  ~NeverAcceptingListener() {
    for (const int fd : fillers_) ::close(fd);
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<int> fillers_;
};

/// Finds a port that refuses connections: bind (claims the port, keeps the
/// kernel from reassigning it), no listen() — connects get ECONNREFUSED.
class RefusingPort {
 public:
  RefusingPort() {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw std::runtime_error{"bind failed"};
    }
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~RefusingPort() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Accepts one connection, reads its Hello, and answers a HelloAck with the
/// given verdict. Runs on a thread.
void serve_one_handshake(int listen_fd, bool ok) {
  const int conn = ::accept(listen_fd, nullptr, nullptr);
  if (conn < 0) return;
  std::vector<std::uint8_t> buf(256);
  FrameDecoder decoder;
  for (;;) {
    const ssize_t n = ::recv(conn, buf.data(), buf.size(), 0);
    if (n <= 0) break;
    decoder.feed(buf.data(), static_cast<std::size_t>(n));
    if (auto frame = decoder.next()) {
      HelloAckFrame ack;
      ack.ok = ok;
      std::vector<std::uint8_t> out;
      encode_hello_ack(out, ack);
      (void)::send(conn, out.data(), out.size(), MSG_NOSIGNAL);
      break;
    }
  }
  // Hold the connection open briefly so the client can finish reading.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::close(conn);
}

TEST(NetClientRetry, ConnectBoundedAgainstNeverAcceptingListener) {
  NeverAcceptingListener listener;
  const auto start = SteadyClock::now();
  EXPECT_THROW(
      { Client::connect("127.0.0.1", listener.port(), 0.3); },
      std::exception);
  // Either the TCP connect or the handshake wait fires — both are bounded
  // by the 0.3s budget, nowhere near the kernel's minutes-long SYN retry.
  EXPECT_LT(elapsed_seconds(start), 5.0);
}

TEST(NetClientRetry, ConnectRefusedFailsFast) {
  RefusingPort refusing;
  const auto start = SteadyClock::now();
  EXPECT_THROW(
      { Client::connect("127.0.0.1", refusing.port(), 2.0); },
      std::system_error);
  EXPECT_LT(elapsed_seconds(start), 2.0);
}

TEST(NetClientRetry, BackoffGivesUpAfterMaxAttempts) {
  RefusingPort refusing;
  BackoffPolicy policy;
  policy.attempt_timeout_seconds = 0.2;
  policy.initial_backoff_seconds = 0.01;
  policy.max_backoff_seconds = 0.04;
  policy.max_attempts = 3;
  const auto start = SteadyClock::now();
  auto client = Client::connect_with_backoff("127.0.0.1", refusing.port(),
                                             policy);
  EXPECT_FALSE(client.has_value());
  // Two inter-attempt sleeps (10ms + 20ms) must have happened.
  EXPECT_GE(elapsed_seconds(start), 0.03);
  EXPECT_LT(elapsed_seconds(start), 5.0);
}

TEST(NetClientRetry, BackoffSucceedsOnceServerAppears) {
  RefusingPort port_holder;
  std::thread server{[fd = port_holder.fd()] {
    // First attempts see ECONNREFUSED (bound, not listening); then the
    // port starts listening and answers the handshake.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    if (::listen(fd, 4) != 0) return;
    serve_one_handshake(fd, /*ok=*/true);
  }};
  BackoffPolicy policy;
  policy.attempt_timeout_seconds = 1.0;
  policy.initial_backoff_seconds = 0.05;
  policy.max_backoff_seconds = 0.2;
  policy.max_attempts = 20;
  auto client = Client::connect_with_backoff("127.0.0.1", port_holder.port(),
                                             policy);
  server.join();
  ASSERT_TRUE(client.has_value());
  EXPECT_TRUE(client->connected());
}

TEST(NetClientRetry, NakedHandshakeThrows) {
  RefusingPort port_holder;
  ASSERT_EQ(::listen(port_holder.fd(), 4), 0);
  std::thread server{[fd = port_holder.fd()] {
    serve_one_handshake(fd, /*ok=*/false);
  }};
  EXPECT_THROW(Client::connect("127.0.0.1", port_holder.port(), 2.0),
               std::runtime_error);
  server.join();
}

}  // namespace
}  // namespace autopn::net

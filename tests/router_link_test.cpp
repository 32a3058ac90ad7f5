// ShardLink driven deterministically: one EventLoop thread, every link call
// made from a task on it, and a fake shard whose socket the test reads and
// writes by hand. Covers the lifetime of the bytes in the link's writer:
// a peer that resets the connection with bytes pending gets every in-flight
// token answered exactly once (and a refused forward never), so does a
// reset() of a connection whose peer stopped reading, a redial never
// sends bytes queued for the previous connection, and a flush posted before
// the link was closed and destroyed — Router::finalize_retire's shape —
// touches nothing (run this one under ASan).
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/wire.hpp"
#include "router/shard_link.hpp"
#include "wire_peer.hpp"

namespace autopn::router {
namespace {

using namespace std::chrono_literals;

class ShardLinkTest : public ::testing::Test {
 protected:
  ~ShardLinkTest() override {
    run([this] { link_.reset(); });
    loop_.stop();
    thread_.join();
  }

  /// Runs `task` on the loop thread and returns once it ran, together with
  /// every task it posted (the link's flush among them).
  void run(const std::function<void()>& task) {
    std::promise<void> done;
    loop_.post([&] {
      task();
      loop_.post([&done] { done.set_value(); });
    });
    done.get_future().wait();
  }

  /// Builds the link with a 16 KB cap and completes its handshake with the
  /// fake shard, whose receive buffer is 4 KB.
  void open_link() {
    ShardLinkConfig config;
    config.max_outbound_bytes = 16 * 1024;
    run([&] {
      link_ = std::make_unique<ShardLink>(
          loop_, ShardAddress{0, "127.0.0.1", shard_.port()}, config,
          [this](std::uint64_t token, net::ResponseFrame response) {
            answers_[token].push_back(response);
          });
    });
    ASSERT_TRUE(shard_.accept());
    ASSERT_TRUE(shard_.handshake());
    ASSERT_TRUE(wait([this] { return link_->healthy(); }));
  }

  /// Polls `done` on the loop thread for up to 5 s.
  bool wait(const std::function<bool()>& done) {
    for (int i = 0; i < 500; ++i) {
      bool ok = false;
      run([&] { ok = done(); });
      if (ok) return true;
      std::this_thread::sleep_for(10ms);
    }
    return false;
  }

  /// Forwards round after round until the link refuses: the shard's
  /// socket is full and the writer holds more than its cap.
  void fill() {
    for (int round = 0; round < 5000 && refused_.empty(); ++round) {
      run([this] {
        for (int i = 0; i < 100; ++i) {
          const std::uint64_t token = next_token_++;
          (link_->forward(token, net::RequestFrame{}) ? accepted_ : refused_)
              .push_back(token);
        }
      });
    }
    ASSERT_FALSE(refused_.empty());
    std::size_t queued = 0;
    run([&] { queued = link_->queued_bytes(); });
    ASSERT_GT(queued, 0u);
  }

  peers::FakeShard shard_{/*rcvbuf=*/4096};
  net::EventLoop loop_;
  std::thread thread_{[this] { loop_.run(); }};
  std::unique_ptr<ShardLink> link_;
  /// Loop thread only, read by the test after run() returned.
  std::map<std::uint64_t, std::vector<net::ResponseFrame>> answers_;
  std::vector<std::uint64_t> accepted_;
  std::vector<std::uint64_t> refused_;
  std::uint64_t next_token_ = 1;
};

void expect_transient_shed(const net::ResponseFrame& response) {
  EXPECT_EQ(response.status, net::Status::kShed);
  EXPECT_EQ(response.shed_origin, net::ShedOrigin::kRouter);
  EXPECT_EQ(response.shed_detail, net::ShedDetail::kTransient);
}

TEST_F(ShardLinkTest, ResetWithBytesPendingAnswersEveryTokenOnce) {
  open_link();
  fill();
  shard_.connection().close();  // unread bytes: the kernel resets the link
  ASSERT_TRUE(wait([this] { return link_->in_flight() == 0; }));

  EXPECT_EQ(answers_.size(), accepted_.size());
  for (const std::uint64_t token : accepted_) {
    ASSERT_EQ(answers_[token].size(), 1u) << "token " << token;
    expect_transient_shed(answers_[token][0]);
  }
  for (const std::uint64_t token : refused_) {
    EXPECT_EQ(answers_.count(token), 0u) << "refused token " << token;
  }
}

TEST_F(ShardLinkTest, ResetOfAStuckPeerAnswersEveryTokenOnce) {
  open_link();
  fill();
  // The peer stays connected and reads nothing; the router's dead verdict
  // gives the connection up.
  run([this] { link_->reset(); });
  std::size_t in_flight = 0;
  run([&] { in_flight = link_->in_flight(); });
  EXPECT_EQ(in_flight, 0u);

  EXPECT_EQ(answers_.size(), accepted_.size());
  for (const std::uint64_t token : accepted_) {
    ASSERT_EQ(answers_[token].size(), 1u) << "token " << token;
    expect_transient_shed(answers_[token][0]);
  }
  std::size_t queued = 0;
  run([&] { queued = link_->queued_bytes(); });
  EXPECT_EQ(queued, 0u);
}

TEST_F(ShardLinkTest, RedialSendsNothingQueuedForTheOldConnection) {
  open_link();
  fill();
  shard_.connection().close();
  // The link redials at once. The new connection carries the Hello and
  // nothing else — not before the HelloAck, not after it.
  ASSERT_TRUE(shard_.accept());
  ASSERT_TRUE(shard_.handshake());
  ASSERT_TRUE(wait([this] { return link_->healthy(); }));
  EXPECT_TRUE(shard_.connection().read_frames(0.2).empty());

  const std::uint64_t fresh = next_token_++;
  bool forwarded = false;
  run([&] { forwarded = link_->forward(fresh, net::RequestFrame{}); });
  ASSERT_TRUE(forwarded);
  const std::vector<net::Frame> frames =
      shard_.connection().read_frames(2.0, 1);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, net::FrameType::kRequest);
  const auto request = net::parse_request(frames[0].body);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->request_id, fresh);
}

TEST_F(ShardLinkTest, FlushPostedBeforeCloseAndDestroyTouchesNothing) {
  open_link();
  bool forwarded = false;
  run([&] {
    forwarded = link_->forward(7, net::RequestFrame{});  // posts a flush
    link_->close();
    link_.reset();
    // The posted flush runs after this task, with the link gone.
  });
  ASSERT_TRUE(forwarded);
  ASSERT_EQ(answers_[7].size(), 1u);
  expect_transient_shed(answers_[7][0]);
  // The request died in the writer: the shard saw the Hello only.
  EXPECT_TRUE(shard_.connection().read_frames(0.2).empty());
}

}  // namespace
}  // namespace autopn::router

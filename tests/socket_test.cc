// The socket module every daemon, gateway, client, isolation and loadgen
// connection goes through (common/socket.h): SIGPIPE-safe sends, exact
// receives that report a short read at EOF, receive timeouts (including
// sub-microsecond ones) as DeadlineExceeded, loopback and Unix listeners,
// and the Unix path-length check. tools/run_sanitize.sh also runs this
// binary under AddressSanitizer.
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/socket.h"
#include "common/status.h"
#include "common/timer.h"

namespace graphalign {
namespace {

class SocketPair : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    for (int& fd : fds_) CloseEnd(fd);
  }
  void CloseEnd(int& fd) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  int fds_[2] = {-1, -1};
};

// Shuts the writing side of `fd` down after `seconds` unless destroyed
// first, so a receive that never times out ends in EOF and fails its
// assertion instead of hanging the suite.
class HangupAfter {
 public:
  HangupAfter(int fd, double seconds)
      : thread_([this, fd, seconds] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                            [this] { return done_; })) {
            ::shutdown(fd, SHUT_WR);
          }
        }) {}
  ~HangupAfter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

TEST_F(SocketPair, SendAllToClosedPeerFailsWithoutSigpipe) {
  // With the default disposition a SIGPIPE would kill the test binary.
  ::signal(SIGPIPE, SIG_DFL);
  CloseEnd(fds_[1]);
  EXPECT_FALSE(SendAll(fds_[0], "hello"));
  EXPECT_EQ(errno, EPIPE);
}

TEST_F(SocketPair, SendAllThenRecvExactRoundTrips) {
  const std::string message(100000, 'x');  // Larger than one socket buffer.
  std::thread writer([&] { EXPECT_TRUE(SendAll(fds_[0], message)); });
  std::string got(message.size(), '\0');
  const Result<size_t> n = RecvExact(fds_[1], got.data(), got.size());
  writer.join();
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, message.size());
  EXPECT_EQ(got, message);
}

TEST_F(SocketPair, RecvExactReturnsTheBytesBeforeEof) {
  ASSERT_TRUE(SendAll(fds_[0], "abc"));
  CloseEnd(fds_[0]);
  char buf[8];
  const Result<size_t> n = RecvExact(fds_[1], buf, sizeof(buf));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 3u);
  EXPECT_EQ(std::string(buf, 3), "abc");
}

TEST_F(SocketPair, RecvExactOfAClosedEmptyStreamIsZero) {
  CloseEnd(fds_[0]);
  char buf[8];
  const Result<size_t> n = RecvExact(fds_[1], buf, sizeof(buf));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 0u);
}

TEST_F(SocketPair, ReceiveTimeoutIsDeadlineExceeded) {
  SetSocketTimeouts(fds_[1], 0.05);
  HangupAfter guard(fds_[0], 5.0);
  char buf[4];
  WallTimer timer;
  const Result<size_t> n = RecvExact(fds_[1], buf, sizeof(buf));
  EXPECT_EQ(n.status().code(), StatusCode::kDeadlineExceeded)
      << n.status().ToString();
  EXPECT_GE(timer.Seconds(), 0.04);
  EXPECT_LT(timer.Seconds(), 4.0);
}

TEST_F(SocketPair, SubMicrosecondTimeoutStillTimesOut) {
  // A {0 s, 0 us} timeval means "never"; 1e-7 s must not round to it.
  SetSocketTimeouts(fds_[1], 1e-7);
  HangupAfter guard(fds_[0], 5.0);
  char buf[4];
  WallTimer timer;
  const Result<size_t> n = RecvExact(fds_[1], buf, sizeof(buf));
  EXPECT_EQ(n.status().code(), StatusCode::kDeadlineExceeded)
      << n.status().ToString();
  EXPECT_LT(timer.Seconds(), 4.0);
}

TEST(SocketListenTest, LoopbackPortIsReachable) {
  int port = -1;
  const Result<int> listener = ListenLoopback(0, &port);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ASSERT_GT(port, 0);
  const Result<int> client = ConnectTcp("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const int server = ::accept(*listener, nullptr, nullptr);
  ASSERT_GE(server, 0);
  ASSERT_TRUE(SendAll(*client, "ping"));
  char buf[4];
  const Result<size_t> n = RecvExact(server, buf, sizeof(buf));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(std::string(buf, *n), "ping");
  ::close(server);
  ::close(*client);
  ::close(*listener);
}

TEST(SocketListenTest, ConnectErrorsAreTyped) {
  EXPECT_EQ(ConnectTcp("localhost", 1).status().code(),
            StatusCode::kInvalidArgument);
  const std::string missing =
      "/tmp/ga_sock_missing_" + std::to_string(::getpid());
  EXPECT_EQ(ConnectUnix(missing).status().code(), StatusCode::kNotFound);
}

TEST(SocketListenTest, ListenUnixReplacesAStaleSocketFile) {
  const std::string path = "/tmp/ga_sock_stale_" + std::to_string(::getpid());
  // A listener that closed without unlinking leaves its file behind, as a
  // crashed daemon does.
  const Result<int> first = ListenUnix(path);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ::close(*first);
  ASSERT_EQ(::access(path.c_str(), F_OK), 0);
  const Result<int> second = ListenUnix(path);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const Result<int> client = ConnectUnix(path);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  if (client.ok()) ::close(*client);
  ::close(*second);
  ::unlink(path.c_str());
}

TEST(SocketListenTest, OverlongUnixPathIsInvalidArgument) {
  const std::string path = "/tmp/" + std::string(300, 'p');
  EXPECT_EQ(ListenUnix(path).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ConnectUnix(path).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace graphalign

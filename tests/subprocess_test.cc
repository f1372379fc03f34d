// Tests for the process-isolated run executor (common/subprocess.h): real
// crashes, real out-of-memory kills, and real hangs are injected in the
// child and must come back as classified outcomes, never as test-process
// failures.
#include "common/subprocess.h"

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "align/aligner.h"
#include "common/outcome.h"
#include "graph/graph.h"
#include "gtest/gtest.h"

namespace graphalign {
namespace {

// ---------------------------------------------------------------------------
// The run-outcome classifier (common/outcome.h): every way a Status or an
// isolated child can end, the verdict it gets, and that verdict's name.

SubprocessResult Ended(RunStatus status, int exit_code = 0,
                       bool killed_on_cancel = false) {
  SubprocessResult run;
  run.status = status;
  run.exit_code = exit_code;
  run.killed_on_cancel = killed_on_cancel;
  run.wall_seconds = 1.5;
  run.detail = "detail";
  return run;
}

TEST(OutcomeTest, ClassifiesEveryEnding) {
  struct Case {
    const char* what;
    Outcome outcome;
    int code;
    const char* name;
  };
  const Case cases[] = {
      {"exit 0", ClassifyRun(Ended(RunStatus::kOk)), kExitOk, "OK"},
      {"exit 3 (the child's own DNF)", ClassifyRun(Ended(RunStatus::kExit, 3)),
       kExitDnf, "DNF"},
      {"exit 7 (the child's own NUMERICAL)",
       ClassifyRun(Ended(RunStatus::kExit, 7)), kExitNumerical, "NUMERICAL"},
      {"exit 1", ClassifyRun(Ended(RunStatus::kExit, 1)), kExitError, "ERROR"},
      {"exit 42", ClassifyRun(Ended(RunStatus::kExit, 42)), kExitError,
       "ERROR"},
      {"exit 6 (not a run verdict)", ClassifyRun(Ended(RunStatus::kExit, 6)),
       kExitError, "ERROR"},
      {"crash signal", ClassifyRun(Ended(RunStatus::kCrash)), kExitCrash,
       "CRASH"},
      {"memory cap", ClassifyRun(Ended(RunStatus::kOom)), kExitOom, "OOM"},
      {"wall-clock backstop", ClassifyRun(Ended(RunStatus::kTimeout)),
       kExitDnf, "DNF"},
      {"cancel hook", ClassifyRun(Ended(RunStatus::kTimeout, 0, true)),
       kExitDnf, "DNF"},
      {"Ok status", ClassifyStatus(Status::Ok()), kExitOk, "OK"},
      {"kDeadlineExceeded", ClassifyStatus(Status::DeadlineExceeded("late")),
       kExitDnf, "DNF"},
      {"kNumerical", ClassifyStatus(Status::Numerical("no-converge")),
       kExitNumerical, "NUMERICAL"},
      {"kUnavailable", ClassifyStatus(Status::Unavailable("fork refused")),
       kExitError, "ERROR"},
      {"kInvalidArgument", ClassifyStatus(Status::InvalidArgument("bad")),
       kExitError, "ERROR"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.outcome.code, c.code) << c.what;
    EXPECT_STREQ(ExitCodeName(c.outcome.code), c.name) << c.what;
    EXPECT_EQ(c.outcome.ok(), c.code == kExitOk) << c.what;
    EXPECT_EQ(c.outcome.message.empty(), c.code == kExitOk) << c.what;
  }
}

TEST(OutcomeTest, MessagesSayWhy) {
  EXPECT_EQ(ClassifyRun(Ended(RunStatus::kCrash)).message, "detail");
  EXPECT_EQ(ClassifyRun(Ended(RunStatus::kExit, 1)).message,
            "isolated child detail");
  // Both kills are DNF; only the message (and run.killed_on_cancel) says
  // which one it was.
  EXPECT_EQ(ClassifyRun(Ended(RunStatus::kTimeout)).message,
            "hard-killed at the wall-clock backstop after 1.50s");
  EXPECT_EQ(ClassifyRun(Ended(RunStatus::kTimeout, 0, true)).message,
            "killed by the caller's cancellation hook after 1.50s");
  // DNF and NUMERICAL name the kind already; ERROR keeps the status code.
  EXPECT_EQ(ClassifyStatus(Status::DeadlineExceeded("late")).message, "late");
  EXPECT_EQ(ClassifyStatus(Status::Unavailable("fork refused")).message,
            "Unavailable: fork refused");
}

TEST(OutcomeTest, BackstopIsTwiceTheBudgetPlusSlack) {
  EXPECT_DOUBLE_EQ(BackstopSeconds(10.0), 2.0 * 10.0 + kBackstopSlackSeconds);
  EXPECT_DOUBLE_EQ(BackstopSeconds(0.5, 5.0), 6.0);
  EXPECT_EQ(BackstopSeconds(0.0), 0.0);   // No budget: unlimited.
  EXPECT_EQ(BackstopSeconds(-1.0), 0.0);
}

TEST(OutcomeTest, NameTableCoversEveryExitCode) {
  EXPECT_STREQ(ExitCodeName(kExitUsage), "BAD_REQUEST");
  EXPECT_STREQ(ExitCodeName(kExitShuttingDown), "SHUTTING_DOWN");
  EXPECT_STREQ(ExitCodeName(kExitConflict), "CONFLICT");
  EXPECT_STREQ(ExitCodeName(kExitConflict + 1), "UNKNOWN");
  EXPECT_STREQ(ExitCodeName(-1), "UNKNOWN");
}

TEST(RunIsolatedTest, CleanExitRoundtripsPayload) {
  auto result = RunIsolated([](int payload_fd) {
    return WritePayload(payload_fd, "forty-two") ? 0 : 1;
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kOk);
  EXPECT_EQ(result->exit_code, 0);
  ASSERT_TRUE(result->payload_valid);
  EXPECT_EQ(result->payload, "forty-two");
}

TEST(RunIsolatedTest, LargePayloadSurvivesPipeBuffering) {
  // Well past the 64KB default pipe capacity: the parent must drain while
  // the child writes, or this deadlocks and the wall cap kills it.
  const std::string big(4 << 20, 'x');
  SubprocessOptions options;
  options.wall_limit_seconds = 30.0;
  auto result = RunIsolated(
      [&](int payload_fd) { return WritePayload(payload_fd, big) ? 0 : 1; },
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->status, RunStatus::kOk) << result->detail;
  ASSERT_TRUE(result->payload_valid);
  EXPECT_EQ(result->payload, big);
}

TEST(RunIsolatedTest, NonzeroExitIsExitNotCrash) {
  auto result = RunIsolated([](int) { return 7; });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kExit);
  EXPECT_EQ(result->exit_code, 7);
  EXPECT_FALSE(result->payload_valid);
}

TEST(RunIsolatedTest, AbortIsClassifiedAsCrash) {
  auto result = RunIsolated([](int) -> int { std::abort(); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kCrash);
  EXPECT_EQ(result->term_signal, SIGABRT);
  EXPECT_NE(result->detail.find("SIGABRT"), std::string::npos)
      << result->detail;
}

TEST(RunIsolatedTest, SegfaultIsClassifiedAsCrash) {
  auto result = RunIsolated([](int) {
    std::raise(SIGSEGV);
    return 0;
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kCrash);
  EXPECT_EQ(result->term_signal, SIGSEGV);
}

TEST(RunIsolatedTest, CrashMidWriteLeavesPayloadInvalid) {
  auto result = RunIsolated([](int payload_fd) {
    // A torn frame: a few header bytes, then death.
    (void)!write(payload_fd, "GA", 2);
    std::raise(SIGSEGV);
    return 0;
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kCrash);
  EXPECT_FALSE(result->payload_valid);
}

TEST(RunIsolatedTest, AllocationBeyondLimitIsOom) {
  SubprocessOptions options;
  options.mem_limit_bytes = 192ll << 20;  // 192 MB of headroom.
  options.wall_limit_seconds = 60.0;
  auto result = RunIsolated(
      [](int) {
        // Keep every block reachable and touch each page: an unused `new`
        // is legally elided by the optimizer, and untouched mappings stay
        // lazy.
        constexpr size_t kChunk = 32u << 20;
        std::vector<char*> blocks;
        unsigned long sum = 0;
        for (int i = 0; i < 64; ++i) {
          char* block = new char[kChunk];
          for (size_t off = 0; off < kChunk; off += 4096) block[off] = 1;
          blocks.push_back(block);
          sum += static_cast<unsigned long>(block[kChunk - 1]);
        }
        return sum > 0 ? 0 : 1;  // Unreachable under the limit.
      },
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kOom) << result->detail;
}

TEST(RunIsolatedTest, NonCooperativeHangIsKilledAtWallCap) {
  SubprocessOptions options;
  options.wall_limit_seconds = 0.5;
  auto result = RunIsolated(
      [](int) {
        volatile uint64_t spin = 0;
        for (;;) spin = spin + 1;
        return 0;
      },
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kTimeout);
  EXPECT_GE(result->wall_seconds, 0.5);
  EXPECT_LT(result->wall_seconds, 30.0);
}

TEST(RunIsolatedTest, CancelHookKillsTheChildAndMarksIt) {
  // The server's watchdog cancels hung children through this hook: once it
  // returns true, the parent's wait loop SIGKILLs the child and the outcome
  // is a kTimeout flagged killed_on_cancel — distinguishable from a
  // wall-cap kill, which the next assertion covers.
  SubprocessOptions options;
  options.wall_limit_seconds = 60.0;  // Far beyond the cancel.
  const auto armed_at = std::chrono::steady_clock::now();
  options.cancel = [armed_at] {
    return std::chrono::steady_clock::now() - armed_at >
           std::chrono::milliseconds(200);
  };
  auto result = RunIsolated(
      [](int) {
        volatile uint64_t spin = 0;
        for (;;) spin = spin + 1;
        return 0;
      },
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kTimeout);
  EXPECT_TRUE(result->killed_on_cancel);
  EXPECT_LT(result->wall_seconds, 30.0);  // The 60 s cap never fired.
}

TEST(RunIsolatedTest, WallCapKillIsNotMarkedAsCancel) {
  SubprocessOptions options;
  options.wall_limit_seconds = 0.3;
  options.cancel = [] { return false; };  // Armed but never firing.
  auto result = RunIsolated(
      [](int) {
        volatile uint64_t spin = 0;
        for (;;) spin = spin + 1;
        return 0;
      },
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kTimeout);
  EXPECT_FALSE(result->killed_on_cancel);
}

TEST(RunIsolatedTest, CancelThatNeverFiresLeavesCleanRunsUntouched) {
  SubprocessOptions options;
  options.cancel = [] { return false; };
  auto result = RunIsolated([](int payload_fd) {
    return WritePayload(payload_fd, "done") ? 0 : 1;
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, RunStatus::kOk);
  EXPECT_FALSE(result->killed_on_cancel);
}

// True once `pid` has exited. A zombie counts: it runs nothing, and the
// process that inherits it may be slow to reap it.
bool Exited(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = stat.rfind(')');
  return paren == std::string::npos || paren + 2 >= stat.size() ||
         stat[paren + 2] == 'Z';
}

TEST(RunIsolatedTest, ChildDiesWithItsParent) {
  // kill -9 of the caller (a CLI, a daemon helper) must not leave its
  // isolated child running: the child carries PR_SET_PDEATHSIG.
  int pid_pipe[2];
  ASSERT_EQ(pipe(pid_pipe), 0);
  const pid_t parent = fork();
  ASSERT_GE(parent, 0);
  if (parent == 0) {
    close(pid_pipe[0]);
    std::unique_ptr<Aligner> hang = MakeFaultAligner("_HANG");
    (void)RunIsolated([&](int) {
      const pid_t self = getpid();
      (void)!write(pid_pipe[1], &self, sizeof(self));
      (void)hang->ComputeSimilarity(Graph(), Graph());  // Never returns.
      return 0;
    });
    _exit(0);
  }
  close(pid_pipe[1]);
  pid_t child = -1;
  ASSERT_EQ(read(pid_pipe[0], &child, sizeof(child)),
            static_cast<ssize_t>(sizeof(child)));
  close(pid_pipe[0]);
  ASSERT_EQ(kill(parent, SIGKILL), 0);
  ASSERT_EQ(waitpid(parent, nullptr, 0), parent);

  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (!Exited(child) && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool gone = Exited(child);
  if (!gone) kill(child, SIGKILL);  // Do not leak a spinning process.
  EXPECT_TRUE(gone) << "the _HANG child outlived its killed parent by 1 s";
}

TEST(CountProcThreadsTest, SeesAtLeastTheMainThread) {
  auto threads = CountProcThreads();
  ASSERT_TRUE(threads.ok()) << threads.status().ToString();
  EXPECT_GE(*threads, 1);
}

}  // namespace
}  // namespace graphalign

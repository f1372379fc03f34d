#include "common/subprocess.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <new>

#include "common/deadline.h"
#include "common/failpoint.h"
#include "common/file_io.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "common/timer.h"

namespace graphalign {

namespace {

// Payload frames are "GAPL" + little-endian u64 length + bytes. The magic
// lets the parent distinguish "child wrote nothing" from "child wrote
// garbage"; the length lets it detect a crash mid-write.
constexpr char kPayloadMagic[4] = {'G', 'A', 'P', 'L'};

void SetAddressSpaceLimit(int64_t headroom_bytes) {
  // RLIMIT_AS counts every mapping — the binary, shared libraries, and the
  // 8 MiB stacks of pool threads the child inherited from the parent — so an
  // absolute cap of a few hundred MB could be spent before the workload
  // allocates a byte. Budget on top of the current VmSize instead; when
  // /proc is unavailable fall back to the absolute value.
  int64_t base = CurrentVmBytes();
  const rlim_t cap = static_cast<rlim_t>((base > 0 ? base : 0) + headroom_bytes);
  struct rlimit rl;
  rl.rlim_cur = cap;
  rl.rlim_max = cap;
  setrlimit(RLIMIT_AS, &rl);
}

void DrainPipe(int fd, std::string* raw) {
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      raw->append(buf, static_cast<size_t>(n));
      continue;
    }
    return;  // 0 = EOF, -1 = EAGAIN or error; either way stop for now.
  }
}

// Extracts one complete frame from the raw pipe bytes.
bool ParsePayload(const std::string& raw, std::string* payload) {
  if (raw.size() < sizeof(kPayloadMagic) + sizeof(uint64_t)) return false;
  if (std::memcmp(raw.data(), kPayloadMagic, sizeof(kPayloadMagic)) != 0) {
    return false;
  }
  uint64_t len = 0;
  std::memcpy(&len, raw.data() + sizeof(kPayloadMagic), sizeof(len));
  const size_t header = sizeof(kPayloadMagic) + sizeof(uint64_t);
  if (raw.size() < header + len) return false;
  payload->assign(raw, header, len);
  return true;
}

const char* SignalName(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    default: return "signal";
  }
}

}  // namespace

Result<int> CountProcThreads() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return Status::Internal("/proc/self/status unavailable");
  }
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "Threads:", 8) == 0) {
      threads = static_cast<int>(std::strtol(line + 8, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  if (threads <= 0) {
    return Status::Internal("Threads line missing from /proc/self/status");
  }
  return threads;
}

bool WritePayload(int fd, const std::string& bytes) {
  std::string frame(kPayloadMagic, sizeof(kPayloadMagic));
  const uint64_t len = bytes.size();
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(bytes);
  return WriteAll(fd, frame);
}

Result<SubprocessResult> RunIsolated(
    const std::function<int(int payload_fd)>& body,
    const SubprocessOptions& options) {
  // Refuse to fork when threads we do not know about exist: a lock held by
  // one of them at fork time would be held forever in the child. The pool
  // workers are accounted for because ParallelFor runs inline after fork.
  auto threads = CountProcThreads();
  const int known = 1 + ParallelWorkersStarted();
  if (threads.ok() && *threads > known) {
    return Status::FailedPrecondition(
        "RunIsolated: " + std::to_string(*threads) +
        " threads running but only " + std::to_string(known) +
        " (main + pool workers) are known fork-tolerant");
  }

  GA_FAILPOINT_STATUS(
      "subprocess.fork.error",
      Status::Unavailable("fork() failed: Resource temporarily unavailable"));

  int fds[2];
  if (pipe(fds) != 0) {
    return Status::Internal("pipe() failed: " + std::string(strerror(errno)));
  }
  // Buffered stdio shared with the child would otherwise be flushed twice.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork() failed: " + std::string(strerror(errno)));
  }

  if (pid == 0) {
    // Child. Exit via _exit in every path: the parent owns atexit state.
    // A child whose parent died (kill -9 of a CLI or a daemon helper) must
    // not keep computing for nobody: die with it, including when the parent
    // died before the prctl took effect.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    std::set_new_handler(+[]() { _exit(kOomExitCode); });
    struct rlimit no_core = {0, 0};
    setrlimit(RLIMIT_CORE, &no_core);  // A crashing cell must not dump GBs.
    if (options.mem_limit_bytes > 0) {
      SetAddressSpaceLimit(options.mem_limit_bytes);
    }
    // Child-side fault site: crash/oom modes die here, inside the sandbox,
    // exercising the parent's containment and classification.
    if (GA_FAILPOINT_FIRED("subprocess.child.fault")) _exit(1);
    const int rc = body(fds[1]);
    std::fflush(stdout);
    std::fflush(stderr);
    close(fds[1]);
    _exit(rc);
  }

  // Parent: drain the payload pipe while waiting, so a chatty child never
  // blocks on a full pipe, and enforce the wall-clock cap with SIGKILL.
  close(fds[1]);
  fcntl(fds[0], F_SETFL, O_NONBLOCK);
  const Deadline hard_cap = options.wall_limit_seconds > 0
                                ? Deadline::AfterSeconds(options.wall_limit_seconds)
                                : Deadline::Infinite();
  WallTimer timer;
  std::string raw;
  bool killed_on_timeout = false;
  bool killed_on_cancel = false;
  int wstatus = 0;
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fds[0];
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (poll(&pfd, 1, /*timeout_ms=*/50) > 0) DrainPipe(fds[0], &raw);
    const pid_t w = waitpid(pid, &wstatus, WNOHANG);
    if (w == pid) break;
    if (w < 0 && errno != EINTR) {
      close(fds[0]);
      return Status::Internal("waitpid() failed: " +
                              std::string(strerror(errno)));
    }
    if (!killed_on_timeout && hard_cap.Expired()) {
      kill(pid, SIGKILL);
      killed_on_timeout = true;
    }
    if (!killed_on_timeout && options.cancel && options.cancel()) {
      kill(pid, SIGKILL);
      killed_on_timeout = true;
      killed_on_cancel = true;
    }
  }
  DrainPipe(fds[0], &raw);  // Bytes written before the child exited.
  close(fds[0]);

  SubprocessResult result;
  result.wall_seconds = timer.Seconds();
  result.payload_valid = ParsePayload(raw, &result.payload);
  if (WIFEXITED(wstatus)) {
    const int code = WEXITSTATUS(wstatus);
    result.exit_code = code;
    if (code == 0) {
      result.status = RunStatus::kOk;
      result.detail = "ok";
    } else if (code == kOomExitCode) {
      result.status = RunStatus::kOom;
      result.detail = "allocation failed under the memory limit";
    } else {
      result.status = RunStatus::kExit;
      result.detail = "exit code " + std::to_string(code);
    }
  } else if (WIFSIGNALED(wstatus)) {
    const int sig = WTERMSIG(wstatus);
    result.term_signal = sig;
    if (sig == SIGKILL && killed_on_timeout) {
      result.status = RunStatus::kTimeout;
      result.killed_on_cancel = killed_on_cancel;
      result.detail = killed_on_cancel
                          ? "killed by the caller's cancellation hook"
                          : "killed after exceeding the wall-clock cap";
    } else if (sig == SIGKILL) {
      // Nobody else SIGKILLs the child; the kernel OOM-killer does.
      result.status = RunStatus::kOom;
      result.detail = "killed (likely by the kernel OOM killer)";
    } else {
      result.status = RunStatus::kCrash;
      result.detail = "killed by signal " + std::to_string(sig) + " (" +
                      SignalName(sig) + ")";
    }
  } else {
    result.status = RunStatus::kCrash;
    result.detail = "child ended with unexpected wait status";
  }
  return result;
}

}  // namespace graphalign

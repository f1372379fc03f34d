// Process-isolated execution of fallible workloads.
//
// The benchmark protocol (paper §5.1, Table 3) treats a run that dies — a
// segfault in an algorithm, an allocation beyond the memory budget, a hang —
// as a reportable per-cell outcome, not a fatal event for the whole sweep.
// RunIsolated provides the primitive: fork a child, apply rlimit-enforced
// memory and wall-clock caps, run the workload there, and classify how the
// child ended (clean exit / crash signal / out-of-memory / timeout kill).
// Whatever the child marshals back through the payload pipe survives every
// failure mode except never having been written.
//
// Fork safety: worker threads do not survive fork(), so the child must not
// depend on any thread started before it. The graphalign thread pool is
// fork-tolerant by construction (ParallelFor detects a forked child and runs
// inline; see parallel.cc), and RunIsolated refuses to fork — returning
// FailedPrecondition — when /proc shows threads beyond the main thread and
// the known pool workers, rather than risking a deadlock on a lock held by a
// thread that no longer exists. That suits its in-process callers (CLI
// `align --isolate`, bench `--isolate`, MeasurePeakMemoryMb). The daemon,
// which runs many threads, never calls it from its own image: its isolated
// alignments run in single-threaded helpers forked from a zygote at startup
// (server/isolation.h), so there is no registry of "fork-tolerant" threads.
//
// Orphans: the child sets PR_SET_PDEATHSIG to SIGKILL, so a caller killed
// mid-run (kill -9 of a CLI, a daemon or one of its helpers) leaves no
// workload running.
#ifndef GRAPHALIGN_COMMON_SUBPROCESS_H_
#define GRAPHALIGN_COMMON_SUBPROCESS_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"

namespace graphalign {

// How the isolated child ended.
enum class RunStatus {
  kOk,       // Exited 0; the payload (if any) is the result.
  kExit,     // Exited with a nonzero code (a clean in-child error).
  kCrash,    // Killed by a crash-class signal (SIGSEGV, SIGABRT, ...).
  kOom,      // Allocation failed under the memory limit, or the kernel
             // OOM-killer took the child down.
  kTimeout,  // Still running at the wall-clock cap; killed by the parent.
};

// Short upper-case name used in tables and logs: OK/EXIT/CRASH/OOM/TIMEOUT.
const char* RunStatusName(RunStatus status);

struct SubprocessOptions {
  // Hard wall-clock cap in seconds; the parent SIGKILLs the child once it
  // is exceeded (kTimeout). Non-positive = unlimited. This is the
  // non-cooperative backstop behind the cooperative Deadline budget.
  double wall_limit_seconds = 0.0;

  // Memory the child may allocate on top of the process baseline, enforced
  // with RLIMIT_AS (the limit is set to the current VmSize plus this
  // headroom, so thread stacks and mapped binaries of the parent do not
  // count against the workload). Non-positive = unlimited.
  int64_t mem_limit_bytes = 0;

  // Optional cancellation hook, polled by the parent's wait loop (~50 ms
  // cadence). Returning true SIGKILLs the child immediately; the result is
  // classified kTimeout with killed_on_cancel set, so callers (the server's
  // worker watchdog) can distinguish it from the wall-clock backstop. Must
  // be cheap and thread-safe: it runs on the waiting parent thread.
  std::function<bool()> cancel;
};

struct SubprocessResult {
  RunStatus status = RunStatus::kOk;
  int exit_code = 0;     // Valid for kOk / kExit.
  int term_signal = 0;   // Valid for kCrash (and SIGKILL-classified kOom).
  double wall_seconds = 0.0;
  // True when the kill came from SubprocessOptions::cancel rather than the
  // wall-clock cap (both classify as kTimeout).
  bool killed_on_cancel = false;
  // Bytes the child sent with WritePayload; payload_valid is true only when
  // a complete frame arrived (a crash mid-write leaves it false).
  bool payload_valid = false;
  std::string payload;
  // Human-readable classification, e.g. "killed by signal 11 (SIGSEGV)".
  std::string detail;
};

// Exit code the child uses when operator new fails under the rlimit (the
// installed new-handler exits with it instead of throwing std::bad_alloc).
inline constexpr int kOomExitCode = 117;

// Runs `body` in a forked child under `options`. `body` receives the write
// end of the payload pipe and its return value becomes the child's exit
// code; the child never returns to the caller's stack (it _exits). Returns
// a Status only when isolation itself is impossible (pipe/fork failure,
// unknown threads running); every workload failure is a SubprocessResult.
Result<SubprocessResult> RunIsolated(const std::function<int(int payload_fd)>& body,
                                     const SubprocessOptions& options = {});

// Writes `bytes` to `fd` as one length-prefixed frame (for use inside the
// child body). Returns false on a short or failed write.
bool WritePayload(int fd, const std::string& bytes);

// Number of threads of the calling process per /proc/self/status, or a
// Status when /proc is unavailable.
Result<int> CountProcThreads();

}  // namespace graphalign

#endif  // GRAPHALIGN_COMMON_SUBPROCESS_H_

// Isolated alignments for the daemon, run from a pre-forked zygote
// (DESIGN.md §11).
//
// Every daemon alignment runs in a brand-new process, so a crash, an OOM or
// a hang is that request's own typed outcome (paper §5.1, Table 3). Forking
// the daemon itself per request would copy its page tables — hundreds of MB
// once the cache log has replayed — from a process with many threads. So
// Server::Create forks one single-threaded *zygote* first, before it binds,
// replays a log or starts a thread, while its image is a few MB:
//
//   daemon ── control socket ──▶ zygote ──fork──▶ helper, one per slot
//     worker slot ◀──── helper socket (SCM_RIGHTS) ────┘   │
//                                                          └─fork─▶ child
//
// A worker slot sends its helper one request: the align spec with both
// resolved graphs as wire edge lists, the wall-clock and memory caps, and
// the daemon's ArmedFailpoints(). The helper re-arms those failpoints,
// rebuilds the aligner by name and runs the alignment through RunIsolated,
// i.e. in a fresh child of the helper's own small image with the same
// RLIMIT_AS headroom, cooperative Deadline and wall-clock backstop. It then
// returns the SubprocessResult. A cancel (the watchdog, a cancelled job)
// travels as one byte on the same socket and becomes the child's SIGKILL.
//
// A helper that dies mid-request answers that request with a typed error;
// the slot asks the zygote for a fresh helper on its next request. A lost
// zygote fails every later spawn fast, and never blocks a worker. The
// zygote, the helpers and every request child die with their parent
// (PR_SET_PDEATHSIG), so a daemon killed with kill -9 leaves no alignment
// running. The zygote's parent is the thread that called Fork(): it must
// outlive the server.
#ifndef GRAPHALIGN_SERVER_ISOLATION_H_
#define GRAPHALIGN_SERVER_ISOLATION_H_

#include <sys/types.h>

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/subprocess.h"
#include "server/protocol.h"

namespace graphalign {

// InvalidArgument unless `algo` names a library aligner or a
// _CRASH/_OOM/_HANG fault injector and `assign` is NN, SG, MWM, JV or
// native: the names a helper can rebuild an alignment from.
Status CheckAlignNames(const std::string& algo, const std::string& assign);

// Decodes what an isolated align child reports through its payload pipe:
// an OK response whose body is an encoded AlignResult, or a typed error
// code and message. False when the bytes are malformed.
bool DecodeAlignOutcome(std::string_view payload, Response* response);

// What a worker slot sends its helper: the align spec with both graphs
// inline, the child's caps, and the daemon's armed failpoints.
struct HelperRequest {
  AlignRequest spec;
  double wall_limit_seconds = 0.0;
  int64_t mem_limit_bytes = 0;
  bool exit_before_reply = false;  // Failpoint: die before replying.
  std::vector<std::string> failpoints;
};

std::string EncodeHelperRequest(const HelperRequest& req);
Result<HelperRequest> DecodeHelperRequest(std::string_view bytes);

// The helper's reply: the run's SubprocessResult, or the Status that kept
// the helper from running the child at all.
std::string EncodeHelperReply(const Result<SubprocessResult>& run);
Result<SubprocessResult> DecodeHelperReply(std::string_view bytes);

// The daemon's end of one helper's socket. One per worker slot, used by one
// thread at a time. Closing it sends the helper EOF, and the helper exits.
class IsolationHelper {
 public:
  IsolationHelper() = default;
  ~IsolationHelper() { Close(); }
  IsolationHelper(const IsolationHelper&) = delete;
  IsolationHelper& operator=(const IsolationHelper&) = delete;

  void Close();

 private:
  friend class IsolationZygote;
  int fd_ = -1;
};

class IsolationZygote {
 public:
  // Forks the zygote. Call it while the process is as small and as
  // single-threaded as it will ever be; the thread pool is created first
  // so ParallelFor runs inline in every request child, as in any child of
  // RunIsolated.
  static Result<std::unique_ptr<IsolationZygote>> Fork();

  ~IsolationZygote() { Close(); }
  IsolationZygote(const IsolationZygote&) = delete;
  IsolationZygote& operator=(const IsolationZygote&) = delete;

  // Gives `helper` a freshly forked helper process, replacing any it had.
  // Thread-safe. Unavailable when the zygote is gone.
  Status Spawn(IsolationHelper* helper);

  // Runs one alignment in a new child of `helper`'s process, spawning the
  // helper first if the slot has none or its helper died while idle.
  // `spec` carries the graphs inline; `options` supplies the wall-clock and
  // memory caps, and its cancel hook is polled here and forwarded. Returns
  // a Status when isolation itself failed (fork in the helper, a lost
  // helper or zygote); every workload outcome is a SubprocessResult.
  Result<SubprocessResult> Run(IsolationHelper* helper,
                               const AlignRequest& spec,
                               const SubprocessOptions& options);

  // Closes the control socket and reaps the zygote, which kills and reaps
  // its helpers on the way out. Idempotent; call after every Run returned.
  void Close();

 private:
  IsolationZygote(int control_fd, pid_t pid)
      : control_fd_(control_fd), pid_(pid) {}

  std::mutex mu_;  // Serializes spawn round-trips on the control socket.
  int control_fd_ = -1;
  pid_t pid_ = -1;
};

}  // namespace graphalign

#endif  // GRAPHALIGN_SERVER_ISOLATION_H_

#include "server/isolation.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include "align/aligner.h"
#include "common/deadline.h"
#include "common/failpoint.h"
#include "common/outcome.h"
#include "common/parallel.h"
#include "common/socket.h"
#include "common/timer.h"
#include "common/wire.h"
#include "metrics/metrics.h"

namespace graphalign {

namespace {

// Daemon → helper messages start with a tag byte: a request (followed by a
// u64 length and the body) or a cancel for the request in flight. A cancel
// that races the reply is skipped before the next request is read.
constexpr char kRequestTag = 'R';
constexpr char kCancelTag = 'C';

// How long past its own wall-clock cap a request may go unanswered before
// the daemon gives up on the helper (which enforces the cap itself).
constexpr double kHelperGraceSeconds = 10.0;

bool RecvAll(int fd, char* data, size_t size) {
  const Result<size_t> got = RecvExact(fd, data, size);
  return got.ok() && *got == size;
}

// One length-prefixed message: u64 length (host order; both ends are the
// same binary) and the bytes.
bool SendMessage(int fd, const std::string& body) {
  const uint64_t len = body.size();
  return SendAll(fd, std::string_view(reinterpret_cast<const char*>(&len),
                                      sizeof(len))) &&
         SendAll(fd, body);
}

bool RecvMessage(int fd, std::string* body) {
  uint64_t len = 0;
  if (!RecvAll(fd, reinterpret_cast<char*>(&len), sizeof(len))) return false;
  body->resize(len);
  return RecvAll(fd, body->data(), len);
}

// True when `fd` has input (or EOF) right now.
bool Readable(int fd) {
  struct pollfd pfd = {fd, POLLIN, 0};
  return poll(&pfd, 1, 0) > 0;
}

// Dies with the parent: PR_SET_PDEATHSIG, then the check for a parent that
// died before the prctl took effect.
void DieWithParent(pid_t parent) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) _exit(0);
}

// The aligner a request names: a _CRASH/_OOM/_HANG fault injector, else a
// library aligner.
Result<std::unique_ptr<Aligner>> MakeRequestAligner(const std::string& algo) {
  std::unique_ptr<Aligner> fault = MakeFaultAligner(algo);
  if (fault != nullptr) return fault;
  return MakeAligner(algo);
}

}  // namespace

// ---------------------------------------------------------------------------
// Field lists (common/wire.h). Both ends are the same binary, built from the
// same sources, so strings are uncapped.

// The spec travels nested, as its own canonical bytes (EncodeAlignSpec).
template <typename Ar>
void Fields(Ar& ar, Msg<HelperRequest> auto& req) {
  ar.Nested(req.spec, EncodeAlignSpec, DecodeAlignSpec);
  ar.F64(req.wall_limit_seconds);
  ar.U64(req.mem_limit_bytes);
  ar.U8(req.exit_before_reply);
  ar.List(req.failpoints, UINT32_MAX,
          [&](auto& fp) { ar.Str(fp, kUncapped); });
}

namespace {

// The helper's reply: u8 1 and the run's SubprocessResult, or u8 0 and the
// Status that kept the helper from running the child at all.
struct HelperReply {
  bool ran = false;
  StatusCode code = StatusCode::kOk;  // An error code when !ran.
  std::string message;
  SubprocessResult run;
};

template <typename Ar>
void Fields(Ar& ar, Msg<HelperReply> auto& reply) {
  ar.U8(reply.ran);
  if (!reply.ran) {
    ar.U32(reply.code, kLastStatusCode);
    ar.Check(reply.code != StatusCode::kOk);
    ar.Str(reply.message, kUncapped);
    return;
  }
  auto& run = reply.run;
  ar.U8(run.status, RunStatus::kTimeout);
  ar.I32(run.exit_code);
  ar.I32(run.term_signal);
  ar.F64(run.wall_seconds);
  ar.U8(run.killed_on_cancel);
  ar.U8(run.payload_valid);
  ar.Str(run.payload, kUncapped);
  ar.Str(run.detail, kUncapped);
}

// The isolated child reports on its payload pipe, as a Response: u8 1 and
// the encoded AlignResult (the body), or u8 0, the code and the message.
template <typename Ar>
void ChildOutcomeFields(Ar& ar, Msg<Response> auto& outcome) {
  bool ok = outcome.code == ResponseCode::kOk;
  ar.U8(ok);
  if (ok) return ar.Str(outcome.body, kMaxFramePayload);
  ar.U8(outcome.code, ResponseCode::kConflict);
  ar.Str(outcome.message, kMaxFramePayload);
}

template <typename T>
Result<T> Decode(std::string_view bytes, const char* what) {
  FieldReader r(bytes, what);
  T message;
  if (!DecodeFields(r, message, what)) {
    return Status::Internal("isolation: " + r.error());
  }
  return message;
}

// ---------------------------------------------------------------------------
// Helper and zygote processes.

// The body of the request child: the alignment itself, its metrics, and
// the encoded outcome on the payload pipe.
int AlignChild(const AlignRequest& spec, const Graph& g1, const Graph& g2,
               Aligner* aligner, int payload_fd) {
  const Deadline deadline =
      spec.deadline_ms > 0
          ? Deadline::AfterSeconds(static_cast<double>(spec.deadline_ms) /
                                   1000.0)
          : Deadline::Infinite();
  WallTimer align_timer;
  // Dense requests take the degradation ladder: recoverable numerical
  // failures come back as degraded results, not errors. Native extraction
  // has no ladder (the author-proposed extraction is part of what it
  // measures).
  auto plan = AlignPlanFromAssign(spec.assign);
  Result<AlignReport> report =
      plan.ok() ? aligner->Run(g1, g2, *plan, deadline)
                : Result<AlignReport>(plan.status());
  Response outcome;
  if (!report.ok()) {
    const Outcome verdict = ClassifyStatus(report.status());
    outcome.code = static_cast<ResponseCode>(verdict.code);
    outcome.message = verdict.message;
  } else {
    const Alignment& alignment = report->alignment;
    AlignResult result;
    result.align_seconds = align_timer.Seconds();
    result.mnc = MeanMatchedNeighborhoodConsistency(g1, g2, alignment);
    result.ec = EdgeCorrectness(g1, g2, alignment);
    result.s3 = SymmetricSubstructureScore(g1, g2, alignment);
    result.mapping.assign(alignment.begin(), alignment.end());
    result.degraded = report->degraded;
    result.degrade_reason = report->degrade_reason;
    outcome.body = EncodeAlignResult(result);
  }
  FieldWriter w;
  ChildOutcomeFields(w, outcome);
  return WritePayload(payload_fd, w.Take()) ? 0 : 1;
}

// Runs one decoded request: the daemon's failpoints, then the alignment in
// a fresh child under the request's caps. A cancel byte (or the daemon's
// socket closing) on `fd` is the cancel hook.
Result<SubprocessResult> ServeRequest(int fd, const HelperRequest& req) {
  DeactivateAllFailpoints();
  for (const std::string& fp : req.failpoints) {
    GA_RETURN_IF_ERROR(ActivateFailpointsFromSpec(fp));
  }
  GA_ASSIGN_OR_RETURN(std::unique_ptr<Aligner> aligner,
                      MakeRequestAligner(req.spec.algo));
  GA_ASSIGN_OR_RETURN(Graph g1, Graph::FromEdges(req.spec.g1.num_nodes,
                                                 req.spec.g1.edges));
  GA_ASSIGN_OR_RETURN(Graph g2, Graph::FromEdges(req.spec.g2.num_nodes,
                                                 req.spec.g2.edges));
  SubprocessOptions options;
  options.wall_limit_seconds = req.wall_limit_seconds;
  options.mem_limit_bytes = req.mem_limit_bytes;
  options.cancel = [fd] { return Readable(fd); };
  return RunIsolated(
      [&](int payload_fd) {
        return AlignChild(req.spec, g1, g2, aligner.get(), payload_fd);
      },
      options);
}

[[noreturn]] void HelperMain(int fd, pid_t zygote) {
  DieWithParent(zygote);
  for (;;) {
    char tag = 0;
    if (!RecvAll(fd, &tag, 1)) _exit(0);  // The daemon closed the slot.
    if (tag == kCancelTag) continue;       // Raced a finished request.
    std::string body;
    if (tag != kRequestTag || !RecvMessage(fd, &body)) _exit(1);
    auto req = DecodeHelperRequest(body);
    const Result<SubprocessResult> run =
        req.ok() ? ServeRequest(fd, *req)
                 : Result<SubprocessResult>(req.status());
    if (req.ok() && req->exit_before_reply) _exit(1);
    if (!SendMessage(fd, EncodeHelperReply(run))) _exit(0);
  }
}

// Passes `fd` (or, when it is negative, a failure marker) over `control`.
bool SendFd(int control, int fd) {
  char byte = fd >= 0 ? 'F' : '!';
  struct iovec iov = {&byte, 1};
  struct msghdr msg = {};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(struct cmsghdr) char buf[CMSG_SPACE(sizeof(int))] = {};
  if (fd >= 0) {
    msg.msg_control = buf;
    msg.msg_controllen = sizeof(buf);
    struct cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
    cmsg->cmsg_level = SOL_SOCKET;
    cmsg->cmsg_type = SCM_RIGHTS;
    cmsg->cmsg_len = CMSG_LEN(sizeof(int));
    std::memcpy(CMSG_DATA(cmsg), &fd, sizeof(int));
  }
  for (;;) {
    if (sendmsg(control, &msg, MSG_NOSIGNAL) == 1) return true;
    if (errno != EINTR) return false;
  }
}

// -1 with *lost set when the zygote is gone; -1 alone when it could not
// fork this helper.
int RecvFd(int control, bool* lost) {
  char byte = 0;
  struct iovec iov = {&byte, 1};
  struct msghdr msg = {};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(struct cmsghdr) char buf[CMSG_SPACE(sizeof(int))] = {};
  msg.msg_control = buf;
  msg.msg_controllen = sizeof(buf);
  ssize_t n;
  do {
    n = recvmsg(control, &msg, MSG_CMSG_CLOEXEC);
  } while (n < 0 && errno == EINTR);
  *lost = n <= 0;
  if (n <= 0 || byte != 'F') return -1;
  struct cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
  if (cmsg == nullptr || cmsg->cmsg_type != SCM_RIGHTS) return -1;
  int fd = -1;
  std::memcpy(&fd, CMSG_DATA(cmsg), sizeof(int));
  return fd;
}

// Forks one helper per spawn byte on `control` until the daemon closes it;
// then kills and reaps every helper it started.
[[noreturn]] void ZygoteMain(int control, pid_t daemon) {
  DieWithParent(daemon);
  // Nothing of the daemon but the standard streams and the control socket
  // survives here: no listening socket, client connection or log file.
  if (control > 3) close_range(3, control - 1, 0);
  close_range(std::max(3, control + 1), ~0U, 0);
  const pid_t self = getpid();
  std::vector<pid_t> helpers;
  for (;;) {
    char cmd = 0;
    const ssize_t n = read(control, &cmd, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    for (pid_t done; (done = waitpid(-1, nullptr, WNOHANG)) > 0;) {
      std::erase(helpers, done);
    }
    int sv[2];
    pid_t pid = -1;
    if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) == 0) {
      pid = fork();
      if (pid == 0) {
        close(control);
        close(sv[0]);
        HelperMain(sv[1], self);
      }
      close(sv[1]);
      if (pid < 0) close(sv[0]);
    }
    if (pid > 0) helpers.push_back(pid);
    const bool sent = SendFd(control, pid > 0 ? sv[0] : -1);
    if (pid > 0) close(sv[0]);
    if (!sent) break;
  }
  for (pid_t pid : helpers) kill(pid, SIGKILL);
  while (waitpid(-1, nullptr, 0) > 0) {
  }
  _exit(0);
}

}  // namespace

// ---------------------------------------------------------------------------
// Public helpers shared with the server.

Status CheckAlignNames(const std::string& algo, const std::string& assign) {
  GA_RETURN_IF_ERROR(MakeRequestAligner(algo).status());
  return AlignPlanFromAssign(assign).status();
}

bool DecodeAlignOutcome(std::string_view payload, Response* response) {
  FieldReader r(payload, "");
  Response outcome;
  ChildOutcomeFields(r, outcome);
  r.End();
  if (r.failed()) return false;
  *response = std::move(outcome);
  return true;
}

std::string EncodeHelperRequest(const HelperRequest& req) {
  return EncodeFields(req);
}

Result<HelperRequest> DecodeHelperRequest(std::string_view bytes) {
  return Decode<HelperRequest>(bytes, "malformed helper request");
}

std::string EncodeHelperReply(const Result<SubprocessResult>& run) {
  HelperReply reply;
  reply.ran = run.ok();
  if (reply.ran) {
    reply.run = *run;
  } else {
    reply.code = run.status().code();
    reply.message = run.status().message();
  }
  return EncodeFields(reply);
}

Result<SubprocessResult> DecodeHelperReply(std::string_view bytes) {
  GA_ASSIGN_OR_RETURN(HelperReply reply,
                      Decode<HelperReply>(bytes, "malformed helper reply"));
  if (!reply.ran) return Status(reply.code, std::move(reply.message));
  return std::move(reply.run);
}

void IsolationHelper::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
}

// ---------------------------------------------------------------------------
// Daemon side.

Result<std::unique_ptr<IsolationZygote>> IsolationZygote::Fork() {
  // Create the pool now, so its owner is this process and every process
  // forked below runs ParallelFor inline.
  (void)ParallelThreadCount();
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    return Status::Internal("isolation: socketpair() failed: " +
                            std::string(strerror(errno)));
  }
  // Buffered stdio copied into the zygote would be flushed again by every
  // request child.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t daemon = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    const std::string detail = strerror(errno);
    close(sv[0]);
    close(sv[1]);
    return Status::Internal("isolation: fork() failed: " + detail);
  }
  if (pid == 0) {
    close(sv[0]);
    ZygoteMain(sv[1], daemon);
  }
  close(sv[1]);
  return std::unique_ptr<IsolationZygote>(new IsolationZygote(sv[0], pid));
}

Status IsolationZygote::Spawn(IsolationHelper* helper) {
  helper->Close();
  std::lock_guard<std::mutex> lock(mu_);
  bool lost = control_fd_ < 0;
  if (!lost) {
    const char cmd = 'S';
    lost = !SendAll(control_fd_, std::string_view(&cmd, 1));
    if (!lost) helper->fd_ = RecvFd(control_fd_, &lost);
  }
  if (lost) return Status::Unavailable("isolation zygote lost");
  if (helper->fd_ < 0) {
    return Status::Unavailable("isolation zygote could not fork a helper");
  }
  return Status::Ok();
}

Result<SubprocessResult> IsolationZygote::Run(IsolationHelper* helper,
                                              const AlignRequest& spec,
                                              const SubprocessOptions& options) {
  // While idle a helper sends nothing, so input now means it died.
  if (helper->fd_ < 0 || Readable(helper->fd_)) {
    GA_RETURN_IF_ERROR(Spawn(helper));
  }
  HelperRequest req;
  req.spec = spec;
  req.wall_limit_seconds = options.wall_limit_seconds;
  req.mem_limit_bytes = options.mem_limit_bytes;
  req.exit_before_reply = GA_FAILPOINT_FIRED("server.isolation.helper_exit");
  req.failpoints = ArmedFailpoints();
  const Status lost = Status::Unavailable(
      "isolation helper lost mid-request; the slot gets a fresh one");
  const int fd = helper->fd_;
  const char tag = kRequestTag;
  if (!SendAll(fd, std::string_view(&tag, 1)) ||
      !SendMessage(fd, EncodeHelperRequest(req))) {
    helper->Close();
    return lost;
  }
  // Wait for the reply, forwarding a cancel once. The helper enforces the
  // wall-clock cap; past it plus a grace the helper itself is presumed hung.
  const Deadline backstop =
      options.wall_limit_seconds > 0
          ? Deadline::AfterSeconds(options.wall_limit_seconds +
                                   kHelperGraceSeconds)
          : Deadline::Infinite();
  bool cancel_sent = false;
  for (;;) {
    struct pollfd pfd = {fd, POLLIN, 0};
    if (poll(&pfd, 1, /*timeout_ms=*/50) > 0) break;
    if (!cancel_sent && options.cancel && options.cancel()) {
      const char cancel = kCancelTag;
      cancel_sent = true;
      // A failed send shows in the read below.
      if (!SendAll(fd, std::string_view(&cancel, 1))) break;
    }
    if (backstop.Expired()) {
      helper->Close();
      return Status::Unavailable("isolation helper unresponsive past the " +
                                 std::to_string(options.wall_limit_seconds) +
                                 "s wall-clock cap");
    }
  }
  std::string reply;
  if (!RecvMessage(fd, &reply)) {
    helper->Close();
    return lost;
  }
  return DecodeHelperReply(reply);
}

void IsolationZygote::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (control_fd_ >= 0) close(control_fd_);
  control_fd_ = -1;
  if (pid_ > 0) {
    while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
  pid_ = -1;
}

}  // namespace graphalign

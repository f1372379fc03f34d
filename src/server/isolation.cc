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
#include "bench_framework/experiment.h"
#include "common/deadline.h"
#include "common/failpoint.h"
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

// ---------------------------------------------------------------------------
// Codecs. Both ends are the same binary, built from the same sources.

struct HelperRequest {
  AlignRequest spec;
  double wall_limit_seconds = 0.0;
  int64_t mem_limit_bytes = 0;
  bool exit_before_reply = false;
  std::vector<std::string> failpoints;
};

std::string EncodeHelperRequest(const HelperRequest& req) {
  ByteWriter w;
  w.Str(EncodeAlignSpec(req.spec));
  w.F64(req.wall_limit_seconds);
  w.U64(static_cast<uint64_t>(req.mem_limit_bytes));
  w.U8(req.exit_before_reply ? 1 : 0);
  w.U32(static_cast<uint32_t>(req.failpoints.size()));
  for (const std::string& fp : req.failpoints) w.Str(fp);
  return w.Take();
}

Result<HelperRequest> DecodeHelperRequest(std::string_view bytes) {
  ByteReader r(bytes);
  HelperRequest req;
  std::string spec;
  uint64_t mem = 0;
  uint8_t exit_before_reply = 0;
  uint32_t failpoints = 0;
  if (!r.Str(&spec, bytes.size()) || !r.F64(&req.wall_limit_seconds) ||
      !r.U64(&mem) || !r.U8(&exit_before_reply) || !r.U32(&failpoints)) {
    return Status::Internal("isolation: malformed helper request");
  }
  for (uint32_t i = 0; i < failpoints; ++i) {
    std::string fp;
    if (!r.Str(&fp, bytes.size())) {
      return Status::Internal("isolation: malformed helper request");
    }
    req.failpoints.push_back(std::move(fp));
  }
  if (!r.AtEnd()) return Status::Internal("isolation: malformed helper request");
  GA_ASSIGN_OR_RETURN(req.spec, DecodeAlignSpec(spec));
  req.mem_limit_bytes = static_cast<int64_t>(mem);
  req.exit_before_reply = exit_before_reply != 0;
  return req;
}

// Reply: u8 1 + the SubprocessResult, or u8 0 + the Status that kept the
// helper from running the child at all.
std::string EncodeHelperReply(const Result<SubprocessResult>& run) {
  ByteWriter w;
  if (!run.ok()) {
    w.U8(0);
    w.U32(static_cast<uint32_t>(run.status().code()));
    w.Str(run.status().message());
    return w.Take();
  }
  w.U8(1);
  w.U8(static_cast<uint8_t>(run->status));
  w.I32(run->exit_code);
  w.I32(run->term_signal);
  w.F64(run->wall_seconds);
  w.U8(run->killed_on_cancel ? 1 : 0);
  w.U8(run->payload_valid ? 1 : 0);
  w.Str(run->payload);
  w.Str(run->detail);
  return w.Take();
}

Result<SubprocessResult> DecodeHelperReply(std::string_view bytes) {
  const Status malformed = Status::Internal("isolation: malformed helper reply");
  ByteReader r(bytes);
  uint8_t ran = 0;
  if (!r.U8(&ran)) return malformed;
  if (ran == 0) {
    uint32_t code = 0;
    std::string message;
    if (!r.U32(&code) || !r.Str(&message, bytes.size()) || !r.AtEnd() ||
        code == 0) {
      return malformed;
    }
    return Status(static_cast<StatusCode>(code), std::move(message));
  }
  SubprocessResult run;
  uint8_t status = 0, killed_on_cancel = 0, payload_valid = 0;
  if (!r.U8(&status) || !r.I32(&run.exit_code) || !r.I32(&run.term_signal) ||
      !r.F64(&run.wall_seconds) || !r.U8(&killed_on_cancel) ||
      !r.U8(&payload_valid) || !r.Str(&run.payload, bytes.size()) ||
      !r.Str(&run.detail, bytes.size()) || !r.AtEnd() ||
      status > static_cast<uint8_t>(RunStatus::kTimeout)) {
    return malformed;
  }
  run.status = static_cast<RunStatus>(status);
  run.killed_on_cancel = killed_on_cancel != 0;
  run.payload_valid = payload_valid != 0;
  return run;
}

// The isolated child reports a result or a typed error through the payload
// pipe: u8 ok, then AlignResult bytes or (u8 code, string message).
std::string EncodeChildOutcome(const AlignResult& result) {
  ByteWriter w;
  w.U8(1);
  w.Str(EncodeAlignResult(result));
  return w.Take();
}

std::string EncodeChildError(ResponseCode code, const std::string& message) {
  ByteWriter w;
  w.U8(0);
  w.U8(static_cast<uint8_t>(code));
  w.Str(message);
  return w.Take();
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
  std::string outcome;
  if (!report.ok()) {
    ResponseCode code = ResponseCode::kError;
    if (report.status().code() == StatusCode::kDeadlineExceeded) {
      code = ResponseCode::kDnf;
    } else if (report.status().code() == StatusCode::kNumerical) {
      code = ResponseCode::kNumerical;
    }
    outcome = EncodeChildError(code, report.status().ToString());
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
    outcome = EncodeChildOutcome(result);
  }
  return WritePayload(payload_fd, outcome) ? 0 : 1;
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
  ByteReader r(payload);
  uint8_t ok = 0;
  if (!r.U8(&ok)) return false;
  if (ok != 0) {
    std::string body;
    if (!r.Str(&body, kMaxFramePayload) || !r.AtEnd()) return false;
    response->code = ResponseCode::kOk;
    response->body = std::move(body);
    return true;
  }
  uint8_t code = 0;
  std::string message;
  if (!r.U8(&code) || !r.Str(&message, kMaxFramePayload) || !r.AtEnd()) {
    return false;
  }
  response->code = static_cast<ResponseCode>(code);
  response->message = std::move(message);
  return true;
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

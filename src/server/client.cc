#include "server/client.h"

#include <unistd.h>

#include <utility>

#include "common/socket.h"

namespace graphalign {

Result<Client> Client::Connect(const ClientOptions& options) {
  if (!options.socket_path.empty() && options.port >= 0) {
    return Status::InvalidArgument(
        "client: choose one transport (socket path or port), not both");
  }
  if (options.socket_path.empty() && options.port < 0) {
    return Status::InvalidArgument(
        "client: a Unix socket path or a TCP port is required");
  }
  Result<int> fd = options.socket_path.empty()
                       ? ConnectTcp(options.host, options.port)
                       : ConnectUnix(options.socket_path);
  if (!fd.ok()) {
    return Status(fd.status().code(), "client: " + fd.status().message());
  }
  SetSocketTimeouts(*fd, options.timeout_seconds);
  return Client(*fd);
}

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

Result<Response> Client::Call(const Request& request) {
  if (fd_ < 0) return Status::FailedPrecondition("client: not connected");
  GA_RETURN_IF_ERROR(WriteFrameToFd(fd_, EncodeRequest(request)));
  std::string payload;
  GA_ASSIGN_OR_RETURN(const bool got_frame, ReadFrameFromFd(fd_, &payload));
  if (!got_frame) {
    return Status::Internal(
        "server closed the connection without responding");
  }
  return DecodeResponse(payload);
}

Result<Response> CallWithRetry(const ClientOptions& options,
                               const Request& request,
                               const RetryPolicy& policy) {
  Backoff backoff(policy);
  const int attempts = policy.max_attempts > 0 ? policy.max_attempts : 1;
  Result<Response> last = Status::Internal("CallWithRetry: no attempt ran");
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    auto client = Client::Connect(options);
    if (!client.ok()) {
      last = client.status();
    } else {
      last = client->Call(request);
    }
    bool transient;
    if (last.ok()) {
      // BUSY, SHUTTING_DOWN, and SHED are the daemon's own "try again /
      // try elsewhere" answers; everything else — QUARANTINED included,
      // since quarantine outlives any backoff — is a final verdict.
      transient = last->code == ResponseCode::kBusy ||
                  last->code == ResponseCode::kShuttingDown ||
                  last->code == ResponseCode::kShed;
    } else {
      // Any transport-level failure could be the daemon starting up,
      // restarting, or shedding load by dropping connections.
      transient = true;
    }
    if (!transient || attempt == attempts) return last;
    // A server-provided backoff hint (Retry-After over HTTP) beats the
    // client's jittered schedule: the daemon knows its own queue and quota
    // refill; guessing longer wastes latency, guessing shorter wastes a
    // doomed round trip.
    const uint64_t hint_ms = last.ok() ? last->retry_after_ms : 0;
    SleepForMs(hint_ms > 0 ? hint_ms : backoff.NextDelayMs());
  }
  return last;
}

}  // namespace graphalign

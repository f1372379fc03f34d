#include "common/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace graphalign {

namespace {

constexpr int kListenBacklog = 64;

std::string ErrnoText() { return std::strerror(errno); }

// Fills `addr` for `path`; InvalidArgument when the path does not fit.
Status UnixAddress(const std::string& path, struct sockaddr_un* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument(
        "socket path longer than sockaddr_un allows (" +
        std::to_string(sizeof(addr->sun_path) - 1) + " bytes): " + path);
  }
  std::memcpy(addr->sun_path, path.data(), path.size());
  return Status::Ok();
}

Result<int> NewSocket(int domain) {
  const int fd = socket(domain, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed: " + ErrnoText());
  return fd;
}

// Binds `fd` to `addr` and listens; closes `fd` on failure. `where` names
// the address in the bind error.
Status BindAndListen(int fd, const struct sockaddr* addr, socklen_t addr_len,
                     const std::string& where) {
  if (bind(fd, addr, addr_len) != 0) {
    const std::string detail = ErrnoText();
    close(fd);
    return Status::Internal("bind(" + where + ") failed: " + detail);
  }
  if (listen(fd, kListenBacklog) != 0) {
    const std::string detail = ErrnoText();
    close(fd);
    return Status::Internal("listen() failed: " + detail);
  }
  return Status::Ok();
}

// Connects `fd` to `addr`; closes `fd` on failure. `where` names the peer
// in the NotFound message.
Status ConnectTo(int fd, const struct sockaddr* addr, socklen_t addr_len,
                 const std::string& where) {
  if (connect(fd, addr, addr_len) != 0) {
    const std::string detail = ErrnoText();
    close(fd);
    return Status::NotFound("cannot connect to " + where + ": " + detail);
  }
  return Status::Ok();
}

}  // namespace

Result<int> ListenUnix(const std::string& path) {
  struct sockaddr_un addr;
  GA_RETURN_IF_ERROR(UnixAddress(path, &addr));
  GA_ASSIGN_OR_RETURN(const int fd, NewSocket(AF_UNIX));
  // A stale socket file from a dead process would make bind fail; remove
  // it. A *live* listener on the path loses its file but keeps its
  // connections: two listeners on one path is an operator error this
  // cannot fully protect against.
  unlink(path.c_str());
  GA_RETURN_IF_ERROR(BindAndListen(
      fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr), path));
  return fd;
}

Result<int> ListenLoopback(int port, int* bound_port) {
  GA_ASSIGN_OR_RETURN(const int fd, NewSocket(AF_INET));
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  GA_RETURN_IF_ERROR(BindAndListen(
      fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr),
      "127.0.0.1:" + std::to_string(port)));
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) == 0) {
    *bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

Result<int> ConnectUnix(const std::string& path) {
  struct sockaddr_un addr;
  GA_RETURN_IF_ERROR(UnixAddress(path, &addr));
  GA_ASSIGN_OR_RETURN(const int fd, NewSocket(AF_UNIX));
  GA_RETURN_IF_ERROR(ConnectTo(fd, reinterpret_cast<struct sockaddr*>(&addr),
                               sizeof(addr), path));
  return fd;
}

Result<int> ConnectTcp(const std::string& host, int port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        "host must be a numeric IPv4 address, got " + host);
  }
  GA_ASSIGN_OR_RETURN(const int fd, NewSocket(AF_INET));
  GA_RETURN_IF_ERROR(ConnectTo(fd, reinterpret_cast<struct sockaddr*>(&addr),
                               sizeof(addr),
                               host + ":" + std::to_string(port)));
  return fd;
}

void SetSocketTimeouts(int fd, double seconds) {
  if (!(seconds > 0.0)) return;
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  // {0, 0} means "block forever" to the kernel: never let rounding turn a
  // tiny positive timeout into that.
  if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool SendAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: a peer that hung up must yield EPIPE, not kill the
    // process with SIGPIPE.
    const ssize_t n =
        send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

Result<size_t> RecvExact(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = recv(fd, buf + got, n - got, 0);
    if (r == 0) break;  // Peer closed.
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("socket read timed out");
      }
      return Status::Internal("recv() failed: " + ErrnoText());
    }
    got += static_cast<size_t>(r);
  }
  return got;
}

}  // namespace graphalign

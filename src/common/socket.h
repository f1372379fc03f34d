// Stream-socket plumbing shared by the daemon, the HTTP gateway, the client,
// the isolation helpers and the load generator. It fixes one set of rules
// for every socket this program touches:
//   - a send never raises SIGPIPE: a peer that hung up is an error return;
//   - a send or receive interrupted by a signal resumes;
//   - a receive that hits the socket's timeout is DeadlineExceeded;
//   - a listener binds 127.0.0.1 or a Unix path, never a public address.
// Error messages carry no caller prefix; each caller adds its own.
#ifndef GRAPHALIGN_COMMON_SOCKET_H_
#define GRAPHALIGN_COMMON_SOCKET_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/status.h"

namespace graphalign {

inline constexpr int kMaxPort = 65535;

// A listening Unix stream socket at `path` (backlog 64). A stale socket
// file at `path` is unlinked first, so a restart after a crash can bind.
// InvalidArgument when `path` is longer than a Unix socket address holds
// (107 bytes).
Result<int> ListenUnix(const std::string& path);

// A listening TCP socket on 127.0.0.1:`port` (backlog 64, SO_REUSEADDR).
// Port 0 picks a free port; *bound_port receives the port actually bound.
Result<int> ListenLoopback(int port, int* bound_port);

// A connected stream socket. Connect failures are NotFound; a path too long
// for a Unix socket address, or a host that is not a numeric IPv4 address,
// is InvalidArgument.
Result<int> ConnectUnix(const std::string& path);
Result<int> ConnectTcp(const std::string& host, int port);

// Sets the receive and send timeouts to `seconds`. Non-positive leaves the
// socket blocking forever; a positive value below 1 us rounds up to 1 us
// (a zero timeval would mean "never time out").
void SetSocketTimeouts(int fd, double seconds);

// Sends all of `bytes`, resuming after short sends and EINTR. False on any
// other failure (a closed peer, a send timeout), with errno set.
bool SendAll(int fd, std::string_view bytes);

// Receives exactly `n` bytes into `buf` unless the peer closes first, and
// returns how many arrived (n, or fewer at EOF). A receive timeout is
// DeadlineExceeded; any other error is Internal.
Result<size_t> RecvExact(int fd, char* buf, size_t n);

}  // namespace graphalign

#endif  // GRAPHALIGN_COMMON_SOCKET_H_

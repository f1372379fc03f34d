// The serving side of the benchmark: a `graphalign serve` daemon started as
// a separate process, and two closed-loop clients in this process driving
// the mix miss:3, hit:2, http:2, job:1 over loadgen-sized graph pairs.
#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "server/protocol.h"

namespace graphalign {
namespace perfbench {

struct DaemonOptions {
  std::string binary;    // The graphalign CLI.
  std::string work_dir;  // Holds cache/, jobs/ and the daemon's output.
};

// A running daemon, spawned in the harness's process group (run.py kills
// that group at the end, which also takes any isolated child the daemon
// left behind). The destructor stops it.
class Daemon {
 public:
  // Spawns the daemon and returns once it has printed both listening ports.
  static Result<std::unique_ptr<Daemon>> Start(const DaemonOptions& options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  int http_port() const { return http_port_; }
  // SIGTERM (a graceful drain), then SIGKILL if the daemon has not exited
  // within ten seconds; always reaps it.
  void Stop();

 private:
  Daemon() = default;
  pid_t pid_ = -1;
  int port_ = -1;
  int http_port_ = -1;
};

// Fills `dir`/cache.log with about `megabytes` of valid records through
// CacheStore::Open/Append, so the daemon replays a realistic heap.
Status SeedCacheLog(const std::string& dir, int megabytes, uint64_t seed);

// One GAF1 round trip on a fresh connection.
Result<Response> CallDaemon(int port, const Request& request);

// Spawn -> replay -> first successful ping -> first isolated alignment that
// the daemon accepts -> the hit pair answered from the cache. Returns the
// running daemon and the elapsed seconds.
Result<std::unique_ptr<Daemon>> StartWarmDaemon(const DaemonOptions& options,
                                                const Request& hit_request,
                                                double* seconds);

struct ServeLoadOptions {
  double seconds = 1.0;
  uint64_t seed = 0;      // Per-client request streams.
  uint64_t hit_seed = 0;  // The shared hit pair (ServeHitProblem).
  // When set, every other request of each client is traced.
  Tracer* tracer = nullptr;
};

struct ServeLoadResult {
  double wall_seconds = 0.0;
  int64_t ok = 0;
  // Latencies in ms by kind ("miss", "hit", "http", "job"), and split by
  // whether the request was traced.
  std::map<std::string, std::vector<double>> latency_ms;
  std::map<std::string, std::vector<double>> traced_latency_ms;
  // Every 4th miss of each client is recomputed in-process (NSD + JV) and
  // compared with the daemon's mapping: the in-process times in seconds
  // and the summed accuracy of the daemon's mappings.
  std::vector<double> check_similarity_s, check_assignment_s;
  double check_accuracy_sum = 0.0;
};

// Appends `from`'s samples and counts to `into`.
void Merge(ServeLoadResult&& from, ServeLoadResult* into);

// The hit pair shared by setup and the load.
Problem ServeHitProblem(uint64_t seed);
Request AlignRequestFor(const Problem& problem, const std::string& client);
// The gateway's /v1/align body for the same request.
std::string HttpAlignBody(const Request& request);

ServeLoadResult RunServeLoad(const Daemon& daemon,
                             const ServeLoadOptions& options, Report* report);

Result<ServerStatsResult> FetchServerStats(int port);

}  // namespace perfbench
}  // namespace graphalign

#endif  // PERFBENCH_SERVE_H_

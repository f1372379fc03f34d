// The graphalign alignment service daemon (DESIGN.md §11).
//
// A long-running server that accepts align/evaluate/stats requests over the
// length-prefixed binary protocol (server/protocol.h) on a Unix or TCP
// socket and dispatches them to a bounded worker pool:
//
//   accept thread ──▶ bounded queue ──▶ K worker threads
//                        │
//                        └── full? send a typed BUSY response and close
//                            (admission control never stalls the accept loop)
//
// Request isolation: every align request runs in a brand-new child process
// via RunIsolated (common/subprocess.h), with the request's deadline_ms
// mapped to a cooperative Deadline inside the child, a wall-clock SIGKILL
// backstop behind it, and mem_limit_mb enforced with RLIMIT_AS. A crashing,
// OOM-ing, or hanging alignment therefore produces a typed CRASH/OOM/DNF
// response to its own client while the daemon and all other in-flight
// requests keep going. The daemon never forks after start-up: Create()
// forks a single-threaded isolation zygote before anything else, which
// starts one helper process per worker slot, and each helper forks the
// request children from its own few-MB image (server/isolation.h). So a
// miss does not pay for copying the daemon's page tables, and no daemon
// thread has to be audited or registered as safe to fork under.
// Evaluate/stats requests are metric-only (no aligner kernels) and run
// inline in the worker.
//
// Caching: completed align results are stored in a content-addressed LRU
// cache (server/cache.h) keyed on (g1 hash, g2 hash, algo, assignment), so
// a repeated identical request is answered from memory in microseconds.
// With cache_dir set, completed entries also spill to an append-only
// CRC-checksummed log (server/cache_store.h) replayed at startup, so a
// restart comes up warm.
//
// Overload robustness (DESIGN.md §14): per-client token-bucket quotas
// (quota_rps), queue-deadline shedding (shed), a poison-request quarantine
// that stops re-forking signatures which repeatedly CRASH/OOM
// (quarantine_threshold), and a watchdog that SIGKILLs isolated children
// hung past deadline + watchdog_grace_seconds.
#ifndef GRAPHALIGN_SERVER_SERVER_H_
#define GRAPHALIGN_SERVER_SERVER_H_

#include <memory>
#include <string>

#include "common/outcome.h"
#include "common/status.h"
#include "server/cache.h"
#include "server/protocol.h"

namespace graphalign {

struct ServerOptions {
  // Exactly one transport: a Unix socket path (preferred for local use;
  // at most 107 bytes), or a TCP port on 127.0.0.1 when socket_path is
  // empty (port 0 = kernel-assigned; read it back from Server::port()).
  std::string socket_path;
  int port = -1;

  // Worker pool size and admission-control queue depth (0 = 2 * workers).
  // Once `queue_capacity` connections are waiting, further arrivals get an
  // immediate BUSY response.
  int workers = 4;
  int queue_capacity = 0;

  // Result-cache capacity in megabytes.
  double cache_mb = 64.0;

  // Per-connection socket send/receive timeout: a client that stalls
  // mid-frame is cut off with a typed protocol error instead of pinning a
  // worker forever.
  double io_timeout_seconds = 30.0;

  // Wall-clock backstop for isolated align children: 2 * deadline +
  // `wall_slack_seconds` (BackstopSeconds) when the request carries a
  // deadline, else a fixed 300 s. The backstop SIGKILLs non-cooperative
  // hangs; cooperative overruns are caught by the Deadline well before it.
  double wall_slack_seconds = kBackstopSlackSeconds;

  // Durable cache log directory (server/cache_store.h). Replayed at
  // startup (warm restart) and compacted there when more than half of it
  // is dead; every clean cached result is appended. Empty =
  // in-memory cache only. Open/replay failure degrades to a cold cache and
  // is counted in the stats; it never prevents startup.
  std::string cache_dir;

  // Per-client admission quota for align requests, in requests/second
  // (token bucket per Request::client, burst = max(1, 2 * quota_rps)).
  // A client over its quota gets a typed BUSY naming the quota. 0 = off.
  double quota_rps = 0.0;

  // Queue-deadline shedding: when true, an align request whose admission
  // queue wait already consumed its deadline_ms is answered with a typed
  // SHED immediately instead of being forked into guaranteed-late work.
  bool shed = false;

  // Poison-request quarantine: after this many consecutive CRASH/OOM
  // outcomes for one (g1 hash, g2 hash, algo) signature, further requests
  // for it get a typed QUARANTINED without forking. Success clears the
  // count; quarantine lasts until restart. 0 disables.
  int quarantine_threshold = 3;

  // Worker watchdog: an isolated align child still running this many
  // seconds past its cooperative deadline is SIGKILLed and its client gets
  // a typed ERROR (only for requests that carry a deadline_ms; the
  // wall-clock backstop still guards the rest). <= 0 disables.
  double watchdog_grace_seconds = 10.0;

  // Memory-mapped graph repository (store/graph_store.h): kPutGraph uploads
  // land here and align-by-hash requests resolve against it. Empty = store
  // surface disabled (by-hash requests answer NO_GRAPH). An unopenable
  // directory degrades the daemon to the wire-graph path — startup never
  // fails because of the store.
  std::string store_dir;

  // Durable async job subsystem (src/jobs, DESIGN.md §17): kSubmitJob
  // requests are journaled here and executed by dedicated runner threads;
  // a restart replays the journal and resumes interrupted work. Empty =
  // jobs disabled (job requests answer a typed ERROR). An unusable
  // directory degrades the daemon to synchronous-only — startup never
  // fails because of the job journal.
  std::string jobs_dir;

  // Executions per job before it becomes a typed FAILED (bounds the retry
  // cost of a job that crashes the daemon or its isolated child every time).
  int job_attempts = 3;

  // Terminal jobs (DONE/FAILED/CANCELLED/...) older than this are expired
  // by journal GC (startup + periodic); their results become NO_JOB.
  double job_ttl_seconds = 24.0 * 3600.0;

  // Dedicated job-runner threads (beyond the request workers). Each runs
  // one claimed job at a time through the same isolated-fork path as a
  // synchronous align.
  int job_workers = 1;
};

class Server {
 public:
  // Forks the isolation zygote, then binds and listens. Fails (with a
  // Status) on bad options, socket errors or a failed fork; never
  // half-starts. The zygote dies with the calling thread, so call it from
  // a thread that outlives the server (normally the main thread).
  static Result<std::unique_ptr<Server>> Create(const ServerOptions& options);

  ~Server();  // Shutdown() + Wait().

  // Replays the durable logs, starts one isolation helper per worker and
  // job runner, and spawns the accept thread and the worker pool.
  Status Start();

  // Signals every thread to stop: closes the listening socket, shuts down
  // queued and in-flight connections, and wakes idle workers. Safe to call
  // from any thread (including a worker, via a kShutdown request) and more
  // than once.
  void Shutdown();

  // Graceful drain (SIGTERM semantics): stops accepting new connections,
  // lets workers finish the requests they are serving, and answers every
  // connection still waiting in the admission queue with a typed
  // SHUTTING_DOWN response before closing it — no accepted client is left
  // blocked on a reply. Follow with Wait(); Shutdown() escalates a drain
  // to a hard stop. Safe to call from any thread and more than once.
  void Drain();

  // Joins all server threads. Returns after Shutdown() has taken effect and
  // every worker has finished its current request; then closes the helper
  // sockets and reaps the zygote, so the server leaves no child process.
  void Wait();

  // Resolved TCP port (useful with port = 0); -1 for Unix transport.
  int port() const;

  ResultCache::Stats cache_stats() const;

  // Admission/quarantine/watchdog/durable-cache counters since Start()
  // (the same payload a kServerStats request returns over the wire).
  ServerStatsResult stats() const;

 private:
  class Impl;
  explicit Server(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace graphalign

#endif  // GRAPHALIGN_SERVER_SERVER_H_

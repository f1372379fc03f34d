#include "server/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/failpoint.h"
#include "common/socket.h"
#include "common/timer.h"
#include "jobs/manager.h"
#include "metrics/metrics.h"
#include "server/cache_store.h"
#include "server/isolation.h"
#include "server/protocol.h"
#include "store/graph_store.h"

namespace graphalign {

namespace {

// Converts the wire's fixed-width mapping to the library Alignment.
Alignment ToAlignment(const std::vector<int32_t>& wire) {
  return Alignment(wire.begin(), wire.end());
}

// Per-job alignment parameters, independent of how the graphs arrived
// (inline, by-hash, or through a batch graph table).
struct AlignSpec {
  std::string algo;
  std::string assign;
  uint64_t deadline_ms = 0;
  uint64_t mem_limit_mb = 0;
  bool no_cache = false;
};

// Backoff hints attached to transient rejections (Retry-After over HTTP).
// BUSY/SHED clear quickly once the queue moves; a drain means "find another
// instance", which deserves a longer pause.
constexpr uint64_t kBusyRetryAfterMs = 250;
constexpr uint64_t kShedRetryAfterMs = 250;
constexpr uint64_t kDrainRetryAfterMs = 1000;

// Wall-clock backstop for an isolated align child whose request carries no
// deadline.
constexpr double kDefaultWallLimitSeconds = 300.0;

// A job's stored terminal code is replayed from disk; map anything that is
// not a known response code to a plain ERROR instead of leaking raw bytes
// onto the wire.
ResponseCode TerminalResponseCode(uint32_t code) {
  switch (static_cast<ResponseCode>(code)) {
    case ResponseCode::kOk:
    case ResponseCode::kError:
    case ResponseCode::kBusy:
    case ResponseCode::kBadRequest:
    case ResponseCode::kDnf:
    case ResponseCode::kCrash:
    case ResponseCode::kOom:
    case ResponseCode::kNumerical:
    case ResponseCode::kShed:
    case ResponseCode::kQuarantined:
    case ResponseCode::kShuttingDown:
    case ResponseCode::kNoGraph:
    case ResponseCode::kPartial:
    case ResponseCode::kAccepted:
    case ResponseCode::kNoJob:
    case ResponseCode::kConflict:
      return static_cast<ResponseCode>(code);
  }
  return ResponseCode::kError;
}

}  // namespace

class Server::Impl {
 private:
  struct QueueEntry {
    int fd;
    std::chrono::steady_clock::time_point enqueued;
  };

  // One slot per worker or job-runner thread, each with its own isolation
  // helper. The thread arms the slot (deadline/start, then a release store
  // of active) around each isolated alignment; the watchdog reads active
  // with acquire and flips cancel, which the isolation wait loop forwards
  // to the helper as the child's SIGKILL. A deque, not a vector: atomics
  // are immovable and the slots must never relocate while the watchdog
  // walks them.
  struct WorkerSlot {
    std::atomic<bool> active{false};
    std::atomic<bool> cancel{false};
    std::chrono::steady_clock::time_point start;
    uint64_t deadline_ms = 0;
    std::atomic<uint64_t> restarts{0};
    IsolationHelper helper;  // Used by the slot's thread only.
  };

  struct QuotaBucket {
    double tokens = 0.0;
    std::chrono::steady_clock::time_point last_refill;
  };

  struct FaultRecord {
    int consecutive = 0;
    bool quarantined = false;
  };

 public:
  explicit Impl(const ServerOptions& options)
      : options_(options),
        cache_(static_cast<int64_t>(options.cache_mb * 1024.0 * 1024.0)) {}

  ~Impl() {
    Shutdown();
    Wait();
    if (listen_fd_ >= 0) close(listen_fd_);
    if (!bound_socket_path_.empty()) unlink(bound_socket_path_.c_str());
  }

  // Forks the isolation zygote. First thing in Create: no socket bound, no
  // log replayed, no server thread started, so the zygote's image is small.
  Status ForkZygote() {
    GA_ASSIGN_OR_RETURN(zygote_, IsolationZygote::Fork());
    return Status::Ok();
  }

  Status Bind() {
    if (!options_.socket_path.empty() && options_.port >= 0) {
      return Status::InvalidArgument(
          "server: choose one transport (--socket or --port), not both");
    }
    if (options_.socket_path.empty() && options_.port < 0) {
      return Status::InvalidArgument(
          "server: a Unix socket path or a TCP port is required");
    }
    if (options_.workers <= 0) {
      return Status::InvalidArgument("server: workers must be positive");
    }
    if (options_.cache_mb <= 0.0) {
      return Status::InvalidArgument("server: cache capacity must be positive");
    }
    Result<int> fd = options_.socket_path.empty()
                         ? ListenLoopback(options_.port, &bound_port_)
                         : ListenUnix(options_.socket_path);
    if (!fd.ok()) {
      return Status(fd.status().code(), "server: " + fd.status().message());
    }
    listen_fd_ = *fd;
    bound_socket_path_ = options_.socket_path;
    return Status::Ok();
  }

  Status Start() {
    if (listen_fd_ < 0) {
      return Status::FailedPrecondition("server: not bound");
    }
    const int queue_capacity = options_.queue_capacity > 0
                                   ? options_.queue_capacity
                                   : 2 * options_.workers;
    queue_capacity_ = queue_capacity;
    start_time_ = std::chrono::steady_clock::now();
    if (!options_.cache_dir.empty()) {
      // Warm restart: replay the durable log into the in-memory cache. A
      // broken log costs warmth, never startup.
      auto store = CacheStore::Open(
          options_.cache_dir,
          [this](uint64_t key, std::string value) {
            cache_.Put(key, std::move(value));
          },
          &replay_stats_);
      if (store.ok()) {
        store_ = *std::move(store);
      } else {
        cache_open_errors_.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr, "cache store disabled (cold cache): %s\n",
                     store.status().ToString().c_str());
      }
      // Startup compaction: when most of the replayed log is superseded
      // values or skipped residue, rewrite just the resident entries.
      // Atomic publish — failure keeps the old log whole.
      if (store_ != nullptr &&
          store_->CompactionDue(cache_.GetStats().entries)) {
        const uint64_t before = store_->log_bytes();
        Status compacted = store_->Compact(cache_.Snapshot());
        if (compacted.ok()) {
          std::fprintf(stderr, "cache log compacted: %llu -> %llu bytes\n",
                       static_cast<unsigned long long>(before),
                       static_cast<unsigned long long>(store_->log_bytes()));
        } else {
          std::fprintf(stderr, "cache log compaction failed (kept): %s\n",
                       compacted.ToString().c_str());
        }
      }
    }
    if (!options_.store_dir.empty()) {
      // The graph store is an accelerator, never a startup dependency: if
      // the directory is unusable the daemon degrades to the wire-graph
      // path and says so — by-hash requests answer NO_GRAPH.
      auto graph_store = GraphStore::Open(options_.store_dir);
      if (graph_store.ok()) {
        graph_store_ = *std::move(graph_store);
      } else {
        store_unavailable_.store(1, std::memory_order_relaxed);
        std::fprintf(stderr,
                     "graph store disabled (wire-graph path only): %s\n",
                     graph_store.status().ToString().c_str());
      }
    }
    if (!options_.jobs_dir.empty()) {
      // Durable async jobs: replay the journal, resume interrupted work,
      // expire what the TTL says is stale. An unusable journal degrades the
      // daemon to synchronous-only — startup never fails because of it.
      JobManagerOptions jopts;
      jopts.dir = options_.jobs_dir;
      jopts.max_attempts =
          static_cast<uint32_t>(std::max(1, options_.job_attempts));
      jopts.ttl_seconds =
          static_cast<uint64_t>(std::max(0.0, options_.job_ttl_seconds));
      jopts.exhausted_terminal_code =
          static_cast<uint32_t>(ResponseCode::kCrash);
      auto jobs = JobManager::Open(jopts, UnixMs());
      if (jobs.ok()) {
        jobs_ = *std::move(jobs);
        Status gc = jobs_->Gc(UnixMs());
        if (!gc.ok()) {
          std::fprintf(stderr, "job journal gc failed (kept): %s\n",
                       gc.ToString().c_str());
        }
      } else {
        std::fprintf(stderr, "job subsystem disabled (synchronous only): %s\n",
                     jobs.status().ToString().c_str());
      }
    }
    // Job runners get watchdog slots of their own, after the workers', so
    // a hung job child is killed by the same scan that guards requests.
    const int job_workers =
        jobs_ != nullptr ? std::max(1, options_.job_workers) : 0;
    for (int w = 0; w < options_.workers + job_workers; ++w) {
      slots_.emplace_back();
      // A helper that fails to start here is retried on the slot's first
      // request, which reports the failure if it persists.
      (void)zygote_->Spawn(&slots_.back().helper);
    }
    for (int w = 0; w < options_.workers; ++w) {
      threads_.emplace_back([this, w] { WorkerLoop(&slots_[w]); });
    }
    for (int j = 0; j < job_workers; ++j) {
      const int s = options_.workers + j;
      threads_.emplace_back([this, s] { JobRunnerLoop(&slots_[s]); });
    }
    if (options_.watchdog_grace_seconds > 0.0) {
      threads_.emplace_back([this] { WatchdogLoop(); });
    }
    threads_.emplace_back([this] { AcceptLoop(); });
    return Status::Ok();
  }

  void Shutdown() {
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true)) return;
    if (jobs_ != nullptr) jobs_->Stop();  // Wake idle job runners to exit.
    // Unblock accept(); the fd itself is closed in the destructor so the
    // accept thread never races a reused descriptor number.
    if (listen_fd_ >= 0) shutdown(listen_fd_, SHUT_RDWR);
    std::lock_guard<std::mutex> lock(mu_);
    // Cut off idle-but-open and queued connections so workers notice.
    for (int fd : active_fds_) shutdown(fd, SHUT_RDWR);
    for (const QueueEntry& e : queue_) shutdown(e.fd, SHUT_RDWR);
    queue_cv_.notify_all();
    watchdog_cv_.notify_all();
  }

  void Drain() {
    bool expected = false;
    if (!draining_.compare_exchange_strong(expected, true)) return;
    if (stopping_.load(std::memory_order_relaxed)) return;  // Already harder.
    // Stop accepting; in-flight requests keep their sockets and finish.
    if (listen_fd_ >= 0) shutdown(listen_fd_, SHUT_RDWR);
    // Everyone still waiting for a worker gets a typed answer, not silence.
    std::deque<QueueEntry> waiting;
    {
      std::lock_guard<std::mutex> lock(mu_);
      waiting.swap(queue_);
      queue_cv_.notify_all();  // Idle workers see draining + empty queue.
      watchdog_cv_.notify_all();
    }
    Response shutting_down;
    shutting_down.code = ResponseCode::kShuttingDown;
    shutting_down.message = "server draining; resubmit to a live instance";
    shutting_down.retry_after_ms = kDrainRetryAfterMs;
    const std::string frame = EncodeResponse(shutting_down);
    for (const QueueEntry& e : waiting) {
      (void)WriteFrameToFd(e.fd, frame);
      close(e.fd);
    }
    // Seal the durable state: job runners stop claiming (in-flight jobs
    // finish and journal their own fsynced completion), and both logs get
    // an explicit final fsync so nothing rides on the per-append behavior.
    if (jobs_ != nullptr) {
      jobs_->Stop();
      Status sealed = jobs_->Seal();
      if (!sealed.ok()) {
        std::fprintf(stderr, "job journal seal failed: %s\n",
                     sealed.ToString().c_str());
      }
    }
    if (store_ != nullptr) {
      Status synced = store_->Sync();
      if (!synced.ok()) {
        std::fprintf(stderr, "cache log seal failed: %s\n",
                     synced.ToString().c_str());
      }
    }
  }

  void Wait() {
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(mu_);
      threads.swap(threads_);
    }
    for (std::thread& t : threads) t.join();
    // Every thread that could run an alignment has exited: retire the
    // helpers and reap the zygote, so the daemon leaves no child behind.
    for (WorkerSlot& slot : slots_) slot.helper.Close();
    if (zygote_ != nullptr) zygote_->Close();
    // Close connections that were still queued when the plug was pulled.
    std::lock_guard<std::mutex> lock(mu_);
    for (const QueueEntry& e : queue_) close(e.fd);
    queue_.clear();
  }

  int port() const { return bound_port_; }

  ResultCache::Stats cache_stats() const { return cache_.GetStats(); }

  ServerStatsResult ServerStats() const {
    ServerStatsResult s;
    s.workers = static_cast<uint64_t>(options_.workers);
    s.uptime_seconds = ElapsedSeconds(start_time_);
    s.accepted = accepted_.load(std::memory_order_relaxed);
    s.served = served_.load(std::memory_order_relaxed);
    s.busy_rejected = busy_rejected_.load(std::memory_order_relaxed);
    s.quota_rejected = quota_rejected_.load(std::memory_order_relaxed);
    s.shed = shed_.load(std::memory_order_relaxed);
    s.quarantined = quarantined_responses_.load(std::memory_order_relaxed);
    s.quarantined_signatures =
        quarantined_signatures_.load(std::memory_order_relaxed);
    s.watchdog_kills = watchdog_kills_.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      s.queue_depth = queue_.size();
      s.in_flight = active_fds_.size();
    }
    s.cache_replayed = replay_stats_.replayed;
    s.cache_crc_skipped = replay_stats_.crc_skipped;
    s.cache_truncated_bytes = replay_stats_.truncated_bytes;
    s.cache_append_errors = store_ != nullptr ? store_->append_errors() : 0;
    s.cache_open_errors = cache_open_errors_.load(std::memory_order_relaxed);
    if (graph_store_ != nullptr) {
      const GraphStore::Counters c = graph_store_->counters();
      s.store_puts = c.puts;
      s.store_gets = c.gets;
      s.store_corrupt = c.corrupt;
      s.store_missing = c.missing;
    }
    s.store_unavailable = store_unavailable_.load(std::memory_order_relaxed);
    s.served_http = served_http_.load(std::memory_order_relaxed);
    s.quota_rejected_http =
        quota_rejected_http_.load(std::memory_order_relaxed);
    s.shed_http = shed_http_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.batch_jobs = batch_jobs_.load(std::memory_order_relaxed);
    s.batch_cache_hits = batch_cache_hits_.load(std::memory_order_relaxed);
    s.batch_graph_loads = batch_graph_loads_.load(std::memory_order_relaxed);
    if (jobs_ != nullptr) {
      const JobManagerStats j = jobs_->Stats();
      s.jobs_submitted = j.submitted;
      s.jobs_deduped = j.deduped;
      s.jobs_done = j.done;
      s.jobs_failed = j.failed;
      s.jobs_cancelled = j.cancelled;
      s.jobs_executions = j.executions;
      s.jobs_recovered = j.recovered;
      s.jobs_pending = j.pending;
    }
    for (const WorkerSlot& slot : slots_) {
      s.worker_restarts.push_back(
          slot.restarts.load(std::memory_order_relaxed));
    }
    return s;
  }

 private:
  // -------------------------------------------------------------------------
  // Accept loop with admission control.

  void AcceptLoop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
      const int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // Listening socket shut down (or a fatal accept error).
      }
      if (stopping_.load(std::memory_order_relaxed)) {
        close(fd);
        break;
      }
      SetSocketTimeouts(fd, options_.io_timeout_seconds);
      if (draining_.load(std::memory_order_relaxed)) {
        // Raced a drain: this connection was accepted but must not queue.
        Response shutting_down;
        shutting_down.code = ResponseCode::kShuttingDown;
        shutting_down.message = "server draining; resubmit to a live instance";
        shutting_down.retry_after_ms = kDrainRetryAfterMs;
        (void)WriteFrameToFd(fd, EncodeResponse(shutting_down));
        close(fd);
        continue;
      }
      accepted_.fetch_add(1, std::memory_order_relaxed);
      bool admitted = false;
      // The failpoint forces the BUSY path without actually filling the
      // queue (for retry-round-trip tests).
      if (!GA_FAILPOINT_FIRED("server.busy")) {
        std::lock_guard<std::mutex> lock(mu_);
        if (static_cast<int>(queue_.size()) < queue_capacity_) {
          queue_.push_back(QueueEntry{fd, std::chrono::steady_clock::now()});
          admitted = true;
          queue_cv_.notify_one();
        }
      }
      if (!admitted) {
        // Typed BUSY, then hang up. The frame is a few dozen bytes — it
        // fits the socket send buffer, so this cannot stall the loop.
        busy_rejected_.fetch_add(1, std::memory_order_relaxed);
        Response busy;
        busy.code = ResponseCode::kBusy;
        busy.message = "admission queue full (" +
                       std::to_string(queue_capacity_) + " waiting)";
        busy.retry_after_ms = kBusyRetryAfterMs;
        (void)WriteFrameToFd(fd, EncodeResponse(busy));
        close(fd);
      }
    }
  }

  // -------------------------------------------------------------------------
  // Workers.

  void WorkerLoop(WorkerSlot* slot) {
    for (;;) {
      int fd = -1;
      double queue_wait_ms = 0.0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        queue_cv_.wait(lock, [this] {
          return stopping_.load(std::memory_order_relaxed) ||
                 draining_.load(std::memory_order_relaxed) || !queue_.empty();
        });
        if (queue_.empty()) return;  // Stopping/draining and drained.
        const QueueEntry entry = queue_.front();
        queue_.pop_front();
        fd = entry.fd;
        queue_wait_ms = ElapsedSeconds(entry.enqueued) * 1000.0;
        active_fds_.insert(fd);
      }
      // A worker failure between dequeue and reply must not leave the
      // client blocked on a response that will never come: whatever escapes
      // ServeConnection is converted to a typed error frame (best effort)
      // before the socket closes.
      try {
        if (GA_FAILPOINT_FIRED("server.worker.drop")) {
          throw std::runtime_error("injected worker fault");
        }
        ServeConnection(fd, slot, queue_wait_ms);
      } catch (const std::exception& e) {
        Response err;
        err.code = ResponseCode::kError;
        err.message = std::string("worker failed mid-request: ") + e.what();
        (void)WriteFrameToFd(fd, EncodeResponse(err));
      } catch (...) {
        Response err;
        err.code = ResponseCode::kError;
        err.message = "worker failed mid-request";
        (void)WriteFrameToFd(fd, EncodeResponse(err));
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        active_fds_.erase(fd);
      }
      close(fd);
      if (stopping_.load(std::memory_order_relaxed)) return;
    }
  }

  // A watchdog scan wakes every 200ms (or immediately on shutdown), looks
  // for armed worker slots whose isolated child has outlived its request
  // deadline by more than watchdog_grace_seconds, and flips the slot's
  // cancel flag; the fork's poll loop turns that into a SIGKILL within
  // ~50ms. The kill shows up to the worker as a cancel-tagged timeout, to
  // the client as a typed ERROR, and in the stats as a watchdog kill plus a
  // restart on that worker's counter.
  void WatchdogLoop() {
    // Own condition variable: the watchdog must never absorb a
    // queue_cv_.notify_one() meant to hand a connection to a worker.
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_.load(std::memory_order_relaxed) &&
           !draining_.load(std::memory_order_relaxed)) {
      watchdog_cv_.wait_for(lock, std::chrono::milliseconds(200), [this] {
        return stopping_.load(std::memory_order_relaxed) ||
               draining_.load(std::memory_order_relaxed);
      });
      if (stopping_.load(std::memory_order_relaxed) ||
          draining_.load(std::memory_order_relaxed)) {
        return;  // Drain-phase stragglers still hit the wall backstop.
      }
      lock.unlock();
      for (WorkerSlot& slot : slots_) {
        if (!slot.active.load(std::memory_order_acquire)) continue;
        if (slot.deadline_ms == 0) continue;  // Backstop-only request.
        const double limit = static_cast<double>(slot.deadline_ms) / 1000.0 +
                             options_.watchdog_grace_seconds;
        if (ElapsedSeconds(slot.start) > limit &&
            !slot.cancel.exchange(true, std::memory_order_relaxed)) {
          watchdog_kills_.fetch_add(1, std::memory_order_relaxed);
          slot.restarts.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Piggyback periodic job GC on the watchdog cadence (~every 60s of
      // 200ms scans): expire terminal jobs past their TTL and compact the
      // journal once a job expired or more than half of it is dead.
      if (jobs_ != nullptr && ++job_gc_ticks_ >= 300) {
        job_gc_ticks_ = 0;
        Status gc = jobs_->Gc(UnixMs());
        if (!gc.ok()) {
          std::fprintf(stderr, "job journal gc failed (kept): %s\n",
                       gc.ToString().c_str());
        }
      }
      lock.lock();
    }
  }

  void ServeConnection(int fd, WorkerSlot* slot, double queue_wait_ms) {
    // One connection may carry a sequence of frames; each gets a response.
    for (;;) {
      std::string payload;
      auto frame = ReadFrameFromFd(fd, &payload);
      if (!frame.ok()) {
        // Truncated/garbage/oversized/timed-out input: answer with a typed
        // protocol error (best effort) and hang up — after garbage there is
        // no trustworthy frame boundary to resynchronize on.
        Response bad;
        bad.code = ResponseCode::kBadRequest;
        bad.message = frame.status().ToString();
        (void)WriteFrameToFd(fd, EncodeResponse(bad));
        return;
      }
      if (!*frame) return;  // Clean close.

      WallTimer timer;
      bool shutdown_after = false;
      Response response;
      auto request = DecodeRequest(payload);
      if (!request.ok()) {
        response.code = ResponseCode::kBadRequest;
        response.message = request.status().ToString();
      } else {
        response = HandleRequest(*request, &shutdown_after, slot, queue_wait_ms);
      }
      // Only the first frame on a connection waited in the admission queue;
      // later frames arrive on an already-claimed worker.
      queue_wait_ms = 0.0;
      response.elapsed_us = static_cast<uint64_t>(timer.Seconds() * 1e6);
      if (!WriteFrameToFd(fd, EncodeResponse(response)).ok()) return;
      served_.fetch_add(1, std::memory_order_relaxed);
      if (request.ok() && request->transport == Transport::kHttp) {
        served_http_.fetch_add(1, std::memory_order_relaxed);
      }
      if (shutdown_after) {
        Shutdown();
        return;
      }
      if (response.code == ResponseCode::kBadRequest) return;
      if (stopping_.load(std::memory_order_relaxed)) return;
      // Draining: the in-flight request above was honored; further frames
      // on this connection belong to a live instance.
      if (draining_.load(std::memory_order_relaxed)) return;
    }
  }

  Response HandleRequest(const Request& request, bool* shutdown_after,
                         WorkerSlot* slot, double queue_wait_ms) {
    if (GA_FAILPOINT_FIRED("server.request.error")) {
      return ErrorResponse(ResponseCode::kError,
                           "failpoint server.request.error: injected fault");
    }
    switch (request.type) {
      case RequestType::kPing: {
        Response response;
        response.message = "pong";
        return response;
      }
      case RequestType::kShutdown: {
        *shutdown_after = true;
        Response response;
        response.message = "shutting down";
        return response;
      }
      case RequestType::kCacheInfo: {
        const ResultCache::Stats stats = cache_.GetStats();
        CacheInfoResult info;
        info.hits = stats.hits;
        info.misses = stats.misses;
        info.evictions = stats.evictions;
        info.entries = stats.entries;
        info.bytes = stats.bytes;
        info.capacity_bytes = stats.capacity_bytes;
        Response response;
        response.body = EncodeCacheInfoResult(info);
        return response;
      }
      case RequestType::kServerStats: {
        Response response;
        response.body = EncodeServerStatsResult(ServerStats());
        return response;
      }
      case RequestType::kAlign: {
        if (options_.quota_rps > 0.0 && !TakeQuotaToken(request.client)) {
          return QuotaRejected(request);
        }
        return HandleAlign(request.align, slot, queue_wait_ms,
                           request.transport);
      }
      case RequestType::kAlignBatch: {
        // One quota token admits the whole batch: amortized admission is
        // part of what batching buys (kMaxBatchJobs bounds the skew a
        // batch can extract from a per-request quota).
        if (options_.quota_rps > 0.0 && !TakeQuotaToken(request.client)) {
          return QuotaRejected(request);
        }
        return HandleAlignBatch(request.align_batch, slot, queue_wait_ms,
                                request.transport);
      }
      case RequestType::kEvaluate:
        return HandleEvaluate(request.evaluate);
      case RequestType::kStats:
        return HandleStats(request.stats);
      case RequestType::kPutGraph:
        return HandlePutGraph(request.put_graph);
      case RequestType::kHasGraph:
        return HandleHasGraph(request.has_graph);
      case RequestType::kSubmitJob: {
        // Async submission spends a quota token like the synchronous align
        // it defers — otherwise jobs would be a quota bypass.
        if (options_.quota_rps > 0.0 && !TakeQuotaToken(request.client)) {
          return QuotaRejected(request);
        }
        return HandleSubmitJob(request.submit_job);
      }
      case RequestType::kJobStatus:
        return HandleJobStatus(request.job_id.job_id);
      case RequestType::kJobResult:
        return HandleJobResult(request.job_id.job_id);
      case RequestType::kCancelJob:
        return HandleCancelJob(request.job_id.job_id);
    }
    Response response;
    response.code = ResponseCode::kBadRequest;
    response.message = "unhandled request type";
    return response;
  }

  static Response ErrorResponse(ResponseCode code, std::string message) {
    Response response;
    response.code = code;
    response.message = std::move(message);
    return response;
  }

  Response QuotaRejected(const Request& request) {
    quota_rejected_.fetch_add(1, std::memory_order_relaxed);
    if (request.transport == Transport::kHttp) {
      quota_rejected_http_.fetch_add(1, std::memory_order_relaxed);
    }
    Response response = ErrorResponse(
        ResponseCode::kBusy,
        "client \"" +
            (request.client.empty() ? std::string("anon") : request.client) +
            "\" exceeded its quota of " + std::to_string(options_.quota_rps) +
            " align requests/s; back off and retry");
    // Hint: roughly the time until the bucket refills one token.
    response.retry_after_ms = static_cast<uint64_t>(std::clamp(
        1000.0 / options_.quota_rps, 100.0, 10000.0));
    return response;
  }

  // Per-client token bucket: refill at quota_rps, burst of 2 seconds' worth
  // (at least one token so a slow client is never starved outright). The
  // empty client name shares one "anon" bucket — unidentified traffic
  // competes with itself, not with named clients.
  bool TakeQuotaToken(const std::string& client_in) {
    const std::string client = client_in.empty() ? "anon" : client_in;
    const auto now = std::chrono::steady_clock::now();
    const double burst = std::max(1.0, 2.0 * options_.quota_rps);
    std::lock_guard<std::mutex> lock(quota_mu_);
    if (quota_.size() >= kMaxTrackedClients &&
        quota_.find(client) == quota_.end()) {
      // Bound memory under a churn of one-shot client names. Dropping the
      // table refills everyone once; fairness recovers within a burst.
      quota_.clear();
    }
    auto [it, inserted] = quota_.try_emplace(client, QuotaBucket{burst, now});
    QuotaBucket& bucket = it->second;
    if (!inserted) {
      bucket.tokens =
          std::min(burst, bucket.tokens + ElapsedSeconds(bucket.last_refill) *
                                              options_.quota_rps);
      bucket.last_refill = now;
    }
    if (bucket.tokens < 1.0) return false;
    bucket.tokens -= 1.0;
    return true;
  }

  bool IsQuarantined(uint64_t fault_key) {
    std::lock_guard<std::mutex> lock(fault_mu_);
    auto it = faults_.find(fault_key);
    return it != faults_.end() && it->second.quarantined;
  }

  void RecordFault(uint64_t fault_key) {
    if (options_.quarantine_threshold <= 0) return;
    std::lock_guard<std::mutex> lock(fault_mu_);
    if (faults_.size() >= kMaxTrackedFaults &&
        faults_.find(fault_key) == faults_.end()) {
      // Bound memory under a sweep of distinct crashing signatures: keep
      // the confirmed-poison entries, forget the in-progress counts.
      for (auto it = faults_.begin(); it != faults_.end();) {
        it = it->second.quarantined ? std::next(it) : faults_.erase(it);
      }
    }
    FaultRecord& rec = faults_[fault_key];
    if (rec.quarantined) return;
    if (++rec.consecutive >= options_.quarantine_threshold) {
      rec.quarantined = true;
      quarantined_signatures_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void ClearFault(uint64_t fault_key) {
    if (options_.quarantine_threshold <= 0) return;
    std::lock_guard<std::mutex> lock(fault_mu_);
    auto it = faults_.find(fault_key);
    // A success after quarantine does not lift it: flaky poison is still
    // poison, and un-quarantining on luck would re-admit the crash loop.
    if (it != faults_.end() && !it->second.quarantined) faults_.erase(it);
  }

  Response HandlePutGraph(const PutGraphRequest& req) {
    if (graph_store_ == nullptr) {
      return ErrorResponse(ResponseCode::kError,
                           "graph store disabled on this daemon (start with "
                           "--store-dir); submit inline graphs instead");
    }
    auto g = Graph::FromEdges(req.g.num_nodes, req.g.edges);
    if (!g.ok()) {
      return ErrorResponse(ResponseCode::kBadRequest,
                           "graph: " + g.status().ToString());
    }
    bool already = false;
    auto hash = graph_store_->Put(*g, &already);
    if (!hash.ok()) {
      return ErrorResponse(ResponseCode::kError, hash.status().ToString());
    }
    PutGraphResult result;
    result.content_hash = *hash;
    result.already_present = already;
    Response response;
    response.body = EncodePutGraphResult(result);
    return response;
  }

  Response HandleHasGraph(const HasGraphRequest& req) {
    HasGraphResult result;
    result.present = graph_store_ != nullptr && graph_store_->Has(req.hash);
    Response response;
    response.body = EncodeHasGraphResult(result);
    return response;
  }

  // -------------------------------------------------------------------------
  // Durable async jobs (DESIGN.md §17).

  static JobInfo ToJobInfo(const JobRecord& rec, bool existing) {
    JobInfo info;
    info.job_id = rec.job_id;
    info.state = static_cast<uint32_t>(rec.state);
    info.state_name = JobStateName(rec.state);
    info.attempts = rec.attempts;
    info.max_attempts = rec.max_attempts;
    info.submitted_unix_ms = rec.submitted_unix_ms;
    info.updated_unix_ms = rec.updated_unix_ms;
    info.terminal_code = rec.terminal_code;
    info.message = rec.message;
    info.existing = existing;
    return info;
  }

  Response JobsDisabled() {
    return ErrorResponse(ResponseCode::kError,
                         "job subsystem disabled on this daemon (start with "
                         "--jobs-dir); use a synchronous align instead");
  }

  Response HandleSubmitJob(const SubmitJobRequest& req) {
    if (jobs_ == nullptr) return JobsDisabled();
    // Validate what the parent can check cheaply — an unknown algorithm or
    // assignment is a client mistake that deserves an immediate BAD_REQUEST,
    // not a journaled job doomed to FAILED.
    const Status names = CheckAlignNames(req.align.algo, req.align.assign);
    if (!names.ok()) {
      return ErrorResponse(ResponseCode::kBadRequest, names.ToString());
    }
    if (req.align.by_hash && graph_store_ == nullptr) {
      return ErrorResponse(
          ResponseCode::kNoGraph,
          "submit-by-hash jobs need a graph store, and this daemon has none "
          "(start it with --store-dir); submit inline graphs instead");
    }
    auto out = jobs_->Submit(req.idem_key, EncodeAlignSpec(req.align),
                             UnixMs());
    if (!out.ok()) {
      switch (out.status().code()) {
        case StatusCode::kFailedPrecondition:  // Idempotency-key conflict.
          return ErrorResponse(ResponseCode::kConflict,
                               out.status().message());
        case StatusCode::kInvalidArgument:
          return ErrorResponse(ResponseCode::kBadRequest,
                               out.status().message());
        default:  // Journal append failure: the job was refused, retryable.
          return ErrorResponse(ResponseCode::kError,
                               out.status().ToString());
      }
    }
    Response response;
    response.code = ResponseCode::kAccepted;
    response.message = out->existing
                           ? "deduplicated onto existing job; poll its id"
                           : "job accepted; poll its id";
    response.body = EncodeJobInfo(ToJobInfo(out->record, out->existing));
    return response;
  }

  Response HandleJobStatus(uint64_t job_id) {
    if (jobs_ == nullptr) return JobsDisabled();
    auto rec = jobs_->Get(job_id);
    if (!rec.ok()) {
      return ErrorResponse(ResponseCode::kNoJob, rec.status().message());
    }
    Response response;
    response.body = EncodeJobInfo(ToJobInfo(*rec, false));
    return response;
  }

  Response HandleJobResult(uint64_t job_id) {
    if (jobs_ == nullptr) return JobsDisabled();
    auto rec = jobs_->Get(job_id);
    if (!rec.ok()) {
      return ErrorResponse(ResponseCode::kNoJob, rec.status().message());
    }
    switch (rec->state) {
      case JobState::kDone: {
        // The stored result IS an encoded AlignResult — byte-identical to
        // what the synchronous align path would have answered.
        Response response;
        response.body = rec->result_bytes;
        return response;
      }
      case JobState::kFailed:
      case JobState::kQuarantined:
        return ErrorResponse(
            TerminalResponseCode(rec->terminal_code),
            rec->message.empty() ? "job failed" : rec->message);
      case JobState::kCancelled:
        return ErrorResponse(ResponseCode::kConflict,
                             "job " + std::to_string(job_id) +
                                 " was cancelled; it has no result");
      case JobState::kAccepted:
      case JobState::kRunning: {
        Response response;
        response.code = ResponseCode::kAccepted;
        response.message = "job not finished; poll status";
        response.body = EncodeJobInfo(ToJobInfo(*rec, false));
        return response;
      }
    }
    return ErrorResponse(ResponseCode::kError, "job in unknown state");
  }

  Response HandleCancelJob(uint64_t job_id) {
    if (jobs_ == nullptr) return JobsDisabled();
    auto rec = jobs_->Cancel(job_id, UnixMs());
    if (!rec.ok()) {
      switch (rec.status().code()) {
        case StatusCode::kNotFound:
          return ErrorResponse(ResponseCode::kNoJob,
                               rec.status().message());
        case StatusCode::kFailedPrecondition:  // Already terminal.
          return ErrorResponse(ResponseCode::kConflict,
                               rec.status().message());
        default:
          return ErrorResponse(ResponseCode::kError,
                               rec.status().ToString());
      }
    }
    Response response;
    response.message = "job cancelled";
    response.body = EncodeJobInfo(ToJobInfo(*rec, false));
    return response;
  }

  // Dedicated runner: claim → execute through the same isolated-fork path a
  // synchronous align uses → journal the completion. Each runner owns a
  // watchdog slot, so a hung job child is killed like a hung request child.
  void JobRunnerLoop(WorkerSlot* slot) {
    JobRecord job;
    std::shared_ptr<std::atomic<bool>> cancel;
    while (jobs_->ClaimNext(&job, &cancel)) {
      // Hold point for crash tests: arming jobs.exec.delay with delay-ms:N
      // pins the claimed job in RUNNING long enough to kill -9 the daemon.
      (void)GA_FAILPOINT_FIRED("jobs.exec.delay");
      RunJob(job, cancel.get(), slot);
      if (stopping_.load(std::memory_order_relaxed)) return;
    }
  }

  void RunJob(const JobRecord& job, const std::atomic<bool>* cancel,
              WorkerSlot* slot) {
    auto spec = DecodeAlignSpec(job.spec_bytes);
    if (!spec.ok()) {
      // Journal-resident spec no longer decodes (version skew, bit rot that
      // passed CRC): terminal, typed, never retried.
      (void)jobs_->CompleteFailed(
          job.job_id, static_cast<uint32_t>(ResponseCode::kBadRequest),
          "job spec: " + spec.status().ToString(), /*quarantined=*/false,
          UnixMs());
      return;
    }
    Response r = HandleAlign(*spec, slot, /*queue_wait_ms=*/0.0,
                             Transport::kGaf1, cancel);
    const uint64_t now = UnixMs();
    if (r.code == ResponseCode::kOk) {
      (void)jobs_->CompleteDone(job.job_id, std::move(r.body), now);
    } else if (r.code == ResponseCode::kCrash ||
               r.code == ResponseCode::kOom) {
      // Crash-class outcomes retry up to the attempt budget; the quarantine
      // subsystem independently stops a signature that keeps crashing.
      (void)jobs_->CompleteRetryable(
          job.job_id,
          std::string(ResponseCodeName(r.code)) + ": " + r.message, now);
    } else {
      (void)jobs_->CompleteFailed(job.job_id,
                                  static_cast<uint32_t>(r.code), r.message,
                                  r.code == ResponseCode::kQuarantined, now);
    }
  }

  // Maps a failed store lookup for a by-hash align to a wire response.
  // Absent and corrupt(-now-quarantined) entries both mean the store does
  // not hold a usable copy: typed NO_GRAPH, the client re-uploads. Only
  // transient store trouble (kUnavailable) is a server-side error.
  static Response NoGraphResponse(const char* which, uint64_t hash,
                                  const Status& st) {
    if (st.code() == StatusCode::kNotFound ||
        st.code() == StatusCode::kCorrupt) {
      return ErrorResponse(
          ResponseCode::kNoGraph,
          std::string(which) + ": graph " + GraphStore::HashName(hash) +
              " is not in the store (" + st.ToString() +
              "); re-upload it with --put-graph and retry");
    }
    return ErrorResponse(ResponseCode::kError,
                         std::string(which) + ": " + st.ToString());
  }

  bool ShouldShed(uint64_t deadline_ms, double queue_wait_ms) const {
    return options_.shed && deadline_ms > 0 &&
           queue_wait_ms >= static_cast<double>(deadline_ms);
  }

  // Shed before any parsing: if the admission-queue wait already consumed
  // the client's deadline, every further cycle spent on this request is
  // guaranteed-late work stolen from requests that can still make it.
  Response ShedResponse(uint64_t deadline_ms, double queue_wait_ms,
                        Transport transport) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    if (transport == Transport::kHttp) {
      shed_http_.fetch_add(1, std::memory_order_relaxed);
    }
    Response response = ErrorResponse(
        ResponseCode::kShed,
        "shed: " + std::to_string(static_cast<int64_t>(queue_wait_ms)) +
            "ms of queue wait consumed the " + std::to_string(deadline_ms) +
            "ms deadline; retry against a less loaded instance");
    response.retry_after_ms = kShedRetryAfterMs;
    return response;
  }

  Response HandleAlign(const AlignRequest& req, WorkerSlot* slot,
                       double queue_wait_ms, Transport transport,
                       const std::atomic<bool>* extra_cancel = nullptr) {
    if (ShouldShed(req.deadline_ms, queue_wait_ms)) {
      return ShedResponse(req.deadline_ms, queue_wait_ms, transport);
    }
    Result<Graph> g1 = Graph();
    Result<Graph> g2 = Graph();
    if (req.by_hash) {
      // Submit-by-hash: resolve both graphs from the content-addressed
      // store. The Graph aims straight into the read-only mapping, so the
      // cache and quarantine keys cost no parse.
      if (graph_store_ == nullptr) {
        return ErrorResponse(
            ResponseCode::kNoGraph,
            "align-by-hash needs a graph store, and this daemon has none "
            "(start it with --store-dir); submit inline graphs instead");
      }
      g1 = graph_store_->Get(req.g1_hash);
      if (!g1.ok()) return NoGraphResponse("g1", req.g1_hash, g1.status());
      g2 = graph_store_->Get(req.g2_hash);
      if (!g2.ok()) return NoGraphResponse("g2", req.g2_hash, g2.status());
    } else {
      g1 = Graph::FromEdges(req.g1.num_nodes, req.g1.edges);
      if (!g1.ok()) {
        return ErrorResponse(ResponseCode::kBadRequest,
                             "g1: " + g1.status().ToString());
      }
      g2 = Graph::FromEdges(req.g2.num_nodes, req.g2.edges);
      if (!g2.ok()) {
        return ErrorResponse(ResponseCode::kBadRequest,
                             "g2: " + g2.status().ToString());
      }
    }
    return AlignResolved(*g1, *g2,
                         AlignSpec{req.algo, req.assign, req.deadline_ms,
                                   req.mem_limit_mb, req.no_cache},
                         slot, extra_cancel);
  }

  Response QuarantinedResponse() {
    quarantined_responses_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(
        ResponseCode::kQuarantined,
        "request signature quarantined: " +
            std::to_string(options_.quarantine_threshold) +
            " consecutive crash/OOM outcomes for this (g1, g2, algo); "
            "refusing to re-fork until restart");
  }

  // The post-resolution align path shared by kAlign, every kAlignBatch job
  // and the job runner: algorithm/assignment validation, quarantine, cache
  // consult, the isolated run on the slot's helper, outcome mapping, and
  // cache fill. Graph resolution stays with the callers so a batch can
  // amortize it across jobs.
  Response AlignResolved(const Graph& g1, const Graph& g2,
                         const AlignSpec& req, WorkerSlot* slot,
                         const std::atomic<bool>* extra_cancel = nullptr) {
    // Validate the algorithm and assignment up front, in the parent: an
    // unknown name is a client mistake, not a reason to isolate anything.
    const Status names = CheckAlignNames(req.algo, req.assign);
    if (!names.ok()) {
      return ErrorResponse(ResponseCode::kError, names.ToString());
    }

    // The quarantine signature deliberately ignores the assignment method:
    // a kernel that segfaults on this graph pair crashes before extraction
    // ever runs, so re-forking it under a different extractor is the same
    // crash with extra steps.
    const uint64_t fault_key = ResultCache::Key(
        g1.ContentHash(), g2.ContentHash(), req.algo, "!quarantine");
    if (options_.quarantine_threshold > 0 && IsQuarantined(fault_key)) {
      return QuarantinedResponse();
    }

    const uint64_t key = ResultCache::Key(g1.ContentHash(), g2.ContentHash(),
                                          req.algo, req.assign);
    if (!req.no_cache) {
      std::string cached;
      if (cache_.Get(key, &cached)) {
        Response response;
        response.cache_hit = true;
        response.body = std::move(cached);
        return response;
      }
    }

    SubprocessOptions isolation;
    if (req.mem_limit_mb > 0) {
      isolation.mem_limit_bytes =
          static_cast<int64_t>(req.mem_limit_mb) * 1024 * 1024;
    }
    isolation.wall_limit_seconds =
        req.deadline_ms > 0
            ? 2.0 * static_cast<double>(req.deadline_ms) / 1000.0 +
                  options_.wall_slack_seconds
            : kDefaultWallLimitSeconds;
    // Arm the watchdog slot before dispatching: fields first, then the
    // release store the watchdog acquires them through.
    slot->deadline_ms =
        req.deadline_ms > 0 ? static_cast<uint64_t>(req.deadline_ms) : 0;
    slot->cancel.store(false, std::memory_order_relaxed);
    slot->start = std::chrono::steady_clock::now();
    slot->active.store(true, std::memory_order_release);
    // extra_cancel is the job subsystem's client-cancel flag: a cancelled
    // async job kills its in-flight child exactly like a watchdog would.
    isolation.cancel = [slot, extra_cancel] {
      return slot->cancel.load(std::memory_order_relaxed) ||
             (extra_cancel != nullptr &&
              extra_cancel->load(std::memory_order_relaxed));
    };

    AlignRequest spec;
    spec.algo = req.algo;
    spec.assign = req.assign;
    spec.deadline_ms = req.deadline_ms;
    spec.mem_limit_mb = req.mem_limit_mb;
    spec.g1 = ToWire(g1);
    spec.g2 = ToWire(g2);
    auto run = zygote_->Run(&slot->helper, spec, isolation);
    slot->active.store(false, std::memory_order_release);
    if (!run.ok()) {
      return ErrorResponse(ResponseCode::kError, run.status().ToString());
    }
    Response response;
    switch (run->status) {
      case RunStatus::kOk:
        ClearFault(fault_key);  // The kernel survived; not poison.
        if (!run->payload_valid || !DecodeAlignOutcome(run->payload,
                                                       &response)) {
          return ErrorResponse(
              ResponseCode::kError,
              "isolated child exited cleanly but returned no result");
        }
        break;
      case RunStatus::kExit:
        return ErrorResponse(ResponseCode::kError,
                             "isolated child " + run->detail);
      case RunStatus::kCrash:
        RecordFault(fault_key);
        return ErrorResponse(ResponseCode::kCrash, run->detail);
      case RunStatus::kOom:
        RecordFault(fault_key);
        return ErrorResponse(ResponseCode::kOom, run->detail);
      case RunStatus::kTimeout:
        if (run->killed_on_cancel) {
          return ErrorResponse(
              ResponseCode::kError,
              "watchdog killed the isolated child: still running " +
                  std::to_string(options_.watchdog_grace_seconds) +
                  "s past its " + std::to_string(req.deadline_ms) +
                  "ms deadline");
        }
        return ErrorResponse(ResponseCode::kDnf,
                             "hard-killed at the wall-clock backstop after " +
                                 std::to_string(run->wall_seconds) + "s");
    }
    if (response.code == ResponseCode::kOk && !req.no_cache) {
      // Degraded results are not cached: once the numerical hiccup passes, a
      // fresh request deserves a fresh (clean) attempt, not a stale fallback.
      auto decoded = DecodeAlignResult(response.body);
      if (decoded.ok() && !decoded->degraded) {
        cache_.Put(key, response.body);
        if (store_ != nullptr) store_->Append(key, response.body);
      }
    }
    return response;
  }

  Response HandleAlignBatch(const AlignBatchRequest& req, WorkerSlot* slot,
                            double queue_wait_ms, Transport transport) {
    // Each graph-table entry resolves at most once — lazily, so a batch
    // answered entirely from the cache (or shed outright) opens nothing.
    // K jobs over two store graphs cost 2 store opens, not 2K.
    std::vector<std::unique_ptr<Graph>> resolved(req.graphs.size());
    std::vector<Response> resolve_errors(req.graphs.size());
    std::vector<bool> attempted(req.graphs.size(), false);
    uint32_t loads = 0;
    auto resolve = [&](uint32_t idx) -> const Graph* {
      if (!attempted[idx]) {
        attempted[idx] = true;
        const BatchGraphRef& ref = req.graphs[idx];
        if (ref.by_hash) {
          if (graph_store_ == nullptr) {
            resolve_errors[idx] = ErrorResponse(
                ResponseCode::kNoGraph,
                "batch graph " + std::to_string(idx) +
                    " is by-hash, and this daemon has no graph store (start "
                    "it with --store-dir); submit inline graphs instead");
          } else {
            auto g = graph_store_->Get(ref.hash);
            if (g.ok()) {
              resolved[idx] = std::make_unique<Graph>(*std::move(g));
              ++loads;
            } else {
              resolve_errors[idx] = NoGraphResponse(
                  ("batch graph " + std::to_string(idx)).c_str(), ref.hash,
                  g.status());
            }
          }
        } else {
          auto g = Graph::FromEdges(ref.inline_graph.num_nodes,
                                    ref.inline_graph.edges);
          if (g.ok()) {
            resolved[idx] = std::make_unique<Graph>(*std::move(g));
            ++loads;
          } else {
            resolve_errors[idx] = ErrorResponse(
                ResponseCode::kBadRequest,
                "batch graph " + std::to_string(idx) + ": " +
                    g.status().ToString());
          }
        }
      }
      return resolved[idx].get();
    };

    AlignBatchResult batch;
    batch.jobs.resize(req.jobs.size());
    uint64_t cache_hits = 0;
    for (size_t i = 0; i < req.jobs.size(); ++i) {
      const BatchJob& job = req.jobs[i];
      Response r;
      if (ShouldShed(job.deadline_ms, queue_wait_ms)) {
        // queue_wait_ms is the whole batch's admission wait; a job whose
        // deadline it consumed is shed exactly as a standalone kAlign
        // would be (jobs run serially, so later jobs have waited at least
        // this long too).
        r = ShedResponse(job.deadline_ms, queue_wait_ms, transport);
      } else {
        // By-hash jobs probe quarantine and the result cache with the table
        // hashes before resolving anything: the store is content-addressed,
        // so a graph's request hash IS its content hash, and an all-cached
        // batch therefore opens zero graphs.
        const BatchGraphRef& r1 = req.graphs[job.g1];
        const BatchGraphRef& r2 = req.graphs[job.g2];
        bool answered = false;
        if (r1.by_hash && r2.by_hash) {
          const uint64_t fault_key =
              ResultCache::Key(r1.hash, r2.hash, job.algo, "!quarantine");
          if (options_.quarantine_threshold > 0 && IsQuarantined(fault_key)) {
            r = QuarantinedResponse();
            answered = true;
          } else if (!job.no_cache) {
            std::string cached;
            if (cache_.Get(ResultCache::Key(r1.hash, r2.hash, job.algo,
                                            job.assign),
                           &cached)) {
              r.cache_hit = true;
              r.body = std::move(cached);
              answered = true;
            }
          }
        }
        if (!answered) {
          const Graph* g1 = resolve(job.g1);
          const Graph* g2 = resolve(job.g2);
          if (g1 == nullptr) {
            r = resolve_errors[job.g1];
          } else if (g2 == nullptr) {
            r = resolve_errors[job.g2];
          } else {
            r = AlignResolved(*g1, *g2,
                              AlignSpec{job.algo, job.assign, job.deadline_ms,
                                        job.mem_limit_mb, job.no_cache},
                              slot);
          }
        }
      }
      BatchJobOutcome& out = batch.jobs[i];
      out.code = r.code;
      out.cache_hit = r.cache_hit;
      out.message = std::move(r.message);
      if (r.code == ResponseCode::kOk) out.body = std::move(r.body);
      if (r.cache_hit) ++cache_hits;
    }
    batch.graph_loads = loads;

    batches_.fetch_add(1, std::memory_order_relaxed);
    batch_jobs_.fetch_add(req.jobs.size(), std::memory_order_relaxed);
    batch_cache_hits_.fetch_add(cache_hits, std::memory_order_relaxed);
    batch_graph_loads_.fetch_add(loads, std::memory_order_relaxed);

    // Top-level code: OK when every job is OK, the shared code when every
    // job failed the same way (so retry classification keeps working, e.g.
    // an all-SHED batch stays transient), PARTIAL on any mix.
    size_t failed = 0;
    bool mixed = false;
    for (const BatchJobOutcome& out : batch.jobs) {
      if (out.code != batch.jobs[0].code) mixed = true;
      if (out.code != ResponseCode::kOk) ++failed;
    }
    Response response;
    if (mixed) {
      response.code = ResponseCode::kPartial;
      response.message = std::to_string(failed) + " of " +
                         std::to_string(batch.jobs.size()) +
                         " batch jobs failed; see per-job outcomes";
    } else {
      response.code = batch.jobs[0].code;
      if (response.code != ResponseCode::kOk) {
        response.message = "all " + std::to_string(batch.jobs.size()) +
                           " batch jobs failed with " +
                           ResponseCodeName(response.code);
      }
      // All-hit batches surface as a cache hit, mirroring kAlign.
      response.cache_hit = cache_hits == batch.jobs.size();
    }
    response.body = EncodeAlignBatchResult(batch);
    return response;
  }

  Response HandleEvaluate(const EvaluateRequest& req) {
    auto g1 = Graph::FromEdges(req.g1.num_nodes, req.g1.edges);
    if (!g1.ok()) {
      return ErrorResponse(ResponseCode::kBadRequest,
                           "g1: " + g1.status().ToString());
    }
    auto g2 = Graph::FromEdges(req.g2.num_nodes, req.g2.edges);
    if (!g2.ok()) {
      return ErrorResponse(ResponseCode::kBadRequest,
                           "g2: " + g2.status().ToString());
    }
    if (static_cast<int>(req.mapping.size()) != g1->num_nodes()) {
      return ErrorResponse(ResponseCode::kBadRequest,
                           "mapping size does not match g1's node count");
    }
    for (int32_t v : req.mapping) {
      if (v < -1 || v >= g2->num_nodes()) {
        return ErrorResponse(ResponseCode::kBadRequest,
                             "mapping target out of range: " +
                                 std::to_string(v));
      }
    }
    if (!req.truth.empty() &&
        static_cast<int>(req.truth.size()) != g1->num_nodes()) {
      return ErrorResponse(ResponseCode::kBadRequest,
                           "truth size does not match g1's node count");
    }
    const Alignment mapping = ToAlignment(req.mapping);
    EvaluateResult result;
    result.mnc = MeanMatchedNeighborhoodConsistency(*g1, *g2, mapping);
    result.ec = EdgeCorrectness(*g1, *g2, mapping);
    result.ics = InducedConservedStructure(*g1, *g2, mapping);
    result.s3 = SymmetricSubstructureScore(*g1, *g2, mapping);
    if (!req.truth.empty()) {
      result.has_accuracy = true;
      result.accuracy = Accuracy(mapping, ToAlignment(req.truth));
    }
    Response response;
    response.body = EncodeEvaluateResult(result);
    return response;
  }

  Response HandleStats(const StatsRequest& req) {
    auto g = Graph::FromEdges(req.g.num_nodes, req.g.edges);
    if (!g.ok()) {
      return ErrorResponse(ResponseCode::kBadRequest, g.status().ToString());
    }
    StatsResult result;
    result.num_nodes = g->num_nodes();
    result.num_edges = g->num_edges();
    result.avg_degree = g->AverageDegree();
    result.max_degree = g->MaxDegree();
    int components = 0;
    g->ConnectedComponents(&components);
    result.components = components;
    result.content_hash = g->ContentHash();
    Response response;
    response.body = EncodeStatsResult(result);
    return response;
  }

  static constexpr size_t kMaxTrackedClients = 8192;
  static constexpr size_t kMaxTrackedFaults = 8192;

  const ServerOptions options_;
  std::unique_ptr<IsolationZygote> zygote_;  // Set by Create, before Bind.
  ResultCache cache_;
  std::unique_ptr<CacheStore> store_;     // Null without cache_dir.
  CacheStore::ReplayStats replay_stats_;  // Fixed after Start().
  std::unique_ptr<GraphStore> graph_store_;  // Null without store_dir.
  std::atomic<uint64_t> store_unavailable_{0};  // store_dir set but unusable.
  std::unique_ptr<JobManager> jobs_;  // Null without jobs_dir (or unusable).
  std::chrono::steady_clock::time_point start_time_;

  int listen_fd_ = -1;
  int bound_port_ = -1;
  std::string bound_socket_path_;
  int queue_capacity_ = 0;
  int job_gc_ticks_ = 0;  // Watchdog-thread only.

  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::condition_variable watchdog_cv_;
  std::deque<QueueEntry> queue_;          // Admitted, not yet served.
  std::unordered_set<int> active_fds_;    // Being served by a worker.
  std::vector<std::thread> threads_;      // Workers + watchdog + accept.
  std::deque<WorkerSlot> slots_;          // Fixed after Start().

  std::mutex quota_mu_;
  std::unordered_map<std::string, QuotaBucket> quota_;
  std::mutex fault_mu_;
  std::unordered_map<uint64_t, FaultRecord> faults_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> busy_rejected_{0};
  std::atomic<uint64_t> quota_rejected_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> quarantined_responses_{0};
  std::atomic<uint64_t> quarantined_signatures_{0};
  std::atomic<uint64_t> watchdog_kills_{0};
  std::atomic<uint64_t> cache_open_errors_{0};
  std::atomic<uint64_t> served_http_{0};
  std::atomic<uint64_t> quota_rejected_http_{0};
  std::atomic<uint64_t> shed_http_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batch_jobs_{0};
  std::atomic<uint64_t> batch_cache_hits_{0};
  std::atomic<uint64_t> batch_graph_loads_{0};
};

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Server::~Server() = default;

Result<std::unique_ptr<Server>> Server::Create(const ServerOptions& options) {
  auto impl = std::make_unique<Impl>(options);
  GA_RETURN_IF_ERROR(impl->ForkZygote());
  GA_RETURN_IF_ERROR(impl->Bind());
  return std::unique_ptr<Server>(new Server(std::move(impl)));
}

Status Server::Start() { return impl_->Start(); }
void Server::Shutdown() { impl_->Shutdown(); }
void Server::Drain() { impl_->Drain(); }
void Server::Wait() { impl_->Wait(); }
int Server::port() const { return impl_->port(); }
ResultCache::Stats Server::cache_stats() const { return impl_->cache_stats(); }
ServerStatsResult Server::stats() const { return impl_->ServerStats(); }

}  // namespace graphalign

#include "gateway/gateway.h"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/socket.h"
#include "common/timer.h"
#include "gateway/json.h"
#include "jobs/manager.h"
#include "store/graph_store.h"

namespace graphalign {

namespace {

constexpr const char* kJsonType = "application/json";

// ---------------------------------------------------------------------------
// JSON <-> protocol translation.

// {"n": <int>, "edges": [[u,v], ...]} -> WireGraph. Bounds mirror the
// protocol decoder's: the JSON layer must not admit what GAF1 would
// reject.
bool ParseWireGraphJson(const JsonValue& v, WireGraph* g, std::string* err) {
  if (!v.is_object()) {
    *err = "graph must be an object with \"n\" and \"edges\"";
    return false;
  }
  int64_t n = 0;
  if (!v.Get("n").AsInt64(&n, 0, 8 << 20)) {
    *err = "graph \"n\" must be an integer node count";
    return false;
  }
  const JsonValue& edges = v.Get("edges");
  if (!edges.is_array()) {
    *err = "graph \"edges\" must be an array of [u,v] pairs";
    return false;
  }
  g->num_nodes = static_cast<int>(n);
  g->edges.clear();
  g->edges.reserve(edges.AsArray().size());
  for (const JsonValue& e : edges.AsArray()) {
    int64_t u = 0, vv = 0;
    if (!e.is_array() || e.AsArray().size() != 2 ||
        !e.AsArray()[0].AsInt64(&u, 0, n - 1) ||
        !e.AsArray()[1].AsInt64(&vv, 0, n - 1)) {
      *err = "graph edge must be [u,v] with endpoints in [0,n)";
      return false;
    }
    g->edges.push_back({static_cast<int>(u), static_cast<int>(vv)});
  }
  return true;
}

bool ParseHashJson(const JsonValue& v, uint64_t* hash, std::string* err) {
  if (!v.is_string()) {
    *err = "hash must be a 16-hex-digit string";
    return false;
  }
  auto parsed = GraphStore::ParseHashName(v.AsString());
  if (!parsed.ok()) {
    *err = parsed.status().ToString();
    return false;
  }
  *hash = *parsed;
  return true;
}

// Optional scalar fields shared by /v1/align jobs and batch jobs.
bool ParseJobOptions(const JsonValue& v, std::string* assign,
                     uint64_t* deadline_ms, uint64_t* mem_limit_mb,
                     bool* no_cache, std::string* err) {
  if (v.Has("assign")) {
    if (!v.Get("assign").is_string() ||
        v.Get("assign").AsString().size() > kMaxNameLen) {
      *err = "\"assign\" must be a short string";
      return false;
    }
    *assign = v.Get("assign").AsString();
  }
  int64_t tmp = 0;
  if (v.Has("deadline_ms")) {
    if (!v.Get("deadline_ms").AsInt64(&tmp, 0, int64_t{1} << 40)) {
      *err = "\"deadline_ms\" must be a non-negative integer";
      return false;
    }
    *deadline_ms = static_cast<uint64_t>(tmp);
  }
  if (v.Has("mem_limit_mb")) {
    if (!v.Get("mem_limit_mb").AsInt64(&tmp, 0, int64_t{1} << 30)) {
      *err = "\"mem_limit_mb\" must be a non-negative integer";
      return false;
    }
    *mem_limit_mb = static_cast<uint64_t>(tmp);
  }
  if (v.Has("no_cache")) {
    if (!v.Get("no_cache").is_bool()) {
      *err = "\"no_cache\" must be a boolean";
      return false;
    }
    *no_cache = v.Get("no_cache").AsBool();
  }
  return true;
}

bool ParseAlgo(const JsonValue& v, std::string* algo, std::string* err) {
  if (!v.Get("algo").is_string() ||
      v.Get("algo").AsString().empty() ||
      v.Get("algo").AsString().size() > kMaxNameLen) {
    *err = "\"algo\" is required and must be a short string";
    return false;
  }
  *algo = v.Get("algo").AsString();
  return true;
}

bool ParseClient(const JsonValue& v, std::string* client, std::string* err) {
  if (!v.Has("client")) return true;
  if (!v.Get("client").is_string() ||
      v.Get("client").AsString().size() > kMaxNameLen) {
    *err = "\"client\" must be a short string";
    return false;
  }
  *client = v.Get("client").AsString();
  return true;
}

// POST /v1/align body -> kAlign request. Graphs arrive either both inline
// ("g1"/"g2") or both by store hash ("g1_hash"/"g2_hash") — the same
// exclusivity the wire protocol enforces.
bool BuildAlignRequest(const JsonValue& v, Request* request,
                       std::string* err) {
  if (!v.is_object()) {
    *err = "body must be a JSON object";
    return false;
  }
  request->type = RequestType::kAlign;
  AlignRequest& a = request->align;
  if (!ParseAlgo(v, &a.algo, err) || !ParseClient(v, &request->client, err) ||
      !ParseJobOptions(v, &a.assign, &a.deadline_ms, &a.mem_limit_mb,
                       &a.no_cache, err)) {
    return false;
  }
  const bool hashed = v.Has("g1_hash") || v.Has("g2_hash");
  const bool inline_graphs = v.Has("g1") || v.Has("g2");
  if (hashed == inline_graphs) {
    *err = "provide either g1/g2 inline graphs or g1_hash/g2_hash (not both)";
    return false;
  }
  if (hashed) {
    a.by_hash = true;
    if (!ParseHashJson(v.Get("g1_hash"), &a.g1_hash, err) ||
        !ParseHashJson(v.Get("g2_hash"), &a.g2_hash, err)) {
      return false;
    }
  } else {
    if (!ParseWireGraphJson(v.Get("g1"), &a.g1, err) ||
        !ParseWireGraphJson(v.Get("g2"), &a.g2, err)) {
      return false;
    }
  }
  return true;
}

// POST /v1/align:batch body -> kAlignBatch request.
bool BuildBatchRequest(const JsonValue& v, Request* request,
                       std::string* err) {
  if (!v.is_object()) {
    *err = "body must be a JSON object";
    return false;
  }
  request->type = RequestType::kAlignBatch;
  if (!ParseClient(v, &request->client, err)) return false;
  AlignBatchRequest& b = request->align_batch;
  const JsonValue& graphs = v.Get("graphs");
  if (!graphs.is_array() || graphs.AsArray().empty() ||
      graphs.AsArray().size() > kMaxBatchGraphs) {
    *err = "\"graphs\" must be a non-empty array of at most " +
           std::to_string(kMaxBatchGraphs) + " entries";
    return false;
  }
  for (const JsonValue& g : graphs.AsArray()) {
    BatchGraphRef ref;
    if (g.is_object() && g.Has("hash")) {
      ref.by_hash = true;
      if (!ParseHashJson(g.Get("hash"), &ref.hash, err)) return false;
    } else if (!ParseWireGraphJson(g, &ref.inline_graph, err)) {
      return false;
    }
    b.graphs.push_back(std::move(ref));
  }
  const JsonValue& jobs = v.Get("jobs");
  if (!jobs.is_array() || jobs.AsArray().empty() ||
      jobs.AsArray().size() > kMaxBatchJobs) {
    *err = "\"jobs\" must be a non-empty array of at most " +
           std::to_string(kMaxBatchJobs) + " entries";
    return false;
  }
  for (const JsonValue& j : jobs.AsArray()) {
    if (!j.is_object()) {
      *err = "each job must be an object";
      return false;
    }
    BatchJob job;
    int64_t g1 = 0, g2 = 0;
    const int64_t max_idx = static_cast<int64_t>(b.graphs.size()) - 1;
    if (!j.Get("g1").AsInt64(&g1, 0, max_idx) ||
        !j.Get("g2").AsInt64(&g2, 0, max_idx)) {
      *err = "job \"g1\"/\"g2\" must index into \"graphs\"";
      return false;
    }
    job.g1 = static_cast<uint32_t>(g1);
    job.g2 = static_cast<uint32_t>(g2);
    if (!ParseAlgo(j, &job.algo, err) ||
        !ParseJobOptions(j, &job.assign, &job.deadline_ms, &job.mem_limit_mb,
                         &job.no_cache, err)) {
      return false;
    }
    b.jobs.push_back(std::move(job));
  }
  return true;
}

JsonValue AlignResultJson(const AlignResult& r) {
  JsonValue out = JsonValue::Object();
  JsonValue mapping = JsonValue::Array();
  for (int32_t m : r.mapping) {
    mapping.Push(JsonValue::Number(static_cast<double>(m)));
  }
  out.Set("mapping", std::move(mapping));
  out.Set("mnc", JsonValue::Number(r.mnc));
  out.Set("ec", JsonValue::Number(r.ec));
  out.Set("s3", JsonValue::Number(r.s3));
  out.Set("align_seconds", JsonValue::Number(r.align_seconds));
  out.Set("degraded", JsonValue::Bool(r.degraded));
  if (r.degraded) {
    out.Set("degrade_reason", JsonValue::Str(r.degrade_reason));
  }
  return out;
}

// Async-job envelope shared by POST /v1/jobs, GET /v1/jobs/<id>, and
// DELETE /v1/jobs/<id>. The job id is rendered as the same 16-hex-digit
// string `submit --async` prints, never a JSON number: a u64 does not
// survive the double round trip.
JsonValue JobInfoJson(const JobInfo& info) {
  JsonValue out = JsonValue::Object();
  out.Set("job_id", JsonValue::Str(GraphStore::HashName(info.job_id)));
  out.Set("state", JsonValue::Str(info.state_name));
  out.Set("attempts", JsonValue::Number(static_cast<double>(info.attempts)));
  out.Set("max_attempts",
          JsonValue::Number(static_cast<double>(info.max_attempts)));
  out.Set("submitted_unix_ms",
          JsonValue::Number(static_cast<double>(info.submitted_unix_ms)));
  out.Set("updated_unix_ms",
          JsonValue::Number(static_cast<double>(info.updated_unix_ms)));
  out.Set("existing", JsonValue::Bool(info.existing));
  if (JobStateTerminal(static_cast<JobState>(info.state))) {
    out.Set("terminal_status",
            JsonValue::Str(ResponseCodeName(
                static_cast<ResponseCode>(info.terminal_code))));
  }
  if (!info.message.empty()) {
    out.Set("message", JsonValue::Str(info.message));
  }
  return out;
}

// An archive (common/wire.h) that walks ServerStatsResult's field list into
// a JSON object: each field under its name, in wire order.
class StatsJsonWriter {
 public:
  void U64(uint64_t v, const char* name = nullptr) {
    Put(name, static_cast<double>(v));
  }
  void F64(double v, const char* name) { Put(name, v); }
  template <typename V, typename Fn>
  void List(const V& items, uint64_t /*max*/, Fn&& each, const char* name) {
    list_ = JsonValue::Array();
    for (const auto& item : items) each(item);
    object_.Set(name, std::move(list_));
  }

  JsonValue Take() { return std::move(object_); }

 private:
  // A field without a name is an item of the list being written.
  void Put(const char* name, double v) {
    if (name == nullptr) return list_.Push(JsonValue::Number(v));
    object_.Set(name, JsonValue::Number(v));
  }

  JsonValue object_ = JsonValue::Object();
  JsonValue list_;
};

}  // namespace

Status BatchRequestFromJson(const JsonValue& body, Request* request) {
  std::string err;
  if (!BuildBatchRequest(body, request, &err)) {
    return Status::InvalidArgument(err);
  }
  return Status::Ok();
}

int HttpStatusForResponseCode(ResponseCode code) {
  switch (code) {
    case ResponseCode::kOk: return 200;
    case ResponseCode::kAccepted: return 202;
    case ResponseCode::kPartial: return 207;
    case ResponseCode::kBadRequest: return 400;
    case ResponseCode::kQuarantined: return 409;
    case ResponseCode::kConflict: return 409;
    case ResponseCode::kNoGraph: return 404;
    case ResponseCode::kNoJob: return 404;
    case ResponseCode::kBusy: return 429;
    case ResponseCode::kShuttingDown:
    case ResponseCode::kShed:
      return 503;
    case ResponseCode::kDnf: return 504;
    case ResponseCode::kError:
    case ResponseCode::kCrash:
    case ResponseCode::kOom:
    case ResponseCode::kNumerical:
      return 500;
  }
  return 500;
}

class Gateway::Impl {
 public:
  explicit Impl(const GatewayOptions& options) : options_(options) {}

  ~Impl() {
    Shutdown();
    Wait();
    if (listen_fd_ >= 0) close(listen_fd_);
  }

  Status Bind() {
    if (options_.workers <= 0) {
      return Status::InvalidArgument("gateway: workers must be positive");
    }
    if (options_.max_connections <= 0) {
      return Status::InvalidArgument(
          "gateway: max_connections must be positive");
    }
    Result<int> fd = ListenLoopback(options_.http_port, &bound_port_);
    if (!fd.ok()) {
      return Status(fd.status().code(), "gateway " + fd.status().message());
    }
    listen_fd_ = *fd;
    return Status::Ok();
  }

  Status Start() {
    if (listen_fd_ < 0) {
      return Status::FailedPrecondition("gateway: not bound");
    }
    for (int w = 0; w < options_.workers; ++w) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
    threads_.emplace_back([this] { AcceptLoop(); });
    return Status::Ok();
  }

  void Shutdown() {
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true)) return;
    if (listen_fd_ >= 0) shutdown(listen_fd_, SHUT_RDWR);
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : active_fds_) shutdown(fd, SHUT_RDWR);
    for (int fd : queue_) shutdown(fd, SHUT_RDWR);
    queue_cv_.notify_all();
  }

  void Wait() {
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(mu_);
      threads.swap(threads_);
    }
    for (std::thread& t : threads) t.join();
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : queue_) close(fd);
    queue_.clear();
  }

  int port() const { return bound_port_; }

  GatewayStats stats() const {
    GatewayStats s;
    s.connections = connections_.load(std::memory_order_relaxed);
    s.requests = requests_.load(std::memory_order_relaxed);
    s.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
    s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
    s.oversized = oversized_.load(std::memory_order_relaxed);
    s.timeouts = timeouts_.load(std::memory_order_relaxed);
    s.backend_errors = backend_errors_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  // -------------------------------------------------------------------------
  // Accept with a hard connection bound (the HTTP analogue of the daemon's
  // admission queue: beyond the limit the client gets a typed 503 now, not
  // a silent stall).

  void AcceptLoop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
      const int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (stopping_.load(std::memory_order_relaxed)) {
        close(fd);
        break;
      }
      connections_.fetch_add(1, std::memory_order_relaxed);
      SetSocketTimeouts(fd, options_.io_timeout_seconds);
      bool admitted = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (queue_.size() + active_fds_.size() <
            static_cast<size_t>(options_.max_connections)) {
          queue_.push_back(fd);
          admitted = true;
          queue_cv_.notify_one();
        }
      }
      if (!admitted) {
        rejected_overload_.fetch_add(1, std::memory_order_relaxed);
        const std::string body =
            "{\"status\":\"BUSY\",\"error\":\"gateway connection limit (" +
            std::to_string(options_.max_connections) +
            ") reached; retry with backoff\"}";
        // The accept-time 503 carries the same Retry-After hint the daemon
        // attaches to its own transient rejections; clients treat both
        // identically. Best effort: the short response fits a fresh
        // socket's send buffer, so this is one send() that never waits on
        // the client.
        const std::string resp = EncodeHttpResponse(
            503, kJsonType, body, false, {{"Retry-After", "1"}});
        (void)SendAll(fd, resp);
        close(fd);
      }
    }
  }

  void WorkerLoop() {
    for (;;) {
      int fd = -1;
      {
        std::unique_lock<std::mutex> lock(mu_);
        queue_cv_.wait(lock, [this] {
          return stopping_.load(std::memory_order_relaxed) || !queue_.empty();
        });
        if (queue_.empty()) return;  // Stopping and drained.
        fd = queue_.front();
        queue_.pop_front();
        active_fds_.insert(fd);
      }
      ServeConnection(fd);
      {
        std::lock_guard<std::mutex> lock(mu_);
        active_fds_.erase(fd);
      }
      close(fd);
      if (stopping_.load(std::memory_order_relaxed)) return;
    }
  }

  // Sends a response; false on socket error (peer gone).
  bool Send(
      int fd, int status, const std::string& body, bool keep_alive,
      const char* content_type = kJsonType,
      const std::vector<std::pair<std::string, std::string>>& extra_headers =
          {}) {
    return SendAll(fd, EncodeHttpResponse(status, content_type, body,
                                          keep_alive, extra_headers));
  }

  static std::string ErrorBody(const char* status_name,
                               const std::string& detail) {
    return std::string("{\"status\":\"") + status_name + "\",\"error\":\"" +
           JsonEscape(detail) + "\"}";
  }

  void ServeConnection(int fd) {
    std::string buf;
    auto request_start = std::chrono::steady_clock::now();
    bool mid_request = false;
    for (;;) {
      // Drain complete requests already buffered (pipelined or keep-alive).
      for (;;) {
        HttpRequest request;
        size_t consumed = 0;
        std::string perr;
        const HttpParseStatus ps = ParseHttpRequest(
            buf, options_.limits, &request, &consumed, &perr);
        if (ps == HttpParseStatus::kIncomplete) {
          mid_request = !buf.empty();
          break;
        }
        requests_.fetch_add(1, std::memory_order_relaxed);
        if (ps != HttpParseStatus::kComplete) {
          // Typed rejection, then hang up: after a framing violation there
          // is no trustworthy request boundary left.
          int status = 400;
          if (ps == HttpParseStatus::kTooLarge) status = 431;
          if (ps == HttpParseStatus::kBodyTooLarge) status = 413;
          if (ps == HttpParseStatus::kUnsupported) status = 501;
          (status == 413 ? oversized_ : bad_requests_)
              .fetch_add(1, std::memory_order_relaxed);
          (void)Send(fd, status, ErrorBody("BAD_REQUEST", perr), false);
          return;
        }
        buf.erase(0, consumed);
        const bool keep_alive =
            request.KeepAlive() && !stopping_.load(std::memory_order_relaxed);
        if (!HandleRequest(fd, request, keep_alive)) return;
        if (!keep_alive) return;
        request_start = std::chrono::steady_clock::now();
        mid_request = !buf.empty();
      }
      // Need more bytes. The per-recv socket timeout plus this wall check
      // bounds how long a drip-fed (slowloris) request can hold the worker.
      if (ElapsedSeconds(request_start) > options_.io_timeout_seconds) {
        if (mid_request) {
          timeouts_.fetch_add(1, std::memory_order_relaxed);
          (void)Send(fd, 408,
                     ErrorBody("BAD_REQUEST",
                               "request not completed in time"),
                     false);
        }
        return;
      }
      char chunk[16 * 1024];
      const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n == 0) return;  // Peer closed.
      if (n < 0) {
        if (errno == EINTR) continue;
        if ((errno == EAGAIN || errno == EWOULDBLOCK) && mid_request) {
          timeouts_.fetch_add(1, std::memory_order_relaxed);
          (void)Send(fd, 408,
                     ErrorBody("BAD_REQUEST",
                               "request not completed in time"),
                     false);
        }
        return;
      }
      buf.append(chunk, static_cast<size_t>(n));
    }
  }

  // One GAF1 round trip over a fresh backend connection. The gateway tags
  // the request as HTTP transport for the daemon's per-transport counters.
  Result<Response> CallBackend(Request request) {
    request.transport = Transport::kHttp;
    auto client = Client::Connect(options_.backend);
    if (!client.ok()) return client.status();
    return client->Call(request);
  }

  // Routes one parsed request; false when the socket died mid-response.
  bool HandleRequest(int fd, const HttpRequest& request, bool keep_alive) {
    // Strip any query string: routing is path-only.
    std::string path = request.target;
    const size_t q = path.find('?');
    if (q != std::string::npos) path.resize(q);

    if (path == "/healthz") {
      if (request.method != "GET") return MethodNotAllowed(fd, keep_alive);
      Request ping;
      ping.type = RequestType::kPing;
      auto response = CallBackend(std::move(ping));
      if (!response.ok() || response->code != ResponseCode::kOk) {
        if (!response.ok()) {
          backend_errors_.fetch_add(1, std::memory_order_relaxed);
        }
        return Send(fd, 503,
                    ErrorBody("ERROR", !response.ok()
                                           ? response.status().ToString()
                                           : response->message),
                    keep_alive);
      }
      return Send(fd, 200, "ok\n", keep_alive, "text/plain");
    }
    if (path == "/stats") {
      if (request.method != "GET") return MethodNotAllowed(fd, keep_alive);
      return HandleStats(fd, keep_alive);
    }
    if (path == "/v1/graphs") {
      if (request.method != "POST") return MethodNotAllowed(fd, keep_alive);
      return HandlePutGraph(fd, request, keep_alive);
    }
    if (path.rfind("/v1/graphs/", 0) == 0) {
      if (request.method != "GET") return MethodNotAllowed(fd, keep_alive);
      return HandleHasGraph(fd, path.substr(strlen("/v1/graphs/")),
                            keep_alive);
    }
    if (path == "/v1/align") {
      if (request.method != "POST") return MethodNotAllowed(fd, keep_alive);
      return HandleAlign(fd, request, keep_alive);
    }
    if (path == "/v1/jobs") {
      if (request.method != "POST") return MethodNotAllowed(fd, keep_alive);
      return HandleSubmitJob(fd, request, keep_alive);
    }
    if (path.rfind("/v1/jobs/", 0) == 0) {
      const std::string id_name = path.substr(strlen("/v1/jobs/"));
      if (request.method == "GET") {
        return HandleJobStatus(fd, id_name, keep_alive);
      }
      if (request.method == "DELETE") {
        return HandleCancelJob(fd, id_name, keep_alive);
      }
      return MethodNotAllowed(fd, keep_alive);
    }
    if (path == "/v1/align:batch") {
      if (request.method != "POST") return MethodNotAllowed(fd, keep_alive);
      return HandleAlignBatch(fd, request, keep_alive);
    }
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    return Send(fd, 404, ErrorBody("BAD_REQUEST", "no such route: " + path),
                keep_alive);
  }

  bool MethodNotAllowed(int fd, bool keep_alive) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    return Send(fd, 405,
                ErrorBody("BAD_REQUEST", "method not allowed on this route"),
                keep_alive);
  }

  bool BadJson(int fd, const std::string& detail, bool keep_alive) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    return Send(fd, 400, ErrorBody("BAD_REQUEST", detail), keep_alive);
  }

  bool BackendDown(int fd, const Status& status, bool keep_alive) {
    backend_errors_.fetch_add(1, std::memory_order_relaxed);
    return Send(fd, 503,
                ErrorBody("ERROR", "daemon unreachable: " + status.ToString()),
                keep_alive);
  }

  // The shared tail of every forwarded call: map the typed ResponseCode to
  // an HTTP status and attach the standard envelope fields.
  bool SendDaemonResponse(int fd, const Response& response, JsonValue body,
                          bool keep_alive) {
    body.Set("status", JsonValue::Str(ResponseCodeName(response.code)));
    body.Set("cache_hit", JsonValue::Bool(response.cache_hit));
    body.Set("elapsed_us",
             JsonValue::Number(static_cast<double>(response.elapsed_us)));
    if (!response.message.empty()) {
      body.Set("error", JsonValue::Str(response.message));
    }
    const int status = HttpStatusForResponseCode(response.code);
    std::vector<std::pair<std::string, std::string>> extra;
    if (response.retry_after_ms > 0 && (status == 429 || status == 503)) {
      // Retry-After is delta-seconds; round up so a 250ms hint never
      // becomes "retry immediately". The exact millisecond hint rides in
      // the body for clients that want the finer grain.
      extra.emplace_back(
          "Retry-After", std::to_string((response.retry_after_ms + 999) / 1000));
      body.Set("retry_after_ms",
               JsonValue::Number(static_cast<double>(response.retry_after_ms)));
    }
    return Send(fd, status, body.Dump(), keep_alive, kJsonType, extra);
  }

  bool HandleStats(int fd, bool keep_alive) {
    Request req;
    req.type = RequestType::kServerStats;
    auto response = CallBackend(std::move(req));
    JsonValue out = JsonValue::Object();
    JsonValue gw = JsonValue::Object();
    const GatewayStats s = stats();
    gw.Set("connections", JsonValue::Number(static_cast<double>(s.connections)));
    gw.Set("requests", JsonValue::Number(static_cast<double>(s.requests)));
    gw.Set("rejected_overload",
           JsonValue::Number(static_cast<double>(s.rejected_overload)));
    gw.Set("bad_requests",
           JsonValue::Number(static_cast<double>(s.bad_requests)));
    gw.Set("oversized", JsonValue::Number(static_cast<double>(s.oversized)));
    gw.Set("timeouts", JsonValue::Number(static_cast<double>(s.timeouts)));
    gw.Set("backend_errors",
           JsonValue::Number(static_cast<double>(s.backend_errors)));
    out.Set("gateway", std::move(gw));
    if (!response.ok()) {
      backend_errors_.fetch_add(1, std::memory_order_relaxed);
      out.Set("status", JsonValue::Str("ERROR"));
      out.Set("error", JsonValue::Str("daemon unreachable: " +
                                      response.status().ToString()));
      return Send(fd, 503, out.Dump(), keep_alive);
    }
    auto decoded = DecodeServerStatsResult(response->body);
    if (response->code != ResponseCode::kOk || !decoded.ok()) {
      out.Set("status", JsonValue::Str(ResponseCodeName(response->code)));
      out.Set("error", JsonValue::Str(response->message));
      return Send(fd, HttpStatusForResponseCode(response->code), out.Dump(),
                  keep_alive);
    }
    StatsJsonWriter daemon;
    Fields(daemon, *decoded);
    out.Set("daemon", daemon.Take());
    out.Set("status", JsonValue::Str("OK"));
    return Send(fd, 200, out.Dump(), keep_alive);
  }

  bool HandlePutGraph(int fd, const HttpRequest& request, bool keep_alive) {
    auto parsed = ParseJson(request.body);
    if (!parsed.ok()) {
      return BadJson(fd, parsed.status().ToString(), keep_alive);
    }
    Request req;
    req.type = RequestType::kPutGraph;
    std::string err;
    if (!ParseClient(*parsed, &req.client, &err) ||
        !ParseWireGraphJson(*parsed, &req.put_graph.g, &err)) {
      return BadJson(fd, err, keep_alive);
    }
    auto response = CallBackend(std::move(req));
    if (!response.ok()) return BackendDown(fd, response.status(), keep_alive);
    JsonValue body = JsonValue::Object();
    if (response->code == ResponseCode::kOk) {
      auto result = DecodePutGraphResult(response->body);
      if (result.ok()) {
        body.Set("hash", JsonValue::Str(GraphStore::HashName(
                             result->content_hash)));
        body.Set("already_present", JsonValue::Bool(result->already_present));
      }
    }
    return SendDaemonResponse(fd, *response, std::move(body), keep_alive);
  }

  bool HandleHasGraph(int fd, const std::string& hash_name, bool keep_alive) {
    auto hash = GraphStore::ParseHashName(hash_name);
    if (!hash.ok()) {
      return BadJson(fd, hash.status().ToString(), keep_alive);
    }
    Request req;
    req.type = RequestType::kHasGraph;
    req.has_graph.hash = *hash;
    auto response = CallBackend(std::move(req));
    if (!response.ok()) return BackendDown(fd, response.status(), keep_alive);
    JsonValue body = JsonValue::Object();
    body.Set("hash", JsonValue::Str(hash_name));
    bool present = false;
    if (response->code == ResponseCode::kOk) {
      auto result = DecodeHasGraphResult(response->body);
      present = result.ok() && result->present;
      body.Set("present", JsonValue::Bool(present));
      if (!present) {
        // An absent graph is a 404 with a well-formed body, mirroring
        // NO_GRAPH on the align path.
        body.Set("status", JsonValue::Str("NO_GRAPH"));
        return Send(fd, 404, body.Dump(), keep_alive);
      }
    }
    return SendDaemonResponse(fd, *response, std::move(body), keep_alive);
  }

  bool HandleAlign(int fd, const HttpRequest& request, bool keep_alive) {
    auto parsed = ParseJson(request.body);
    if (!parsed.ok()) {
      return BadJson(fd, parsed.status().ToString(), keep_alive);
    }
    Request req;
    std::string err;
    if (!BuildAlignRequest(*parsed, &req, &err)) {
      return BadJson(fd, err, keep_alive);
    }
    auto response = CallBackend(std::move(req));
    if (!response.ok()) return BackendDown(fd, response.status(), keep_alive);
    JsonValue body = JsonValue::Object();
    if (response->code == ResponseCode::kOk) {
      auto result = DecodeAlignResult(response->body);
      if (result.ok()) body = AlignResultJson(*result);
    }
    return SendDaemonResponse(fd, *response, std::move(body), keep_alive);
  }

  // POST /v1/jobs: the /v1/align JSON schema plus an optional "idem_key"
  // string. Accepted (or deduplicated) jobs come back 202 with the job
  // envelope; poll GET /v1/jobs/<id> for completion.
  bool HandleSubmitJob(int fd, const HttpRequest& request, bool keep_alive) {
    auto parsed = ParseJson(request.body);
    if (!parsed.ok()) {
      return BadJson(fd, parsed.status().ToString(), keep_alive);
    }
    Request req;
    std::string err;
    if (!BuildAlignRequest(*parsed, &req, &err)) {
      return BadJson(fd, err, keep_alive);
    }
    // Re-target the parsed align at the async surface.
    req.type = RequestType::kSubmitJob;
    req.submit_job.align = std::move(req.align);
    req.align = AlignRequest{};
    if (parsed->Has("idem_key")) {
      if (!parsed->Get("idem_key").is_string() ||
          parsed->Get("idem_key").AsString().empty() ||
          parsed->Get("idem_key").AsString().size() > kMaxNameLen) {
        return BadJson(fd, "\"idem_key\" must be a short non-empty string",
                       keep_alive);
      }
      req.submit_job.idem_key = parsed->Get("idem_key").AsString();
    }
    auto response = CallBackend(std::move(req));
    if (!response.ok()) return BackendDown(fd, response.status(), keep_alive);
    JsonValue body = JsonValue::Object();
    if (response->code == ResponseCode::kAccepted) {
      auto info = DecodeJobInfo(response->body);
      if (info.ok()) body = JobInfoJson(*info);
    }
    return SendDaemonResponse(fd, *response, std::move(body), keep_alive);
  }

  // GET /v1/jobs/<16hex>: the job envelope; once the job is DONE the
  // response embeds the alignment result under "result", so one poll
  // both observes completion and retrieves the mapping.
  bool HandleJobStatus(int fd, const std::string& id_name, bool keep_alive) {
    auto id = GraphStore::ParseHashName(id_name);
    if (!id.ok()) {
      return BadJson(fd, "job id must be 16 hex digits: " + id_name,
                     keep_alive);
    }
    Request req;
    req.type = RequestType::kJobStatus;
    req.job_id.job_id = *id;
    auto response = CallBackend(std::move(req));
    if (!response.ok()) return BackendDown(fd, response.status(), keep_alive);
    JsonValue body = JsonValue::Object();
    if (response->code == ResponseCode::kOk) {
      auto info = DecodeJobInfo(response->body);
      if (info.ok()) {
        body = JobInfoJson(*info);
        if (static_cast<JobState>(info->state) == JobState::kDone) {
          Request result_req;
          result_req.type = RequestType::kJobResult;
          result_req.job_id.job_id = *id;
          auto result = CallBackend(std::move(result_req));
          if (result.ok() && result->code == ResponseCode::kOk) {
            auto align = DecodeAlignResult(result->body);
            if (align.ok()) body.Set("result", AlignResultJson(*align));
          }
        }
      }
    }
    return SendDaemonResponse(fd, *response, std::move(body), keep_alive);
  }

  // DELETE /v1/jobs/<16hex>: cancel. 200 with the (now CANCELLED)
  // envelope, 404 for an unknown id, 409 when the job already finished.
  bool HandleCancelJob(int fd, const std::string& id_name, bool keep_alive) {
    auto id = GraphStore::ParseHashName(id_name);
    if (!id.ok()) {
      return BadJson(fd, "job id must be 16 hex digits: " + id_name,
                     keep_alive);
    }
    Request req;
    req.type = RequestType::kCancelJob;
    req.job_id.job_id = *id;
    auto response = CallBackend(std::move(req));
    if (!response.ok()) return BackendDown(fd, response.status(), keep_alive);
    JsonValue body = JsonValue::Object();
    if (response->code == ResponseCode::kOk) {
      auto info = DecodeJobInfo(response->body);
      if (info.ok()) body = JobInfoJson(*info);
    }
    return SendDaemonResponse(fd, *response, std::move(body), keep_alive);
  }

  bool HandleAlignBatch(int fd, const HttpRequest& request, bool keep_alive) {
    auto parsed = ParseJson(request.body);
    if (!parsed.ok()) {
      return BadJson(fd, parsed.status().ToString(), keep_alive);
    }
    Request req;
    std::string err;
    if (!BuildBatchRequest(*parsed, &req, &err)) {
      return BadJson(fd, err, keep_alive);
    }
    auto response = CallBackend(std::move(req));
    if (!response.ok()) return BackendDown(fd, response.status(), keep_alive);
    JsonValue body = JsonValue::Object();
    auto result = DecodeAlignBatchResult(response->body);
    if (result.ok()) {
      body.Set("graph_loads",
               JsonValue::Number(static_cast<double>(result->graph_loads)));
      JsonValue jobs = JsonValue::Array();
      for (const BatchJobOutcome& out : result->jobs) {
        JsonValue job = JsonValue::Object();
        if (out.code == ResponseCode::kOk) {
          auto align = DecodeAlignResult(out.body);
          if (align.ok()) job = AlignResultJson(*align);
        }
        job.Set("status", JsonValue::Str(ResponseCodeName(out.code)));
        job.Set("cache_hit", JsonValue::Bool(out.cache_hit));
        if (!out.message.empty()) {
          job.Set("error", JsonValue::Str(out.message));
        }
        jobs.Push(std::move(job));
      }
      body.Set("jobs", std::move(jobs));
    }
    return SendDaemonResponse(fd, *response, std::move(body), keep_alive);
  }

  const GatewayOptions options_;
  int listen_fd_ = -1;
  int bound_port_ = -1;

  std::atomic<bool> stopping_{false};
  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<int> queue_;
  std::unordered_set<int> active_fds_;
  std::vector<std::thread> threads_;

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> rejected_overload_{0};
  std::atomic<uint64_t> bad_requests_{0};
  std::atomic<uint64_t> oversized_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> backend_errors_{0};
};

Gateway::Gateway(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Gateway::~Gateway() = default;

Result<std::unique_ptr<Gateway>> Gateway::Create(
    const GatewayOptions& options) {
  auto impl = std::make_unique<Impl>(options);
  GA_RETURN_IF_ERROR(impl->Bind());
  return std::unique_ptr<Gateway>(new Gateway(std::move(impl)));
}

Status Gateway::Start() { return impl_->Start(); }
void Gateway::Shutdown() { impl_->Shutdown(); }
void Gateway::Wait() { impl_->Wait(); }
int Gateway::port() const { return impl_->port(); }
GatewayStats Gateway::stats() const { return impl_->stats(); }

}  // namespace graphalign

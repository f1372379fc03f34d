#include "serve.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/random.h"
#include "common/timer.h"
#include "gateway/json.h"
#include "metrics/metrics.h"
#include "server/cache_store.h"
#include "server/client.h"

extern char** environ;

namespace graphalign {
namespace perfbench {
namespace {

constexpr int kWorkers = 4;
constexpr int kCacheMb = 256;
constexpr int kClients = 2;        // Closed-loop clients, at most nproc.
constexpr int kCheckEvery = 4;     // Every 4th miss of a client is checked.

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// The port printed after `marker` in the daemon's stdout, or -1.
int PortAfter(const std::string& text, const std::string& marker) {
  const size_t at = text.find(marker);
  if (at == std::string::npos) return -1;
  const size_t colon = text.find(':', at + marker.size());
  if (colon == std::string::npos) return -1;
  return std::atoi(text.c_str() + colon + 1);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

JsonValue WireGraphJson(const WireGraph& g) {
  JsonValue out = JsonValue::Object();
  out.Set("n", JsonValue::Number(static_cast<double>(g.num_nodes)));
  JsonValue edges = JsonValue::Array();
  for (const Edge& e : g.edges) {
    JsonValue pair = JsonValue::Array();
    pair.Push(JsonValue::Number(static_cast<double>(e.u)));
    pair.Push(JsonValue::Number(static_cast<double>(e.v)));
    edges.Push(std::move(pair));
  }
  out.Set("edges", std::move(edges));
  return out;
}

// One POST to the loopback gateway (Connection: close, read to EOF).
// Returns the response body, or an error on transport failure.
Result<std::string> HttpPost(int port, const std::string& target,
                             const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable("socket failed");
  struct timeval tv = {30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Unavailable("connect failed");
  }
  const std::string request =
      "POST " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
      "Connection: close\r\nContent-Type: application/json\r\n" +
      "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return Status::Unavailable("send failed");
    }
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char buf[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      ::close(fd);
      return Status::Unavailable("recv failed");
    }
    if (n == 0) break;
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t split = reply.find("\r\n\r\n");
  if (reply.compare(0, 5, "HTTP/") != 0 || split == std::string::npos) {
    return Status::Unavailable("malformed HTTP reply");
  }
  return reply.substr(split + 4);
}

// Decodes the mapping of an OK align response; empty on any failure.
std::vector<int32_t> MappingOf(const Result<Response>& resp) {
  if (!resp.ok() || resp->code != ResponseCode::kOk) return {};
  auto result = DecodeAlignResult(resp->body);
  return result.ok() ? result->mapping : std::vector<int32_t>{};
}

std::vector<int32_t> MappingOfJson(const Result<std::string>& body) {
  if (!body.ok()) return {};
  auto parsed = ParseJson(*body);
  if (!parsed.ok() || !parsed->Get("status").is_string() ||
      parsed->Get("status").AsString() != "OK") {
    return {};
  }
  std::vector<int32_t> mapping;
  for (const JsonValue& v : parsed->Get("mapping").AsArray()) {
    mapping.push_back(static_cast<int32_t>(v.AsNumber()));
  }
  return mapping;
}

// Recomputes a miss in-process, NSD similarity then JV, on graphs rebuilt
// from the bytes the daemon received, and compares the daemon's mapping.
// The timings skip the trace: they are the reference, not a layer call.
void CheckMiss(Aligner* nsd, const Problem& problem, const AlignRequest& sent,
               const std::vector<int32_t>& mapping, Report* report,
               ServeLoadResult* out) {
  auto g1 = Graph::FromEdges(sent.g1.num_nodes, sent.g1.edges);
  auto g2 = Graph::FromEdges(sent.g2.num_nodes, sent.g2.edges);
  report->Check(g1.ok() && g2.ok(), "miss graphs rebuild");
  if (!g1.ok() || !g2.ok()) return;
  WallTimer timer;
  auto sim = nsd->ComputeSimilarity(*g1, *g2);
  out->check_similarity_s.push_back(timer.Seconds());
  report->Check(sim.ok(), "in-process NSD similarity");
  if (!sim.ok()) return;
  timer.Restart();
  auto alignment = JonkerVolgenantAssign(*sim);
  out->check_assignment_s.push_back(timer.Seconds());
  const Alignment daemon_mapping(mapping.begin(), mapping.end());
  report->Check(alignment.ok() && *alignment == daemon_mapping,
                "daemon miss mapping equals in-process Align(NSD, JV)");
  out->check_accuracy_sum +=
      Accuracy(daemon_mapping, problem.p.ground_truth);
}

}  // namespace

Result<std::unique_ptr<Daemon>> Daemon::Start(const DaemonOptions& options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(options.work_dir + "/cache", ec);
  fs::create_directories(options.work_dir + "/jobs", ec);
  const std::string out_path = options.work_dir + "/daemon.out";
  const std::string err_path = options.work_dir + "/daemon.err";
  std::vector<std::string> args = {options.binary,
                                   "serve",
                                   "--port",
                                   "0",
                                   "--http-port",
                                   "0",
                                   "--workers",
                                   std::to_string(kWorkers),
                                   "--cache-mb",
                                   std::to_string(kCacheMb),
                                   "--cache-dir",
                                   options.work_dir + "/cache",
                                   "--jobs-dir",
                                   options.work_dir + "/jobs"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::unique_ptr<Daemon> daemon(new Daemon());
  const int rc = posix_spawn(&daemon->pid_, options.binary.c_str(), &actions,
                             nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    daemon->pid_ = -1;
    return Status::Unavailable("cannot spawn " + options.binary + ": " +
                               std::strerror(rc));
  }
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < give_up) {
    const std::string out = ReadFile(out_path);
    daemon->port_ = PortAfter(out, "daemon serving on 127.0.0.1");
    daemon->http_port_ = PortAfter(out, "gateway serving on 127.0.0.1");
    if (daemon->port_ > 0 && daemon->http_port_ > 0) return daemon;
    int status = 0;
    if (waitpid(daemon->pid_, &status, WNOHANG) == daemon->pid_) {
      daemon->pid_ = -1;
      return Status::Unavailable("daemon exited at startup: " +
                                 ReadFile(err_path));
    }
    SleepMs(1);
  }
  return Status::Unavailable("daemon did not report its ports");
}

Daemon::~Daemon() { Stop(); }

void Daemon::Stop() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool reaped = false;
  for (int i = 0; i < 2000 && !reaped; ++i) {
    reaped = waitpid(pid_, &status, WNOHANG) == pid_;
    if (!reaped) SleepMs(5);
  }
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
  }
  pid_ = -1;
}

Status SeedCacheLog(const std::string& dir, int megabytes, uint64_t seed) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  GA_ASSIGN_OR_RETURN(
      std::unique_ptr<CacheStore> store,
      CacheStore::Open(dir, [](uint64_t, std::string) {}));
  Rng rng(seed);
  AlignResult result;
  result.mapping.resize(1000);
  for (int32_t& m : result.mapping) {
    m = static_cast<int32_t>(rng.UniformInt(1000));
  }
  result.align_seconds = 0.001;
  const std::string value = EncodeAlignResult(result);
  const uint64_t target = static_cast<uint64_t>(megabytes) << 20;
  while (store->log_bytes() < target) store->Append(rng.Next(), value);
  if (store->append_errors() > 0) {
    return Status::Unavailable("cache log seeding hit append errors");
  }
  return store->Sync();
}

Result<Response> CallDaemon(int port, const Request& request) {
  ClientOptions conn;
  conn.port = port;
  conn.timeout_seconds = 30.0;
  GA_ASSIGN_OR_RETURN(Client client, Client::Connect(conn));
  return client.Call(request);
}

Result<std::unique_ptr<Daemon>> StartWarmDaemon(const DaemonOptions& options,
                                                const Request& hit_request,
                                                double* seconds) {
  const auto start = std::chrono::steady_clock::now();
  GA_ASSIGN_OR_RETURN(std::unique_ptr<Daemon> daemon, Daemon::Start(options));
  Request ping;
  ping.type = RequestType::kPing;
  bool up = false;
  for (int i = 0; i < 30000 && !up; ++i) {
    auto resp = CallDaemon(daemon->port(), ping);
    up = resp.ok() && resp->code == ResponseCode::kOk;
    if (!up) SleepMs(1);
  }
  if (!up) return Status::Unavailable("daemon never answered a ping");
  // The daemon announces its ports before its last threads have registered
  // as fork-tolerant, and until they have, an isolated alignment is refused
  // with ERROR. One uncached alignment that succeeds shows the window has
  // closed; on a busy machine it can take a few milliseconds.
  Request forked = hit_request;
  forked.align.no_cache = true;
  std::string refusal;
  bool forks = false;
  for (int i = 0; i < 500 && !forks; ++i) {
    auto resp = CallDaemon(daemon->port(), forked);
    forks = resp.ok() && resp->code == ResponseCode::kOk;
    if (!forks) {
      refusal = resp.ok() ? resp->message : resp.status().ToString();
      SleepMs(10);
    }
  }
  if (!forks) {
    return Status::Unavailable("daemon refused every isolated alignment: " +
                               refusal);
  }
  // The first cached call computes and caches the pair unless the replayed
  // log already held it; the setup ends at the first cache hit.
  for (int i = 0; i < 3; ++i) {
    auto resp = CallDaemon(daemon->port(), hit_request);
    if (!resp.ok() || resp->code != ResponseCode::kOk) {
      return Status::Unavailable(
          "warm-up align failed: " +
          (resp.ok() ? resp->message : resp.status().ToString()));
    }
    if (resp->cache_hit) {
      *seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
      return daemon;
    }
  }
  return Status::Unavailable("hit pair was never answered from the cache");
}

Problem ServeHitProblem(uint64_t seed) {
  return MakeServePairProblem(seed * 7919 + 1);
}

Request AlignRequestFor(const Problem& problem, const std::string& client) {
  Request req;
  req.type = RequestType::kAlign;
  req.client = client;
  req.align.algo = "NSD";
  req.align.assign = "JV";
  // No cooperative deadline: a stall on a shared machine must not turn a
  // request into DNF or SHED.
  req.align.deadline_ms = 0;
  req.align.g1 = ToWire(problem.p.g1);
  req.align.g2 = ToWire(problem.p.g2);
  return req;
}

std::string HttpAlignBody(const Request& request) {
  JsonValue v = JsonValue::Object();
  v.Set("client", JsonValue::Str(request.client));
  v.Set("algo", JsonValue::Str(request.align.algo));
  v.Set("assign", JsonValue::Str(request.align.assign));
  v.Set("deadline_ms",
        JsonValue::Number(static_cast<double>(request.align.deadline_ms)));
  v.Set("g1", WireGraphJson(request.align.g1));
  v.Set("g2", WireGraphJson(request.align.g2));
  return v.Dump();
}

Result<ServerStatsResult> FetchServerStats(int port) {
  Request req;
  req.type = RequestType::kServerStats;
  GA_ASSIGN_OR_RETURN(Response resp, CallDaemon(port, req));
  if (resp.code != ResponseCode::kOk) {
    return Status::Unavailable("server stats refused: " + resp.message);
  }
  return DecodeServerStatsResult(resp.body);
}

void Merge(ServeLoadResult&& from, ServeLoadResult* into) {
  into->wall_seconds += from.wall_seconds;
  into->ok += from.ok;
  const auto append = [](const std::vector<double>& src,
                         std::vector<double>* dst) {
    dst->insert(dst->end(), src.begin(), src.end());
  };
  for (const auto& [kind, v] : from.latency_ms) {
    append(v, &into->latency_ms[kind]);
  }
  for (const auto& [kind, v] : from.traced_latency_ms) {
    append(v, &into->traced_latency_ms[kind]);
  }
  append(from.check_similarity_s, &into->check_similarity_s);
  append(from.check_assignment_s, &into->check_assignment_s);
  into->check_accuracy_sum += from.check_accuracy_sum;
}

ServeLoadResult RunServeLoad(const Daemon& daemon,
                             const ServeLoadOptions& options, Report* report) {
  const Problem hit = ServeHitProblem(options.hit_seed);
  const Request hit_request = AlignRequestFor(hit, "perfbench");
  const std::string hit_body = HttpAlignBody(hit_request);
  const std::vector<int32_t> hit_mapping =
      MappingOf(CallDaemon(daemon.port(), hit_request));
  report->Check(!hit_mapping.empty(), "the hit pair aligns");

  ServeLoadResult out;
  std::mutex mu;  // Guards `out` and `report` while clients merge.
  const auto start = std::chrono::steady_clock::now();
  const auto stop = start + std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(options.seconds));
  auto client_loop = [&](int c) {
    Rng rng(options.seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(c + 1));
    const std::string client = "perfbench-" + std::to_string(c);
    Report local;
    ServeLoadResult mine;
    auto nsd = MakeAligner("NSD");
    GA_CHECK(nsd.ok());
    int misses = 0;
    for (uint64_t i = 0; std::chrono::steady_clock::now() < stop; ++i) {
      // miss:3, hit:2, http:2, job:1.
      const uint64_t roll = rng.UniformInt(8);
      const char* kind = roll < 3 ? "miss" : roll < 5 ? "hit"
                                           : roll < 7 ? "http" : "job";
      Request req = hit_request;
      req.client = client;
      Problem fresh;
      if (roll < 3 || roll == 7) {
        fresh = MakeServePairProblem(rng.Next());
        req = AlignRequestFor(fresh, client);
        if (roll == 7) {
          req.type = RequestType::kSubmitJob;
          req.submit_job.align = req.align;
        }
      }
      const bool traced = options.tracer != nullptr && i % 2 == 0;
      TraceScope scope(traced ? options.tracer : nullptr,
                       (static_cast<uint64_t>(c + 1) << 40) | i);
      bool ok = false;
      std::string outcome = "TRANSPORT";
      std::vector<int32_t> mapping;
      Span span(std::string("serve.") + kind);
      if (roll >= 5 && roll < 7) {
        mapping = MappingOfJson(HttpPost(daemon.http_port(), "/v1/align",
                                         hit_body));
        span.Stop();
        ok = mapping == hit_mapping;
        outcome = ok ? "OK" : "no matching mapping";
      } else {
        auto resp = CallDaemon(daemon.port(), req);
        span.Stop();
        outcome = resp.ok() ? std::string(ResponseCodeName(resp->code)) +
                                  " " + resp->message
                            : resp.status().ToString();
        if (roll == 7) {
          ok = resp.ok() && resp->code == ResponseCode::kAccepted;
        } else {
          mapping = MappingOf(resp);
          ok = !mapping.empty() && (roll < 3 || mapping == hit_mapping);
        }
      }
      local.Check(ok, std::string(kind) + " request succeeds: " + outcome);
      if (!ok) continue;
      ++mine.ok;
      (traced ? mine.traced_latency_ms : mine.latency_ms)[kind].push_back(
          span.Stop() * 1e3);
      if (roll < 3 && ++misses % kCheckEvery == 0) {
        CheckMiss(nsd->get(), fresh, req.align, mapping, &local, &mine);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    report->attempted += local.attempted;
    report->failed += local.failed;
    Merge(std::move(mine), &out);
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client_loop, c);
  for (std::thread& t : threads) t.join();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

}  // namespace perfbench
}  // namespace graphalign

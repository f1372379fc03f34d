// Closed-loop load generator for the alignment service daemon.
//
// Spawns --clients threads, each issuing --requests requests back-to-back
// against a running daemon (fresh connection per request, like real
// short-lived clients). Each request is drawn from a weighted --mix of
// traffic kinds:
//
//   hit      one fixed graph pair, NSD: after the first fork, pure cache
//            hits — the fast path under load.
//   miss     a unique ER pair per request: always a cold isolated fork.
//   degraded a fixed pair on GRASP: degrades only when the daemon has
//            numerical failpoints armed, otherwise an ordinary fork.
//   poison   _CRASH on a small pool of pairs: repeated signatures, so a
//            daemon with quarantine enabled trips it mid-run and the tail
//            of the mix is answered with typed QUARANTINED, not forks.
//   batch    one kAlignBatch frame: 4 NSD jobs over the shared hit pair,
//            exercising amortized graph resolution (and, after the first
//            batch, the result cache).
//   async    kSubmitJob against the durable job queue (daemon must run
//            with --jobs-dir): a deterministic coin picks between the
//            shared hit pair (idempotent resubmission — answered with the
//            existing job) and a unique pair (fresh enqueue + background
//            execution). ACCEPTED is the expected typed answer.
//
// With --http-port N the generator also drives the HTTP/JSON gateway:
// when a GAF1 endpoint (--socket/--port) is given too, each request flips
// a deterministic coin between GAF1 and HTTP (mixed-transport traffic,
// reported as separate `kind@http` rows); with only --http-port, all
// traffic is HTTP. The HTTP client is a minimal blocking loopback client
// (one connection per request, Connection: close), mirroring how curl-ish
// clients hit the gateway.
//
// Reports per-kind counts, a typed-response histogram (SHED, QUARANTINED,
// BUSY, ... plus TRANSPORT for connect/IO failures), latency percentiles
// (p50/p90/p99/p999), and closed-loop throughput. --json writes the same
// table with run metadata for checked-in baselines (BENCH_loadgen.json,
// BENCH_gateway.json for --http-port runs).
//
// Exit code: 0 when every response was *typed* (any code — overload
// answers are correct behavior under chaos), 1 when transport errors or
// bad arguments show the daemon actually failed its clients.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/file_io.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/socket.h"
#include "common/table.h"
#include "common/timer.h"
#include "gateway/json.h"
#include "graph/generators.h"
#include "server/client.h"
#include "server/protocol.h"

namespace graphalign {
namespace {

struct MixEntry {
  std::string kind;
  int weight = 0;
};

struct LoadgenOptions {
  std::string socket_path;
  int port = -1;
  int http_port = -1;  // >= 0: also (or only) drive the HTTP gateway.
  int clients = 4;
  int requests = 50;  // Per client.
  std::vector<MixEntry> mix = {{"hit", 6}, {"miss", 3}, {"poison", 1}};
  uint64_t seed = 42;
  uint64_t deadline_ms = 5000;
  int nodes = 48;
  std::string json_path;
  std::string client_prefix = "loadgen";
  double timeout_seconds = 60.0;
};

// Per-kind accumulator, merged across worker threads at the end.
struct KindStats {
  uint64_t sent = 0;
  uint64_t transport_errors = 0;
  uint64_t cache_hits = 0;
  std::map<std::string, uint64_t> by_code;  // Typed responses by name.
  std::vector<double> latencies_ms;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket PATH | --port N | --http-port N\n"
      "  [--clients C] [--requests N]\n"
      "  [--mix hit:W,miss:W,degraded:W,poison:W,batch:W,async:W] [--seed S]\n"
      "  [--deadline-ms D] [--nodes N] [--timeout T] [--json PATH]\n",
      argv0);
  return 1;
}

bool ParseMix(const std::string& spec, std::vector<MixEntry>* out) {
  std::vector<MixEntry> mix;
  size_t pos = 0;
  while (pos < spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string part =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const size_t colon = part.find(':');
    if (colon == std::string::npos) return false;
    MixEntry e;
    e.kind = part.substr(0, colon);
    if (e.kind != "hit" && e.kind != "miss" && e.kind != "degraded" &&
        e.kind != "poison" && e.kind != "batch" && e.kind != "async") {
      return false;
    }
    auto weight = ParseInt(part.substr(colon + 1), 0, kMaxInt);
    if (!weight.ok()) return false;
    e.weight = static_cast<int>(*weight);
    if (e.weight > 0) mix.push_back(e);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (mix.empty()) return false;
  *out = std::move(mix);
  return true;
}

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted->size() - 1) + 0.5);
  return (*sorted)[std::min(idx, sorted->size() - 1)];
}

Result<WireGraph> MakeWirePair(int nodes, uint64_t seed, WireGraph* second) {
  Rng rng(seed);
  GA_ASSIGN_OR_RETURN(Graph g1, ErdosRenyi(nodes, 0.12, &rng));
  GA_ASSIGN_OR_RETURN(Graph g2, ErdosRenyi(nodes, 0.12, &rng));
  *second = ToWire(g2);
  return ToWire(g1);
}

// The gateway's inline-graph schema: {"n": N, "edges": [[u, v], ...]}.
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

// Minimal blocking HTTP/1.1 call against the loopback gateway: one
// connection per request, Connection: close, read to EOF. On transport
// failure returns false; otherwise *status_name holds the JSON body's
// "status" (the daemon's typed response code, or the gateway's own error
// status), falling back to the numeric HTTP status for opaque bodies, and
// *cache_hit the body's "cache_hit" when present.
bool HttpCall(int port, const std::string& method, const std::string& target,
              const std::string& body, double timeout_seconds,
              std::string* status_name, bool* cache_hit) {
  *status_name = "TRANSPORT";
  *cache_hit = false;
  const Result<int> fd = ConnectTcp("127.0.0.1", port);
  if (!fd.ok()) return false;
  SetSocketTimeouts(*fd, timeout_seconds);
  std::string request = method + " " + target + " HTTP/1.1\r\n" +
                        "Host: 127.0.0.1\r\nConnection: close\r\n";
  if (!body.empty()) {
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;
  if (!SendAll(*fd, request)) {
    ::close(*fd);
    return false;
  }
  const Result<std::string> received = ReadWholeFile(*fd);
  ::close(*fd);
  if (!received.ok()) return false;
  const std::string& reply = *received;
  if (reply.size() < 12 || reply.compare(0, 5, "HTTP/") != 0) return false;
  *status_name = "HTTP_" + reply.substr(9, 3);
  const size_t split = reply.find("\r\n\r\n");
  if (split != std::string::npos) {
    auto parsed = ParseJson(
        std::string_view(reply).substr(split + 4));
    if (parsed.ok()) {
      if (parsed->Get("status").is_string()) {
        *status_name = parsed->Get("status").AsString();
      }
      if (parsed->Get("cache_hit").is_bool()) {
        *cache_hit = parsed->Get("cache_hit").AsBool();
      }
    }
  }
  return true;
}

class Loadgen {
 public:
  explicit Loadgen(const LoadgenOptions& options) : options_(options) {}

  int Run() {
    // Fixed pairs are generated once and shared read-only by all threads.
    WireGraph hit_g2, degraded_g2;
    auto hit_g1 = MakeWirePair(options_.nodes, options_.seed * 7919 + 1,
                               &hit_g2);
    auto degraded_g1 =
        MakeWirePair(options_.nodes, options_.seed * 7919 + 2, &degraded_g2);
    if (!hit_g1.ok() || !degraded_g1.ok()) {
      std::fprintf(stderr, "loadgen: graph generation failed\n");
      return 1;
    }
    hit_.g1 = *std::move(hit_g1);
    hit_.g2 = std::move(hit_g2);
    degraded_.g1 = *std::move(degraded_g1);
    degraded_.g2 = std::move(degraded_g2);
    for (int i = 0; i < kPoisonPool; ++i) {
      WireGraph g2;
      auto g1 = MakeWirePair(options_.nodes, options_.seed * 7919 + 100 + i,
                             &g2);
      if (!g1.ok()) {
        std::fprintf(stderr, "loadgen: graph generation failed\n");
        return 1;
      }
      poison_[i].g1 = *std::move(g1);
      poison_[i].g2 = std::move(g2);
    }
    for (const MixEntry& e : options_.mix) total_weight_ += e.weight;

    WallTimer wall;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(options_.clients));
    for (int c = 0; c < options_.clients; ++c) {
      threads.emplace_back([this, c] { ClientLoop(c); });
    }
    for (std::thread& t : threads) t.join();
    const double wall_seconds = wall.Seconds();
    return Report(wall_seconds);
  }

 private:
  struct Pair {
    WireGraph g1, g2;
  };
  static constexpr int kPoisonPool = 2;

  const std::string& PickKind(Rng* rng) {
    int roll = static_cast<int>(rng->UniformInt(
        static_cast<uint64_t>(total_weight_)));
    for (const MixEntry& e : options_.mix) {
      roll -= e.weight;
      if (roll < 0) return e.kind;
    }
    return options_.mix.back().kind;
  }

  static constexpr int kBatchJobs = 4;

  Request BuildRequest(const std::string& kind, int client_index, Rng* rng) {
    Request req;
    req.type = RequestType::kAlign;
    req.client =
        options_.client_prefix + "-" + std::to_string(client_index);
    if (kind == "batch") {
      // K identical NSD jobs over the shared hit pair: one frame, one
      // admission decision, two graph constructions — and after the first
      // batch lands, pure cache hits.
      req.type = RequestType::kAlignBatch;
      AlignBatchRequest& b = req.align_batch;
      b.graphs.resize(2);
      b.graphs[0].inline_graph = hit_.g1;
      b.graphs[1].inline_graph = hit_.g2;
      for (int j = 0; j < kBatchJobs; ++j) {
        BatchJob job;
        job.g1 = 0;
        job.g2 = 1;
        job.algo = "NSD";
        job.assign = "JV";
        job.deadline_ms = options_.deadline_ms;
        b.jobs.push_back(std::move(job));
      }
      return req;
    }
    if (kind == "async") {
      // Half the stream resubmits the shared hit pair (content-id dedupe:
      // the daemon answers with the existing job, no re-execution), half
      // enqueues a unique pair the job runners grind through in the
      // background.
      req.type = RequestType::kSubmitJob;
      AlignRequest& job = req.submit_job.align;
      job.algo = "NSD";
      job.assign = "JV";
      job.deadline_ms = options_.deadline_ms;
      if (rng->UniformInt(2) == 0) {
        job.g1 = hit_.g1;
        job.g2 = hit_.g2;
      } else {
        WireGraph g2;
        auto g1 = MakeWirePair(options_.nodes, rng->Next(), &g2);
        if (g1.ok()) {
          job.g1 = *std::move(g1);
          job.g2 = std::move(g2);
        } else {
          job.g1 = hit_.g1;
          job.g2 = hit_.g2;
        }
      }
      return req;
    }
    AlignRequest& a = req.align;
    a.assign = "JV";
    a.deadline_ms = options_.deadline_ms;
    if (kind == "hit") {
      a.algo = "NSD";
      a.g1 = hit_.g1;
      a.g2 = hit_.g2;
    } else if (kind == "miss") {
      a.algo = "NSD";
      WireGraph g2;
      // A unique pair per request: the daemon has never seen it, so this
      // is always a cold fork. Generation failure is practically
      // impossible for ER at these sizes, but fall back to the hit pair
      // rather than crashing the harness mid-run.
      auto g1 = MakeWirePair(options_.nodes, rng->Next(), &g2);
      if (g1.ok()) {
        a.g1 = *std::move(g1);
        a.g2 = std::move(g2);
      } else {
        a.g1 = hit_.g1;
        a.g2 = hit_.g2;
      }
    } else if (kind == "degraded") {
      a.algo = "GRASP";
      a.g1 = degraded_.g1;
      a.g2 = degraded_.g2;
    } else {  // poison
      a.algo = "_CRASH";
      const Pair& p = poison_[rng->UniformInt(
          static_cast<uint64_t>(kPoisonPool))];
      a.g1 = p.g1;
      a.g2 = p.g2;
    }
    return req;
  }

  // Serializes a built GAF1 request into the gateway's JSON schema, so a
  // traffic kind exercises the daemon identically over both transports.
  static void ToHttp(const Request& req, std::string* target,
                     std::string* body) {
    JsonValue v = JsonValue::Object();
    v.Set("client", JsonValue::Str(req.client));
    if (req.type == RequestType::kAlignBatch) {
      *target = "/v1/align:batch";
      JsonValue graphs = JsonValue::Array();
      for (const BatchGraphRef& ref : req.align_batch.graphs) {
        graphs.Push(WireGraphJson(ref.inline_graph));
      }
      v.Set("graphs", std::move(graphs));
      JsonValue jobs = JsonValue::Array();
      for (const BatchJob& job : req.align_batch.jobs) {
        JsonValue j = JsonValue::Object();
        j.Set("g1", JsonValue::Number(static_cast<double>(job.g1)));
        j.Set("g2", JsonValue::Number(static_cast<double>(job.g2)));
        j.Set("algo", JsonValue::Str(job.algo));
        j.Set("assign", JsonValue::Str(job.assign));
        j.Set("deadline_ms",
              JsonValue::Number(static_cast<double>(job.deadline_ms)));
        jobs.Push(std::move(j));
      }
      v.Set("jobs", std::move(jobs));
    } else if (req.type == RequestType::kSubmitJob) {
      *target = "/v1/jobs";
      const AlignRequest& job = req.submit_job.align;
      v.Set("algo", JsonValue::Str(job.algo));
      v.Set("assign", JsonValue::Str(job.assign));
      v.Set("deadline_ms",
            JsonValue::Number(static_cast<double>(job.deadline_ms)));
      v.Set("g1", WireGraphJson(job.g1));
      v.Set("g2", WireGraphJson(job.g2));
    } else {
      *target = "/v1/align";
      v.Set("algo", JsonValue::Str(req.align.algo));
      v.Set("assign", JsonValue::Str(req.align.assign));
      v.Set("deadline_ms",
            JsonValue::Number(static_cast<double>(req.align.deadline_ms)));
      v.Set("g1", WireGraphJson(req.align.g1));
      v.Set("g2", WireGraphJson(req.align.g2));
    }
    *body = v.Dump();
  }

  void ClientLoop(int client_index) {
    // Deterministic per-thread stream: same seed + same mix => same
    // request sequence, independent of scheduling.
    Rng rng(options_.seed + 0x9e3779b97f4a7c15ull *
                                static_cast<uint64_t>(client_index + 1));
    ClientOptions conn;
    conn.socket_path = options_.socket_path;
    conn.port = options_.port;
    conn.timeout_seconds = options_.timeout_seconds;
    // Mixed-transport runs flip a per-request coin; HTTP-only runs (no
    // GAF1 endpoint at all) send everything through the gateway.
    const bool has_gaf1 = !options_.socket_path.empty() || options_.port >= 0;
    std::map<std::string, KindStats> local;
    for (int i = 0; i < options_.requests; ++i) {
      const std::string kind = PickKind(&rng);
      const bool use_http =
          options_.http_port >= 0 && (!has_gaf1 || rng.UniformInt(2) == 0);
      const Request req = BuildRequest(kind, client_index, &rng);
      KindStats& ks = local[use_http ? kind + "@http" : kind];
      ++ks.sent;
      WallTimer timer;
      if (use_http) {
        std::string target, body, status;
        bool cache_hit = false;
        ToHttp(req, &target, &body);
        const bool transported =
            HttpCall(options_.http_port, "POST", target, body,
                     options_.timeout_seconds, &status, &cache_hit);
        ks.latencies_ms.push_back(timer.Seconds() * 1e3);
        if (!transported) {
          ++ks.transport_errors;
          continue;
        }
        ++ks.by_code[status];
        if (cache_hit) ++ks.cache_hits;
        continue;
      }
      auto client = Client::Connect(conn);
      Result<Response> resp =
          client.ok() ? client->Call(req) : Result<Response>(client.status());
      ks.latencies_ms.push_back(timer.Seconds() * 1e3);
      if (!resp.ok()) {
        ++ks.transport_errors;
        continue;
      }
      ++ks.by_code[ResponseCodeName(resp->code)];
      if (resp->cache_hit) ++ks.cache_hits;
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [kind, ks] : local) {
      KindStats& merged = stats_[kind];
      merged.sent += ks.sent;
      merged.transport_errors += ks.transport_errors;
      merged.cache_hits += ks.cache_hits;
      for (const auto& [code, n] : ks.by_code) merged.by_code[code] += n;
      merged.latencies_ms.insert(merged.latencies_ms.end(),
                                 ks.latencies_ms.begin(),
                                 ks.latencies_ms.end());
    }
  }

  int Report(double wall_seconds) {
    Table table({"kind", "sent", "ok", "cache_hits", "typed_errors",
                 "transport", "p50_ms", "p90_ms", "p99_ms", "p999_ms"});
    uint64_t total_sent = 0, total_transport = 0;
    std::map<std::string, uint64_t> histogram;
    std::vector<double> all_latencies;
    for (auto& [kind, ks] : stats_) {
      std::sort(ks.latencies_ms.begin(), ks.latencies_ms.end());
      all_latencies.insert(all_latencies.end(), ks.latencies_ms.begin(),
                           ks.latencies_ms.end());
      uint64_t ok = 0, typed_errors = 0;
      for (const auto& [code, n] : ks.by_code) {
        histogram[code] += n;
        if (code == "OK") {
          ok += n;
        } else {
          typed_errors += n;
        }
      }
      total_sent += ks.sent;
      total_transport += ks.transport_errors;
      table.AddRow({kind, std::to_string(ks.sent), std::to_string(ok),
                    std::to_string(ks.cache_hits),
                    std::to_string(typed_errors),
                    std::to_string(ks.transport_errors),
                    Table::Num(Percentile(&ks.latencies_ms, 0.50), 2),
                    Table::Num(Percentile(&ks.latencies_ms, 0.90), 2),
                    Table::Num(Percentile(&ks.latencies_ms, 0.99), 2),
                    Table::Num(Percentile(&ks.latencies_ms, 0.999), 2)});
    }
    std::sort(all_latencies.begin(), all_latencies.end());
    const double throughput =
        wall_seconds > 0.0 ? static_cast<double>(total_sent) / wall_seconds
                           : 0.0;
    table.Print(std::cout);
    std::printf("\ntyped responses:");
    for (const auto& [code, n] : histogram) {
      std::printf(" %s=%llu", code.c_str(),
                  static_cast<unsigned long long>(n));
    }
    std::printf(" TRANSPORT=%llu\n",
                static_cast<unsigned long long>(total_transport));
    std::printf(
        "%llu requests, %d clients, %.2fs wall, %.1f req/s, "
        "p50=%.2fms p99=%.2fms p999=%.2fms\n",
        static_cast<unsigned long long>(total_sent), options_.clients,
        wall_seconds, throughput, Percentile(&all_latencies, 0.50),
        Percentile(&all_latencies, 0.99), Percentile(&all_latencies, 0.999));

    if (!options_.json_path.empty()) {
      std::vector<std::pair<std::string, std::string>> meta = {
          {"bench", options_.http_port >= 0 ? "gateway" : "loadgen"},
          {"http_port_used", options_.http_port >= 0 ? "1" : "0"},
          {"clients", std::to_string(options_.clients)},
          {"requests_per_client", std::to_string(options_.requests)},
          {"seed", std::to_string(options_.seed)},
          {"nodes", std::to_string(options_.nodes)},
          {"deadline_ms", std::to_string(options_.deadline_ms)},
          {"wall_seconds", Table::Num(wall_seconds, 3)},
          {"throughput_rps", Table::Num(throughput, 1)},
          {"transport_errors", std::to_string(total_transport)},
      };
      for (const auto& [code, n] : histogram) {
        meta.emplace_back("responses_" + code, std::to_string(n));
      }
      if (!table.WriteJson(options_.json_path, meta)) {
        std::fprintf(stderr, "loadgen: cannot write %s\n",
                     options_.json_path.c_str());
        return 1;
      }
      std::printf("wrote %s\n", options_.json_path.c_str());
    }
    // Typed overload answers are the daemon doing its job; only transport
    // failures mean clients were actually dropped.
    return total_transport == 0 ? 0 : 1;
  }

  const LoadgenOptions options_;
  Pair hit_, degraded_;
  Pair poison_[kPoisonPool];
  int total_weight_ = 0;
  std::mutex mu_;
  std::map<std::string, KindStats> stats_;
};

int Main(int argc, char** argv) {
  LoadgenOptions options;
  FlagReader flags(argc, argv, 1);
  options.socket_path = flags.String("socket");
  options.port = flags.Int("port", options.port, 1, kMaxPort);
  options.http_port = flags.Int("http-port", options.http_port, 1, kMaxPort);
  // One thread per client, capped like every other thread count.
  options.clients = flags.Int("clients", options.clients, 1, kMaxThreads);
  options.requests = flags.Int("requests", options.requests, 1, kMaxInt);
  const bool has_mix = flags.Has("mix");
  const std::string mix = flags.String("mix");
  options.seed = flags.Uint64("seed", options.seed);
  options.deadline_ms = flags.Uint64("deadline-ms", options.deadline_ms);
  options.nodes = flags.Int("nodes", options.nodes, 8, kMaxInt);
  // 0 leaves the client sockets blocking.
  options.timeout_seconds =
      flags.Double("timeout", options.timeout_seconds, 0.0, kMaxDouble);
  options.json_path = flags.String("json");
  auto usage = [&](const std::string& why) {
    std::fprintf(stderr, "loadgen: %s\n", why.c_str());
    return Usage(argv[0]);
  };
  if (!flags.ok()) return usage(flags.status().message());
  if (const std::vector<std::string> unknown = flags.Unread();
      !unknown.empty()) {
    return usage("unknown flag '" + unknown.front() + "'");
  }
  if (has_mix && !ParseMix(mix, &options.mix)) {
    return usage("bad --mix '" + mix + "'");
  }
  if (options.socket_path.empty() && options.port < 0 &&
      options.http_port < 0) {
    return usage("--socket, --port, or --http-port is required");
  }
  Loadgen loadgen(options);
  return loadgen.Run();
}

}  // namespace
}  // namespace graphalign

int main(int argc, char** argv) { return graphalign::Main(argc, argv); }

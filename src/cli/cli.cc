#include "cli/cli.h"

#include <pthread.h>
#include <signal.h>
#include <stdlib.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "align/aligner.h"
#include "common/exit_codes.h"
#include "datasets/datasets.h"
#include "common/failpoint.h"
#include "common/flags.h"
#include "common/outcome.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/retry.h"
#include "common/socket.h"
#include "common/status.h"
#include "common/subprocess.h"
#include "common/table.h"
#include "common/timer.h"
#include "gateway/gateway.h"
#include "gateway/json.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "jobs/manager.h"
#include "metrics/metrics.h"
#include "noise/noise.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "store/graph_store.h"
#include "store/gst.h"

namespace graphalign {

namespace {

// The seed generate, perturb and store import use without --seed.
constexpr uint64_t kDefaultSeed = 2023;

Status WriteMapping(const Alignment& alignment, const std::string& path) {
  std::ofstream f(path);
  if (!f) return Status::Internal("cannot write " + path);
  for (size_t u = 0; u < alignment.size(); ++u) {
    if (alignment[u] >= 0) f << u << " " << alignment[u] << "\n";
  }
  return f ? Status::Ok() : Status::Internal("write failed: " + path);
}

Result<Alignment> ReadMapping(const std::string& path, int n1) {
  std::ifstream f(path);
  if (!f) return Status::NotFound("cannot open " + path);
  Alignment alignment(n1, -1);
  std::string line;
  int line_no = 0;
  while (std::getline(f, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    int u, v;
    if (!(ss >> u >> v)) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": malformed mapping line");
    }
    if (u < 0 || u >= n1) {
      return Status::OutOfRange(path + ": source node out of range");
    }
    alignment[u] = v;
  }
  return alignment;
}

int Fail(std::ostream& err, const Status& status) {
  err << "error: " << status.ToString() << "\n";
  return kExitError;
}

// Reports a failed run on stderr, "error: why" or "<VERDICT>: why", and
// returns its exit code.
int Report(std::ostream& err, const Outcome& verdict) {
  err << (verdict.code == kExitError ? "error" : ExitCodeName(verdict.code))
      << ": " << verdict.message << "\n";
  return verdict.code;
}

// --out FILE: writes the mapping when a path was given and says where.
int WriteOutMapping(const Alignment& alignment, const std::string& path,
                    std::ostream& out, std::ostream& err) {
  if (path.empty()) return kExitOk;
  Status s = WriteMapping(alignment, path);
  if (!s.ok()) return Fail(err, s);
  out << "mapping written to " << path << "\n";
  return kExitOk;
}

// --threads N: per-invocation override of GRAPHALIGN_THREADS. Must run
// before the first ParallelFor of the process — the pool latches its size on
// first use — which holds for every CLI path (commands parse flags before
// computing). A bad value leaves the environment alone and is reported by
// the caller's status check.
void ApplyThreadsFlag(FlagReader& flags) {
  const int threads = flags.Int("threads", 0, 1, kMaxThreads);
  if (threads > 0) {
    setenv("GRAPHALIGN_THREADS", std::to_string(threads).c_str(), 1);
  }
}

int CmdGenerate(FlagReader& flags, std::ostream& out, std::ostream& err) {
  const std::string model = flags.String("model");
  const int n = flags.Int("n", 0, 1, kMaxInt);
  const std::string path = flags.String("out");
  const uint64_t seed = flags.Uint64("seed", kDefaultSeed);
  const double p = flags.Double("p", model == "er" ? 0.01 : 0.5, 0.0, 1.0);
  const int m = flags.Int("m", 3, 1, kMaxInt);
  const int k = flags.Int("k", model == "ws" ? 10 : 6, 0, kMaxInt);
  const double radius = flags.Double("radius", 0.05, 0.0, kMaxDouble);
  if (!flags.ok()) return Fail(err, flags.status());
  if (model.empty() || n <= 0 || path.empty()) {
    return Fail(err, Status::InvalidArgument(
                         "generate requires --model, --n and --out"));
  }
  Rng rng(seed);
  Result<Graph> g = Status::InvalidArgument("unknown model: " + model);
  if (model == "er") {
    g = ErdosRenyi(n, p, &rng);
  } else if (model == "ba") {
    g = BarabasiAlbert(n, m, &rng);
  } else if (model == "ws") {
    g = WattsStrogatz(n, k, p, &rng);
  } else if (model == "nw") {
    g = NewmanWatts(n, k, p, &rng);
  } else if (model == "pl") {
    g = PowerlawCluster(n, m, p, &rng);
  } else if (model == "geometric") {
    g = RandomGeometric(n, radius, &rng);
  }
  if (!g.ok()) return Fail(err, g.status());
  Status s = WriteEdgeList(*g, path);
  if (!s.ok()) return Fail(err, s);
  out << "generated " << model << " graph: n=" << g->num_nodes()
      << " m=" << g->num_edges() << " -> " << path << "\n";
  return 0;
}

int CmdPerturb(FlagReader& flags, std::ostream& out, std::ostream& err) {
  const std::string in = flags.String("in");
  const std::string out_path = flags.String("out");
  const std::string type = flags.String("noise", "one-way");
  const std::string truth_path = flags.String("truth");
  NoiseOptions noise;
  noise.level = flags.Double("level", 0.05, 0.0, 1.0);
  noise.permute = !flags.Has("no-permute");
  const uint64_t seed = flags.Uint64("seed", kDefaultSeed);
  if (!flags.ok()) return Fail(err, flags.status());
  if (in.empty() || out_path.empty()) {
    return Fail(err,
                Status::InvalidArgument("perturb requires --in and --out"));
  }
  auto g = ReadEdgeList(in);
  if (!g.ok()) return Fail(err, g.status());
  if (type == "one-way") {
    noise.type = NoiseType::kOneWay;
  } else if (type == "multi-modal") {
    noise.type = NoiseType::kMultiModal;
  } else if (type == "two-way") {
    noise.type = NoiseType::kTwoWay;
  } else {
    return Fail(err, Status::InvalidArgument("unknown noise type: " + type));
  }
  Rng rng(seed);
  auto problem = MakeAlignmentProblem(*g, noise, &rng);
  if (!problem.ok()) return Fail(err, problem.status());
  // Two-way noise also changes g1; warn when we silently keep the original.
  if (noise.type == NoiseType::kTwoWay) {
    err << "note: two-way noise perturbs the source too; writing only the "
           "target (use the library API for full control)\n";
  }
  Status s = WriteEdgeList(problem->g2, out_path);
  if (!s.ok()) return Fail(err, s);
  if (!truth_path.empty()) {
    GA_CHECK(problem->ground_truth.size() ==
             static_cast<size_t>(g->num_nodes()));
    Status ts = WriteMapping(problem->ground_truth, truth_path);
    if (!ts.ok()) return Fail(err, ts);
  }
  out << "perturbed (" << type << ", level=" << noise.level
      << "): m=" << g->num_edges() << " -> " << problem->g2.num_edges()
      << ", wrote " << out_path << "\n";
  return 0;
}

// `align`'s flags, read once by CmdAlign before any fork.
struct AlignArgs {
  std::string g1, g2, algo, assign, out;
  double time_limit = 0.0;  // Seconds; 0 = no limit.
  bool sparse = false;
  LshOptions lsh;           // --lsh-bands / --lsh-rows, read with --sparse.
};

int CmdAlignInner(const AlignArgs& args, std::ostream& out,
                  std::ostream& err) {
  const std::string& algo = args.algo;
  if (args.g1.empty() || args.g2.empty() || algo.empty()) {
    return Fail(err, Status::InvalidArgument(
                         "align requires --g1, --g2 and --algo"));
  }
  auto g1 = ReadEdgeList(args.g1);
  if (!g1.ok()) return Fail(err, g1.status());
  auto g2 = ReadEdgeList(args.g2);
  if (!g2.ok()) return Fail(err, g2.status());
  auto aligner = MakeAligner(algo);
  if (!aligner.ok()) return Fail(err, aligner.status());

  // --time-limit T: cooperative budget in seconds over the whole alignment
  // (similarity + assignment). The run aborts with DNF soon after expiry.
  Deadline deadline;  // Infinite unless --time-limit is given.
  if (args.time_limit > 0.0) deadline = Deadline::AfterSeconds(args.time_limit);

  auto plan = AlignPlanFromAssign(args.assign);
  if (!plan.ok()) return Fail(err, plan.status());
  if (args.sparse) {
    plan->path = AlignPath::kSparse;
    plan->lsh = args.lsh;
  }
  WallTimer timer;
  // The dense path degrades gracefully on recoverable numerical failures
  // (sanitized matrix, degree-profile fallback, greedy assignment) instead
  // of erroring out; a degraded result is reported as such below.
  auto report = (*aligner)->Run(*g1, *g2, *plan, deadline);
  if (!report.ok()) {
    Outcome verdict = ClassifyStatus(report.status());
    if (verdict.code == kExitDnf) {
      verdict.message = algo + " exceeded the time limit after " +
                        Table::Num(timer.Seconds(), 2) + "s";
    }
    return Report(err, verdict);
  }
  const Alignment& alignment = report->alignment;
  const double secs = timer.Seconds();
  int matched = 0;
  for (int v : alignment) matched += (v >= 0);
  out << algo << "/" << (args.sparse ? "sparse" : args.assign) << " aligned "
      << matched << "/" << g1->num_nodes() << " nodes in "
      << Table::Num(secs, 2) << "s";
  if (args.sparse) {
    out << " (candidates=" << report->lsh.candidates << ", "
        << SparseSimilarityModeName(report->sparse_mode) << ")";
  }
  if (report->degraded) out << " [degraded: " << report->degrade_reason << "]";
  out << "\n";
  if (int rc = WriteOutMapping(alignment, args.out, out, err)) return rc;
  // Structural quality is computable without ground truth.
  out << "MNC=" << Table::Num(MeanMatchedNeighborhoodConsistency(
                     *g1, *g2, alignment))
      << " EC=" << Table::Num(EdgeCorrectness(*g1, *g2, alignment))
      << " S3=" << Table::Num(SymmetricSubstructureScore(*g1, *g2, alignment))
      << "\n";
  return 0;
}

// `align` front door: --isolate / --mem-limit MB run the alignment in a
// forked child under rlimit caps, so a crashing or memory-hungry aligner
// yields a distinct exit code (4 = crash, 5 = OOM, 3 = DNF) instead of
// taking the CLI down with it.
int CmdAlign(FlagReader& flags, std::ostream& out, std::ostream& err) {
  ApplyThreadsFlag(flags);
  AlignArgs args;
  args.g1 = flags.String("g1");
  args.g2 = flags.String("g2");
  args.algo = flags.String("algo");
  args.assign = flags.String("assign", "JV");
  args.out = flags.String("out");
  args.time_limit =
      flags.Double("time-limit", 0.0, kPositive, kMaxDouble, "seconds");
  // --sparse: LSH candidate generation + candidate-only scoring + sparse
  // LAP. Never builds the n1 x n2 matrix for native-capable algorithms
  // (LREA, REGAL, NSD); the output says which path actually ran.
  args.sparse = flags.Has("sparse");
  LshOptions& lsh = args.lsh;
  if (args.sparse) {
    lsh.bands = flags.Int("lsh-bands", lsh.bands, 1, kMaxInt);
    lsh.rows_per_band = flags.Int("lsh-rows", lsh.rows_per_band, 1, kMaxInt);
  }
  const bool isolate = flags.Has("isolate") || flags.Has("mem-limit");
  const double mem_limit_mb =
      flags.Double("mem-limit", 0.0, kPositive, kMaxDouble, "megabytes");
  if (!flags.ok()) return Fail(err, flags.status());
  if (!isolate) return CmdAlignInner(args, out, err);

  SubprocessOptions options;
  options.mem_limit_bytes =
      static_cast<int64_t>(mem_limit_mb * 1024.0 * 1024.0);
  // The cooperative deadline inside the child remains the primary limit;
  // the hard kill is a backstop for non-cooperative hangs.
  options.wall_limit_seconds = BackstopSeconds(args.time_limit);
  auto result = RunIsolated(
      [&](int) {
        const int rc = CmdAlignInner(args, out, err);
        out.flush();
        err.flush();
        return rc;
      },
      options);
  if (!result.ok()) return Fail(err, result.status());
  const Outcome verdict = ClassifyRun(*result);
  // A child that exited has already reported why; a killed one could not.
  if (result->status == RunStatus::kExit) return verdict.code;
  return verdict.ok() ? kExitOk : Report(err, verdict);
}

int CmdEvaluate(FlagReader& flags, std::ostream& out, std::ostream& err) {
  const std::string g1_path = flags.String("g1");
  const std::string g2_path = flags.String("g2");
  const std::string mapping_path = flags.String("mapping");
  const std::string truth_path = flags.String("truth");
  if (!flags.ok()) return Fail(err, flags.status());
  if (g1_path.empty() || g2_path.empty() || mapping_path.empty()) {
    return Fail(err, Status::InvalidArgument(
                         "evaluate requires --g1, --g2 and --mapping"));
  }
  auto g1 = ReadEdgeList(g1_path);
  if (!g1.ok()) return Fail(err, g1.status());
  auto g2 = ReadEdgeList(g2_path);
  if (!g2.ok()) return Fail(err, g2.status());
  auto mapping = ReadMapping(mapping_path, g1->num_nodes());
  if (!mapping.ok()) return Fail(err, mapping.status());
  out << "MNC=" << Table::Num(MeanMatchedNeighborhoodConsistency(*g1, *g2,
                                                                 *mapping))
      << " EC=" << Table::Num(EdgeCorrectness(*g1, *g2, *mapping))
      << " ICS=" << Table::Num(InducedConservedStructure(*g1, *g2, *mapping))
      << " S3=" << Table::Num(SymmetricSubstructureScore(*g1, *g2, *mapping));
  if (!truth_path.empty()) {
    auto truth = ReadMapping(truth_path, g1->num_nodes());
    if (!truth.ok()) return Fail(err, truth.status());
    out << " accuracy=" << Table::Num(Accuracy(*mapping, *truth));
  }
  out << "\n";
  return 0;
}

int CmdStats(FlagReader& flags, std::ostream& out, std::ostream& err) {
  const std::string in = flags.String("in");
  if (!flags.ok()) return Fail(err, flags.status());
  if (in.empty()) {
    return Fail(err, Status::InvalidArgument("stats requires --in"));
  }
  LoadStats load_stats;
  auto g = ReadEdgeList(in, /*num_nodes=*/0, &load_stats);
  if (!g.ok()) return Fail(err, g.status());
  int components = 0;
  g->ConnectedComponents(&components);
  int64_t triangles = 0;
  for (int64_t t : g->TriangleCounts()) triangles += t;
  char hash[24];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(g->ContentHash()));
  out << "n=" << g->num_nodes() << " m=" << g->num_edges()
      << " avg_degree=" << Table::Num(g->AverageDegree(), 2)
      << " max_degree=" << g->MaxDegree() << " components=" << components
      << " outside_lcc=" << g->NodesOutsideLargestComponent()
      << " triangles=" << triangles / 3
      << " self_loops_dropped=" << load_stats.self_loops_dropped
      << " hash=" << hash << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// serve / submit: the alignment service daemon and its client.

int CmdServe(FlagReader& flags, std::ostream& out, std::ostream& err) {
  ApplyThreadsFlag(flags);
  ServerOptions options;
  options.socket_path = flags.String("socket");
  // Port 0 asks the kernel for a free port.
  options.port = flags.Int("port", options.port, 0, kMaxPort);
  options.workers = flags.Int("workers", options.workers, 1, kMaxInt);
  options.queue_capacity =
      flags.Int("queue", options.queue_capacity, 1, kMaxInt);
  options.cache_mb =
      flags.Double("cache-mb", options.cache_mb, kPositive, kMaxDouble);
  options.io_timeout_seconds = flags.Double(
      "io-timeout", options.io_timeout_seconds, kPositive, kMaxDouble);
  options.cache_dir = flags.String("cache-dir");
  options.store_dir = flags.String("store-dir");
  options.quota_rps =
      flags.Double("quota", options.quota_rps, kPositive, kMaxDouble);
  options.shed = flags.Has("shed");
  // "--quarantine 0" / "--grace 0" disable those guards.
  options.quarantine_threshold =
      flags.Int("quarantine", options.quarantine_threshold, 0, kMaxInt);
  options.watchdog_grace_seconds =
      flags.Double("grace", options.watchdog_grace_seconds, 0.0, kMaxDouble);
  // --jobs-dir DIR enables the durable async job queue (DESIGN.md §17);
  // without it kSubmitJob is refused and the daemon is synchronous-only.
  options.jobs_dir = flags.String("jobs-dir");
  options.job_attempts =
      flags.Int("job-attempts", options.job_attempts, 1, kMaxInt);
  options.job_ttl_seconds =
      flags.Double("job-ttl", options.job_ttl_seconds, kPositive, kMaxDouble);
  options.job_workers =
      flags.Int("job-workers", options.job_workers, 1, kMaxInt);
  // --http-port N: also serve the HTTP/JSON gateway (DESIGN.md §16) on
  // 127.0.0.1:N (0 = kernel-assigned). The gateway forwards every HTTP
  // request as a GAF1 call against this daemon, so quotas/shed/quarantine
  // apply to HTTP traffic unchanged.
  const int http_port = flags.Int("http-port", -1, 0, kMaxPort);
  if (!flags.ok()) return Fail(err, flags.status());

  // Block SIGINT/SIGTERM before spawning server threads (they inherit the
  // mask), then consume them on a dedicated sigwait thread. Signal-driven
  // shutdown thus runs in normal thread context, free of
  // async-signal-safety constraints. SIGTERM drains gracefully (finish
  // in-flight requests, answer queued clients with SHUTTING_DOWN); SIGINT
  // or a second signal escalates to a hard Shutdown.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  auto server = Server::Create(options);
  if (!server.ok()) return Fail(err, server.status());
  Status started = (*server)->Start();
  if (!started.ok()) return Fail(err, started);

  // The gateway threads inherit the blocked signal mask: operator signals
  // keep flowing to the sigwaiter below, which shuts both layers down.
  std::unique_ptr<Gateway> gateway;
  if (http_port >= 0) {
    GatewayOptions gw;
    gw.http_port = http_port;
    if (!options.socket_path.empty()) {
      gw.backend.socket_path = options.socket_path;
    } else {
      gw.backend.port = (*server)->port();
    }
    auto created = Gateway::Create(gw);
    Status gw_started =
        created.ok() ? (*created)->Start() : created.status();
    if (!gw_started.ok()) {
      (*server)->Shutdown();
      (*server)->Wait();
      return Fail(err, gw_started);
    }
    gateway = std::move(*created);
  }

  std::atomic<bool> server_done{false};
  std::thread sigwaiter([&sigs, &server, &server_done, &err] {
    bool drained = false;
    for (;;) {
      int sig = 0;
      sigwait(&sigs, &sig);
      // Wait() already returned in the main thread: this is its nudge to
      // exit, not an operator signal.
      if (server_done.load(std::memory_order_acquire)) return;
      if (sig == SIGTERM && !drained) {
        drained = true;
        err << "SIGTERM: draining (send again to force shutdown)\n";
        err.flush();
        (*server)->Drain();
        continue;  // A second signal escalates.
      }
      (*server)->Shutdown();
      return;
    }
  });

  if (!options.socket_path.empty()) {
    out << "graphalign daemon serving on unix socket " << options.socket_path;
  } else {
    out << "graphalign daemon serving on 127.0.0.1:" << (*server)->port();
  }
  out << " (workers=" << options.workers << ", cache="
      << Table::Num(options.cache_mb, 0) << "MB)\n";
  if (gateway != nullptr) {
    out << "graphalign gateway serving on 127.0.0.1:" << gateway->port()
        << "\n";
  }
  out.flush();

  (*server)->Wait();
  if (gateway != nullptr) {
    gateway->Shutdown();
    gateway->Wait();
  }
  // Wake the sigwaiter if it is still blocked (shutdown via a kShutdown
  // request, or a drain that completed); sigwait consumes the nudge.
  server_done.store(true, std::memory_order_release);
  pthread_kill(sigwaiter.native_handle(), SIGTERM);
  sigwaiter.join();
  const ResultCache::Stats stats = (*server)->cache_stats();
  out << "daemon stopped (cache: " << stats.hits << " hits, " << stats.misses
      << " misses, " << stats.entries << " entries)\n";
  return kExitOk;
}

Result<WireGraph> LoadWireGraph(const std::string& path) {
  GA_ASSIGN_OR_RETURN(Graph g, ReadEdgeList(path));
  return ToWire(g);
}

int PrintAlignResponse(const Response& response, const AlignRequest& request,
                       int n1, const std::string& out_path, std::ostream& out,
                       std::ostream& err) {
  auto result = DecodeAlignResult(response.body);
  if (!result.ok()) return Fail(err, result.status());
  int matched = 0;
  for (int32_t v : result->mapping) matched += (v >= 0);
  // By-hash submissions never load g1 locally; the mapping length is n1.
  if (n1 == 0) n1 = static_cast<int>(result->mapping.size());
  out << request.algo << "/" << request.assign << " aligned " << matched
      << "/" << n1 << " nodes in " << Table::Num(result->align_seconds, 2)
      << "s (server)";
  if (result->degraded) out << " [degraded: " << result->degrade_reason << "]";
  out << "\n";
  out << "MNC=" << Table::Num(result->mnc) << " EC=" << Table::Num(result->ec)
      << " S3=" << Table::Num(result->s3) << "\n";
  return WriteOutMapping(result->mapping, out_path, out, err);
}

// Prints the outcome of a job-surface call (kSubmitJob/kJobStatus/
// kJobResult/kCancelJob) and exits with the response code, so scripts can
// branch on 13 (accepted/pending), 14 (no such job), 15 (conflict) without
// parsing. A finished kJobResult carries the align result — byte-identical
// to what the synchronous path would have returned — and honors --out.
int PrintJobResponse(const Request& request, const Response& response,
                     const std::string& out_path, std::ostream& out,
                     std::ostream& err) {
  if (request.type == RequestType::kJobResult &&
      response.code == ResponseCode::kOk) {
    auto result = DecodeAlignResult(response.body);
    if (!result.ok()) return Fail(err, result.status());
    int matched = 0;
    for (int32_t v : result->mapping) matched += (v >= 0);
    out << "job result: matched=" << matched << "/" << result->mapping.size()
        << " MNC=" << Table::Num(result->mnc)
        << " EC=" << Table::Num(result->ec)
        << " S3=" << Table::Num(result->s3)
        << " align_s=" << Table::Num(result->align_seconds, 2) << "\n";
    return WriteOutMapping(result->mapping, out_path, out, err);
  }
  // Everything else answers with a job envelope when one exists.
  auto info = DecodeJobInfo(response.body);
  if (info.ok()) {
    out << "job=" << GraphStore::HashName(info->job_id)
        << " state=" << info->state_name << " attempts=" << info->attempts
        << "/" << info->max_attempts;
    if (info->existing) out << " (existing)";
    if (JobStateTerminal(static_cast<JobState>(info->state))) {
      out << " terminal=" << ResponseCodeName(
                                 static_cast<ResponseCode>(info->terminal_code));
    }
    if (!info->message.empty()) out << " message=" << info->message;
    out << "\n";
  }
  if (response.code != ResponseCode::kOk &&
      response.code != ResponseCode::kAccepted) {
    err << ResponseCodeName(response.code) << ": " << response.message << "\n";
  }
  return static_cast<int>(response.code);
}

// --socket PATH | [--host H] --port N, and --timeout T: how submit and
// jobs reach the daemon.
ClientOptions ReadConnection(FlagReader& flags) {
  ClientOptions conn;
  conn.socket_path = flags.String("socket");
  conn.host = flags.String("host", conn.host);
  conn.port = flags.Int("port", conn.port, 1, kMaxPort);
  conn.timeout_seconds =
      flags.Double("timeout", conn.timeout_seconds, kPositive, kMaxDouble);
  return conn;
}

int CmdSubmit(FlagReader& flags, std::ostream& out, std::ostream& err,
              bool force_async = false) {
  const ClientOptions conn = ReadConnection(flags);
  // --retries N: retry transient failures (connect errors, BUSY, SHED,
  // SHUTTING_DOWN) up to N extra attempts with jittered exponential
  // backoff. 0 (the default) keeps the single-shot behavior. QUARANTINED
  // is permanent and is never retried.
  RetryPolicy retry_policy;
  retry_policy.max_attempts = 1 + flags.Int("retries", 0, 0, kMaxRetries);
  // Align limits; 0 = none.
  const double time_limit =
      flags.Double("time-limit", 0.0, kPositive, kMaxDouble, "seconds");
  const double mem_limit_mb =
      flags.Double("mem-limit", 0.0, kPositive, kMaxDouble, "megabytes");
  const std::string g1_path = flags.String("g1");
  const std::string g2_path = flags.String("g2");
  const std::string g1_hash = flags.String("g1-hash");
  const std::string g2_hash = flags.String("g2-hash");
  const std::string mapping_path = flags.String("mapping");
  const std::string truth_path = flags.String("truth");
  const std::string put_graph_path = flags.String("put-graph");
  const std::string has_graph = flags.String("has-graph");
  const std::string batch_path = flags.String("batch");
  const std::string idem_key = flags.String("idem-key");
  const std::string out_path = flags.String("out");
  const std::string algo = flags.String("algo");
  const std::string assign = flags.String("assign", "JV");
  // Bare --stats asks for the daemon's serving counters, --stats FILE for
  // one graph's.
  const bool server_stats = flags.Has("stats") && !flags.HasValue("stats");
  const std::string stats_path = server_stats ? "" : flags.String("stats");
  Request request;
  request.client = flags.String("client");
  if (!flags.ok()) return Fail(err, flags.status());

  // Build the request: --ping / --shutdown / --cache-info / --stats
  // [FILE], evaluate when --mapping is present, align when --algo is
  // present. --client NAME tags the request for per-client quotas.
  if (request.client.size() > kMaxNameLen) {
    return Fail(err, Status::InvalidArgument(
                         "--client must be at most " +
                         std::to_string(kMaxNameLen) + " bytes"));
  }
  int align_n1 = 0;
  if (flags.Has("ping")) {
    request.type = RequestType::kPing;
  } else if (flags.Has("shutdown")) {
    request.type = RequestType::kShutdown;
  } else if (flags.Has("cache-info")) {
    request.type = RequestType::kCacheInfo;
  } else if (flags.Has("stats")) {
    if (server_stats) {
      // The daemon's own serving counters (admission, quarantine, watchdog,
      // durable cache), not graph stats.
      request.type = RequestType::kServerStats;
    } else {
      request.type = RequestType::kStats;
      auto g = LoadWireGraph(stats_path);
      if (!g.ok()) return Fail(err, g.status());
      request.stats.g = std::move(*g);
    }
  } else if (flags.Has("mapping")) {
    request.type = RequestType::kEvaluate;
    if (g1_path.empty() || g2_path.empty()) {
      return Fail(err, Status::InvalidArgument(
                           "submit evaluate requires --g1, --g2, --mapping"));
    }
    auto g1 = ReadEdgeList(g1_path);
    if (!g1.ok()) return Fail(err, g1.status());
    auto g2 = ReadEdgeList(g2_path);
    if (!g2.ok()) return Fail(err, g2.status());
    auto mapping = ReadMapping(mapping_path, g1->num_nodes());
    if (!mapping.ok()) return Fail(err, mapping.status());
    request.evaluate.g1 = ToWire(*g1);
    request.evaluate.g2 = ToWire(*g2);
    request.evaluate.mapping.assign(mapping->begin(), mapping->end());
    if (!truth_path.empty()) {
      auto truth = ReadMapping(truth_path, g1->num_nodes());
      if (!truth.ok()) return Fail(err, truth.status());
      request.evaluate.truth.assign(truth->begin(), truth->end());
    }
  } else if (flags.Has("put-graph")) {
    request.type = RequestType::kPutGraph;
    auto g = LoadWireGraph(put_graph_path);
    if (!g.ok()) return Fail(err, g.status());
    request.put_graph.g = std::move(*g);
  } else if (flags.Has("has-graph")) {
    request.type = RequestType::kHasGraph;
    auto hash = GraphStore::ParseHashName(has_graph);
    if (!hash.ok()) return Fail(err, hash.status());
    request.has_graph.hash = *hash;
  } else if (flags.Has("batch")) {
    // submit --batch jobs.json: one kAlignBatch frame carrying K jobs over
    // a shared graph table. The JSON schema is the HTTP gateway's
    // (README), plus a CLI-only {"file": PATH} graph form expanded to an
    // inline graph here, client-side.
    std::ifstream batch_in(batch_path);
    if (!batch_in) {
      return Fail(err,
                  Status::NotFound("cannot open batch file: " + batch_path));
    }
    std::ostringstream batch_text;
    batch_text << batch_in.rdbuf();
    auto parsed = ParseJson(batch_text.str());
    if (!parsed.ok()) return Fail(err, parsed.status());
    JsonValue doc = *parsed;
    if (doc.is_object() && doc.Get("graphs").is_array()) {
      JsonValue graphs = JsonValue::Array();
      for (const JsonValue& g : doc.Get("graphs").AsArray()) {
        if (!g.is_object() || !g.Has("file")) {
          graphs.Push(g);
          continue;
        }
        if (!g.Get("file").is_string()) {
          return Fail(err, Status::InvalidArgument(
                               "batch graph \"file\" must be a path string"));
        }
        auto wire = LoadWireGraph(g.Get("file").AsString());
        if (!wire.ok()) return Fail(err, wire.status());
        JsonValue inline_g = JsonValue::Object();
        inline_g.Set("n", JsonValue::Number(wire->num_nodes));
        JsonValue edges = JsonValue::Array();
        for (const Edge& e : wire->edges) {
          JsonValue pair = JsonValue::Array();
          pair.Push(JsonValue::Number(e.u));
          pair.Push(JsonValue::Number(e.v));
          edges.Push(std::move(pair));
        }
        inline_g.Set("edges", std::move(edges));
        graphs.Push(std::move(inline_g));
      }
      doc.Set("graphs", std::move(graphs));
    }
    const std::string client_flag = request.client;
    Status built = BatchRequestFromJson(doc, &request);
    if (!built.ok()) return Fail(err, built);
    if (!client_flag.empty()) request.client = client_flag;  // --client wins.
  } else if (flags.Has("algo")) {
    request.type = RequestType::kAlign;
    AlignRequest& a = request.align;
    a.algo = algo;
    a.assign = assign;
    a.no_cache = flags.Has("no-cache");
    if (flags.Has("g1-hash") || flags.Has("g2-hash")) {
      // Submit-by-hash: name both graphs by content hash; the daemon maps
      // them from its store. Mixing a hash with an inline file is rejected
      // (the wire format forbids the ambiguity too).
      if (!g1_path.empty() || !g2_path.empty()) {
        return Fail(err, Status::InvalidArgument(
                             "submit align takes either --g1/--g2 files or "
                             "--g1-hash/--g2-hash, not a mix"));
      }
      auto h1 = GraphStore::ParseHashName(g1_hash);
      if (!h1.ok()) return Fail(err, h1.status());
      auto h2 = GraphStore::ParseHashName(g2_hash);
      if (!h2.ok()) return Fail(err, h2.status());
      a.by_hash = true;
      a.g1_hash = *h1;
      a.g2_hash = *h2;
    } else {
      if (g1_path.empty() || g2_path.empty()) {
        return Fail(err, Status::InvalidArgument(
                             "submit align requires --g1, --g2 and --algo"));
      }
      auto g1 = LoadWireGraph(g1_path);
      if (!g1.ok()) return Fail(err, g1.status());
      auto g2 = LoadWireGraph(g2_path);
      if (!g2.ok()) return Fail(err, g2.status());
      align_n1 = g1->num_nodes;
      a.g1 = std::move(*g1);
      a.g2 = std::move(*g2);
    }
    a.deadline_ms = static_cast<uint64_t>(time_limit * 1000.0);
    a.mem_limit_mb = static_cast<uint64_t>(mem_limit_mb);
  } else {
    return Fail(err, Status::InvalidArgument(
                         "submit requires an action: --ping, --shutdown, "
                         "--cache-info, --stats FILE, --put-graph FILE, "
                         "--has-graph HASH, align flags (--g1 --g2 or "
                         "--g1-hash --g2-hash, with --algo), or evaluate "
                         "flags (--g1 --g2 --mapping)"));
  }

  // --async (or `graphalign jobs submit`): enqueue the align as a durable
  // job instead of blocking on it. --idem-key KEY makes resubmission after
  // a client crash return the original job instead of executing twice.
  if (flags.Has("async") || force_async) {
    if (request.type != RequestType::kAlign) {
      return Fail(err, Status::InvalidArgument(
                           "--async applies to align submissions only"));
    }
    if (idem_key.size() > kMaxNameLen) {
      return Fail(err, Status::InvalidArgument(
                           "--idem-key must be at most " +
                           std::to_string(kMaxNameLen) + " bytes"));
    }
    request.type = RequestType::kSubmitJob;
    request.submit_job.align = std::move(request.align);
    request.align = AlignRequest{};
    request.submit_job.idem_key = idem_key;
  }

  auto response = CallWithRetry(conn, request, retry_policy);
  if (!response.ok()) return Fail(err, response.status());

  // Machine-greppable outcome line first; details follow.
  out << "status=" << ResponseCodeName(response->code)
      << " cache=" << (response->cache_hit ? "hit" : "miss")
      << " elapsed_us=" << response->elapsed_us << "\n";
  if (request.type == RequestType::kSubmitJob ||
      request.type == RequestType::kJobStatus ||
      request.type == RequestType::kJobResult ||
      request.type == RequestType::kCancelJob) {
    return PrintJobResponse(request, *response, out_path, out, err);
  }
  if (request.type == RequestType::kAlignBatch) {
    // Batches carry per-job detail even on PARTIAL or a uniform failure
    // code; only an admission-level rejection (BUSY/SHUTTING_DOWN before
    // execution) arrives without a decodable body.
    auto batch = DecodeAlignBatchResult(response->body);
    if (!batch.ok()) {
      if (response->code != ResponseCode::kOk) {
        err << ResponseCodeName(response->code) << ": " << response->message
            << "\n";
        return static_cast<int>(response->code);
      }
      return Fail(err, batch.status());
    }
    size_t ok_jobs = 0;
    for (const BatchJobOutcome& j : batch->jobs) {
      ok_jobs += (j.code == ResponseCode::kOk);
    }
    out << "batch: jobs=" << batch->jobs.size() << " ok=" << ok_jobs
        << " failed=" << (batch->jobs.size() - ok_jobs)
        << " graph_loads=" << batch->graph_loads << "\n";
    for (size_t i = 0; i < batch->jobs.size(); ++i) {
      const BatchJobOutcome& j = batch->jobs[i];
      out << "job " << i << ": status=" << ResponseCodeName(j.code)
          << " cache=" << (j.cache_hit ? "hit" : "miss");
      if (j.code == ResponseCode::kOk) {
        auto r = DecodeAlignResult(j.body);
        if (r.ok()) {
          out << " MNC=" << Table::Num(r->mnc) << " EC=" << Table::Num(r->ec)
              << " S3=" << Table::Num(r->s3)
              << " align_s=" << Table::Num(r->align_seconds, 2);
        }
      } else if (!j.message.empty()) {
        out << " error=" << j.message;
      }
      out << "\n";
    }
    if (response->code != ResponseCode::kOk) {
      err << ResponseCodeName(response->code) << ": " << response->message
          << "\n";
    }
    return static_cast<int>(response->code);
  }
  if (response->code != ResponseCode::kOk) {
    err << ResponseCodeName(response->code) << ": " << response->message
        << "\n";
    return static_cast<int>(response->code);
  }
  switch (request.type) {
    case RequestType::kPing:
    case RequestType::kShutdown:
      out << response->message << "\n";
      return kExitOk;
    case RequestType::kCacheInfo: {
      auto info = DecodeCacheInfoResult(response->body);
      if (!info.ok()) return Fail(err, info.status());
      out << "cache: hits=" << info->hits << " misses=" << info->misses
          << " evictions=" << info->evictions << " entries=" << info->entries
          << " bytes=" << info->bytes << "/" << info->capacity_bytes << "\n";
      return kExitOk;
    }
    case RequestType::kServerStats: {
      auto stats = DecodeServerStatsResult(response->body);
      if (!stats.ok()) return Fail(err, stats.status());
      out << "server: workers=" << stats->workers
          << " uptime_s=" << Table::Num(stats->uptime_seconds, 1)
          << " accepted=" << stats->accepted << " served=" << stats->served
          << " queue_depth=" << stats->queue_depth
          << " in_flight=" << stats->in_flight << "\n";
      out << "admission: busy=" << stats->busy_rejected
          << " quota=" << stats->quota_rejected << " shed=" << stats->shed
          << "\n";
      out << "quarantine: responses=" << stats->quarantined
          << " signatures=" << stats->quarantined_signatures
          << " watchdog_kills=" << stats->watchdog_kills << "\n";
      out << "cache_log: replayed=" << stats->cache_replayed
          << " crc_skipped=" << stats->cache_crc_skipped
          << " truncated_bytes=" << stats->cache_truncated_bytes
          << " append_errors=" << stats->cache_append_errors
          << " open_errors=" << stats->cache_open_errors << "\n";
      out << "graph_store: puts=" << stats->store_puts
          << " gets=" << stats->store_gets
          << " corrupt=" << stats->store_corrupt
          << " missing=" << stats->store_missing
          << " unavailable=" << stats->store_unavailable << "\n";
      out << "jobs: submitted=" << stats->jobs_submitted
          << " deduped=" << stats->jobs_deduped
          << " done=" << stats->jobs_done
          << " failed=" << stats->jobs_failed
          << " cancelled=" << stats->jobs_cancelled
          << " executions=" << stats->jobs_executions
          << " recovered=" << stats->jobs_recovered
          << " pending=" << stats->jobs_pending << "\n";
      out << "worker_restarts:";
      for (uint64_t r : stats->worker_restarts) out << " " << r;
      out << "\n";
      return kExitOk;
    }
    case RequestType::kStats: {
      auto stats = DecodeStatsResult(response->body);
      if (!stats.ok()) return Fail(err, stats.status());
      char hash[24];
      std::snprintf(hash, sizeof(hash), "%016llx",
                    static_cast<unsigned long long>(stats->content_hash));
      out << "n=" << stats->num_nodes << " m=" << stats->num_edges
          << " avg_degree=" << Table::Num(stats->avg_degree, 2)
          << " max_degree=" << stats->max_degree
          << " components=" << stats->components << " hash=" << hash << "\n";
      return kExitOk;
    }
    case RequestType::kEvaluate: {
      auto result = DecodeEvaluateResult(response->body);
      if (!result.ok()) return Fail(err, result.status());
      out << "MNC=" << Table::Num(result->mnc)
          << " EC=" << Table::Num(result->ec)
          << " ICS=" << Table::Num(result->ics)
          << " S3=" << Table::Num(result->s3);
      if (result->has_accuracy) {
        out << " accuracy=" << Table::Num(result->accuracy);
      }
      out << "\n";
      return kExitOk;
    }
    case RequestType::kPutGraph: {
      auto result = DecodePutGraphResult(response->body);
      if (!result.ok()) return Fail(err, result.status());
      out << "stored hash=" << GraphStore::HashName(result->content_hash)
          << (result->already_present ? " (already present)" : "") << "\n";
      return kExitOk;
    }
    case RequestType::kHasGraph: {
      auto result = DecodeHasGraphResult(response->body);
      if (!result.ok()) return Fail(err, result.status());
      out << "present=" << (result->present ? 1 : 0) << "\n";
      // Absent is exit 11 so scripts can branch on it without parsing.
      return result->present ? kExitOk : kExitNoGraph;
    }
    case RequestType::kAlign:
      return PrintAlignResponse(*response, request.align, align_n1, out_path,
                                out, err);
    case RequestType::kAlignBatch:
    case RequestType::kSubmitJob:
    case RequestType::kJobStatus:
    case RequestType::kJobResult:
    case RequestType::kCancelJob:
      return kExitError;  // Unreachable: handled above.
  }
  return kExitError;
}

// Lists every fault-injection site compiled into this binary, one per line
// (the machine-readable counterpart of DESIGN.md §12). tools/run_chaos.sh
// iterates this output to arm each site in turn via GRAPHALIGN_FAILPOINTS.
int CmdFailpoints(FlagReader& flags, std::ostream& out, std::ostream& err) {
  if (flags.Has("armed")) {
    for (const std::string& spec : ArmedFailpoints()) out << spec << "\n";
    return kExitOk;
  }
  (void)err;
  for (const std::string& name : KnownFailpoints()) out << name << "\n";
  return kExitOk;
}

// ---------------------------------------------------------------------------
// store: offline management of the content-addressed graph repository.

int CmdStoreImport(GraphStore& store, FlagReader& flags, std::ostream& out,
                   std::ostream& err) {
  const std::string in = flags.String("in");
  const std::string dataset = flags.String("dataset");
  const uint64_t seed = flags.Uint64("seed", kDefaultSeed);
  const double scale = flags.Double("scale", 1.0, kPositive, 1.0);
  if (!flags.ok()) return Fail(err, flags.status());
  Result<Graph> g = Status::InvalidArgument(
      "store import requires --in FILE or --dataset NAME");
  if (flags.Has("in")) {
    g = ReadEdgeList(in);
  } else if (flags.Has("dataset")) {
    g = MakeStandIn(dataset, seed, scale);
  }
  if (!g.ok()) return Fail(err, g.status());
  bool already = false;
  auto hash = store.Put(*g, &already);
  if (!hash.ok()) return Fail(err, hash.status());
  out << "imported n=" << g->num_nodes() << " m=" << g->num_edges()
      << " hash=" << GraphStore::HashName(*hash)
      << (already ? " (already present)" : "") << "\n";
  return kExitOk;
}

int CmdStoreLs(GraphStore& store, std::ostream& out, std::ostream& err) {
  auto entries = store.List();
  if (!entries.ok()) return Fail(err, entries.status());
  for (const GraphStore::Entry& e : *entries) {
    out << GraphStore::HashName(e.hash) << " " << e.file_bytes << " bytes"
        << (e.corrupt ? " CORRUPT" : "") << "\n";
  }
  out << entries->size() << " entries\n";
  return kExitOk;
}

int CmdStoreVerify(GraphStore& store, std::ostream& out, std::ostream& err) {
  auto report = store.Fsck();
  if (!report.ok()) return Fail(err, report.status());
  out << "checked=" << report->checked << " ok=" << report->ok
      << " corrupt=" << report->corrupt << "\n";
  for (const std::string& path : report->quarantined) {
    out << "quarantined: " << path << "\n";
  }
  return report->corrupt == 0 ? kExitOk : kExitError;
}

int CmdStoreGc(GraphStore& store, std::ostream& out, std::ostream& err) {
  auto report = store.Gc();
  if (!report.ok()) return Fail(err, report.status());
  out << "removed=" << report->removed
      << " bytes_freed=" << report->bytes_freed << "\n";
  return kExitOk;
}

// `store bench --in a.el[,b.el...]`: imports each edge list, then times
// text parse-load against GST1 mmap-open (full CRC + structural
// verification included — the honest cost of the store path). Best-of-reps
// per graph; --json writes the BENCH-convention report.
int CmdStoreBench(GraphStore& store, FlagReader& flags, std::ostream& out,
                  std::ostream& err) {
  const std::string in = flags.String("in");
  const int reps = flags.Int("reps", 5, 1, kMaxInt);
  const std::string json_path = flags.String("json");
  if (!flags.ok()) return Fail(err, flags.status());
  if (in.empty()) {
    return Fail(err,
                Status::InvalidArgument("store bench requires --in FILE[,..]"));
  }
  std::vector<std::string> paths;
  for (size_t pos = 0; pos < in.size();) {
    const size_t comma = in.find(',', pos);
    const size_t end = comma == std::string::npos ? in.size() : comma;
    if (end > pos) paths.push_back(in.substr(pos, end - pos));
    pos = end + 1;
  }
  std::ostringstream rows;
  for (size_t i = 0; i < paths.size(); ++i) {
    auto g = ReadEdgeList(paths[i]);
    if (!g.ok()) return Fail(err, g.status());
    auto hash = store.Put(*g);
    if (!hash.ok()) return Fail(err, hash.status());
    const std::string gst_path =
        store.dir() + "/" + GraphStore::HashName(*hash) + ".gst";
    double parse_s = 0.0, mmap_s = 0.0;
    for (int r = 0; r < reps; ++r) {
      WallTimer t;
      auto reread = ReadEdgeList(paths[i]);
      if (!reread.ok()) return Fail(err, reread.status());
      const double s = t.Seconds();
      if (r == 0 || s < parse_s) parse_s = s;
    }
    for (int r = 0; r < reps; ++r) {
      WallTimer t;
      auto mapped = OpenGstFile(gst_path);
      if (!mapped.ok()) return Fail(err, mapped.status());
      const double s = t.Seconds();
      if (r == 0 || s < mmap_s) mmap_s = s;
    }
    const double speedup = mmap_s > 0.0 ? parse_s / mmap_s : 0.0;
    out << paths[i] << ": n=" << g->num_nodes() << " m=" << g->num_edges()
        << " parse_ms=" << Table::Num(parse_s * 1000.0, 3)
        << " mmap_ms=" << Table::Num(mmap_s * 1000.0, 3)
        << " speedup=" << Table::Num(speedup, 1) << "x\n";
    if (i > 0) rows << ",\n";
    rows << "    {\"graph\": \"" << JsonEscape(paths[i])
         << "\", \"n\": " << g->num_nodes()
         << ", \"m\": " << g->num_edges()
         << ", \"parse_ms\": " << Table::Num(parse_s * 1000.0, 3)
         << ", \"mmap_ms\": " << Table::Num(mmap_s * 1000.0, 3)
         << ", \"speedup\": " << Table::Num(speedup, 1) << "}";
  }
  if (!json_path.empty()) {
    std::ofstream f(json_path);
    if (!f) {
      return Fail(err, Status::Internal("cannot write " + json_path));
    }
    f << "{\n  \"meta\": {\"bench\": \"store\", \"reps\": " << reps
      << "},\n  \"rows\": [\n" << rows.str() << "\n  ]\n}\n";
    if (!f.flush()) {
      return Fail(err, Status::Internal("write failed: " + json_path));
    }
    out << "wrote " << json_path << "\n";
  }
  return kExitOk;
}

int CmdStore(const std::string& action, FlagReader& flags, std::ostream& out,
             std::ostream& err) {
  if (action.empty()) {
    err << "usage: graphalign store <import|ls|verify|gc|bench> --dir DIR "
           "[--flags]\n";
    return kExitUsage;
  }
  const std::string dir = flags.String("dir");
  if (!flags.ok()) return Fail(err, flags.status());
  if (dir.empty()) {
    return Fail(err, Status::InvalidArgument("store " + action +
                                             " requires --dir DIR"));
  }
  auto store = GraphStore::Open(dir);
  if (!store.ok()) return Fail(err, store.status());
  if (action == "import") return CmdStoreImport(**store, flags, out, err);
  if (action == "ls") return CmdStoreLs(**store, out, err);
  if (action == "verify" || action == "fsck") {
    return CmdStoreVerify(**store, out, err);
  }
  if (action == "gc") return CmdStoreGc(**store, out, err);
  if (action == "bench") return CmdStoreBench(**store, flags, out, err);
  err << "unknown store action: " << action
      << " (want import|ls|verify|gc|bench)\n";
  return kExitUsage;
}

// ---------------------------------------------------------------------------
// jobs: the durable async job queue (DESIGN.md §17). submit/status/result/
// cancel talk to a live daemon; ls/gc open the journal directly (the
// CmdStore model) and must not race a daemon on the same --dir.

int CmdJobsLs(FlagReader& flags, std::ostream& out, std::ostream& err) {
  JobManagerOptions options;
  options.dir = flags.String("dir");
  // Opening replays the journal, which also journals crash recovery for
  // any RUNNING jobs it finds — correct offline (a RUNNING job with no
  // daemon attached IS a crashed attempt), wrong against a live daemon.
  auto manager = JobManager::Open(options, UnixMs());
  if (!manager.ok()) return Fail(err, manager.status());
  const std::vector<JobRecord> jobs = (*manager)->List();
  for (const JobRecord& r : jobs) {
    out << GraphStore::HashName(r.job_id) << " " << JobStateName(r.state)
        << " attempts=" << r.attempts << "/" << r.max_attempts
        << " updated_ms=" << r.updated_unix_ms;
    if (!r.idem_key.empty()) out << " key=" << r.idem_key;
    if (!r.message.empty()) out << " message=" << r.message;
    out << "\n";
  }
  out << jobs.size() << " jobs\n";
  return kExitOk;
}

int CmdJobsGc(FlagReader& flags, std::ostream& out, std::ostream& err) {
  JobManagerOptions options;
  options.dir = flags.String("dir");
  options.ttl_seconds =
      flags.Double("ttl", options.ttl_seconds, kPositive, kMaxDouble);
  if (!flags.ok()) return Fail(err, flags.status());
  auto manager = JobManager::Open(options, UnixMs());
  if (!manager.ok()) return Fail(err, manager.status());
  Status gc = (*manager)->Gc(UnixMs());
  if (!gc.ok()) return Fail(err, gc);
  const JobManagerStats stats = (*manager)->Stats();
  out << "gced=" << stats.gced << " journal_bytes=" << stats.journal_bytes
      << "\n";
  return kExitOk;
}

int CmdJobs(const std::string& action, FlagReader& flags, std::ostream& out,
            std::ostream& err) {
  if (action.empty()) {
    err << "usage: graphalign jobs <submit|status|result|cancel|ls|gc> "
           "[--flags]\n";
    return kExitUsage;
  }
  if (!flags.ok()) return Fail(err, flags.status());
  // `jobs submit` is `submit --async` under its canonical name.
  if (action == "submit") return CmdSubmit(flags, out, err, true);
  if (action == "ls" || action == "gc") {
    if (flags.String("dir").empty()) {
      return Fail(err, Status::InvalidArgument("jobs " + action +
                                               " requires --dir DIR"));
    }
    return action == "ls" ? CmdJobsLs(flags, out, err)
                          : CmdJobsGc(flags, out, err);
  }
  if (action != "status" && action != "result" && action != "cancel") {
    err << "unknown jobs action: " << action
        << " (want submit|status|result|cancel|ls|gc)\n";
    return kExitUsage;
  }
  const ClientOptions conn = ReadConnection(flags);
  const std::string id_text = flags.String("id");
  const std::string out_path = flags.String("out");
  Request request;
  request.client = flags.String("client");
  if (!flags.ok()) return Fail(err, flags.status());
  auto id = GraphStore::ParseHashName(id_text);
  if (!id.ok()) {
    return Fail(err, Status::InvalidArgument(
                         "jobs " + action +
                         " requires --id JOBID (16 hex digits, as printed "
                         "by submit --async)"));
  }
  request.type = action == "status"   ? RequestType::kJobStatus
                 : action == "result" ? RequestType::kJobResult
                                      : RequestType::kCancelJob;
  request.job_id.job_id = *id;
  auto response = CallWithRetry(conn, request, {});
  if (!response.ok()) return Fail(err, response.status());
  out << "status=" << ResponseCodeName(response->code)
      << " elapsed_us=" << response->elapsed_us << "\n";
  return PrintJobResponse(request, *response, out_path, out, err);
}

constexpr char kUsage[] =
    "usage: graphalign "
    "<generate|perturb|align|evaluate|stats|serve|submit|jobs|store|"
    "failpoints> [--flags]\n"
    "  generate --model {er,ba,ws,nw,pl,geometric} --n N [--p P] [--m M]\n"
    "           [--k K] [--radius R] [--seed S] --out FILE\n"
    "  perturb  --in FILE [--noise {one-way,multi-modal,two-way}]\n"
    "           [--level L] [--seed S] [--no-permute] --out FILE\n"
    "           [--truth FILE]\n"
    "  align    --g1 FILE --g2 FILE --algo NAME\n"
    "           [--assign {NN,SG,MWM,JV,native}] [--time-limit T] [--out FILE]\n"
    "           [--isolate] [--mem-limit MB] [--threads N]\n"
    "           [--sparse [--lsh-bands N] [--lsh-rows R]]\n"
    "  evaluate --g1 FILE --g2 FILE --mapping FILE [--truth FILE]\n"
    "  stats    --in FILE\n"
    "  serve    --socket PATH | --port N [--workers K] [--cache-mb M]\n"
    "           [--queue Q] [--io-timeout T] [--threads N]\n"
    "           [--cache-dir DIR] [--quota RPS] [--shed] [--quarantine N]\n"
    "           [--grace T] [--store-dir DIR]\n"
    "           [--http-port N]  (also serve the HTTP/JSON gateway; see\n"
    "           README \"HTTP API\". 0 = kernel-assigned)\n"
    "           [--jobs-dir DIR] [--job-attempts N] [--job-ttl T]\n"
    "           [--job-workers K]  (durable async jobs; see README "
    "\"Async jobs\")\n"
    "  submit   --socket PATH | [--host H] --port N [--timeout T]\n"
    "           [--retries N] [--client NAME]\n"
    "           with --ping | --shutdown | --cache-info | --stats [FILE]\n"
    "           (bare --stats prints the daemon's serving counters)\n"
    "           | --put-graph FILE | --has-graph HASH\n"
    "           | --g1 FILE --g2 FILE --algo NAME [--assign M]\n"
    "             [--time-limit T] [--mem-limit MB] [--no-cache] [--out FILE]\n"
    "             [--async [--idem-key KEY]]  (enqueue as a durable job;\n"
    "             prints the job id, exit 13)\n"
    "           | --g1-hash HASH --g2-hash HASH --algo NAME [...]\n"
    "           | --g1 FILE --g2 FILE --mapping FILE [--truth FILE]\n"
    "           | --batch JOBS.json  (K align jobs over a shared graph\n"
    "             table, one frame; graphs: {\"hash\"}|{\"file\"}|\n"
    "             {\"n\",\"edges\"}; exit 12 = mixed per-job outcomes)\n"
    "  jobs     <submit|status|result|cancel> --socket PATH | --port N\n"
    "           submit: align flags as `submit --async` [--idem-key KEY]\n"
    "           status|result|cancel: --id JOBID [--out FILE (result)]\n"
    "           <ls|gc> --dir DIR [--ttl T (gc)]  (offline journal access;\n"
    "           do not run against a live daemon's --jobs-dir)\n"
    "  store    <import|ls|verify|gc|bench> --dir DIR\n"
    "           import: --in FILE | --dataset NAME [--scale S] [--seed S]\n"
    "           bench:  --in FILE[,FILE...] [--reps N] [--json FILE]\n"
    "  failpoints [--armed]   list fault-injection sites (or the armed set)\n"
    "algorithms: IsoRank GRAAL NSD LREA REGAL GWL S-GWL CONE GRASP\n"
    "exit codes (align/submit): 0 ok, 1 error, 2 usage, 3 DNF, 4 crash,\n"
    "  5 OOM, 6 server busy, 7 numerical failure, 8 server shutting down,\n"
    "  9 shed (queue wait ate the deadline; transient, retried by\n"
    "  --retries), 10 quarantined (signature kept crashing; permanent),\n"
    "  11 no graph (submit-by-hash named a hash the store does not hold;\n"
    "  re-upload with --put-graph), 12 partial (a batch finished with\n"
    "  mixed per-job outcomes; inspect the per-job codes), 13 accepted\n"
    "  (async job enqueued or still running; poll jobs status), 14 no job\n"
    "  (unknown or GC-expired job id), 15 conflict (idem-key bound to\n"
    "  different content, or cancelling a finished job)\n"
    "fault injection: GRAPHALIGN_FAILPOINTS=\"site=mode[:arg],...\" with\n"
    "  modes error|once|prob:P|nan|delay-ms:N|crash|oom (see DESIGN.md §12)\n";

}  // namespace

int RunCli(int argc, const char* const* argv, std::ostream& out,
           std::ostream& err) {
  if (argc < 2) {
    err << kUsage;
    return kExitUsage;
  }
  const std::string cmd = argv[1];
  // `store` and `jobs` take a positional action word before their flags.
  const bool has_action = cmd == "store" || cmd == "jobs";
  const std::string action = has_action && argc > 2 ? argv[2] : "";
  FlagReader flags(argc, argv, has_action ? 3 : 2);
  if (cmd == "store") return CmdStore(action, flags, out, err);
  if (cmd == "jobs") return CmdJobs(action, flags, out, err);
  if (!flags.ok()) return Fail(err, flags.status());
  if (cmd == "generate") return CmdGenerate(flags, out, err);
  if (cmd == "perturb") return CmdPerturb(flags, out, err);
  if (cmd == "align") return CmdAlign(flags, out, err);
  if (cmd == "evaluate") return CmdEvaluate(flags, out, err);
  if (cmd == "stats") return CmdStats(flags, out, err);
  if (cmd == "serve") return CmdServe(flags, out, err);
  if (cmd == "submit") return CmdSubmit(flags, out, err);
  if (cmd == "failpoints") return CmdFailpoints(flags, out, err);
  err << "unknown command: " << cmd << "\n" << kUsage;
  return kExitUsage;
}

}  // namespace graphalign

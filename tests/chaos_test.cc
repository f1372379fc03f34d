// Chaos suite (DESIGN.md §12): arms each failpoint site and asserts the
// system's claimed recovery path actually engages — graceful numerical
// degradation in the aligners, retry/backoff in the bench harness, typed
// containment for crash/OOM faults, and typed responses (never a hang or a
// dead daemon) from the alignment service. Registered under the `chaos`
// ctest label alongside tools/run_chaos.sh, which drives the same sites
// through the CLI via GRAPHALIGN_FAILPOINTS.

#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "align/aligner.h"
#include "assignment/sparse_lap.h"
#include "bench_framework/experiment.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "common/retry.h"
#include "common/status.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "noise/noise.h"
#include "server/cache_store.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace graphalign {
namespace {

// Shared scaffolding: every test disarms all faults on exit so failures in
// one test cannot cascade into the next.
class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { DeactivateAllFailpoints(); }

  static Graph SmallGraph(uint64_t seed) {
    Rng rng(seed);
    auto g = ErdosRenyi(30, 0.2, &rng);
    GA_CHECK(g.ok());
    return *std::move(g);
  }

  static AlignmentProblem SmallProblem(uint64_t seed) {
    Graph base = SmallGraph(seed);
    NoiseOptions noise;
    noise.level = 0.05;
    Rng rng(seed + 1);
    auto problem = MakeAlignmentProblem(base, noise, &rng);
    GA_CHECK(problem.ok());
    return *std::move(problem);
  }
};

// ---------------------------------------------------------------------------
// Aligner-level degradation: injected numerical faults complete degraded,
// never crash and never silently pretend full quality.

TEST_F(ChaosTest, SimilarityErrorDegradesEveryAligner) {
  const Graph g1 = SmallGraph(11);
  const Graph g2 = SmallGraph(12);
  ASSERT_TRUE(ActivateFailpoint("align.similarity.error", "error").ok());
  for (const char* name : {"IsoRank", "NSD", "LREA", "GRASP"}) {
    auto aligner = MakeAligner(name);
    ASSERT_TRUE(aligner.ok()) << name;
    auto robust = (*aligner)->AlignRobust(g1, g2,
                                          AssignmentMethod::kJonkerVolgenant);
    ASSERT_TRUE(robust.ok()) << name << ": " << robust.status().ToString();
    EXPECT_TRUE(robust->degraded) << name;
    EXPECT_NE(robust->degrade_reason.find("degree-profile fallback"),
              std::string::npos)
        << name << ": " << robust->degrade_reason;
    EXPECT_EQ(robust->alignment.size(), static_cast<size_t>(g1.num_nodes()))
        << name;
  }
}

TEST_F(ChaosTest, NanPoisonIsSanitizedAndMarked) {
  const Graph g1 = SmallGraph(21);
  const Graph g2 = SmallGraph(22);
  ASSERT_TRUE(ActivateFailpoint("align.similarity.nan", "nan").ok());
  auto aligner = MakeAligner("NSD");
  ASSERT_TRUE(aligner.ok());
  auto sim = (*aligner)->ComputeSimilarityRobust(g1, g2);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_TRUE(sim->degraded);
  EXPECT_NE(sim->degrade_reason.find("non-finite"), std::string::npos)
      << sim->degrade_reason;
  // The sanitized matrix must be fully finite.
  for (int i = 0; i < sim->similarity.rows(); ++i) {
    for (int j = 0; j < sim->similarity.cols(); ++j) {
      ASSERT_TRUE(std::isfinite(sim->similarity(i, j)));
    }
  }
}

TEST_F(ChaosTest, EigenNoConvergeDegradesSpectralAligner) {
  // GRASP sits on the symmetric eigensolver; its injected non-convergence
  // must surface as a degraded result, not an error.
  const Graph g1 = SmallGraph(31);
  const Graph g2 = SmallGraph(32);
  ASSERT_TRUE(ActivateFailpoint("linalg.eigen.no-converge", "error").ok());
  auto aligner = MakeAligner("GRASP");
  ASSERT_TRUE(aligner.ok());
  auto robust = (*aligner)->AlignRobust(g1, g2,
                                        AssignmentMethod::kJonkerVolgenant);
  ASSERT_TRUE(robust.ok()) << robust.status().ToString();
  EXPECT_TRUE(robust->degraded);
  EXPECT_NE(robust->degrade_reason.find("did not converge"),
            std::string::npos)
      << robust->degrade_reason;
}

TEST_F(ChaosTest, DelayModeSlowsButDoesNotDegrade) {
  const Graph g1 = SmallGraph(41);
  const Graph g2 = SmallGraph(42);
  ASSERT_TRUE(ActivateFailpoint("align.similarity.error", "delay-ms:20").ok());
  auto aligner = MakeAligner("NSD");
  ASSERT_TRUE(aligner.ok());
  auto robust = (*aligner)->AlignRobust(g1, g2,
                                        AssignmentMethod::kSortGreedy);
  ASSERT_TRUE(robust.ok()) << robust.status().ToString();
  EXPECT_FALSE(robust->degraded);
}

TEST_F(ChaosTest, ExtractionFaultFallsBackToGreedyOnce) {
  const Graph g1 = SmallGraph(51);
  const Graph g2 = SmallGraph(52);
  auto aligner = MakeAligner("NSD");
  ASSERT_TRUE(aligner.ok());

  // `once`: the JV attempt fails, the greedy retry finds the site spent.
  ASSERT_TRUE(ActivateFailpoint("assignment.extract.error", "once").ok());
  auto robust = (*aligner)->AlignRobust(g1, g2,
                                        AssignmentMethod::kJonkerVolgenant);
  ASSERT_TRUE(robust.ok()) << robust.status().ToString();
  EXPECT_TRUE(robust->degraded);
  EXPECT_NE(robust->degrade_reason.find("greedy-assignment fallback"),
            std::string::npos)
      << robust->degrade_reason;

  // Persistent fault: the greedy retry fails too and the typed kNumerical
  // error propagates — degradation is best-effort, not error swallowing.
  ASSERT_TRUE(ActivateFailpoint("assignment.extract.error", "error").ok());
  robust = (*aligner)->AlignRobust(g1, g2,
                                   AssignmentMethod::kJonkerVolgenant);
  ASSERT_FALSE(robust.ok());
  EXPECT_EQ(robust.status().code(), StatusCode::kNumerical);
}

TEST_F(ChaosTest, GraphIoFaultIsTypedError) {
  ASSERT_TRUE(ActivateFailpoint("graph.io.read.error", "error").ok());
  auto g = ReadEdgeList("/tmp/ga_chaos_does_not_matter.txt");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInternal);
  EXPECT_NE(g.status().message().find("read failed"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sparse pipeline sites (DESIGN.md §13): candidate generation faults are
// typed errors, and injected per-pop delays inside the sparse LAP solver are
// cut off by the in-loop deadline poll instead of stretching the run
// unboundedly.

TEST_F(ChaosTest, SparseCandidateFaultIsTypedError) {
  const AlignmentProblem problem = SmallProblem(91);
  ASSERT_TRUE(
      ActivateFailpoint("align.sparse.candidates.error", "error").ok());
  auto aligner = MakeAligner("NSD");
  ASSERT_TRUE(aligner.ok());
  auto sparse =
      (*aligner)->ComputeSparseSimilarity(problem.g1, problem.g2);
  ASSERT_FALSE(sparse.ok());
  EXPECT_EQ(sparse.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(sparse.status().message().find("LSH candidate generation failed"),
            std::string::npos)
      << sparse.status().ToString();
  // AlignSparse propagates the same typed error end to end.
  auto aligned = (*aligner)->AlignSparse(problem.g1, problem.g2);
  ASSERT_FALSE(aligned.ok());
  EXPECT_EQ(aligned.status().code(), StatusCode::kUnavailable);
}

TEST_F(ChaosTest, SparseLapPopFaultIsTypedError) {
  ASSERT_TRUE(ActivateFailpoint("assignment.sparse_lap.pop", "error").ok());
  auto a = SparseLapAssign(3, 3, {{0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}});
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(a.status().message().find("injected solver fault"),
            std::string::npos)
      << a.status().ToString();
}

TEST_F(ChaosTest, SparseLapDelayIsBoundedByInLoopDeadlinePoll) {
  // Per-pop injected delays model a pathologically slow solver. The deadline
  // is polled every ~4096 pops, so a 1 ms/pop crawl on a problem needing
  // tens of thousands of pops must DNF within one polling stride (a few
  // seconds) instead of sleeping through the whole Dijkstra run.
  // Triangular instance: row i reaches cols 0..i, and its only free column
  // (col i) carries the worst similarity, so every augmentation explores the
  // whole occupied prefix before finding it — O(n^2) pops in total.
  const int n = 250;
  std::vector<SparseCandidate> cands;
  cands.reserve(static_cast<size_t>(n) * (n + 1) / 2);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < i; ++j) cands.push_back({i, j, 1.0});
    cands.push_back({i, i, 0.0});
  }
  ASSERT_TRUE(
      ActivateFailpoint("assignment.sparse_lap.pop", "delay-ms:1").ok());
  const auto start = std::chrono::steady_clock::now();
  auto a = SparseLapAssign(n, n, cands, Deadline::AfterSeconds(0.25));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kDeadlineExceeded);
  // One stride past the 0.25 s budget at ~1 ms/pop is ~4 s; far under the
  // ~20+ s a full undeadlined run of this instance would sleep through.
  EXPECT_LT(elapsed, 15.0);
}

// ---------------------------------------------------------------------------
// Bench harness: transient cell faults are retried before the journal ever
// records them; persistent faults stay typed table entries.

RunOutcome CompletedOutcome() {
  RunOutcome out;
  out.completed = true;
  out.completed_runs = 1;
  return out;
}

TEST_F(ChaosTest, FlakyCellIsRetriedToSuccess) {
  ASSERT_TRUE(ActivateFailpoint("bench.cell.flaky", "once").ok());
  BenchArgs args;
  args.retries = 1;
  int body_runs = 0;
  RunOutcome out = RunContained(args, [&body_runs] {
    ++body_runs;
    return CompletedOutcome();
  });
  EXPECT_TRUE(out.completed) << out.error;
  EXPECT_EQ(body_runs, 1);  // The flaky fault preempts the first attempt.
}

TEST_F(ChaosTest, FlakyCellWithoutRetriesRecordsTypedFault) {
  ASSERT_TRUE(ActivateFailpoint("bench.cell.flaky", "once").ok());
  BenchArgs args;
  args.retries = 0;
  RunOutcome out = RunContained(args, [] { return CompletedOutcome(); });
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.error.rfind("CRASH", 0), 0u) << out.error;
  EXPECT_EQ(FormatOutcome(out, 0.0), "CRASH");
}

TEST_F(ChaosTest, ForkFailureIsRetriedAsTransient) {
  ASSERT_TRUE(ActivateFailpoint("subprocess.fork.error", "once").ok());
  BenchArgs args;
  args.isolate = true;
  args.retries = 1;
  args.time_limit_seconds = 60.0;
  RunOutcome out = RunContained(args, [] { return CompletedOutcome(); });
  EXPECT_TRUE(out.completed) << out.error;
}

TEST_F(ChaosTest, CrashModeIsContainedUnderIsolation) {
  const AlignmentProblem problem = SmallProblem(61);
  ASSERT_TRUE(ActivateFailpoint("align.similarity.error", "crash").ok());
  auto aligner = MakeAligner("NSD");
  ASSERT_TRUE(aligner.ok());
  BenchArgs args;
  args.isolate = true;
  args.retries = 0;
  args.time_limit_seconds = 60.0;
  RunOutcome out = RunAligner(aligner->get(), problem,
                              AssignmentMethod::kSortGreedy, args);
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.error.rfind("CRASH", 0), 0u) << out.error;
  EXPECT_EQ(FormatOutcome(out, 0.0), "CRASH");
}

TEST_F(ChaosTest, OomModeIsContainedUnderIsolation) {
  const AlignmentProblem problem = SmallProblem(62);
  ASSERT_TRUE(ActivateFailpoint("align.similarity.error", "oom").ok());
  auto aligner = MakeAligner("NSD");
  ASSERT_TRUE(aligner.ok());
  BenchArgs args;
  args.isolate = true;
  args.retries = 0;
  args.mem_limit_mb = 192.0;
  args.time_limit_seconds = 60.0;
  RunOutcome out = RunAligner(aligner->get(), problem,
                              AssignmentMethod::kSortGreedy, args);
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.error.rfind("OOM", 0), 0u) << out.error;
  EXPECT_EQ(FormatOutcome(out, 0.0), "OOM");
}

TEST_F(ChaosTest, DegradedOutcomeRendersTrailingStar) {
  const AlignmentProblem problem = SmallProblem(63);
  ASSERT_TRUE(ActivateFailpoint("linalg.eigen.no-converge", "error").ok());
  auto aligner = MakeAligner("GRASP");
  ASSERT_TRUE(aligner.ok());
  RunOutcome out = RunAligner(aligner->get(), problem,
                              AssignmentMethod::kJonkerVolgenant, 60.0);
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_TRUE(out.degraded);
  EXPECT_FALSE(out.degrade_reason.empty());
  const std::string cell = FormatOutcome(out, 0.5);
  ASSERT_FALSE(cell.empty());
  EXPECT_EQ(cell.back(), '*') << cell;
}

// ---------------------------------------------------------------------------
// Service daemon: every injected server-side fault becomes a typed response
// on the affected connection while the daemon keeps serving everyone else.

std::string TempSocketPath(const char* tag) {
  return "/tmp/ga_chaos_" + std::string(tag) + "_" + std::to_string(getpid());
}

class ChaosServerTest : public ChaosTest {
 protected:
  void StartServer(ServerOptions options) {
    socket_path_ = options.socket_path;
    auto server = Server::Create(options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = *std::move(server);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Shutdown();
      server_->Wait();
    }
    if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
    ChaosTest::TearDown();
  }

  ClientOptions ConnOptions(double timeout_seconds = 60.0) const {
    ClientOptions copts;
    copts.socket_path = socket_path_;
    copts.timeout_seconds = timeout_seconds;
    return copts;
  }

  Result<Client> Connect(double timeout_seconds = 60.0) {
    return Client::Connect(ConnOptions(timeout_seconds));
  }

  static Request PingRequest() {
    Request req;
    req.type = RequestType::kPing;
    return req;
  }

  static Request AlignRequest(const Graph& g1, const Graph& g2,
                              const std::string& algo) {
    Request req;
    req.type = RequestType::kAlign;
    req.align.algo = algo;
    req.align.assign = "JV";
    req.align.g1 = ToWire(g1);
    req.align.g2 = ToWire(g2);
    return req;
  }

  std::string socket_path_;
  std::unique_ptr<Server> server_;
};

TEST_F(ChaosServerTest, RequestFaultIsTypedAndDaemonSurvives) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("reqerr");
  opts.workers = 2;
  StartServer(opts);
  ASSERT_TRUE(ActivateFailpoint("server.request.error", "once").ok());

  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto faulted = client->Call(PingRequest());
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_EQ(faulted->code, ResponseCode::kError);
  EXPECT_NE(faulted->message.find("injected fault"), std::string::npos)
      << faulted->message;

  // Same connection, next request: the daemon is still healthy.
  auto healthy = client->Call(PingRequest());
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy->code, ResponseCode::kOk);
}

TEST_F(ChaosServerTest, WorkerDropSendsTypedErrorNotSilence) {
  // Satellite fix: a worker dying mid-request used to leave the client
  // blocked on a reply forever. The injected worker fault must now produce
  // a typed ERROR response before the connection closes.
  ServerOptions opts;
  opts.socket_path = TempSocketPath("wdrop");
  opts.workers = 2;
  StartServer(opts);
  ASSERT_TRUE(ActivateFailpoint("server.worker.drop", "once").ok());

  auto client = Connect(10.0);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto resp = client->Call(PingRequest());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->code, ResponseCode::kError);
  EXPECT_NE(resp->message.find("worker failed mid-request"),
            std::string::npos)
      << resp->message;

  // A fresh connection is served normally afterwards.
  auto again = Connect();
  ASSERT_TRUE(again.ok());
  auto healthy = again->Call(PingRequest());
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy->code, ResponseCode::kOk);
}

TEST_F(ChaosServerTest, BusyOnceThenClientRetrySucceeds) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("busy1");
  opts.workers = 1;
  StartServer(opts);
  ASSERT_TRUE(ActivateFailpoint("server.busy", "once").ok());

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 10.0;
  policy.max_backoff_ms = 50.0;
  auto resp = CallWithRetry(ConnOptions(), PingRequest(), policy);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->code, ResponseCode::kOk);
  // The armed `once` fault really fired (on the first, retried attempt).
  EXPECT_EQ(Failpoint::Get("server.busy").hits(), 1);
}

TEST_F(ChaosServerTest, DrainAnswersQueuedClientsWithShuttingDown) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("drain");
  opts.workers = 1;
  opts.queue_capacity = 2;
  StartServer(opts);

  // Occupy the single worker: a client that completed a request holds its
  // worker until it disconnects.
  auto holder_conn = Connect();
  ASSERT_TRUE(holder_conn.ok());
  auto holder = std::make_unique<Client>(*std::move(holder_conn));
  auto held = holder->Call(PingRequest());
  ASSERT_TRUE(held.ok());
  ASSERT_EQ(held->code, ResponseCode::kOk);

  // Park a raw connection in the admission queue.
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_path_.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  struct timeval tv = {10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Drain: the queued connection gets a typed SHUTTING_DOWN response, not
  // silence, and the daemon finishes cleanly once the holder disconnects.
  server_->Drain();
  std::string payload;
  auto got = ReadFrameFromFd(fd, &payload);
  ::close(fd);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(*got);
  auto resp = DecodeResponse(payload);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->code, ResponseCode::kShuttingDown);
  EXPECT_NE(resp->message.find("draining"), std::string::npos)
      << resp->message;

  holder.reset();   // Disconnect the worker's client.
  server_->Wait();  // A drained daemon winds down without Shutdown().
}

TEST_F(ChaosServerTest, DegradedAlignIsReportedAndNotCached) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("degr");
  opts.workers = 2;
  opts.wall_slack_seconds = 10.0;
  StartServer(opts);

  const Graph g1 = SmallGraph(71);
  const Graph g2 = SmallGraph(72);
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Forked align children inherit programmatically armed faults.
  ASSERT_TRUE(ActivateFailpoint("align.similarity.error", "error").ok());
  auto degraded = client->Call(AlignRequest(g1, g2, "NSD"));
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  ASSERT_EQ(degraded->code, ResponseCode::kOk) << degraded->message;
  auto result = DecodeAlignResult(degraded->body);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->degraded);
  EXPECT_NE(result->degrade_reason.find("degree-profile fallback"),
            std::string::npos)
      << result->degrade_reason;

  // Degraded results are not cached: once the fault clears, the same
  // request is recomputed at full quality instead of replaying the fallback.
  DeactivateAllFailpoints();
  auto healthy = client->Call(AlignRequest(g1, g2, "NSD"));
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  ASSERT_EQ(healthy->code, ResponseCode::kOk) << healthy->message;
  EXPECT_FALSE(healthy->cache_hit);
  auto healthy_result = DecodeAlignResult(healthy->body);
  ASSERT_TRUE(healthy_result.ok());
  EXPECT_FALSE(healthy_result->degraded);

  // Healthy results do get cached.
  auto warm = client->Call(AlignRequest(g1, g2, "NSD"));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm->code, ResponseCode::kOk);
  EXPECT_TRUE(warm->cache_hit);
}

TEST_F(ChaosServerTest, PersistentNumericalFaultYieldsNumericalResponse) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("numer");
  opts.workers = 2;
  opts.wall_slack_seconds = 10.0;
  StartServer(opts);

  const Graph g1 = SmallGraph(81);
  const Graph g2 = SmallGraph(82);
  // A persistent extraction fault defeats even the greedy fallback, so the
  // child's typed kNumerical error must map to a NUMERICAL response.
  ASSERT_TRUE(ActivateFailpoint("assignment.extract.error", "error").ok());
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto resp = client->Call(AlignRequest(g1, g2, "NSD"));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->code, ResponseCode::kNumerical) << resp->message;
}

TEST_F(ChaosServerTest, LostHelperIsTypedErrorAndReplaced) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("helper");
  opts.workers = 1;  // One slot: the next request must reuse it.
  StartServer(opts);

  const Graph g1 = SmallGraph(91);
  const Graph g2 = SmallGraph(92);
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // The helper finishes the alignment, then exits instead of replying.
  ASSERT_TRUE(
      ActivateFailpoint("server.isolation.helper_exit", "once").ok());
  auto lost = client->Call(AlignRequest(g1, g2, "NSD"));
  ASSERT_TRUE(lost.ok()) << lost.status().ToString();
  EXPECT_EQ(lost->code, ResponseCode::kError);
  EXPECT_NE(lost->message.find("isolation helper lost"), std::string::npos)
      << lost->message;

  // The slot gets a fresh helper from the zygote on its next request.
  auto again = client->Call(AlignRequest(g1, g2, "NSD"));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->code, ResponseCode::kOk) << again->message;
}

// Children of this process, per /proc (the daemon's only one is its zygote).
std::vector<pid_t> ChildPids() {
  std::ifstream in("/proc/self/task/" + std::to_string(getpid()) +
                   "/children");
  std::vector<pid_t> pids;
  for (pid_t pid; in >> pid;) pids.push_back(pid);
  return pids;
}

// True once `pid` has exited (a zombie counts: it runs nothing).
bool Exited(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = stat.rfind(')');
  return paren == std::string::npos || paren + 2 >= stat.size() ||
         stat[paren + 2] == 'Z';
}

TEST_F(ChaosServerTest, LostZygoteFailsAlignsFastAndKeepsServing) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("zygote");
  opts.workers = 2;
  StartServer(opts);

  const std::vector<pid_t> children = ChildPids();
  ASSERT_EQ(children.size(), 1u);
  ASSERT_EQ(::kill(children[0], SIGKILL), 0);
  for (int i = 0; i < 500 && !Exited(children[0]); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(Exited(children[0]));

  // Its helpers died with it: aligns get a typed ERROR, promptly.
  auto client = Connect(/*timeout_seconds=*/10.0);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < 3; ++i) {
    auto resp = client->Call(AlignRequest(SmallGraph(93), SmallGraph(94),
                                          "NSD"));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->code, ResponseCode::kError) << resp->message;
  }
  // Everything that does not isolate keeps working.
  auto ping = client->Call(PingRequest());
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_EQ(ping->code, ResponseCode::kOk);
  Request stats;
  stats.type = RequestType::kServerStats;
  auto stats_resp = client->Call(stats);
  ASSERT_TRUE(stats_resp.ok()) << stats_resp.status().ToString();
  EXPECT_EQ(stats_resp->code, ResponseCode::kOk);
}

// ---------------------------------------------------------------------------
// Durable cache log (DESIGN.md §14): crash-shaped damage — torn tails, bit
// rot, an unreadable log — yields a warm-or-cold cache, never a dead daemon.

class CacheStoreChaosTest : public ChaosTest {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ga_chaos_cacheXXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    ::unlink((dir_ + "/cache.log").c_str());
    ::rmdir(dir_.c_str());
    ChaosTest::TearDown();
  }

  // Opens the log and collects everything replay delivers.
  Result<std::unique_ptr<CacheStore>> OpenCollecting(
      std::vector<std::pair<uint64_t, std::string>>* out,
      CacheStore::ReplayStats* stats) {
    return CacheStore::Open(
        dir_,
        [out](uint64_t key, std::string value) {
          out->push_back({key, std::move(value)});
        },
        stats);
  }

  std::string dir_;
};

TEST_F(CacheStoreChaosTest, GoldenRoundTripAcrossReopen) {
  {
    std::vector<std::pair<uint64_t, std::string>> replayed;
    auto store = OpenCollecting(&replayed, nullptr);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(replayed.empty());
    (*store)->Append(1, "first");
    (*store)->Append(2, std::string(1000, 'x'));
    (*store)->Append(3, "");  // Zero-length values are legal records.
    EXPECT_EQ((*store)->append_errors(), 0u);
  }
  std::vector<std::pair<uint64_t, std::string>> replayed;
  CacheStore::ReplayStats stats;
  auto store = OpenCollecting(&replayed, &stats);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[0].first, 1u);
  EXPECT_EQ(replayed[0].second, "first");
  EXPECT_EQ(replayed[1].second, std::string(1000, 'x'));
  EXPECT_EQ(replayed[2].second, "");
  EXPECT_EQ(stats.replayed, 3u);
  EXPECT_EQ(stats.crc_skipped, 0u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
}

TEST_F(CacheStoreChaosTest, TornTailIsTruncatedBackToLastGoodRecord) {
  {
    std::vector<std::pair<uint64_t, std::string>> replayed;
    auto store = OpenCollecting(&replayed, nullptr);
    ASSERT_TRUE(store.ok());
    (*store)->Append(10, "survives");
    // The armed torn append writes a record cut off mid-payload, exactly
    // what a crash between write() and close() leaves behind.
    ASSERT_TRUE(ActivateFailpoint("server.cache.append.torn", "once").ok());
    (*store)->Append(11, "torn-away-by-the-crash");
  }
  std::vector<std::pair<uint64_t, std::string>> replayed;
  CacheStore::ReplayStats stats;
  auto store = OpenCollecting(&replayed, &stats);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].first, 10u);
  EXPECT_EQ(replayed[0].second, "survives");
  EXPECT_EQ(stats.replayed, 1u);
  EXPECT_GT(stats.truncated_bytes, 0u);

  // The truncation healed the file: appends after the reopen land on a
  // clean boundary and a third open replays both records undamaged.
  (*store)->Append(12, "after-heal");
  store->reset();
  replayed.clear();
  auto again = OpenCollecting(&replayed, &stats);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[1].first, 12u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
}

TEST_F(CacheStoreChaosTest, CrcMismatchSkipsOnlyTheRottedRecord) {
  const std::string value_a(16, 'a');
  const std::string value_b(16, 'b');
  const std::string value_c(16, 'c');
  {
    std::vector<std::pair<uint64_t, std::string>> replayed;
    auto store = OpenCollecting(&replayed, nullptr);
    ASSERT_TRUE(store.ok());
    (*store)->Append(20, value_a);
    (*store)->Append(21, value_b);
    (*store)->Append(22, value_c);
  }
  // Flip one byte inside record B's value. Records are
  // 12-byte header + 8-byte key + value, so B's value starts at
  // (12+8+16) + 12 + 8.
  const std::streamoff record_bytes = 12 + 8 + 16;
  const std::streamoff target = record_bytes + 12 + 8 + 4;
  {
    std::fstream f(dir_ + "/cache.log",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(target);
    char byte = 0;
    f.get(byte);
    f.seekp(target);
    f.put(static_cast<char>(byte ^ 0x40));
    ASSERT_TRUE(f.good());
  }
  std::vector<std::pair<uint64_t, std::string>> replayed;
  CacheStore::ReplayStats stats;
  auto store = OpenCollecting(&replayed, &stats);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  // Bit rot is local: A and C survive, only B is dropped.
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].first, 20u);
  EXPECT_EQ(replayed[1].first, 22u);
  EXPECT_EQ(stats.replayed, 2u);
  EXPECT_EQ(stats.crc_skipped, 1u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
}

TEST_F(CacheStoreChaosTest, CompactionReplaysByteIdenticallyAndDropsDead) {
  // Build a log with a superseded value, a torn tail, and live records —
  // exactly the residue startup compaction exists to shed.
  {
    std::vector<std::pair<uint64_t, std::string>> replayed;
    auto store = OpenCollecting(&replayed, nullptr);
    ASSERT_TRUE(store.ok());
    (*store)->Append(40, "stale-value");
    (*store)->Append(41, std::string(500, 'q'));
    (*store)->Append(40, "fresh-value");  // Supersedes the first record.
    ASSERT_TRUE(ActivateFailpoint("server.cache.append.torn", "once").ok());
    (*store)->Append(42, "torn-away");
  }
  // Replay as the daemon would, collapse to live entries, compact.
  std::vector<std::pair<uint64_t, std::string>> replayed;
  auto store = OpenCollecting(&replayed, nullptr);
  ASSERT_TRUE(store.ok());
  ASSERT_EQ(replayed.size(), 3u);
  const std::vector<std::pair<uint64_t, std::string>> live = {
      {41, std::string(500, 'q')}, {40, "fresh-value"}};
  const uint64_t before = (*store)->log_bytes();
  ASSERT_TRUE((*store)->Compact(live).ok());
  EXPECT_LT((*store)->log_bytes(), before);
  // The append fd switched to the published log: post-compaction appends
  // land in the new file.
  (*store)->Append(43, "after-compact");
  store->reset();

  // Byte-identical replay: same keys, same values, same order, plus the
  // post-compaction append; no skips, no truncation.
  std::vector<std::pair<uint64_t, std::string>> after;
  CacheStore::ReplayStats stats;
  auto reopened = OpenCollecting(&after, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[0], live[0]);
  EXPECT_EQ(after[1], live[1]);
  EXPECT_EQ(after[2],
            (std::pair<uint64_t, std::string>{43, "after-compact"}));
  EXPECT_EQ(stats.crc_skipped, 0u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  // No .tmp residue after the atomic publish.
  std::string cmd = "ls -1 '" + dir_ + "' | grep -q tmp";
  EXPECT_NE(std::system(cmd.c_str()), 0);
}

TEST_F(CacheStoreChaosTest, AppendErrorFailpointIsCountedNotFatal) {
  std::vector<std::pair<uint64_t, std::string>> replayed;
  auto store = OpenCollecting(&replayed, nullptr);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(ActivateFailpoint("server.cache.append.error", "once").ok());
  (*store)->Append(30, "dropped");
  (*store)->Append(31, "kept");
  EXPECT_EQ((*store)->append_errors(), 1u);
  store->reset();

  CacheStore::ReplayStats stats;
  replayed.clear();
  auto again = OpenCollecting(&replayed, &stats);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].first, 31u);
}

TEST_F(CacheStoreChaosTest, ReplayErrorFailpointFailsOpenOnly) {
  ASSERT_TRUE(ActivateFailpoint("server.cache.replay.error", "error").ok());
  std::vector<std::pair<uint64_t, std::string>> replayed;
  auto store = OpenCollecting(&replayed, nullptr);
  ASSERT_FALSE(store.ok());
  DeactivateAllFailpoints();
  // The failure mode is "cold cache", not "poisoned directory": the next
  // open succeeds.
  auto again = OpenCollecting(&replayed, nullptr);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
}

// Daemon-level durable cache: restart comes up warm; an unreadable log cold
// starts the cache but never the daemon.

class DurableServerTest : public ChaosServerTest {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ga_chaos_srvcacheXXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    cache_dir_ = tmpl;
  }

  void TearDown() override {
    ChaosServerTest::TearDown();
    ::unlink((cache_dir_ + "/cache.log").c_str());
    ::rmdir(cache_dir_.c_str());
  }

  void StopServer() {
    server_->Shutdown();
    server_->Wait();
    server_.reset();
    ::unlink(socket_path_.c_str());
  }

  std::string cache_dir_;
};

TEST_F(DurableServerTest, RestartReplaysTheCacheLogWarm) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("warm1");
  opts.workers = 2;
  opts.wall_slack_seconds = 10.0;
  opts.cache_dir = cache_dir_;
  StartServer(opts);

  const Graph g1 = SmallGraph(101);
  const Graph g2 = SmallGraph(102);
  {
    auto client = Connect();
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto cold = client->Call(AlignRequest(g1, g2, "NSD"));
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    ASSERT_EQ(cold->code, ResponseCode::kOk) << cold->message;
    EXPECT_FALSE(cold->cache_hit);
  }
  StopServer();

  // Second daemon instance, same --cache-dir: the identical request must be
  // a replay-warmed cache hit, answered without forking an aligner.
  opts.socket_path = TempSocketPath("warm2");
  StartServer(opts);
  ServerStatsResult stats = server_->stats();
  EXPECT_GE(stats.cache_replayed, 1u);
  EXPECT_EQ(stats.cache_crc_skipped, 0u);
  EXPECT_EQ(stats.cache_truncated_bytes, 0u);

  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto warm = client->Call(AlignRequest(g1, g2, "NSD"));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm->code, ResponseCode::kOk) << warm->message;
  EXPECT_TRUE(warm->cache_hit);
}

TEST_F(DurableServerTest, UnreadableLogColdStartsTheCacheNotTheDaemon) {
  ASSERT_TRUE(ActivateFailpoint("server.cache.replay.error", "error").ok());
  ServerOptions opts;
  opts.socket_path = TempSocketPath("coldlog");
  opts.workers = 1;
  opts.cache_dir = cache_dir_;
  StartServer(opts);
  DeactivateAllFailpoints();

  ServerStatsResult stats = server_->stats();
  EXPECT_EQ(stats.cache_open_errors, 1u);
  EXPECT_EQ(stats.cache_replayed, 0u);

  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto resp = client->Call(PingRequest());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->code, ResponseCode::kOk);
}

TEST_F(DurableServerTest, AppendFaultDegradesDurabilityNotService) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("apperr");
  opts.workers = 2;
  opts.wall_slack_seconds = 10.0;
  opts.cache_dir = cache_dir_;
  StartServer(opts);
  ASSERT_TRUE(ActivateFailpoint("server.cache.append.error", "error").ok());

  const Graph g1 = SmallGraph(111);
  const Graph g2 = SmallGraph(112);
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto resp = client->Call(AlignRequest(g1, g2, "NSD"));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->code, ResponseCode::kOk) << resp->message;

  // The append was dropped and counted, but the in-memory cache is hot.
  EXPECT_GE(server_->stats().cache_append_errors, 1u);
  auto warm = client->Call(AlignRequest(g1, g2, "NSD"));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm->code, ResponseCode::kOk);
  EXPECT_TRUE(warm->cache_hit);
}

TEST_F(DurableServerTest, StartupCompactionDropsDeadRecordsAndStaysWarm) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("compact1");
  opts.workers = 2;
  opts.wall_slack_seconds = 10.0;
  opts.cache_dir = cache_dir_;
  StartServer(opts);
  const std::vector<std::pair<Graph, Graph>> pairs = {
      {SmallGraph(131), SmallGraph(132)}, {SmallGraph(133), SmallGraph(134)}};
  {
    auto client = Connect();
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (const auto& [g1, g2] : pairs) {
      auto cold = client->Call(AlignRequest(g1, g2, "NSD"));
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      ASSERT_EQ(cold->code, ResponseCode::kOk) << cold->message;
    }
  }
  StopServer();

  // Make the log mostly dead: three superseded values per key, each
  // followed by the entry's real value again, which wins at replay.
  {
    std::vector<std::pair<uint64_t, std::string>> entries;
    auto store = CacheStore::Open(
        cache_dir_,
        [&entries](uint64_t key, std::string value) {
          entries.push_back({key, std::move(value)});
        });
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_EQ(entries.size(), pairs.size());
    for (const auto& [key, value] : entries) {
      for (int i = 0; i < 3; ++i) (*store)->Append(key, "superseded");
      (*store)->Append(key, value);
    }
    ASSERT_TRUE((*store)->Sync().ok());
  }
  auto log_size = [this] {
    struct stat st;
    return ::stat((cache_dir_ + "/cache.log").c_str(), &st) == 0
               ? static_cast<uint64_t>(st.st_size)
               : 0;
  };
  const uint64_t dead_bytes = log_size();

  // 10 records, 2 resident entries: the restart rewrites the log.
  opts.socket_path = TempSocketPath("compact2");
  StartServer(opts);
  EXPECT_EQ(server_->stats().cache_replayed, 5 * pairs.size());
  const uint64_t compacted_bytes = log_size();
  EXPECT_LT(compacted_bytes, dead_bytes);
  StopServer();

  // The compacted log replays every entry, and each is a cache hit.
  opts.socket_path = TempSocketPath("compact3");
  StartServer(opts);
  EXPECT_EQ(server_->stats().cache_replayed, pairs.size());
  EXPECT_EQ(log_size(), compacted_bytes);
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (const auto& [g1, g2] : pairs) {
    auto warm = client->Call(AlignRequest(g1, g2, "NSD"));
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    ASSERT_EQ(warm->code, ResponseCode::kOk) << warm->message;
    EXPECT_TRUE(warm->cache_hit);
  }
}

// ---------------------------------------------------------------------------
// Watchdog: a non-cooperative hang is SIGKILLed past deadline + grace and
// surfaces as a typed ERROR naming the watchdog, not a wall-limit DNF
// half a minute later.

TEST_F(ChaosServerTest, WatchdogKillsNonCooperativeHangAndCountsIt) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("wdog");
  opts.workers = 1;
  opts.watchdog_grace_seconds = 0.5;
  StartServer(opts);

  const Graph g1 = SmallGraph(121);
  const Graph g2 = SmallGraph(122);
  Request req = AlignRequest(g1, g2, "_HANG");
  req.align.deadline_ms = 300;  // _HANG ignores the cooperative deadline.

  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto start = std::chrono::steady_clock::now();
  auto resp = client->Call(req);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->code, ResponseCode::kError) << resp->message;
  EXPECT_NE(resp->message.find("watchdog"), std::string::npos)
      << resp->message;
  // Deadline (0.3 s) + grace (0.5 s) + watchdog poll stride — far below the
  // ~30 s wall-clock backstop that would otherwise catch this hang.
  EXPECT_LT(elapsed, 10.0);

  ServerStatsResult stats = server_->stats();
  EXPECT_EQ(stats.watchdog_kills, 1u);
  ASSERT_EQ(stats.worker_restarts.size(), 1u);
  EXPECT_EQ(stats.worker_restarts[0], 1u);
}

}  // namespace
}  // namespace graphalign

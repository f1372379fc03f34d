// Deadline propagation tests: every aligner and iterative solver must abort
// promptly (kDeadlineExceeded) once its Deadline expires, fast-fail on an
// already-expired deadline, and behave identically when no deadline is given.
#include <chrono>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "align/aligner.h"
#include "align/cone.h"
#include "align/graal.h"
#include "align/grasp.h"
#include "align/gwl.h"
#include "align/isorank.h"
#include "align/lrea.h"
#include "align/nsd.h"
#include "align/regal.h"
#include "align/sgwl.h"
#include "assignment/assignment.h"
#include "assignment/sparse_lap.h"
#include "bench_framework/experiment.h"
#include "common/deadline.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/graphlets.h"
#include "linalg/eigen_sym.h"
#include "linalg/sinkhorn.h"
#include "linalg/svd.h"

namespace graphalign {
namespace {

Graph MakeEr(int n, double p, uint64_t seed) {
  Rng rng(seed);
  auto g = ErdosRenyi(n, p, &rng);
  GA_CHECK(g.ok());
  return *std::move(g);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Runs `aligner` under a 50 ms deadline on a configuration sized to run far
// beyond a second unconstrained, and asserts a prompt kDeadlineExceeded.
// The 2 s elapsed bound is generous for loaded CI machines while still
// proving the abort is cooperative, not a timeout-after-the-fact.
void ExpectPromptDeadline(Aligner* aligner, const Graph& g1, const Graph& g2) {
  const auto start = std::chrono::steady_clock::now();
  auto sim = aligner->ComputeSimilarity(g1, g2, Deadline::AfterSeconds(0.05));
  const double elapsed = SecondsSince(start);
  ASSERT_FALSE(sim.ok()) << aligner->name() << " finished under 50ms";
  EXPECT_EQ(sim.status().code(), StatusCode::kDeadlineExceeded)
      << aligner->name() << ": " << sim.status().ToString();
  EXPECT_LT(elapsed, 2.0) << aligner->name() << " overshot the deadline";
}

// --- Deadline primitive ---------------------------------------------------

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_GE(d.RemainingSeconds(), 1e8);
  EXPECT_TRUE(Deadline::Infinite().is_infinite());
}

TEST(DeadlineTest, ZeroOrNegativeBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::AfterSeconds(0.0).Expired());
  EXPECT_TRUE(Deadline::AfterSeconds(-3.5).Expired());
  EXPECT_LE(Deadline::AfterSeconds(0.0).RemainingSeconds(), 0.0);
}

TEST(DeadlineTest, HugeBudgetIsInfinite) {
  EXPECT_TRUE(Deadline::AfterSeconds(1e18).is_infinite());
  EXPECT_FALSE(Deadline::AfterSeconds(1e18).Expired());
}

TEST(DeadlineTest, PositiveBudgetExpiresAfterSleeping) {
  Deadline d = Deadline::AfterSeconds(0.01);
  EXPECT_FALSE(d.is_infinite());
  while (!d.Expired()) {
    // Spin; the monotonic clock advances past the 10 ms expiry.
  }
  EXPECT_TRUE(d.Expired());
  EXPECT_LE(d.RemainingSeconds(), 0.0);
}

TEST(DeadlineCheckerTest, FirstCallPollsTheClock) {
  DeadlineChecker checker(Deadline::AfterSeconds(0.0), /*stride=*/1000);
  // Even with a huge stride, the first call must notice expiry.
  EXPECT_TRUE(checker.Expired());
}

TEST(DeadlineCheckerTest, StaysExpiredOnceExpired) {
  DeadlineChecker checker(Deadline::AfterSeconds(0.0));
  ASSERT_TRUE(checker.Expired());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(checker.Expired());
}

TEST(DeadlineCheckerTest, InfiniteDeadlineNeverExpires) {
  DeadlineChecker checker((Deadline()));
  for (int i = 0; i < 1000; ++i) ASSERT_FALSE(checker.Expired());
}

// --- Zero-budget fast fail and backward compatibility ---------------------

AlignPlan NativePlan() {
  AlignPlan plan;
  plan.path = AlignPath::kNative;
  return plan;
}

TEST(DeadlineAlignerTest, AllAlignersFastFailOnExpiredDeadline) {
  const Graph g1 = MakeEr(60, 0.1, 1);
  const Graph g2 = MakeEr(60, 0.1, 2);
  for (const std::string& name : AllAlignerNames()) {
    auto aligner = MakeAligner(name);
    ASSERT_TRUE(aligner.ok()) << name;
    const auto start = std::chrono::steady_clock::now();
    auto sim =
        (*aligner)->ComputeSimilarity(g1, g2, Deadline::AfterSeconds(0.0));
    ASSERT_FALSE(sim.ok()) << name;
    EXPECT_EQ(sim.status().code(), StatusCode::kDeadlineExceeded) << name;
    EXPECT_LT(SecondsSince(start), 0.5) << name << " was not a fast fail";

    auto align =
        (*aligner)->Run(g1, g2, NativePlan(), Deadline::AfterSeconds(-1.0));
    ASSERT_FALSE(align.ok()) << name;
    EXPECT_EQ(align.status().code(), StatusCode::kDeadlineExceeded) << name;
  }
}

TEST(DeadlineAlignerTest, NoDeadlineKeepsWorking) {
  const Graph g1 = MakeEr(40, 0.15, 3);
  const Graph g2 = MakeEr(40, 0.15, 4);
  for (const std::string& name : AllAlignerNames()) {
    auto aligner = MakeAligner(name);
    ASSERT_TRUE(aligner.ok()) << name;
    auto sim = (*aligner)->ComputeSimilarity(g1, g2);
    ASSERT_TRUE(sim.ok()) << name << ": " << sim.status().ToString();
    auto align = (*aligner)->Run(g1, g2, NativePlan());
    ASSERT_TRUE(align.ok()) << name << ": " << align.status().ToString();
  }
}

TEST(DeadlineAlignerTest, GenerousDeadlineCompletesNormally) {
  const Graph g1 = MakeEr(40, 0.15, 5);
  const Graph g2 = MakeEr(40, 0.15, 6);
  for (const std::string& name : AllAlignerNames()) {
    auto aligner = MakeAligner(name);
    ASSERT_TRUE(aligner.ok()) << name;
    // Under-budget runs must be indistinguishable from no-deadline runs.
    auto with = (*aligner)->ComputeSimilarity(g1, g2,
                                              Deadline::AfterSeconds(3600.0));
    auto without = (*aligner)->ComputeSimilarity(g1, g2);
    ASSERT_TRUE(with.ok()) << name;
    ASSERT_TRUE(without.ok()) << name;
    EXPECT_TRUE(*with == *without) << name << " result changed under budget";
  }
}

// --- Per-aligner prompt abort under a 50 ms deadline ----------------------
// Each configuration is cranked (iteration counts far beyond defaults, or
// combinatorially large enumeration) so the unconstrained run would take
// from many seconds to effectively forever.

TEST(DeadlinePromptTest, IsoRank) {
  const Graph g1 = MakeEr(300, 0.03, 10);
  const Graph g2 = MakeEr(300, 0.03, 11);
  IsoRankOptions opt;
  opt.max_iterations = 10'000'000;
  opt.tolerance = 0.0;  // Never converge early.
  IsoRankAligner aligner(opt);
  ExpectPromptDeadline(&aligner, g1, g2);
}

TEST(DeadlinePromptTest, Graal) {
  // 5-node graphlet enumeration on a dense-ish graph is combinatorial.
  const Graph g1 = MakeEr(300, 0.05, 12);
  const Graph g2 = MakeEr(300, 0.05, 13);
  GraalOptions opt;
  opt.use_five_node_orbits = true;
  GraalAligner aligner(opt);
  ExpectPromptDeadline(&aligner, g1, g2);
}

TEST(DeadlinePromptTest, Nsd) {
  const Graph g1 = MakeEr(250, 0.04, 14);
  const Graph g2 = MakeEr(250, 0.04, 15);
  NsdOptions opt;
  opt.iterations = 50'000'000;
  NsdAligner aligner(opt);
  ExpectPromptDeadline(&aligner, g1, g2);
}

TEST(DeadlinePromptTest, Lrea) {
  const Graph g1 = MakeEr(200, 0.05, 16);
  const Graph g2 = MakeEr(200, 0.05, 17);
  LreaOptions opt;
  opt.iterations = 10'000'000;
  LreaAligner aligner(opt);
  ExpectPromptDeadline(&aligner, g1, g2);
}

TEST(DeadlinePromptTest, Regal) {
  // Landmark factor cranked so the Nystrom pseudo-inverse is a huge Jacobi
  // SVD; the deadline must abort inside it.
  const Graph g1 = MakeEr(600, 0.015, 18);
  const Graph g2 = MakeEr(600, 0.015, 19);
  RegalOptions opt;
  opt.landmark_factor = 200;
  RegalAligner aligner(opt);
  ExpectPromptDeadline(&aligner, g1, g2);
}

TEST(DeadlinePromptTest, Gwl) {
  const Graph g1 = MakeEr(250, 0.04, 20);
  const Graph g2 = MakeEr(250, 0.04, 21);
  GwlOptions opt;
  opt.epochs = 1000;
  opt.gw.outer_iterations = 200'000;
  opt.gw.tolerance = 0.0;  // Never converge early.
  GwlAligner aligner(opt);
  ExpectPromptDeadline(&aligner, g1, g2);
}

TEST(DeadlinePromptTest, Sgwl) {
  const Graph g1 = MakeEr(300, 0.03, 22);
  const Graph g2 = MakeEr(300, 0.03, 23);
  SgwlOptions opt;
  opt.gw.outer_iterations = 200'000;
  opt.gw.tolerance = 0.0;
  SgwlAligner aligner(opt);
  ExpectPromptDeadline(&aligner, g1, g2);
}

TEST(DeadlinePromptTest, Cone) {
  const Graph g1 = MakeEr(300, 0.03, 24);
  const Graph g2 = MakeEr(300, 0.03, 25);
  ConeOptions opt;
  opt.outer_iterations = 500'000;
  ConeAligner aligner(opt);
  ExpectPromptDeadline(&aligner, g1, g2);
}

TEST(DeadlinePromptTest, Grasp) {
  // Above the n=1200 dense cutoff: two 600-step Lanczos eigensolves.
  const Graph g1 = MakeEr(1500, 0.004, 26);
  const Graph g2 = MakeEr(1500, 0.004, 27);
  GraspAligner aligner;
  ExpectPromptDeadline(&aligner, g1, g2);
}

// --- Iterative solvers and enumeration -----------------------------------

TEST(DeadlineSolverTest, HungarianAbortsMidSolve) {
  Rng rng(30);
  const int n = 700;
  DenseMatrix sim(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) sim(i, j) = rng.Normal();
  }
  const auto start = std::chrono::steady_clock::now();
  auto align = HungarianAssign(sim, Deadline::AfterSeconds(0.005));
  ASSERT_FALSE(align.ok());
  EXPECT_EQ(align.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(SecondsSince(start), 2.0);
}

TEST(DeadlineSolverTest, SortGreedyPollsAfterItsSort) {
  // The deadline is still open at SG's up-front check; sorting the 2^20
  // entries takes tens of milliseconds, so it has passed by the poll that
  // follows the sort.
  Rng rng(33);
  const int n = 1024;
  DenseMatrix sim(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) sim(i, j) = rng.Uniform();
  }
  auto align = SortGreedyAssign(sim, Deadline::AfterSeconds(0.001));
  ASSERT_FALSE(align.ok());
  EXPECT_EQ(align.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineSolverTest, AssignmentSolversFastFailWhenExpired) {
  Rng rng(31);
  DenseMatrix sim(50, 50);
  for (int i = 0; i < 50; ++i) {
    for (int j = 0; j < 50; ++j) sim(i, j) = rng.Normal();
  }
  const Deadline expired = Deadline::AfterSeconds(0.0);
  EXPECT_EQ(HungarianAssign(sim, expired).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(JonkerVolgenantAssign(sim, expired).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(NearestNeighborAssign(sim, expired).status().code(),
            StatusCode::kDeadlineExceeded);
  std::vector<SparseCandidate> cands;
  for (int i = 0; i < 50; ++i) cands.push_back({i, i, 1.0});
  EXPECT_EQ(SparseLapAssign(50, 50, cands, expired).status().code(),
            StatusCode::kDeadlineExceeded);
  for (AssignmentMethod m :
       {AssignmentMethod::kNearestNeighbor, AssignmentMethod::kSortGreedy,
        AssignmentMethod::kHungarian, AssignmentMethod::kJonkerVolgenant}) {
    EXPECT_EQ(ExtractAlignment(sim, m, expired).status().code(),
              StatusCode::kDeadlineExceeded);
  }
}

TEST(DeadlineSolverTest, EigenSolversRespectDeadline) {
  Rng rng(32);
  const int n = 200;
  DenseMatrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      a(i, j) = rng.Normal();
      a(j, i) = a(i, j);
    }
  }
  EXPECT_EQ(SymmetricEigen(a, Deadline::AfterSeconds(0.0)).status().code(),
            StatusCode::kDeadlineExceeded);
  LinearOperator op = [&a](const std::vector<double>& x,
                           std::vector<double>* y) {
    *y = MultiplyVec(a, x);
  };
  EXPECT_EQ(LanczosEigen(op, n, 10, SpectrumEnd::kLargest, 0, 12345,
                         Deadline::AfterSeconds(0.0))
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
}

TEST(DeadlineSolverTest, SinkhornAndSvdRespectDeadline) {
  Rng rng(33);
  const int n = 80;
  DenseMatrix kernel(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) kernel(i, j) = 0.1 + rng.Uniform();
  }
  const std::vector<double> marg = UniformMarginal(n);
  EXPECT_EQ(SinkhornProject(kernel, marg, marg, 200, 1e-6,
                            Deadline::AfterSeconds(0.0))
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Svd(kernel, Deadline::AfterSeconds(0.0)).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ThinQr(kernel, 1e-12, Deadline::AfterSeconds(0.0))
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
}

TEST(DeadlineSolverTest, GraphletEnumerationRespectsDeadline) {
  const Graph g = MakeEr(200, 0.1, 34);
  const auto start = std::chrono::steady_clock::now();
  auto orbits = CountGraphletOrbits73(
      g, /*max_subgraphs=*/std::numeric_limits<int64_t>::max(),
      Deadline::AfterSeconds(0.02));
  ASSERT_FALSE(orbits.ok());
  EXPECT_EQ(orbits.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(SecondsSince(start), 2.0);
}

// --- Bench harness DNF semantics ------------------------------------------

TEST(DeadlineBenchTest, RunAlignerReportsDnfWithinBudgetWindow) {
  const Graph g1 = MakeEr(250, 0.04, 40);
  const Graph g2 = MakeEr(250, 0.04, 41);
  AlignmentProblem problem;
  problem.g1 = g1;
  problem.g2 = g2;
  problem.ground_truth.resize(g1.num_nodes());
  std::iota(problem.ground_truth.begin(), problem.ground_truth.end(), 0);
  IsoRankOptions opt;
  opt.max_iterations = 10'000'000;
  opt.tolerance = 0.0;
  IsoRankAligner aligner(opt);
  const double limit = 0.05;
  const auto start = std::chrono::steady_clock::now();
  RunOutcome out = RunAligner(&aligner, problem,
                              AssignmentMethod::kSortGreedy, limit);
  const double elapsed = SecondsSince(start);
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.error, "DNF (time limit)");
  EXPECT_LT(elapsed, 2.0) << "DNF took " << elapsed << "s for a " << limit
                          << "s budget";
}

TEST(DeadlineBenchTest, RunAlignerCompletesUnderGenerousBudget) {
  const Graph g1 = MakeEr(60, 0.1, 42);
  const Graph g2 = MakeEr(60, 0.1, 43);
  AlignmentProblem problem;
  problem.g1 = g1;
  problem.g2 = g2;
  problem.ground_truth.resize(g1.num_nodes());
  std::iota(problem.ground_truth.begin(), problem.ground_truth.end(), 0);
  IsoRankAligner aligner;
  RunOutcome out = RunAligner(&aligner, problem,
                              AssignmentMethod::kSortGreedy, 600.0);
  EXPECT_TRUE(out.completed) << out.error;
}

TEST(DeadlineBenchTest, ExhaustedBudgetFastFailsNextRepetition) {
  // RunAligner with a non-positive remaining budget (RunAveraged passes
  // time_limit - spent) must DNF instantly, not run the aligner.
  const Graph g1 = MakeEr(100, 0.08, 44);
  const Graph g2 = MakeEr(100, 0.08, 45);
  AlignmentProblem problem;
  problem.g1 = g1;
  problem.g2 = g2;
  IsoRankAligner aligner;
  const auto start = std::chrono::steady_clock::now();
  RunOutcome out = RunAligner(&aligner, problem,
                              AssignmentMethod::kSortGreedy, -0.5);
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.error, "DNF (time limit)");
  EXPECT_LT(SecondsSince(start), 0.5);
}

// --- Strict bench flag parsing (satellite: ParseBenchArgs validation) -----

using DeadlineBenchArgsDeathTest = ::testing::Test;

char** FakeArgv(std::vector<std::string>& storage) {
  static std::vector<char*> ptrs;
  ptrs.clear();
  for (auto& s : storage) ptrs.push_back(s.data());
  ptrs.push_back(nullptr);
  return ptrs.data();
}

TEST(DeadlineBenchArgsTest, ValidValuesParse) {
  std::vector<std::string> args = {"bench", "--reps", "3",
                                   "--time-limit", "2.5", "--seed", "99"};
  BenchArgs parsed = ParseBenchArgs(7, FakeArgv(args));
  EXPECT_EQ(parsed.repetitions, 3);
  EXPECT_DOUBLE_EQ(parsed.time_limit_seconds, 2.5);
  EXPECT_EQ(parsed.seed, 99u);
}

TEST(DeadlineBenchArgsDeathTest, MalformedRepsIsRejected) {
  std::vector<std::string> args = {"bench", "--reps", "5x"};
  EXPECT_EXIT(ParseBenchArgs(3, FakeArgv(args)),
              ::testing::ExitedWithCode(2), "invalid value '5x' for --reps");
}

TEST(DeadlineBenchArgsDeathTest, NonPositiveRepsIsRejected) {
  std::vector<std::string> args = {"bench", "--reps", "0"};
  EXPECT_EXIT(ParseBenchArgs(3, FakeArgv(args)),
              ::testing::ExitedWithCode(2), "positive integer");
}

TEST(DeadlineBenchArgsDeathTest, MalformedTimeLimitIsRejected) {
  std::vector<std::string> args = {"bench", "--time-limit", "abc"};
  EXPECT_EXIT(ParseBenchArgs(3, FakeArgv(args)),
              ::testing::ExitedWithCode(2),
              "invalid value 'abc' for --time-limit");
}

TEST(DeadlineBenchArgsDeathTest, NegativeTimeLimitIsRejected) {
  std::vector<std::string> args = {"bench", "--time-limit", "-5"};
  EXPECT_EXIT(ParseBenchArgs(3, FakeArgv(args)),
              ::testing::ExitedWithCode(2), "positive number of seconds");
}

TEST(DeadlineBenchArgsDeathTest, InfiniteTimeLimitIsRejected) {
  std::vector<std::string> args = {"bench", "--time-limit", "inf"};
  EXPECT_EXIT(ParseBenchArgs(3, FakeArgv(args)),
              ::testing::ExitedWithCode(2), "positive number of seconds");
}

}  // namespace
}  // namespace graphalign

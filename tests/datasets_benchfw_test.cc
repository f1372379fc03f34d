#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "align/isorank.h"
#include "bench_framework/experiment.h"
#include "bench_framework/journal.h"
#include "common/random.h"
#include "common/table.h"
#include "datasets/datasets.h"
#include "graph/generators.h"

namespace graphalign {
namespace {

TEST(Table2Test, SixteenDatasetsInTableOrder) {
  auto specs = Table2Specs();
  ASSERT_EQ(specs.size(), 16u);
  EXPECT_EQ(specs.front().name, "Arenas");
  EXPECT_EQ(specs.back().name, "Voles");
  for (const auto& s : specs) {
    EXPECT_GT(s.n, 0);
    EXPECT_GT(s.m, 0);
    EXPECT_GE(s.l, 0);
    EXPECT_FALSE(s.type.empty());
  }
}

TEST(StandInTest, UnknownNameAndBadScaleRejected) {
  EXPECT_EQ(MakeStandIn("NoSuchGraph").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(MakeStandIn("Arenas", 1, 0.0).ok());
  EXPECT_FALSE(MakeStandIn("Arenas", 1, 1.5).ok());
}

TEST(StandInTest, FullScaleMatchesTable2Sizes) {
  // Spot-check a few cheap stand-ins: node count exact, edge count within
  // 30% of the original (generators control density only approximately).
  for (const std::string name :
       {"Arenas", "ca-netscience", "HighSchool", "Voles", "bio-celegans",
        "inf-euroroad"}) {
    DatasetSpec spec;
    for (const auto& s : Table2Specs()) {
      if (s.name == name) spec = s;
    }
    auto g = MakeStandIn(name);
    ASSERT_TRUE(g.ok()) << name;
    EXPECT_EQ(g->num_nodes(), spec.n) << name;
    EXPECT_NEAR(static_cast<double>(g->num_edges()),
                static_cast<double>(spec.m), 0.3 * spec.m)
        << name;
  }
}

TEST(StandInTest, ScaleReducesSizeProportionally) {
  auto quarter = MakeStandIn("Arenas", 1, 0.25);
  ASSERT_TRUE(quarter.ok());
  EXPECT_NEAR(quarter->num_nodes(), 1133 * 0.25, 2);
}

TEST(StandInTest, InfrastructureStandInsAreSparse) {
  auto road = MakeStandIn("inf-euroroad", 5, 0.5);
  ASSERT_TRUE(road.ok());
  EXPECT_LT(road->AverageDegree(), 5.0);
  auto power = MakeStandIn("inf-power", 5, 0.5);
  ASSERT_TRUE(power.ok());
  EXPECT_LT(power->AverageDegree(), 5.0);
  EXPECT_TRUE(power->IsConnected());  // The grid stand-in stays connected.
}

TEST(StandInTest, SocialStandInsAreSkewed) {
  auto fb = MakeStandIn("Facebook", 5, 0.2);
  ASSERT_TRUE(fb.ok());
  EXPECT_GT(fb->MaxDegree(), 3 * fb->AverageDegree());
}

TEST(StandInTest, HamstersterHasManySmallComponents) {
  auto g = MakeStandIn("soc-hamsterster", 5, 1.0);
  ASSERT_TRUE(g.ok());
  EXPECT_GT(g->NodesOutsideLargestComponent(), 0);
}

TEST(StandInTest, DeterministicForSeed) {
  auto a = MakeStandIn("Arenas", 99, 0.2);
  auto b = MakeStandIn("Arenas", 99, 0.2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->num_edges(), b->num_edges());
  auto ea = a->Edges(), eb = b->Edges();
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_TRUE(ea[i] == eb[i]);
  }
}

TEST(EvolvingSnapshotsTest, NestedSubsetsWithRequestedFractions) {
  Rng rng(1);
  auto base = PowerlawCluster(100, 4, 0.4, &rng);
  ASSERT_TRUE(base.ok());
  auto snaps = EvolvingSnapshots(*base, {0.8, 0.85, 0.9, 0.99}, &rng);
  ASSERT_TRUE(snaps.ok());
  ASSERT_EQ(snaps->size(), 4u);
  for (size_t i = 0; i < snaps->size(); ++i) {
    EXPECT_EQ((*snaps)[i].num_nodes(), base->num_nodes());
    const double frac = std::vector<double>{0.8, 0.85, 0.9, 0.99}[i];
    EXPECT_NEAR(static_cast<double>((*snaps)[i].num_edges()),
                frac * base->num_edges(), 1.0);
    // Nested: every edge of snapshot i is in snapshot i+1 and in the base.
    for (const Edge& e : (*snaps)[i].Edges()) {
      EXPECT_TRUE(base->HasEdge(e.u, e.v));
      if (i + 1 < snaps->size()) {
        EXPECT_TRUE((*snaps)[i + 1].HasEdge(e.u, e.v));
      }
    }
  }
}

TEST(EvolvingSnapshotsTest, ValidatesFractions) {
  Rng rng(2);
  auto base = ErdosRenyi(30, 0.2, &rng);
  ASSERT_TRUE(base.ok());
  EXPECT_FALSE(EvolvingSnapshots(*base, {}, &rng).ok());
  EXPECT_FALSE(EvolvingSnapshots(*base, {0.9, 0.8}, &rng).ok());
  EXPECT_FALSE(EvolvingSnapshots(*base, {0.0}, &rng).ok());
  EXPECT_FALSE(EvolvingSnapshots(*base, {1.2}, &rng).ok());
}

TEST(MultiMagnaVariantsTest, VariantsAddIncreasingNoise) {
  Rng rng(3);
  auto base = PowerlawCluster(100, 4, 0.25, &rng);
  ASSERT_TRUE(base.ok());
  auto variants = MultiMagnaVariants(*base, 5, 0.05, &rng);
  ASSERT_TRUE(variants.ok());
  ASSERT_EQ(variants->size(), 5u);
  int64_t prev = base->num_edges();
  for (const Graph& v : *variants) {
    EXPECT_GT(v.num_edges(), prev);
    prev = v.num_edges();
    // All base edges survive (variants only add).
    for (const Edge& e : base->Edges()) EXPECT_TRUE(v.HasEdge(e.u, e.v));
  }
  EXPECT_FALSE(MultiMagnaVariants(*base, 0, 0.05, &rng).ok());
  EXPECT_FALSE(MultiMagnaVariants(*base, 3, 0.0, &rng).ok());
}

// ---------------------------------------------------------------------------
// Bench framework.

TEST(BenchArgsTest, ParsesAllFlags) {
  const char* argv[] = {"bench",  "--full", "--reps", "7",
                        "--algos", "GWL,CONE", "--csv",  "/tmp/x.csv",
                        "--seed", "99",     "--time-limit", "12.5"};
  BenchArgs args = ParseBenchArgs(12, const_cast<char**>(argv));
  EXPECT_TRUE(args.full);
  EXPECT_EQ(args.repetitions, 7);
  ASSERT_EQ(args.algorithms.size(), 2u);
  EXPECT_EQ(args.algorithms[0], "GWL");
  EXPECT_EQ(args.algorithms[1], "CONE");
  EXPECT_EQ(args.csv_path, "/tmp/x.csv");
  EXPECT_EQ(args.seed, 99u);
  EXPECT_DOUBLE_EQ(args.time_limit_seconds, 12.5);
}

TEST(BenchArgsTest, DefaultsSelectAllAlgorithms) {
  BenchArgs args;
  EXPECT_EQ(SelectedAlgorithms(args).size(), 9u);
  args.algorithms = {"GWL"};
  EXPECT_EQ(SelectedAlgorithms(args).size(), 1u);
}

TEST(RunAlignerTest, CompletesAndTimesStages) {
  Rng rng(4);
  auto base = BarabasiAlbert(40, 3, &rng);
  ASSERT_TRUE(base.ok());
  NoiseOptions noise;
  noise.level = 0.02;
  auto prob = MakeAlignmentProblem(*base, noise, &rng);
  ASSERT_TRUE(prob.ok());
  IsoRankAligner iso;
  RunOutcome out = RunAligner(&iso, *prob,
                              AssignmentMethod::kJonkerVolgenant, 60.0);
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_GE(out.similarity_seconds, 0.0);
  EXPECT_GE(out.assignment_seconds, 0.0);
  EXPECT_GT(out.quality.accuracy, 0.2);
  EXPECT_EQ(out.completed_runs, 1);
}

TEST(RunAlignerTest, TimeLimitYieldsDnf) {
  Rng rng(5);
  auto base = BarabasiAlbert(60, 3, &rng);
  ASSERT_TRUE(base.ok());
  NoiseOptions noise;
  auto prob = MakeAlignmentProblem(*base, noise, &rng);
  ASSERT_TRUE(prob.ok());
  IsoRankAligner iso;
  RunOutcome out =
      RunAligner(&iso, *prob, AssignmentMethod::kJonkerVolgenant, 0.0);
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.error.rfind("DNF", 0), 0u);
  EXPECT_EQ(FormatAccuracy(out), "DNF");
}

TEST(RunAveragedTest, AveragesOverRepetitions) {
  Rng rng(6);
  auto base = BarabasiAlbert(40, 3, &rng);
  ASSERT_TRUE(base.ok());
  NoiseOptions noise;
  noise.level = 0.02;
  IsoRankAligner iso;
  RunOutcome out = RunAveraged(&iso, *base, noise,
                               AssignmentMethod::kJonkerVolgenant,
                               /*reps=*/3, /*seed=*/1, /*limit=*/60.0);
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_EQ(out.completed_runs, 3);
  EXPECT_GE(out.quality.accuracy, 0.0);
  EXPECT_LE(out.quality.accuracy, 1.0);
  EXPECT_EQ(FormatAccuracy(out), Table::Num(out.quality.accuracy));
}

TEST(RunAveragedTest, DeterministicForSeed) {
  Rng rng(7);
  auto base = BarabasiAlbert(40, 3, &rng);
  ASSERT_TRUE(base.ok());
  NoiseOptions noise;
  noise.level = 0.03;
  IsoRankAligner iso;
  RunOutcome a = RunAveraged(&iso, *base, noise,
                             AssignmentMethod::kJonkerVolgenant, 2, 5, 60.0);
  RunOutcome b = RunAveraged(&iso, *base, noise,
                             AssignmentMethod::kJonkerVolgenant, 2, 5, 60.0);
  ASSERT_TRUE(a.completed && b.completed);
  EXPECT_DOUBLE_EQ(a.quality.accuracy, b.quality.accuracy);
}

// ---------------------------------------------------------------------------
// Isolation flags, journal, and crash/OOM containment.

TEST(BenchArgsTest, ParsesIsolationFlags) {
  const char* argv[] = {"bench", "--isolate", "--mem-limit", "512",
                        "--journal", "/tmp/j.tsv", "--resume"};
  BenchArgs args = ParseBenchArgs(7, const_cast<char**>(argv));
  EXPECT_TRUE(args.isolate);
  EXPECT_DOUBLE_EQ(args.mem_limit_mb, 512.0);
  EXPECT_EQ(args.journal_path, "/tmp/j.tsv");
  EXPECT_TRUE(args.resume);
}

TEST(BenchArgsTest, MemLimitAloneImpliesIsolation) {
  const char* argv[] = {"bench", "--mem-limit", "256"};
  BenchArgs args = ParseBenchArgs(3, const_cast<char**>(argv));
  EXPECT_TRUE(args.isolate);
}

TEST(BenchArgsTest, FullImpliesIsolationUnlessOptedOut) {
  const char* full_argv[] = {"bench", "--full"};
  EXPECT_TRUE(ParseBenchArgs(2, const_cast<char**>(full_argv)).isolate);
  const char* opt_out_argv[] = {"bench", "--full", "--no-isolate"};
  EXPECT_FALSE(ParseBenchArgs(3, const_cast<char**>(opt_out_argv)).isolate);
  const char* smoke_argv[] = {"bench"};
  EXPECT_FALSE(ParseBenchArgs(1, const_cast<char**>(smoke_argv)).isolate);
}

TEST(BenchArgsTest, ZeroRetriesAndSeedAreAccepted) {
  const char* argv[] = {"bench", "--retries", "0", "--seed", "0"};
  BenchArgs args = ParseBenchArgs(5, const_cast<char**>(argv));
  EXPECT_EQ(args.retries, 0);
  EXPECT_EQ(args.seed, 0u);
}

// Every malformed command line exits 2 with a one-line message; none of
// them aborts or is read as a different value.
TEST(BenchArgsDeathTest, MissingValueExitsWithUsage) {
  const char* argv[] = {"bench", "--reps"};
  EXPECT_EXIT(ParseBenchArgs(2, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "missing value for --reps");
}

TEST(BenchArgsDeathTest, NegativeSeedDoesNotWrap) {
  const char* argv[] = {"bench", "--seed", "-1"};
  EXPECT_EXIT(ParseBenchArgs(3, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "invalid value '-1' for --seed");
}

TEST(BenchArgsDeathTest, RetriesAboveCapIsRejected) {
  const char* argv[] = {"bench", "--retries", "101"};
  EXPECT_EXIT(ParseBenchArgs(3, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2),
              "invalid value '101' for --retries");
}

TEST(BenchArgsDeathTest, SwitchGivenAValueIsRejected) {
  const char* argv[] = {"bench", "--full", "5"};
  EXPECT_EXIT(ParseBenchArgs(3, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "--full takes no value");
}

TEST(BenchArgsDeathTest, UnknownFlagIsRejected) {
  const char* argv[] = {"bench", "--reps", "2", "--bogus"};
  EXPECT_EXIT(ParseBenchArgs(4, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "unknown flag --bogus");
}

TEST(JournalTest, RecordsAndResumes) {
  const std::string path = testing::TempDir() + "/journal_resume.tsv";
  std::remove(path.c_str());
  {
    auto j = Journal::Open(path, /*resume=*/true);  // Missing file is fine.
    ASSERT_TRUE(j.ok()) << j.status().ToString();
    EXPECT_EQ(j->loaded(), 0u);
    ASSERT_TRUE(j->Record("NSD|0.05", {"NSD", "0.05", "0.91"}).ok());
    ASSERT_TRUE(j->Record("GWL|0.05", {"GWL", "0.05", "DNF"}).ok());
  }
  auto j = Journal::Open(path, /*resume=*/true);
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  EXPECT_EQ(j->loaded(), 2u);
  const std::vector<std::string>* row = j->Row("NSD|0.05");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[2], "0.91");
  EXPECT_EQ(j->Row("missing"), nullptr);
  std::remove(path.c_str());
}

TEST(JournalTest, WithoutResumeTruncatesAndRejectsBadCells) {
  const std::string path = testing::TempDir() + "/journal_trunc.tsv";
  {
    auto j = Journal::Open(path, /*resume=*/true);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(j->Record("k", {"a", "b"}).ok());
  }
  auto j = Journal::Open(path, /*resume=*/false);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->loaded(), 0u);
  EXPECT_EQ(j->Row("k"), nullptr);
  EXPECT_FALSE(j->Record("bad\tkey", {"a"}).ok());
  EXPECT_FALSE(j->Record("k", {"multi\nline"}).ok());
  std::remove(path.c_str());
}

TEST(JournalTest, DropsTrailingPartialLine) {
  const std::string path = testing::TempDir() + "/journal_partial.tsv";
  {
    std::ofstream f(path);
    f << "done\tA\t1\n"
      << "torn\tB\t0.5";  // No newline: the writer died mid-record.
  }
  auto j = Journal::Open(path, /*resume=*/true);
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  EXPECT_EQ(j->loaded(), 1u);
  EXPECT_NE(j->Row("done"), nullptr);
  EXPECT_EQ(j->Row("torn"), nullptr);
  std::remove(path.c_str());
}

TEST(FaultAlignerTest, OnlyFaultNamesResolve) {
  EXPECT_NE(MakeFaultAligner("_CRASH"), nullptr);
  EXPECT_NE(MakeFaultAligner("_OOM"), nullptr);
  EXPECT_NE(MakeFaultAligner("_HANG"), nullptr);
  EXPECT_EQ(MakeFaultAligner("GWL"), nullptr);
  EXPECT_EQ(MakeFaultAligner(""), nullptr);
}

BenchArgs IsolatedArgs() {
  BenchArgs args;
  args.isolate = true;
  args.time_limit_seconds = 120.0;
  return args;
}

AlignmentProblem SmallProblem() {
  Rng rng(11);
  auto base = BarabasiAlbert(30, 3, &rng);
  GA_CHECK(base.ok());
  NoiseOptions noise;
  noise.level = 0.02;
  auto prob = MakeAlignmentProblem(*base, noise, &rng);
  GA_CHECK(prob.ok());
  return *std::move(prob);
}

TEST(ContainmentTest, CrashingAlignerYieldsCrashOutcome) {
  auto crash = MakeFaultAligner("_CRASH");
  ASSERT_NE(crash, nullptr);
  AlignmentProblem prob = SmallProblem();
  RunOutcome out = RunAligner(crash.get(), prob,
                              AssignmentMethod::kJonkerVolgenant,
                              IsolatedArgs());
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.error.rfind("CRASH", 0), 0u) << out.error;
  EXPECT_EQ(FormatAccuracy(out), "CRASH");
}

TEST(ContainmentTest, OomAlignerYieldsOomOutcome) {
  auto oom = MakeFaultAligner("_OOM");
  ASSERT_NE(oom, nullptr);
  AlignmentProblem prob = SmallProblem();
  BenchArgs args = IsolatedArgs();
  args.mem_limit_mb = 256.0;
  RunOutcome out = RunAligner(oom.get(), prob,
                              AssignmentMethod::kJonkerVolgenant, args);
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.error.rfind("OOM", 0), 0u) << out.error;
  EXPECT_EQ(FormatOutcome(out, 0.0), "OOM");
}

TEST(ContainmentTest, HealthyRunRoundtripsThroughTheChild) {
  Rng rng(7);
  auto base = BarabasiAlbert(40, 3, &rng);
  ASSERT_TRUE(base.ok());
  NoiseOptions noise;
  noise.level = 0.03;
  IsoRankAligner iso;
  // The isolated result must match the inline result bit-for-bit: the child
  // runs the same deterministic code and only the transport differs.
  RunOutcome inline_out = RunAveraged(&iso, *base, noise,
                                      AssignmentMethod::kJonkerVolgenant, 2, 5,
                                      60.0);
  RunOutcome isolated = RunAveraged(&iso, *base, noise,
                                    AssignmentMethod::kJonkerVolgenant, 2, 5,
                                    IsolatedArgs());
  ASSERT_TRUE(inline_out.completed);
  ASSERT_TRUE(isolated.completed) << isolated.error;
  EXPECT_DOUBLE_EQ(isolated.quality.accuracy, inline_out.quality.accuracy);
  EXPECT_EQ(isolated.completed_runs, inline_out.completed_runs);
  EXPECT_GT(isolated.peak_mem_mb, 0.0);
}

TEST(ContainmentTest, MeasurePeakMemoryReportsChildPeak) {
  BenchArgs args;  // Isolation off: MeasurePeakMemory forks regardless.
  RunOutcome out = MeasurePeakMemory(args, [] {
    std::vector<char> block(32u << 20, 1);
    EXPECT_GT(block[1 << 20], 0);
  });
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_GE(out.peak_mem_mb, 32.0);
}

}  // namespace
}  // namespace graphalign

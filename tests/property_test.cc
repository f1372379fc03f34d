// Property-based sweeps across generators, metrics, noise, and solvers:
// invariants that must hold for arbitrary seeds/sizes, exercised via
// parameterized gtest instantiations.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "align/netalign.h"
#include "assignment/assignment.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/graphlets.h"
#include "linalg/eigen_sym.h"
#include "metrics/metrics.h"
#include "noise/noise.h"

namespace graphalign {
namespace {

// ---------------------------------------------------------------------------
// Generator invariants across models and seeds.

struct GeneratorCase {
  std::string name;
  int n;
  uint64_t seed;
};

class GeneratorPropertyTest
    : public testing::TestWithParam<std::tuple<std::string, int, uint64_t>> {
 protected:
  Result<Graph> Generate() {
    auto [model, n, seed] = GetParam();
    Rng rng(seed);
    if (model == "er") return ErdosRenyi(n, 8.0 / n, &rng);
    if (model == "ba") return BarabasiAlbert(n, 3, &rng);
    if (model == "ws") return WattsStrogatz(n, 6, 0.3, &rng);
    if (model == "nw") return NewmanWatts(n, 4, 0.3, &rng);
    if (model == "pl") return PowerlawCluster(n, 3, 0.5, &rng);
    if (model == "geo") return RandomGeometric(n, 0.15, &rng);
    if (model == "config") {
      std::vector<int> deg = NormalDegreeSequence(n, 6.0, 1.5, &rng);
      return ConfigurationModel(deg, &rng);
    }
    return Status::InvalidArgument("unknown model");
  }
};

INSTANTIATE_TEST_SUITE_P(
    Models, GeneratorPropertyTest,
    testing::Combine(testing::Values("er", "ba", "ws", "nw", "pl", "geo",
                                     "config"),
                     testing::Values(40, 150), testing::Values(1u, 99u)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

TEST_P(GeneratorPropertyTest, ProducesSimpleGraphOfRequestedSize) {
  auto g = Generate();
  ASSERT_TRUE(g.ok());
  auto [model, n, seed] = GetParam();
  EXPECT_EQ(g->num_nodes(), n);
  // Simple graph: neighbor lists sorted, deduplicated, no self-loops.
  int64_t degree_sum = 0;
  for (int v = 0; v < n; ++v) {
    auto nbrs = g->Neighbors(v);
    degree_sum += static_cast<int64_t>(nbrs.size());
    for (size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_NE(nbrs[i], v);
      if (i > 0) {
        EXPECT_LT(nbrs[i - 1], nbrs[i]);
      }
    }
  }
  EXPECT_EQ(degree_sum, 2 * g->num_edges());
}

TEST_P(GeneratorPropertyTest, AdjacencySymmetry) {
  auto g = Generate();
  ASSERT_TRUE(g.ok());
  for (const Edge& e : g->Edges()) {
    EXPECT_TRUE(g->HasEdge(e.u, e.v));
    EXPECT_TRUE(g->HasEdge(e.v, e.u));
  }
}

TEST_P(GeneratorPropertyTest, LaplacianSpectrumInValidRange) {
  auto g = Generate();
  ASSERT_TRUE(g.ok());
  if (g->num_nodes() > 60) return;  // Dense solver cost guard.
  auto eig = SymmetricEigen(g->NormalizedLaplacianDense());
  ASSERT_TRUE(eig.ok());
  // Normalized Laplacian eigenvalues lie in [0, 2]; smallest is ~0.
  EXPECT_NEAR(eig->eigenvalues.front(), 0.0, 1e-9);
  for (double l : eig->eigenvalues) {
    EXPECT_GE(l, -1e-9);
    EXPECT_LE(l, 2.0 + 1e-9);
  }
}

TEST_P(GeneratorPropertyTest, PermutationPreservesDegreeMultiset) {
  auto g = Generate();
  ASSERT_TRUE(g.ok());
  auto [model, n, seed] = GetParam();
  Rng rng(seed + 7);
  std::vector<int> perm = RandomPermutation(n, &rng);
  auto pg = g->Permuted(perm);
  ASSERT_TRUE(pg.ok());
  std::vector<int> d1(n), d2(n);
  for (int v = 0; v < n; ++v) {
    d1[v] = g->Degree(v);
    d2[v] = pg->Degree(v);
  }
  std::sort(d1.begin(), d1.end());
  std::sort(d2.begin(), d2.end());
  EXPECT_EQ(d1, d2);
  // Triangle multiset is also permutation-invariant.
  auto t1 = g->TriangleCounts();
  auto t2 = pg->TriangleCounts();
  std::sort(t1.begin(), t1.end());
  std::sort(t2.begin(), t2.end());
  EXPECT_EQ(t1, t2);
}

// ---------------------------------------------------------------------------
// Metric invariants under ground-truth alignment, across noise types/levels.

class MetricPropertyTest
    : public testing::TestWithParam<std::tuple<NoiseType, double, uint64_t>> {
};

INSTANTIATE_TEST_SUITE_P(
    Noise, MetricPropertyTest,
    testing::Combine(testing::Values(NoiseType::kOneWay,
                                     NoiseType::kMultiModal,
                                     NoiseType::kTwoWay),
                     testing::Values(0.0, 0.05, 0.20),
                     testing::Values(3u, 17u)),
    [](const auto& info) {
      std::string t = NoiseTypeName(std::get<0>(info.param));
      std::replace(t.begin(), t.end(), '-', '_');
      return t + "_l" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100)) +
             "_s" + std::to_string(std::get<2>(info.param));
    });

TEST_P(MetricPropertyTest, GroundTruthScoresBoundedAndConsistent) {
  auto [type, level, seed] = GetParam();
  Rng rng(seed);
  auto base = PowerlawCluster(120, 3, 0.4, &rng);
  ASSERT_TRUE(base.ok());
  NoiseOptions noise;
  noise.type = type;
  noise.level = level;
  auto prob = MakeAlignmentProblem(*base, noise, &rng);
  ASSERT_TRUE(prob.ok());
  QualityReport q = EvaluateAlignment(prob->g1, prob->g2, prob->ground_truth,
                                      prob->ground_truth);
  // Ground-truth alignment always has accuracy 1 and all scores in [0,1].
  EXPECT_DOUBLE_EQ(q.accuracy, 1.0);
  for (double v : {q.mnc, q.ec, q.ics, q.s3}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
  if (level == 0.0) {
    EXPECT_DOUBLE_EQ(q.ec, 1.0);
    EXPECT_DOUBLE_EQ(q.s3, 1.0);
    EXPECT_DOUBLE_EQ(q.mnc, 1.0);
  }
  // One-way noise only removes target edges: every surviving target edge is
  // the image of a source edge, so ICS of the truth mapping is 1.
  if (type == NoiseType::kOneWay) {
    EXPECT_NEAR(q.ics, 1.0, 1e-12);
  }
  // S3 never exceeds min(EC, ICS) (it shares the numerator with a larger
  // denominator).
  EXPECT_LE(q.s3, std::min(q.ec, q.ics) + 1e-12);
}

TEST_P(MetricPropertyTest, RandomAlignmentScoresNearZero) {
  auto [type, level, seed] = GetParam();
  Rng rng(seed + 1000);
  auto base = PowerlawCluster(120, 3, 0.4, &rng);
  ASSERT_TRUE(base.ok());
  NoiseOptions noise;
  noise.type = type;
  noise.level = level;
  auto prob = MakeAlignmentProblem(*base, noise, &rng);
  ASSERT_TRUE(prob.ok());
  Alignment random_align = RandomPermutation(120, &rng);
  QualityReport q = EvaluateAlignment(prob->g1, prob->g2, random_align,
                                      prob->ground_truth);
  EXPECT_LT(q.accuracy, 0.1);
  EXPECT_LT(q.s3, 0.2);
}

// ---------------------------------------------------------------------------
// LAP solver optimality agreement across sizes and value distributions.

class LapPropertyTest
    : public testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Sizes, LapPropertyTest,
    testing::Combine(testing::Values(3, 17, 64), testing::Values(0, 1, 2),
                     testing::Values(5u, 23u)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_dist" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

TEST_P(LapPropertyTest, HungarianAndJvAgreeOnObjective) {
  auto [n, dist, seed] = GetParam();
  Rng rng(seed);
  DenseMatrix sim(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      switch (dist) {
        case 0:
          sim(i, j) = rng.Uniform();
          break;
        case 1:
          sim(i, j) = rng.Normal();  // Negative values allowed.
          break;
        default:
          // Heavily tied values: the degenerate regime that once hung JV.
          sim(i, j) = rng.UniformInt(uint64_t{3}) * 0.5;
          break;
      }
    }
  }
  auto h = HungarianAssign(sim);
  auto jv = JonkerVolgenantAssign(sim);
  ASSERT_TRUE(h.ok() && jv.ok());
  EXPECT_NEAR(AlignmentScore(sim, *h), AlignmentScore(sim, *jv), 1e-7);
  // Both are complete one-to-one matchings.
  std::set<int> used_h(h->begin(), h->end()), used_jv(jv->begin(), jv->end());
  EXPECT_EQ(used_h.size(), static_cast<size_t>(n));
  EXPECT_EQ(used_jv.size(), static_cast<size_t>(n));
}

TEST_P(LapPropertyTest, OptimalDominatesGreedyAndNN) {
  auto [n, dist, seed] = GetParam();
  Rng rng(seed + 500);
  DenseMatrix sim(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) sim(i, j) = rng.Uniform();
  }
  auto jv = JonkerVolgenantAssign(sim);
  auto sg = SortGreedyAssign(sim);
  ASSERT_TRUE(jv.ok() && sg.ok());
  EXPECT_GE(AlignmentScore(sim, *jv), AlignmentScore(sim, *sg) - 1e-9);
}

// ---------------------------------------------------------------------------
// Graphlet-orbit identities that hold for any graph.

class GraphletPropertyTest : public testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, GraphletPropertyTest,
                         testing::Values(2u, 11u, 31u, 47u));

TEST_P(GraphletPropertyTest, OrbitCountingIdentities) {
  Rng rng(GetParam());
  auto g = ErdosRenyi(35, 0.18, &rng);
  ASSERT_TRUE(g.ok());
  auto orbits = CountGraphletOrbits(*g);
  ASSERT_TRUE(orbits.ok());
  const int n = g->num_nodes();
  // Identity 1: orbit 0 equals the degree.
  for (int v = 0; v < n; ++v) {
    EXPECT_DOUBLE_EQ((*orbits)(v, 0), g->Degree(v));
  }
  // Identity 2: sum of triangle orbits = 3 * (#triangles).
  double orbit3_sum = 0.0;
  int64_t tri_sum = 0;
  for (int64_t t : g->TriangleCounts()) tri_sum += t;
  for (int v = 0; v < n; ++v) orbit3_sum += (*orbits)(v, 3);
  EXPECT_DOUBLE_EQ(orbit3_sum, static_cast<double>(tri_sum));
  // Identity 3: each graphlet type contributes a fixed orbit-count vector:
  // per P4: two orbit-4 and two orbit-5 touches.
  double o4 = 0.0, o5 = 0.0, o6 = 0.0, o7 = 0.0, o8 = 0.0, o14 = 0.0;
  for (int v = 0; v < n; ++v) {
    o4 += (*orbits)(v, 4);
    o5 += (*orbits)(v, 5);
    o6 += (*orbits)(v, 6);
    o7 += (*orbits)(v, 7);
    o8 += (*orbits)(v, 8);
    o14 += (*orbits)(v, 14);
  }
  EXPECT_DOUBLE_EQ(o4, o5);          // P4: 2 ends, 2 middles.
  EXPECT_DOUBLE_EQ(o6, 3.0 * o7);    // Claw: 3 leaves per center.
  EXPECT_EQ(std::fmod(o8, 4.0), 0);  // C4 touches 4 nodes.
  EXPECT_EQ(std::fmod(o14, 4.0), 0);  // K4 touches 4 nodes.
}

// ---------------------------------------------------------------------------
// Sinkhorn-like invariants for noise accounting.

class NoiseAccountingTest
    : public testing::TestWithParam<std::tuple<double, uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(Levels, NoiseAccountingTest,
                         testing::Combine(testing::Values(0.01, 0.10, 0.25),
                                          testing::Values(7u, 77u)));

TEST_P(NoiseAccountingTest, EdgeBudgetsExact) {
  auto [level, seed] = GetParam();
  Rng rng(seed);
  auto base = BarabasiAlbert(150, 4, &rng);
  ASSERT_TRUE(base.ok());
  const int64_t k = std::llround(level * static_cast<double>(base->num_edges()));
  for (NoiseType type : {NoiseType::kOneWay, NoiseType::kMultiModal,
                         NoiseType::kTwoWay}) {
    NoiseOptions noise;
    noise.type = type;
    noise.level = level;
    auto prob = MakeAlignmentProblem(*base, noise, &rng);
    ASSERT_TRUE(prob.ok());
    switch (type) {
      case NoiseType::kOneWay:
        EXPECT_EQ(prob->g1.num_edges(), base->num_edges());
        EXPECT_EQ(prob->g2.num_edges(), base->num_edges() - k);
        break;
      case NoiseType::kMultiModal:
        EXPECT_EQ(prob->g2.num_edges(), base->num_edges());
        break;
      case NoiseType::kTwoWay:
        EXPECT_EQ(prob->g1.num_edges(), base->num_edges() - k);
        EXPECT_EQ(prob->g2.num_edges(), base->num_edges() - k);
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// NetAlign (excluded baseline) sanity.

AlignPlan NativePlan() {
  AlignPlan plan;
  plan.path = AlignPath::kNative;
  return plan;
}

TEST(NetAlignTest, ValidOneToOneOutputButWeakerThanIncludedMethods) {
  Rng rng(41);
  auto base = PowerlawCluster(100, 3, 0.4, &rng);
  ASSERT_TRUE(base.ok());
  NoiseOptions noise;
  noise.level = 0.02;
  auto prob = MakeAlignmentProblem(*base, noise, &rng);
  ASSERT_TRUE(prob.ok());
  NetAlignAligner netalign;
  auto report = netalign.Run(prob->g1, prob->g2, NativePlan());
  ASSERT_TRUE(report.ok());
  std::set<int> used;
  for (int t : report->alignment) {
    if (t >= 0) {
      EXPECT_TRUE(used.insert(t).second);
    }
  }
  const double acc = Accuracy(report->alignment, prob->ground_truth);
  EXPECT_GT(acc, 0.02);  // Better than random...
  EXPECT_LT(acc, 0.9);   // ...but clearly below the included nine (§4).
}

TEST(NetAlignTest, SimilarityIsSparseOnCandidates) {
  Rng rng(43);
  auto g = BarabasiAlbert(60, 3, &rng);
  ASSERT_TRUE(g.ok());
  NetAlignOptions opts;
  opts.candidates_per_node = 5;
  NetAlignAligner netalign(opts);
  auto sim = netalign.ComputeSimilarity(*g, *g);
  ASSERT_TRUE(sim.ok());
  int64_t nonzero = 0;
  for (int i = 0; i < 60; ++i) {
    for (int j = 0; j < 60; ++j) nonzero += ((*sim)(i, j) != 0.0);
  }
  EXPECT_LE(nonzero, 60 * 5);
}

TEST(NetAlignTest, RejectsBadOptions) {
  Rng rng(47);
  auto g = ErdosRenyi(10, 0.3, &rng);
  ASSERT_TRUE(g.ok());
  NetAlignOptions opts;
  opts.damping = 1.0;
  EXPECT_FALSE(NetAlignAligner(opts).ComputeSimilarity(*g, *g).ok());
  opts = NetAlignOptions();
  opts.candidates_per_node = 0;
  EXPECT_FALSE(NetAlignAligner(opts).Run(*g, *g, NativePlan()).ok());
}

}  // namespace
}  // namespace graphalign

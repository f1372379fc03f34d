#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graphlets.h"
#include "graph/io.h"

namespace graphalign {
namespace {

Graph MustGraph(int n, const std::vector<Edge>& edges) {
  auto g = Graph::FromEdges(n, edges);
  GA_CHECK(g.ok());
  return *std::move(g);
}

TEST(GraphTest, EmptyGraph) {
  Graph g = MustGraph(0, {});
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_TRUE(g.IsConnected());
}

TEST(GraphTest, BasicAdjacency) {
  Graph g = MustGraph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  auto nbrs = g.Neighbors(1);
  EXPECT_EQ(std::vector<int>(nbrs.begin(), nbrs.end()),
            (std::vector<int>{0, 2}));
}

TEST(GraphTest, DeduplicatesEdges) {
  Graph g = MustGraph(3, {{0, 1}, {1, 0}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.Degree(0), 1);
}

TEST(GraphTest, RejectsSelfLoopsAndOutOfRange) {
  EXPECT_FALSE(Graph::FromEdges(3, {{1, 1}}).ok());
  EXPECT_FALSE(Graph::FromEdges(3, {{0, 3}}).ok());
  EXPECT_FALSE(Graph::FromEdges(3, {{-1, 0}}).ok());
  EXPECT_FALSE(Graph::FromEdges(-1, {}).ok());
}

TEST(GraphTest, DegreeStatistics) {
  Graph g = MustGraph(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(g.MaxDegree(), 3);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 1.5);
}

TEST(GraphTest, EdgesRoundTrip) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 3}};
  Graph g = MustGraph(4, edges);
  std::vector<Edge> out = g.Edges();
  EXPECT_EQ(out.size(), 3u);
  for (const Edge& e : out) EXPECT_LT(e.u, e.v);
}

TEST(GraphTest, AdjacencyCsrIsSymmetric) {
  Graph g = MustGraph(3, {{0, 1}, {1, 2}});
  DenseMatrix a = g.AdjacencyCsr().ToDense();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(a(i, j), a(j, i));
      EXPECT_DOUBLE_EQ(a(i, j), g.HasEdge(i, j) ? 1.0 : 0.0);
    }
  }
}

TEST(GraphTest, RandomWalkRowsSumToOne) {
  Graph g = MustGraph(4, {{0, 1}, {0, 2}, {2, 3}});
  auto rw = g.RandomWalkCsr();
  std::vector<double> sums = rw.RowSums();
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(sums[i], 1.0, 1e-12);
}

TEST(GraphTest, NormalizedLaplacianProperties) {
  Graph g = MustGraph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  DenseMatrix l = g.NormalizedLaplacianDense();
  // Diagonal 1, symmetric, row i sums to 1 - sum of d^-1/2 terms;
  // for a 2-regular cycle, off-diagonals are -1/2.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(l(i, i), 1.0);
    for (int j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(l(i, j), l(j, i));
      if (g.HasEdge(i, j)) {
        EXPECT_DOUBLE_EQ(l(i, j), -0.5);
      }
    }
  }
}

TEST(GraphTest, PermutedPreservesStructure) {
  Graph g = MustGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}});
  Rng rng(1);
  std::vector<int> perm = RandomPermutation(5, &rng);
  auto pg = g.Permuted(perm);
  ASSERT_TRUE(pg.ok());
  EXPECT_EQ(pg->num_edges(), g.num_edges());
  for (const Edge& e : g.Edges()) {
    EXPECT_TRUE(pg->HasEdge(perm[e.u], perm[e.v]));
  }
  // Degree sequence preserved under relabeling.
  std::vector<int> d1(5), d2(5);
  for (int v = 0; v < 5; ++v) {
    d1[v] = g.Degree(v);
    d2[perm[v]] = pg->Degree(perm[v]);
  }
  for (int v = 0; v < 5; ++v) EXPECT_EQ(g.Degree(v), pg->Degree(perm[v]));
}

TEST(GraphTest, PermutedRejectsInvalid) {
  Graph g = MustGraph(3, {{0, 1}});
  EXPECT_FALSE(g.Permuted({0, 1}).ok());        // Wrong size.
  EXPECT_FALSE(g.Permuted({0, 1, 1}).ok());     // Duplicate.
  EXPECT_FALSE(g.Permuted({0, 1, 5}).ok());     // Out of range.
}

TEST(GraphTest, ConnectedComponents) {
  Graph g = MustGraph(6, {{0, 1}, {1, 2}, {3, 4}});
  int k = 0;
  std::vector<int> comp = g.ConnectedComponents(&k);
  EXPECT_EQ(k, 3);  // {0,1,2}, {3,4}, {5}.
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[0], comp[5]);
  EXPECT_FALSE(g.IsConnected());
  EXPECT_EQ(g.NodesOutsideLargestComponent(), 3);
}

TEST(GraphTest, TriangleCounts) {
  // Triangle 0-1-2 plus pendant 3.
  Graph g = MustGraph(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  std::vector<int64_t> tri = g.TriangleCounts();
  EXPECT_EQ(tri[0], 1);
  EXPECT_EQ(tri[1], 1);
  EXPECT_EQ(tri[2], 1);
  EXPECT_EQ(tri[3], 0);
}

TEST(GraphTest, TriangleCountsOnK4) {
  Graph g = MustGraph(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  for (int64_t t : g.TriangleCounts()) EXPECT_EQ(t, 3);
}

TEST(IoTest, RoundTrip) {
  Graph g = MustGraph(5, {{0, 1}, {1, 2}, {3, 4}});
  std::string path = testing::TempDir() + "/io_roundtrip.txt";
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  auto g2 = ReadEdgeList(path);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2->num_edges(), 3);
  EXPECT_TRUE(g2->HasEdge(1, 2));
  std::remove(path.c_str());
}

TEST(IoTest, ParsesCommentsAndPreservesNumericIds) {
  std::string path = testing::TempDir() + "/io_comments.txt";
  FILE* f = fopen(path.c_str(), "w");
  fputs("# comment\n% other comment\n10 20\n20 30\n10 10\n", f);
  fclose(f);
  auto g = ReadEdgeList(path);
  ASSERT_TRUE(g.ok());
  // Dense numeric ids are preserved verbatim (nodes 0..30 exist, self-loop
  // dropped) so mapping files stay consistent across reloads.
  EXPECT_EQ(g->num_nodes(), 31);
  EXPECT_EQ(g->num_edges(), 2);
  EXPECT_TRUE(g->HasEdge(10, 20));
  EXPECT_TRUE(g->HasEdge(20, 30));
  std::remove(path.c_str());
}

TEST(IoTest, CountsDroppedSelfLoopsInLoadStats) {
  // Self-loops are silently dropped on load; LoadStats pins the count so the
  // `stats` subcommand (and any caller) can report the discrepancy between
  // file lines and graph edges instead of hiding it.
  std::string path = testing::TempDir() + "/io_self_loops.txt";
  FILE* f = fopen(path.c_str(), "w");
  fputs("0 1\n1 1\n1 2\n2 2\n0 0\n2 3\n", f);
  fclose(f);
  LoadStats stats;
  auto g = ReadEdgeList(path, /*num_nodes=*/0, &stats);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 3);
  EXPECT_EQ(stats.self_loops_dropped, 3);
  // A clean file reports zero (the struct is overwritten, not accumulated).
  std::string clean = testing::TempDir() + "/io_no_self_loops.txt";
  f = fopen(clean.c_str(), "w");
  fputs("0 1\n1 2\n", f);
  fclose(f);
  auto g2 = ReadEdgeList(clean, 0, &stats);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(stats.self_loops_dropped, 0);
  std::remove(path.c_str());
  std::remove(clean.c_str());
}

TEST(IoTest, RoundTripPreservesNodeIdentity) {
  // Writing and re-reading must not relabel nodes — ground-truth mapping
  // files depend on stable ids.
  Rng rng(77);
  auto g = BarabasiAlbert(60, 2, &rng);
  ASSERT_TRUE(g.ok());
  std::string path = testing::TempDir() + "/io_identity.txt";
  ASSERT_TRUE(WriteEdgeList(*g, path).ok());
  auto back = ReadEdgeList(path);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_nodes(), g->num_nodes());
  for (const Edge& e : g->Edges()) {
    EXPECT_TRUE(back->HasEdge(e.u, e.v));
  }
  EXPECT_EQ(back->num_edges(), g->num_edges());
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileAndMalformedLine) {
  EXPECT_EQ(ReadEdgeList("/nonexistent/file.txt").status().code(),
            StatusCode::kNotFound);
  std::string path = testing::TempDir() + "/io_bad.txt";
  FILE* f = fopen(path.c_str(), "w");
  fputs("1 notanumber\n", f);
  fclose(f);
  EXPECT_FALSE(ReadEdgeList(path).ok());
  std::remove(path.c_str());
}

// Writes `content` to a temp file, reads it as an edge list, and returns the
// resulting status (removing the file again).
Status ReadStatusOf(const std::string& name, const std::string& content) {
  const std::string path = testing::TempDir() + "/io_" + name;
  FILE* f = fopen(path.c_str(), "w");
  fputs(content.c_str(), f);
  fclose(f);
  Status s = ReadEdgeList(path).status();
  std::remove(path.c_str());
  return s;
}

TEST(IoTest, MalformedLinesNameTheLine) {
  Status s = ReadStatusOf("malformed.txt", "0 1\n1 2\nbogus line\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find(":3:"), std::string::npos) << s.ToString();

  // One id only is malformed, not silently padded.
  s = ReadStatusOf("oneid.txt", "0 1\n7\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find(":2:"), std::string::npos) << s.ToString();
}

TEST(IoTest, TrailingDataRejected) {
  // A third column means a weighted list; misreading it silently as
  // unweighted would be worse than failing.
  Status s = ReadStatusOf("weighted.txt", "0 1 0.75\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find(":1:"), std::string::npos) << s.ToString();
  // Trailing whitespace and \r are fine.
  EXPECT_TRUE(ReadStatusOf("crlf.txt", "0 1 \t\r\n2 3\r\n").ok());
}

TEST(IoTest, NegativeAndOverflowingIdsRejected) {
  Status s = ReadStatusOf("negative.txt", "0 1\n-2 3\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find(":2:"), std::string::npos) << s.ToString();
  EXPECT_NE(s.ToString().find("negative"), std::string::npos) << s.ToString();

  s = ReadStatusOf("overflow.txt", "0 99999999999999999999999999\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("out of range"), std::string::npos)
      << s.ToString();
}

TEST(IoTest, DuplicateEdgesRejectedWithBothLines) {
  // Exact repeats and reversed orientation both count as duplicates.
  Status s = ReadStatusOf("dup.txt", "0 1\n1 2\n1 0\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find(":3:"), std::string::npos) << s.ToString();
  EXPECT_NE(s.ToString().find("line 1"), std::string::npos) << s.ToString();
}

// ---------------------------------------------------------------------------
// Generators.

TEST(GeneratorsTest, ErdosRenyiEdgeCountConcentrates) {
  Rng rng(42);
  const int n = 400;
  const double p = 0.05;
  auto g = ErdosRenyi(n, p, &rng);
  ASSERT_TRUE(g.ok());
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g->num_edges()), expected, 4 * std::sqrt(expected));
}

TEST(GeneratorsTest, ErdosRenyiExtremes) {
  Rng rng(1);
  auto empty = ErdosRenyi(10, 0.0, &rng);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_edges(), 0);
  auto full = ErdosRenyi(10, 1.0, &rng);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->num_edges(), 45);
  EXPECT_FALSE(ErdosRenyi(10, 1.5, &rng).ok());
  EXPECT_FALSE(ErdosRenyi(-1, 0.5, &rng).ok());
}

TEST(GeneratorsTest, BarabasiAlbertDegreeAndEdges) {
  Rng rng(7);
  const int n = 500, m = 5;
  auto g = BarabasiAlbert(n, m, &rng);
  ASSERT_TRUE(g.ok());
  // m seed edges + m per subsequent node (minus dedup, which is rare).
  EXPECT_NEAR(static_cast<double>(g->num_edges()), m + (n - m - 1) * m, 10);
  for (int v = 0; v < n; ++v) EXPECT_GE(g->Degree(v), 1);
  EXPECT_TRUE(g->IsConnected());
  // Scale-free: max degree far above average.
  EXPECT_GT(g->MaxDegree(), 4 * g->AverageDegree());
  EXPECT_FALSE(BarabasiAlbert(5, 5, &rng).ok());
  EXPECT_FALSE(BarabasiAlbert(5, 0, &rng).ok());
}

TEST(GeneratorsTest, WattsStrogatzKeepsEdgeCount) {
  Rng rng(9);
  auto g = WattsStrogatz(200, 10, 0.5, &rng);
  ASSERT_TRUE(g.ok());
  // Rewiring never changes the number of edges (modulo rare dedup misses).
  EXPECT_NEAR(static_cast<double>(g->num_edges()), 200 * 5, 5);
  EXPECT_FALSE(WattsStrogatz(10, 3, 0.5, &rng).ok());   // Odd k.
  EXPECT_FALSE(WattsStrogatz(10, 10, 0.5, &rng).ok());  // k >= n.
}

TEST(GeneratorsTest, WattsStrogatzZeroRewireIsLattice) {
  Rng rng(10);
  auto g = WattsStrogatz(20, 4, 0.0, &rng);
  ASSERT_TRUE(g.ok());
  for (int v = 0; v < 20; ++v) EXPECT_EQ(g->Degree(v), 4);
  EXPECT_TRUE(g->HasEdge(0, 1));
  EXPECT_TRUE(g->HasEdge(0, 2));
  EXPECT_TRUE(g->HasEdge(0, 19));
}

TEST(GeneratorsTest, NewmanWattsOnlyAddsEdges) {
  Rng rng(11);
  const int n = 300, k = 6;
  auto g = NewmanWatts(n, k, 0.5, &rng);
  ASSERT_TRUE(g.ok());
  EXPECT_GE(g->num_edges(), static_cast<int64_t>(n) * k / 2);
  // Lattice edges all still present.
  for (int v = 0; v < n; ++v) {
    for (int j = 1; j <= k / 2; ++j) EXPECT_TRUE(g->HasEdge(v, (v + j) % n));
  }
}

TEST(GeneratorsTest, PowerlawClusterHasMoreTrianglesThanBA) {
  Rng rng(13);
  auto pl = PowerlawCluster(400, 5, 0.9, &rng);
  ASSERT_TRUE(pl.ok());
  Rng rng2(13);
  auto ba = BarabasiAlbert(400, 5, &rng2);
  ASSERT_TRUE(ba.ok());
  auto total = [](const Graph& g) {
    int64_t t = 0;
    for (int64_t x : g.TriangleCounts()) t += x;
    return t;
  };
  EXPECT_GT(total(*pl), 2 * total(*ba));
}

TEST(GeneratorsTest, ConfigurationModelMatchesDegreesApproximately) {
  Rng rng(17);
  std::vector<int> degrees = NormalDegreeSequence(300, 10.0, 2.0, &rng);
  auto g = ConfigurationModel(degrees, &rng);
  ASSERT_TRUE(g.ok());
  // Erased configuration model loses a few percent of stubs to collisions.
  int64_t want = 0;
  for (int d : degrees) want += d;
  EXPECT_GT(g->num_edges(), want / 2 * 9 / 10);
  EXPECT_LE(g->num_edges(), want / 2);
  EXPECT_FALSE(ConfigurationModel({1, 1, 1}, &rng).ok());  // Odd sum.
  EXPECT_FALSE(ConfigurationModel({-1, 1}, &rng).ok());
}

TEST(GeneratorsTest, DegreeSequencesAreValid) {
  Rng rng(19);
  std::vector<int> norm = NormalDegreeSequence(100, 10.0, 3.0, &rng);
  int64_t sum = 0;
  for (int d : norm) {
    EXPECT_GE(d, 1);
    EXPECT_LE(d, 99);
    sum += d;
  }
  EXPECT_EQ(sum % 2, 0);

  std::vector<int> pl = PowerLawDegreeSequence(100, 2.5, 3, &rng);
  sum = 0;
  for (int d : pl) {
    EXPECT_GE(d, 3);
    sum += d;
  }
  EXPECT_EQ(sum % 2, 0);
}

TEST(GeneratorsTest, RandomGeometricConnectsNearbyNodes) {
  Rng rng(23);
  auto g = RandomGeometric(500, 0.08, &rng);
  ASSERT_TRUE(g.ok());
  EXPECT_GT(g->num_edges(), 0);
  // Expected degree ~ n * pi * r^2; loose bounds.
  const double expected = 500 * 3.14159 * 0.08 * 0.08;
  EXPECT_NEAR(g->AverageDegree(), expected, expected);
}

TEST(GeneratorsTest, LargestComponentSubgraph) {
  Graph g = MustGraph(7, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {5, 6}});
  std::vector<int> mapping;
  Graph sub = LargestComponentSubgraph(g, &mapping);
  EXPECT_EQ(sub.num_nodes(), 3);
  EXPECT_EQ(sub.num_edges(), 3);
  int mapped = 0;
  for (int m : mapping) mapped += (m >= 0);
  EXPECT_EQ(mapped, 3);
}

TEST(GeneratorsTest, DeterministicGivenSeed) {
  Rng a(99), b(99);
  auto g1 = BarabasiAlbert(100, 3, &a);
  auto g2 = BarabasiAlbert(100, 3, &b);
  ASSERT_TRUE(g1.ok() && g2.ok());
  EXPECT_EQ(g1->Edges().size(), g2->Edges().size());
  auto e1 = g1->Edges(), e2 = g2->Edges();
  for (size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e1[i].u, e2[i].u);
    EXPECT_EQ(e1[i].v, e2[i].v);
  }
}

// ---------------------------------------------------------------------------
// Graphlet orbits.

TEST(GraphletsTest, TriangleOrbits) {
  Graph g = MustGraph(3, {{0, 1}, {1, 2}, {0, 2}});
  auto orbits = CountGraphletOrbits(g);
  ASSERT_TRUE(orbits.ok());
  for (int v = 0; v < 3; ++v) {
    EXPECT_DOUBLE_EQ((*orbits)(v, 0), 2.0);  // Degree.
    EXPECT_DOUBLE_EQ((*orbits)(v, 3), 1.0);  // One triangle.
    EXPECT_DOUBLE_EQ((*orbits)(v, 1), 0.0);  // No induced path ends.
    EXPECT_DOUBLE_EQ((*orbits)(v, 2), 0.0);
  }
}

TEST(GraphletsTest, Path4Orbits) {
  // 0-1-2-3 path.
  Graph g = MustGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  auto orbits = CountGraphletOrbits(g);
  ASSERT_TRUE(orbits.ok());
  EXPECT_DOUBLE_EQ((*orbits)(0, 4), 1.0);  // End of P4.
  EXPECT_DOUBLE_EQ((*orbits)(3, 4), 1.0);
  EXPECT_DOUBLE_EQ((*orbits)(1, 5), 1.0);  // Middle of P4.
  EXPECT_DOUBLE_EQ((*orbits)(2, 5), 1.0);
  // P3 counts: paths 0-1-2, 1-2-3.
  EXPECT_DOUBLE_EQ((*orbits)(0, 1), 1.0);
  EXPECT_DOUBLE_EQ((*orbits)(1, 2), 1.0);
  EXPECT_DOUBLE_EQ((*orbits)(1, 1), 1.0);  // 1 is an end of path 1-2-3.
}

TEST(GraphletsTest, StarOrbits) {
  // Star: center 0, leaves 1..3.
  Graph g = MustGraph(4, {{0, 1}, {0, 2}, {0, 3}});
  auto orbits = CountGraphletOrbits(g);
  ASSERT_TRUE(orbits.ok());
  EXPECT_DOUBLE_EQ((*orbits)(0, 7), 1.0);  // Center of claw.
  for (int v = 1; v <= 3; ++v) EXPECT_DOUBLE_EQ((*orbits)(v, 6), 1.0);
  EXPECT_DOUBLE_EQ((*orbits)(0, 2), 3.0);  // Middle of C(3,2)=3 3-paths.
}

TEST(GraphletsTest, CycleOrbits) {
  Graph g = MustGraph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  auto orbits = CountGraphletOrbits(g);
  ASSERT_TRUE(orbits.ok());
  for (int v = 0; v < 4; ++v) {
    EXPECT_DOUBLE_EQ((*orbits)(v, 8), 1.0);   // C4.
    EXPECT_DOUBLE_EQ((*orbits)(v, 14), 0.0);  // Not K4.
  }
}

TEST(GraphletsTest, PawDiamondK4Orbits) {
  // Paw: triangle 0-1-2 with pendant 3 on node 2.
  Graph paw = MustGraph(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  auto po = CountGraphletOrbits(paw);
  ASSERT_TRUE(po.ok());
  EXPECT_DOUBLE_EQ((*po)(3, 9), 1.0);   // Pendant.
  EXPECT_DOUBLE_EQ((*po)(0, 10), 1.0);  // Triangle deg-2 vertices.
  EXPECT_DOUBLE_EQ((*po)(1, 10), 1.0);
  EXPECT_DOUBLE_EQ((*po)(2, 11), 1.0);  // Hub.

  // Diamond: K4 minus edge {0,3}.
  Graph dia = MustGraph(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
  auto dorb = CountGraphletOrbits(dia);
  ASSERT_TRUE(dorb.ok());
  EXPECT_DOUBLE_EQ((*dorb)(0, 12), 1.0);
  EXPECT_DOUBLE_EQ((*dorb)(3, 12), 1.0);
  EXPECT_DOUBLE_EQ((*dorb)(1, 13), 1.0);
  EXPECT_DOUBLE_EQ((*dorb)(2, 13), 1.0);

  Graph k4 = MustGraph(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  auto ko = CountGraphletOrbits(k4);
  ASSERT_TRUE(ko.ok());
  for (int v = 0; v < 4; ++v) EXPECT_DOUBLE_EQ((*ko)(v, 14), 1.0);
}

TEST(GraphletsTest, OrbitsInvariantUnderPermutation) {
  Rng rng(31);
  auto g = ErdosRenyi(40, 0.15, &rng);
  ASSERT_TRUE(g.ok());
  auto orbits = CountGraphletOrbits(*g);
  ASSERT_TRUE(orbits.ok());
  std::vector<int> perm = RandomPermutation(40, &rng);
  auto pg = g->Permuted(perm);
  ASSERT_TRUE(pg.ok());
  auto porbits = CountGraphletOrbits(*pg);
  ASSERT_TRUE(porbits.ok());
  for (int v = 0; v < 40; ++v) {
    for (int o = 0; o < kNumOrbits; ++o) {
      EXPECT_DOUBLE_EQ((*orbits)(v, o), (*porbits)(perm[v], o))
          << "node " << v << " orbit " << o;
    }
  }
}

TEST(GraphletsTest, SubgraphBudgetEnforced) {
  Rng rng(37);
  auto g = ErdosRenyi(50, 0.3, &rng);
  ASSERT_TRUE(g.ok());
  auto res = CountGraphletOrbits(*g, /*max_subgraphs=*/10);
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
}

TEST(GraphletsTest, OrbitCountIdentityOnK4) {
  // Every node of K4 participates in exactly C(3,2)=3 triangles and
  // 1 K4; no sparser 4-node graphlets exist in K4.
  Graph k4 = MustGraph(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  auto orbits = CountGraphletOrbits(k4);
  ASSERT_TRUE(orbits.ok());
  for (int v = 0; v < 4; ++v) {
    EXPECT_DOUBLE_EQ((*orbits)(v, 3), 3.0);
    for (int o : {4, 5, 6, 7, 8, 9, 10, 11, 12, 13}) {
      EXPECT_DOUBLE_EQ((*orbits)(v, o), 0.0);
    }
  }
}

TEST(ContentHashTest, InvariantToInsertionOrderAndOrientation) {
  // The same edge set in any insertion order, with either endpoint
  // orientation and with duplicates, must hash identically: the hash
  // addresses graph *content*, not construction history.
  Graph a = MustGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  Graph b = MustGraph(5, {{4, 0}, {2, 1}, {3, 2}, {0, 1}, {4, 3}});
  Graph c = MustGraph(5, {{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
                          {0, 4}});
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  EXPECT_EQ(a.ContentHash(), c.ContentHash());
}

TEST(ContentHashTest, SensitiveToSingleEdgeChange) {
  Graph base = MustGraph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  Graph extra = MustGraph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  Graph moved = MustGraph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {3, 5}});
  EXPECT_NE(base.ContentHash(), extra.ContentHash());
  EXPECT_NE(base.ContentHash(), moved.ContentHash());
  EXPECT_NE(extra.ContentHash(), moved.ContentHash());
}

TEST(ContentHashTest, SensitiveToIsolatedNodeCount) {
  // Same edges, different node count: different graphs, different hashes.
  Graph small = MustGraph(3, {{0, 1}, {1, 2}});
  Graph padded = MustGraph(4, {{0, 1}, {1, 2}});
  EXPECT_NE(small.ContentHash(), padded.ContentHash());
}

TEST(ContentHashTest, StableAcrossRuns) {
  // The hash is part of the service cache key and is printed by the CLI, so
  // it must be a stable function of content — pin one value forever.
  Graph g = MustGraph(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.ContentHash(), MustGraph(3, {{1, 2}, {0, 1}}).ContentHash());
  EXPECT_EQ(g.ContentHash(), 0x1987c4c064a6d4d4ull);
}

}  // namespace
}  // namespace graphalign

// Tests for the exact 5-node graphlet-orbit counter and the full 73-orbit
// graphlet degree vector used by GRAAL's published signature.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "align/graal.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/graphlets.h"

namespace graphalign {
namespace {

Graph MustGraph(int n, const std::vector<Edge>& edges) {
  auto g = Graph::FromEdges(n, edges);
  GA_CHECK(g.ok());
  return *std::move(g);
}

TEST(Graphlets5Test, PathP5HasTwoEndTwoMidOneCenterOrbit) {
  // 0-1-2-3-4 path: orbits {ends}, {next-to-ends}, {center}.
  Graph g = MustGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  auto orbits = CountGraphletOrbits5(g);
  ASSERT_TRUE(orbits.ok());
  // Each node participates in exactly one 5-node subgraph (the path itself).
  std::vector<int> orbit_of(5, -1);
  for (int v = 0; v < 5; ++v) {
    double total = 0.0;
    for (int o = 0; o < kNumOrbits5; ++o) {
      total += (*orbits)(v, o);
      if ((*orbits)(v, o) > 0) orbit_of[v] = o;
    }
    EXPECT_DOUBLE_EQ(total, 1.0);
  }
  EXPECT_EQ(orbit_of[0], orbit_of[4]);  // Ends share an orbit.
  EXPECT_EQ(orbit_of[1], orbit_of[3]);  // Next-to-ends share an orbit.
  EXPECT_NE(orbit_of[0], orbit_of[1]);
  EXPECT_NE(orbit_of[1], orbit_of[2]);
  EXPECT_NE(orbit_of[0], orbit_of[2]);
}

TEST(Graphlets5Test, CycleC5IsVertexTransitive) {
  Graph g = MustGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  auto orbits = CountGraphletOrbits5(g);
  ASSERT_TRUE(orbits.ok());
  int the_orbit = -1;
  for (int v = 0; v < 5; ++v) {
    for (int o = 0; o < kNumOrbits5; ++o) {
      if ((*orbits)(v, o) > 0) {
        if (the_orbit == -1) the_orbit = o;
        EXPECT_EQ(o, the_orbit) << "C5 must be a single orbit";
        EXPECT_DOUBLE_EQ((*orbits)(v, o), 1.0);
      }
    }
  }
  ASSERT_NE(the_orbit, -1);
}

TEST(Graphlets5Test, CompleteK5IsVertexTransitiveAndLastOrbit) {
  std::vector<Edge> edges;
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) edges.push_back({i, j});
  }
  Graph g = MustGraph(5, edges);
  auto orbits = CountGraphletOrbits5(g);
  ASSERT_TRUE(orbits.ok());
  // K5 is the densest graphlet, hence the highest-numbered orbit.
  for (int v = 0; v < 5; ++v) {
    EXPECT_DOUBLE_EQ((*orbits)(v, kNumOrbits5 - 1), 1.0);
    for (int o = 0; o < kNumOrbits5 - 1; ++o) {
      EXPECT_DOUBLE_EQ((*orbits)(v, o), 0.0);
    }
  }
}

TEST(Graphlets5Test, StarS4CenterAndLeaves) {
  Graph g = MustGraph(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  auto orbits = CountGraphletOrbits5(g);
  ASSERT_TRUE(orbits.ok());
  int center_orbit = -1, leaf_orbit = -1;
  for (int o = 0; o < kNumOrbits5; ++o) {
    if ((*orbits)(0, o) > 0) center_orbit = o;
    if ((*orbits)(1, o) > 0) leaf_orbit = o;
  }
  ASSERT_NE(center_orbit, -1);
  ASSERT_NE(leaf_orbit, -1);
  EXPECT_NE(center_orbit, leaf_orbit);
  for (int leaf = 2; leaf <= 4; ++leaf) {
    EXPECT_DOUBLE_EQ((*orbits)(leaf, leaf_orbit), 1.0);
  }
}

TEST(Graphlets5Test, OrbitsInvariantUnderPermutation) {
  Rng rng(71);
  auto g = ErdosRenyi(25, 0.25, &rng);
  ASSERT_TRUE(g.ok());
  auto orbits = CountGraphletOrbits5(*g);
  ASSERT_TRUE(orbits.ok());
  std::vector<int> perm = RandomPermutation(25, &rng);
  auto pg = g->Permuted(perm);
  ASSERT_TRUE(pg.ok());
  auto porbits = CountGraphletOrbits5(*pg);
  ASSERT_TRUE(porbits.ok());
  for (int v = 0; v < 25; ++v) {
    for (int o = 0; o < kNumOrbits5; ++o) {
      ASSERT_DOUBLE_EQ((*orbits)(v, o), (*porbits)(perm[v], o))
          << "node " << v << " orbit " << o;
    }
  }
}

TEST(Graphlets5Test, TotalTouchesAreFiveTimesSubgraphCount) {
  // Every connected 5-node subgraph contributes exactly 5 orbit touches.
  Rng rng(73);
  auto g = BarabasiAlbert(30, 3, &rng);
  ASSERT_TRUE(g.ok());
  auto orbits = CountGraphletOrbits5(*g);
  ASSERT_TRUE(orbits.ok());
  double total = orbits->Sum();
  EXPECT_DOUBLE_EQ(std::fmod(total, 5.0), 0.0);
  EXPECT_GT(total, 0.0);
}

TEST(Graphlets5Test, Full73ColumnGdv) {
  Rng rng(79);
  auto g = ErdosRenyi(20, 0.3, &rng);
  ASSERT_TRUE(g.ok());
  auto gdv = CountGraphletOrbits73(*g);
  ASSERT_TRUE(gdv.ok());
  EXPECT_EQ(gdv->cols(), 73);
  auto small = CountGraphletOrbits(*g);
  ASSERT_TRUE(small.ok());
  for (int v = 0; v < 20; ++v) {
    for (int o = 0; o < kNumOrbits; ++o) {
      EXPECT_DOUBLE_EQ((*gdv)(v, o), (*small)(v, o));
    }
  }
}

TEST(Graphlets5Test, BudgetEnforced) {
  Rng rng(83);
  auto g = ErdosRenyi(30, 0.4, &rng);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(CountGraphletOrbits5(*g, /*max_subgraphs=*/5).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(GraalFullGdvTest, SignatureStillPerfectOnIdenticalNodes) {
  Rng rng(89);
  auto g = ErdosRenyi(22, 0.25, &rng);
  ASSERT_TRUE(g.ok());
  std::vector<int> perm = RandomPermutation(22, &rng);
  auto pg = g->Permuted(perm);
  ASSERT_TRUE(pg.ok());
  auto sim = GraphletSignatureSimilarity(*g, *pg, 10'000'000,
                                         /*full_gdv=*/true);
  ASSERT_TRUE(sim.ok());
  for (int u = 0; u < 22; ++u) {
    EXPECT_NEAR((*sim)(u, perm[u]), 1.0, 1e-12);
  }
}

TEST(GraalFullGdvTest, OptionProducesValidAlignment) {
  Rng rng(97);
  auto base = PowerlawCluster(50, 3, 0.3, &rng);
  ASSERT_TRUE(base.ok());
  std::vector<int> perm = RandomPermutation(50, &rng);
  auto pg = base->Permuted(perm);
  ASSERT_TRUE(pg.ok());
  GraalOptions opts;
  opts.use_five_node_orbits = true;
  GraalAligner graal(opts);
  auto align = graal.Align(*base, *pg, AssignmentMethod::kJonkerVolgenant);
  ASSERT_TRUE(align.ok());
  int correct = 0;
  for (int u = 0; u < 50; ++u) correct += ((*align)[u] == perm[u]);
  EXPECT_GE(correct, 45);  // Near-perfect on isomorphic graphs.
}

// ---------------------------------------------------------------------------
// Brute-force oracle: every 2-, 3-, 4- and 5-node subset of small random
// graphs, classified here from induced degrees and edge counts alone, must
// reproduce the enumerator's exact per-node counts.

// Induced degrees of `nodes` within g, and whether the induced subgraph is
// connected.
struct Induced {
  std::vector<int> deg;
  int edges = 0;
  bool connected = false;
};

Induced InduceOn(const Graph& g, const std::vector<int>& nodes) {
  const int k = static_cast<int>(nodes.size());
  Induced out;
  out.deg.assign(k, 0);
  std::vector<std::vector<bool>> adj(k, std::vector<bool>(k, false));
  for (int a = 0; a < k; ++a) {
    for (int b = a + 1; b < k; ++b) {
      if (g.HasEdge(nodes[a], nodes[b])) {
        adj[a][b] = adj[b][a] = true;
        ++out.deg[a];
        ++out.deg[b];
        ++out.edges;
      }
    }
  }
  std::vector<bool> seen(k, false);
  std::vector<int> stack = {0};
  seen[0] = true;
  int reached = 1;
  while (!stack.empty()) {
    const int a = stack.back();
    stack.pop_back();
    for (int b = 0; b < k; ++b) {
      if (adj[a][b] && !seen[b]) {
        seen[b] = true;
        ++reached;
        stack.push_back(b);
      }
    }
  }
  out.connected = reached == k;
  return out;
}

// Orbit (0-14) of position i of a connected induced subgraph on 2-4 nodes.
int OracleOrbit(const Induced& s, int i) {
  const int k = static_cast<int>(s.deg.size());
  const int d = s.deg[i];
  const int max_deg = *std::max_element(s.deg.begin(), s.deg.end());
  if (k == 2) return 0;
  if (k == 3) return s.edges == 3 ? 3 : (d == 2 ? 2 : 1);
  switch (s.edges) {
    case 3:
      if (max_deg == 3) return d == 3 ? 7 : 6;  // Claw.
      return d == 1 ? 4 : 5;                    // Path P4.
    case 4:
      if (max_deg == 2) return 8;               // Cycle C4.
      return d == 1 ? 9 : (d == 2 ? 10 : 11);   // Paw.
    case 5:
      return d == 2 ? 12 : 13;                  // Diamond.
    default:
      return 14;                                // K4.
  }
}

// Calls fn(subset) for every k-subset of {0..n-1}, in lexicographic order.
template <typename Fn>
void ForEachSubset(int n, int k, Fn fn) {
  std::vector<int> idx(k);
  std::iota(idx.begin(), idx.end(), 0);
  while (true) {
    fn(idx);
    int i = k - 1;
    while (i >= 0 && idx[i] == n - k + i) --i;
    if (i < 0) return;
    ++idx[i];
    for (int j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
  }
}

TEST(GraphletOracleTest, ExactCountsMatchBruteForceOnRandomGraphs) {
  Rng rng(4242);
  int graphs = 0;
  for (int n = 9; n <= 14; ++n) {
    for (double p : {0.25, 0.45, 0.7}) {
      auto g = ErdosRenyi(n, p, &rng);
      ASSERT_TRUE(g.ok());
      ++graphs;
      DenseMatrix expect4(n, kNumOrbits);
      for (int k = 2; k <= 4; ++k) {
        ForEachSubset(n, k, [&](const std::vector<int>& nodes) {
          const Induced s = InduceOn(*g, nodes);
          if (!s.connected) return;
          for (int i = 0; i < k; ++i) {
            expect4(nodes[i], OracleOrbit(s, i)) += 1.0;
          }
        });
      }
      std::vector<double> expect5(n, 0.0);
      ForEachSubset(n, 5, [&](const std::vector<int>& nodes) {
        if (!InduceOn(*g, nodes).connected) return;
        for (int v : nodes) expect5[v] += 1.0;
      });

      auto four = CountGraphletOrbits(*g);
      ASSERT_TRUE(four.ok());
      EXPECT_EQ(*four, expect4) << "n=" << n << " p=" << p;
      auto five = CountGraphletOrbits5(*g);
      ASSERT_TRUE(five.ok());
      for (int v = 0; v < n; ++v) {
        double row = 0.0;
        for (int o = 0; o < kNumOrbits5; ++o) row += (*five)(v, o);
        EXPECT_EQ(row, expect5[v]) << "n=" << n << " p=" << p << " v=" << v;
      }
    }
  }
  EXPECT_EQ(graphs, 18);
}

}  // namespace
}  // namespace graphalign

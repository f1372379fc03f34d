#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "align/cone.h"
#include "align/multi.h"
#include "common/random.h"
#include "graph/generators.h"
#include "metrics/metrics.h"
#include "noise/noise.h"

namespace graphalign {
namespace {

// Three graphs: a base and two permuted light-noise copies with known
// correspondences.
struct MultiFixture {
  std::vector<Graph> graphs;
  // truth[g][u] = base node corresponding to node u of graph g.
  std::vector<std::vector<int>> to_base;
};

MultiFixture MakeFixture(double noise_level) {
  MultiFixture fx;
  Rng rng(33);
  auto base = PowerlawCluster(70, 3, 0.4, &rng);
  GA_CHECK(base.ok());
  fx.graphs.push_back(*base);
  std::vector<int> identity(base->num_nodes());
  std::iota(identity.begin(), identity.end(), 0);
  fx.to_base.push_back(identity);
  for (int copy = 0; copy < 2; ++copy) {
    NoiseOptions noise;
    noise.level = noise_level;
    auto prob = MakeAlignmentProblem(*base, noise, &rng);
    GA_CHECK(prob.ok());
    fx.graphs.push_back(prob->g2);
    // prob->ground_truth maps base -> copy; invert it to copy -> base.
    std::vector<int> inverse(base->num_nodes(), -1);
    for (int u = 0; u < base->num_nodes(); ++u) {
      inverse[prob->ground_truth[u]] = u;
    }
    fx.to_base.push_back(std::move(inverse));
  }
  return fx;
}

TEST(MultiAlignTest, RequiresTwoGraphsAndValidReference) {
  ConeAligner cone;
  std::vector<Graph> one;
  Rng rng(1);
  auto g = ErdosRenyi(10, 0.3, &rng);
  one.push_back(*g);
  EXPECT_FALSE(AlignMultiple(one, &cone,
                             AssignmentMethod::kJonkerVolgenant)
                   .ok());
  one.push_back(*g);
  EXPECT_FALSE(AlignMultiple(one, &cone, AssignmentMethod::kJonkerVolgenant,
                             /*reference=*/5)
                   .ok());
}

TEST(MultiAlignTest, StarAlignmentRecoversAllPairwiseCorrespondences) {
  MultiFixture fx = MakeFixture(/*noise_level=*/0.01);
  ConeAligner cone;
  auto result = AlignMultiple(fx.graphs, &cone,
                              AssignmentMethod::kJonkerVolgenant,
                              /*reference=*/0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reference, 0);
  ASSERT_EQ(result->to_reference.size(), 3u);
  // Reference maps to itself by identity.
  for (int u = 0; u < fx.graphs[0].num_nodes(); ++u) {
    EXPECT_EQ(result->to_reference[0][u], u);
  }
  // Each copy's map to the reference matches the hidden truth closely.
  for (int g = 1; g <= 2; ++g) {
    int correct = 0;
    for (size_t u = 0; u < result->to_reference[g].size(); ++u) {
      correct += (result->to_reference[g][u] == fx.to_base[g][u]);
    }
    EXPECT_GE(static_cast<double>(correct) / fx.graphs[g].num_nodes(), 0.6)
        << "graph " << g;
  }
}

TEST(MultiAlignTest, ComposedCrossAlignmentIsConsistent) {
  MultiFixture fx = MakeFixture(0.01);
  ConeAligner cone;
  auto result = AlignMultiple(fx.graphs, &cone,
                              AssignmentMethod::kJonkerVolgenant, 0);
  ASSERT_TRUE(result.ok());
  auto map12 = ComposeAlignment(*result, fx.graphs, 1, 2);
  ASSERT_TRUE(map12.ok());
  // Truth for 1 -> 2: node u of graph1 -> base node -> node of graph2.
  std::vector<int> base_to_2(fx.graphs[0].num_nodes(), -1);
  for (size_t v = 0; v < fx.to_base[2].size(); ++v) {
    base_to_2[fx.to_base[2][v]] = static_cast<int>(v);
  }
  int correct = 0;
  for (size_t u = 0; u < map12->size(); ++u) {
    const int truth = base_to_2[fx.to_base[1][u]];
    correct += ((*map12)[u] == truth);
  }
  EXPECT_GE(static_cast<double>(correct) / map12->size(), 0.45);
  // Composition with itself is the identity where defined.
  auto map11 = ComposeAlignment(*result, fx.graphs, 1, 1);
  ASSERT_TRUE(map11.ok());
  for (size_t u = 0; u < map11->size(); ++u) {
    if ((*map11)[u] >= 0) {
      EXPECT_EQ((*map11)[u], static_cast<int>(u));
    }
  }
}

TEST(MultiAlignTest, ComposeValidatesIndices) {
  MultiFixture fx = MakeFixture(0.0);
  ConeAligner cone;
  auto result = AlignMultiple(fx.graphs, &cone,
                              AssignmentMethod::kJonkerVolgenant, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(ComposeAlignment(*result, fx.graphs, -1, 0).ok());
  EXPECT_FALSE(ComposeAlignment(*result, fx.graphs, 0, 9).ok());
}

TEST(MultiAlignTest, ClustersGroupCorrespondingNodes) {
  MultiFixture fx = MakeFixture(0.0);
  ConeAligner cone;
  auto result = AlignMultiple(fx.graphs, &cone,
                              AssignmentMethod::kJonkerVolgenant, 0);
  ASSERT_TRUE(result.ok());
  auto clusters = AlignmentClusters(*result, fx.graphs);
  ASSERT_EQ(clusters.size(), static_cast<size_t>(fx.graphs[0].num_nodes()));
  // With one-to-one pairwise maps, every cluster holds one node per graph.
  size_t full_clusters = 0;
  for (const auto& cluster : clusters) {
    std::set<int> graphs_seen;
    for (const auto& [g, u] : cluster) graphs_seen.insert(g);
    if (graphs_seen.size() == fx.graphs.size()) ++full_clusters;
  }
  EXPECT_GE(full_clusters, clusters.size() * 9 / 10);
}

TEST(MultiAlignTest, DefaultReferenceIsLargestGraph) {
  Rng rng(3);
  std::vector<Graph> graphs;
  auto small = ErdosRenyi(20, 0.3, &rng);
  auto big = ErdosRenyi(40, 0.2, &rng);
  graphs.push_back(*small);
  graphs.push_back(*big);
  ConeAligner cone;
  auto result =
      AlignMultiple(graphs, &cone, AssignmentMethod::kSortGreedy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reference, 1);
}

}  // namespace
}  // namespace graphalign

// Golden bytes of the dense similarity kernels. Pins an FNV-1a hash of every
// bit of each of the nine aligners' ComputeSimilarity on one fixed noisy
// PowerlawCluster pair, of SymmetricEigen on g1's normalized Laplacian, and of
// the 4- and 5-node graphlet-orbit counts of g1. It pins the alignments that
// NN, SG, MWM and JV extract from those nine matrices too, and SG/MWM/JV on a
// wide and a tall slice of one of them (Hungarian's transpose branch, JV's
// padding), so loop rewrites of the extractors are held to the same rule.
//
// Loop rewrites of these kernels (DESIGN.md §7) must keep every accumulator's
// summation order, so the hashes must not change; a rewrite that reorders a
// sum shows up here as a changed hash rather than as a silently shifted
// accuracy. n = 130 is deliberately not a multiple of 4, so unrolled loops
// run their scalar tails. The suite is registered at GRAPHALIGN_THREADS=1
// and =2 as well (tests/CMakeLists.txt): the same hashes hold at every pool
// size.
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "align/aligner.h"
#include "assignment/assignment.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/graphlets.h"
#include "linalg/eigen_sym.h"
#include "noise/noise.h"

namespace graphalign {
namespace {

class Fnv1a {
 public:
  void Mix(uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ULL;
  }
  void Mix(double x) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    Mix(bits);
  }
  void Mix(const DenseMatrix& m) {
    Mix(static_cast<uint64_t>(m.rows()));
    Mix(static_cast<uint64_t>(m.cols()));
    for (size_t i = 0; i < m.size(); ++i) Mix(m.data()[i]);
  }
  void Mix(const Alignment& a) {
    Mix(static_cast<uint64_t>(a.size()));
    for (int x : a) Mix(static_cast<uint64_t>(static_cast<int64_t>(x)));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

template <typename T>
uint64_t Hash(const T& x) {
  Fnv1a h;
  h.Mix(x);
  return h.value();
}

// The fixed workload: the paper_dense recipe (PowerlawCluster(n, 5, 0.5),
// 5% one-way noise, kept connected) at n = 130.
const AlignmentProblem& Problem() {
  static const AlignmentProblem* problem = [] {
    Rng rng(20230314);
    auto base = PowerlawCluster(130, 5, 0.5, &rng);
    GA_CHECK(base.ok());
    NoiseOptions noise;
    noise.level = 0.05;
    noise.keep_connected = true;
    auto p = MakeAlignmentProblem(*base, noise, &rng);
    GA_CHECK(p.ok());
    return new AlignmentProblem(*std::move(p));
  }();
  return *problem;
}

TEST(DenseGoldenTest, ProblemIsTheFixedPair) {
  EXPECT_EQ(Problem().g1.num_nodes(), 130);
  EXPECT_EQ(Problem().g2.num_nodes(), 130);
  EXPECT_EQ(Problem().g1.num_nodes() % 4, 2);  // Unrolled tails run.
}

TEST(DenseGoldenTest, SimilarityMatricesMatchGoldenHashes) {
  const std::map<std::string, uint64_t> golden = {
      {"IsoRank", 0xa5c85e7028f4f9aaULL}, {"GRAAL", 0x7bf323f0931a7249ULL},
      {"NSD", 0xd8ca71290cff437bULL},     {"LREA", 0x174350ab0c43049fULL},
      {"REGAL", 0x511e1d417db3b52eULL},   {"GWL", 0x0f1a543498ec827aULL},
      {"S-GWL", 0x85136e880b8a5358ULL},   {"CONE", 0x75c830e5f2a631bfULL},
      {"GRASP", 0x9d9f501299b459a2ULL},
  };
  ASSERT_EQ(golden.size(), AllAlignerNames().size());
  for (const std::string& name : AllAlignerNames()) {
    auto aligner = MakeAligner(name);
    ASSERT_TRUE(aligner.ok()) << name;
    auto sim = (*aligner)->ComputeSimilarity(Problem().g1, Problem().g2);
    ASSERT_TRUE(sim.ok()) << name << ": " << sim.status().ToString();
    EXPECT_EQ(Hash(*sim), golden.at(name))
        << name << " similarity hash 0x" << std::hex << Hash(*sim);
  }
}

// The first `rows` rows and `cols` columns of `m`.
DenseMatrix Slice(const DenseMatrix& m, int rows, int cols) {
  DenseMatrix s(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) s(i, j) = m(i, j);
  }
  return s;
}

TEST(DenseGoldenTest, AlignmentsMatchGoldenHashes) {
  const std::map<std::string, uint64_t> golden = {
      {"CONE/JV", 0xb0bb9dac4b9ed698ULL},
      {"CONE/MWM", 0xb0bb9dac4b9ed698ULL},
      {"CONE/NN", 0xb0bb9dac4b9ed698ULL},
      {"CONE/SG", 0xb0bb9dac4b9ed698ULL},
      {"GRAAL/JV", 0x725b715e0491dcb4ULL},
      {"GRAAL/MWM", 0x725b715e0491dcb4ULL},
      {"GRAAL/NN", 0x4d3fc1417c7a210bULL},
      {"GRAAL/SG", 0xd31ac747f53c69c0ULL},
      {"GRASP/JV", 0x5e04b13facab7e1eULL},
      {"GRASP/MWM", 0x5e04b13facab7e1eULL},
      {"GRASP/NN", 0x32bd6e8a7b4a9393ULL},
      {"GRASP/SG", 0x284b2bd04d3f2852ULL},
      {"GWL/JV", 0xb0bb9dac4b9ed698ULL},
      {"GWL/MWM", 0xb0bb9dac4b9ed698ULL},
      {"GWL/NN", 0xb0bb9dac4b9ed698ULL},
      {"GWL/SG", 0xb0bb9dac4b9ed698ULL},
      {"IsoRank/JV", 0x0b6ec630d958eda2ULL},
      {"IsoRank/MWM", 0x0b6ec630d958eda2ULL},
      {"IsoRank/NN", 0x2a9c133a4f6bf969ULL},
      {"IsoRank/SG", 0x00f4b69158b099a6ULL},
      {"LREA/JV", 0xd66cf3aedfb3d9e2ULL},
      {"LREA/MWM", 0xd66cf3aedfb3d9e2ULL},
      {"LREA/NN", 0x2a9c133a4f6bf969ULL},
      {"LREA/SG", 0xd66cf3aedfb3d9e2ULL},
      {"NSD/JV", 0x7ee81e1431bd8c9aULL},
      {"NSD/MWM", 0x7ee81e1431bd8c9aULL},
      {"NSD/NN", 0x76449660d4230871ULL},
      {"NSD/SG", 0xeff01d10d4cc2912ULL},
      {"REGAL/JV", 0x578f9884d08c93eaULL},
      {"REGAL/MWM", 0x578f9884d08c93eaULL},
      {"REGAL/NN", 0xba3392f01f88d507ULL},
      {"REGAL/SG", 0x25a5ed7b46b1ccb0ULL},
      {"S-GWL/JV", 0x72e8f0ac35bbaba6ULL},
      {"S-GWL/MWM", 0x144fd30031f69558ULL},
      {"S-GWL/NN", 0x6df904b9c7bb27f4ULL},
      {"S-GWL/SG", 0x526e624dc6b1d33eULL},
      {"S-GWL[100x130]/JV", 0xa36636dcb85ed74bULL},
      {"S-GWL[100x130]/MWM", 0xf6d5e539db682d09ULL},
      {"S-GWL[100x130]/SG", 0x12fd51d706441b69ULL},
      {"S-GWL[130x100]/JV", 0x923ea6d5768844c1ULL},
      {"S-GWL[130x100]/MWM", 0xe41afa4403ec7cd3ULL},
      {"S-GWL[130x100]/SG", 0x49fd736d0133fdb7ULL},
  };
  const AssignmentMethod kAll[] = {
      AssignmentMethod::kNearestNeighbor, AssignmentMethod::kSortGreedy,
      AssignmentMethod::kHungarian, AssignmentMethod::kJonkerVolgenant};
  std::map<std::string, uint64_t> got;
  auto extract = [&](const std::string& key, const DenseMatrix& sim,
                     AssignmentMethod method) {
    auto a = ExtractAlignment(sim, method);
    ASSERT_TRUE(a.ok()) << key << ": " << a.status().ToString();
    got[key] = Hash(*a);
  };
  for (const std::string& name : AllAlignerNames()) {
    auto aligner = MakeAligner(name);
    ASSERT_TRUE(aligner.ok()) << name;
    auto sim = (*aligner)->ComputeSimilarity(Problem().g1, Problem().g2);
    ASSERT_TRUE(sim.ok()) << name << ": " << sim.status().ToString();
    for (AssignmentMethod method : kAll) {
      extract(name + "/" + AssignmentMethodName(method), *sim, method);
    }
    if (name != "S-GWL") continue;
    for (auto [rows, cols] : {std::pair{100, 130}, std::pair{130, 100}}) {
      const DenseMatrix slice = Slice(*sim, rows, cols);
      for (AssignmentMethod method : {AssignmentMethod::kSortGreedy,
                                      AssignmentMethod::kHungarian,
                                      AssignmentMethod::kJonkerVolgenant}) {
        extract(name + "[" + std::to_string(rows) + "x" +
                    std::to_string(cols) + "]/" + AssignmentMethodName(method),
                slice, method);
      }
    }
  }
  ASSERT_EQ(got.size(), golden.size());
  for (const auto& [key, hash] : got) {
    ASSERT_EQ(golden.count(key), 1u) << key;
    EXPECT_EQ(hash, golden.at(key))
        << key << " alignment hash 0x" << std::hex << hash;
  }
}

TEST(DenseGoldenTest, SymmetricEigenMatchesGoldenHash) {
  auto eig = SymmetricEigen(Problem().g1.NormalizedLaplacianDense());
  ASSERT_TRUE(eig.ok()) << eig.status().ToString();
  Fnv1a h;
  for (double lambda : eig->eigenvalues) h.Mix(lambda);
  h.Mix(eig->eigenvectors);
  EXPECT_EQ(h.value(), 0xcf61fe4290a7af5aULL)
      << "eigen hash 0x" << std::hex << h.value();
}

TEST(DenseGoldenTest, GraphletOrbitsMatchGoldenHashes) {
  auto four = CountGraphletOrbits(Problem().g1);
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  EXPECT_EQ(Hash(*four), 0xffa183acfe634654ULL)
      << "4-node hash 0x" << std::hex << Hash(*four);
  auto five = CountGraphletOrbits5(Problem().g1);
  ASSERT_TRUE(five.ok()) << five.status().ToString();
  EXPECT_EQ(Hash(*five), 0xe30011026c55983bULL)
      << "5-node hash 0x" << std::hex << Hash(*five);
}

}  // namespace
}  // namespace graphalign

// Golden bytes of the dense similarity kernels. Pins an FNV-1a hash of every
// bit of each of the nine aligners' ComputeSimilarity on one fixed noisy
// PowerlawCluster pair, of SymmetricEigen on g1's normalized Laplacian, and of
// the 4- and 5-node graphlet-orbit counts of g1.
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

#include <gtest/gtest.h>

#include "align/aligner.h"
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
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

uint64_t Hash(const DenseMatrix& m) {
  Fnv1a h;
  h.Mix(m);
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

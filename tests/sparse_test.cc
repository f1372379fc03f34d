// Sparse similarity pipeline tests (DESIGN.md §13): MinHash/LSH candidate
// generation, native vs dense-fallback scoring, the end-to-end sparse plan
// of Aligner::Run, and
// determinism. The whole binary is also registered under GRAPHALIGN_THREADS=1
// and =2 (tests/CMakeLists.txt); the pinned golden checksums below therefore
// prove byte-identical candidate sets and alignments at every pool size, the
// same way the parallel-determinism suite pins its references.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "align/aligner.h"
#include "align/lrea.h"
#include "align/nsd.h"
#include "align/regal.h"
#include "align/sparse_candidates.h"
#include "common/random.h"
#include "graph/generators.h"
#include "linalg/minhash.h"
#include "noise/noise.h"

namespace graphalign {
namespace {

Graph MustGraph(int n, const std::vector<Edge>& edges) {
  auto g = Graph::FromEdges(n, edges);
  GA_CHECK(g.ok());
  return *std::move(g);
}

AlignPlan SparsePlan() {
  AlignPlan plan;
  plan.path = AlignPath::kSparse;
  return plan;
}

// FNV-1a over the (row, col) pairs; similarities are hashed via their bit
// patterns where included.
uint64_t PairChecksum(const std::vector<SparseCandidate>& candidates) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const SparseCandidate& c : candidates) {
    mix(static_cast<uint64_t>(c.row));
    mix(static_cast<uint64_t>(c.col));
  }
  return h;
}

uint64_t AlignmentChecksum(const Alignment& alignment) {
  uint64_t h = 1469598103934665603ULL;
  for (int v : alignment) {
    h ^= static_cast<uint64_t>(static_cast<int64_t>(v));
    h *= 1099511628211ULL;
  }
  return h;
}

// The standard workload: a BA graph and its noiseless permuted copy, so the
// planted ground truth is exactly recoverable in principle.
AlignmentProblem PermutedProblem(int n, uint64_t seed) {
  Rng rng(seed);
  auto base = BarabasiAlbert(n, 3, &rng);
  EXPECT_TRUE(base.ok());
  NoiseOptions noise;
  noise.level = 0.0;
  auto problem = MakeAlignmentProblem(*base, noise, &rng);
  EXPECT_TRUE(problem.ok());
  return *std::move(problem);
}

TEST(MinHashTest, SignatureIsDeterministicAndSeedSensitive) {
  const std::vector<uint64_t> tokens = {3, 17, 99, 12345};
  MinHasher hasher(8, /*seed=*/42);
  uint64_t a[8], b[8];
  hasher.Signature(tokens, a);
  hasher.Signature(tokens, b);
  EXPECT_TRUE(std::equal(a, a + 8, b));
  MinHasher other(8, /*seed=*/43);
  other.Signature(tokens, b);
  EXPECT_FALSE(std::equal(a, a + 8, b));
}

TEST(MinHashTest, IdenticalSetsCollideDisjointSetsDoNot) {
  MinHasher hasher(16, /*seed=*/7);
  const std::vector<uint64_t> s1 = {1, 2, 3, 4, 5};
  const std::vector<uint64_t> s2 = {1, 2, 3, 4, 5};
  const std::vector<uint64_t> s3 = {100, 200, 300, 400, 500};
  uint64_t a[16], b[16], c[16];
  hasher.Signature(s1, a);
  hasher.Signature(s2, b);
  hasher.Signature(s3, c);
  int ab = 0, ac = 0;
  for (int k = 0; k < 16; ++k) {
    ab += (a[k] == b[k]);
    ac += (a[k] == c[k]);
  }
  EXPECT_EQ(ab, 16);  // Jaccard 1 -> all positions agree.
  EXPECT_EQ(ac, 0);   // Jaccard 0 -> agreement only by 2^-64 accident.
}

TEST(MinHashTest, EmptySetGetsSentinelNotGarbage) {
  MinHasher hasher(4, /*seed=*/9);
  uint64_t empty1[4], empty2[4], full[4];
  const std::vector<uint64_t> none;
  hasher.Signature(none, empty1);
  hasher.Signature(none, empty2);
  const std::vector<uint64_t> tokens = {11};
  hasher.Signature(tokens, full);
  EXPECT_TRUE(std::equal(empty1, empty1 + 4, empty2));
  EXPECT_FALSE(std::equal(empty1, empty1 + 4, full));
}

TEST(NodeTokensTest, SortedDedupedAndDegreeSensitive) {
  //     0 - 1 - 2
  //         |
  //         3
  Graph g = MustGraph(4, {{0, 1}, {1, 2}, {1, 3}});
  const std::vector<uint64_t> t1 = NodeTokens(g, 1, nullptr);
  EXPECT_TRUE(std::is_sorted(t1.begin(), t1.end()));
  EXPECT_TRUE(std::adjacent_find(t1.begin(), t1.end()) == t1.end());
  // Leaves 0, 2, 3 all see the same structure; the hub differs.
  EXPECT_EQ(NodeTokens(g, 0, nullptr), NodeTokens(g, 3, nullptr));
  EXPECT_NE(NodeTokens(g, 0, nullptr), t1);
}

TEST(LshCandidatesTest, ValidatesOptions) {
  Graph g = MustGraph(2, {{0, 1}});
  LshOptions bad;
  bad.bands = 0;
  EXPECT_EQ(GenerateLshCandidates(g, g, bad).status().code(),
            StatusCode::kInvalidArgument);
  bad = LshOptions();
  bad.rows_per_band = -1;
  EXPECT_EQ(GenerateLshCandidates(g, g, bad).status().code(),
            StatusCode::kInvalidArgument);
  bad = LshOptions();
  bad.bands = 256;
  bad.rows_per_band = 64;  // 16384 > 4096.
  EXPECT_EQ(GenerateLshCandidates(g, g, bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LshCandidatesTest, CandidatesAreSortedUniqueAndInRange) {
  AlignmentProblem problem = PermutedProblem(200, /*seed=*/11);
  LshStats stats;
  auto candidates =
      GenerateLshCandidates(problem.g1, problem.g2, {}, Deadline(), &stats);
  ASSERT_TRUE(candidates.ok());
  ASSERT_FALSE(candidates->empty());
  for (size_t i = 0; i < candidates->size(); ++i) {
    const SparseCandidate& c = (*candidates)[i];
    EXPECT_GE(c.row, 0);
    EXPECT_LT(c.row, problem.g1.num_nodes());
    EXPECT_GE(c.col, 0);
    EXPECT_LT(c.col, problem.g2.num_nodes());
    EXPECT_EQ(c.similarity, 0.0);
    if (i > 0) {
      const SparseCandidate& p = (*candidates)[i - 1];
      EXPECT_TRUE(p.row < c.row || (p.row == c.row && p.col < c.col));
    }
  }
  EXPECT_EQ(stats.candidates, static_cast<int64_t>(candidates->size()));
  EXPECT_GE(stats.rows_without_candidates, 0);
}

TEST(LshCandidatesTest, RecallsTruePairsOnPermutedCopy) {
  AlignmentProblem problem = PermutedProblem(300, /*seed=*/23);
  auto candidates = GenerateLshCandidates(problem.g1, problem.g2);
  ASSERT_TRUE(candidates.ok());
  int hits = 0;
  for (const SparseCandidate& c : *candidates) {
    if (problem.ground_truth[c.row] == c.col) ++hits;
  }
  // An identical node (Jaccard 1) collides in every band unless its bucket
  // is over the popularity cap; most true pairs must survive.
  EXPECT_GT(hits, problem.g1.num_nodes() / 2);
}

TEST(LshCandidatesTest, HandlesIsolatedNodes) {
  // Nodes 3 and 4 have no edges at all (empty token sets downstream of the
  // degree-0 tokens are still valid sets).
  Graph g1 = MustGraph(5, {{0, 1}, {1, 2}});
  Graph g2 = MustGraph(5, {{0, 1}, {1, 2}});
  auto candidates = GenerateLshCandidates(g1, g2);
  ASSERT_TRUE(candidates.ok());
  EXPECT_FALSE(candidates->empty());
}

TEST(LshCandidatesTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  AlignmentProblem problem = PermutedProblem(100, /*seed=*/5);
  auto result = GenerateLshCandidates(problem.g1, problem.g2, {},
                                      Deadline::AfterSeconds(0.0));
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// -- Determinism ------------------------------------------------------------

// Golden checksum for the fixed workload below. The same constant must hold
// under GRAPHALIGN_THREADS=1 and =2 (this suite runs under both), which is
// the byte-identical cross-thread determinism contract.
constexpr uint64_t kCandidateGolden = 0x5b2d5bb59e4cf29eULL;

TEST(LshDeterminismTest, CandidateSetMatchesGoldenChecksum) {
  AlignmentProblem problem = PermutedProblem(400, /*seed=*/77);
  auto candidates = GenerateLshCandidates(problem.g1, problem.g2);
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(PairChecksum(*candidates), kCandidateGolden);
}

TEST(LshDeterminismTest, RepeatRunsAreByteIdentical) {
  AlignmentProblem problem = PermutedProblem(250, /*seed=*/31);
  auto a = GenerateLshCandidates(problem.g1, problem.g2);
  auto b = GenerateLshCandidates(problem.g1, problem.g2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].row, (*b)[i].row);
    EXPECT_EQ((*a)[i].col, (*b)[i].col);
  }
}

// Golden end-to-end alignment checksum (LSH + native NSD scoring + sparse
// LAP) for a fixed problem; pinned across thread counts like the above.
constexpr uint64_t kAlignGolden = 0x84b8a23625a0014fULL;

TEST(LshDeterminismTest, AlignSparseMatchesGoldenChecksum) {
  AlignmentProblem problem = PermutedProblem(300, /*seed=*/13);
  NsdAligner aligner;
  auto aligned = aligner.Run(problem.g1, problem.g2, SparsePlan());
  ASSERT_TRUE(aligned.ok());
  EXPECT_EQ(AlignmentChecksum(aligned->alignment), kAlignGolden);
}

// -- Scoring modes ----------------------------------------------------------

TEST(SparseSimilarityTest, ModeFlagsMatchTheDesign) {
  for (const auto& [name, mode] :
       std::vector<std::pair<std::string, SparseSimilarityMode>>{
           {"NSD", SparseSimilarityMode::kNative},
           {"LREA", SparseSimilarityMode::kNative},
           {"REGAL", SparseSimilarityMode::kNative},
           {"IsoRank", SparseSimilarityMode::kDenseFallback},
           {"GRASP", SparseSimilarityMode::kDenseFallback}}) {
    auto aligner = MakeAligner(name);
    ASSERT_TRUE(aligner.ok());
    EXPECT_EQ((*aligner)->sparse_similarity_mode(), mode) << name;
  }
  EXPECT_STREQ(SparseSimilarityModeName(SparseSimilarityMode::kNative),
               "native");
  EXPECT_STREQ(
      SparseSimilarityModeName(SparseSimilarityMode::kDenseFallback),
      "dense-fallback");
}

// Native scoring must agree with the dense matrix sampled at the candidate
// positions: same factors, same arithmetic, no dense allocation.
template <typename AlignerT>
void ExpectNativeMatchesDense(int n, uint64_t seed) {
  AlignmentProblem problem = PermutedProblem(n, seed);
  AlignerT aligner;
  auto sparse = aligner.ComputeSparseSimilarity(problem.g1, problem.g2);
  ASSERT_TRUE(sparse.ok());
  EXPECT_EQ(sparse->mode, SparseSimilarityMode::kNative);
  auto dense = aligner.ComputeSimilarity(problem.g1, problem.g2);
  ASSERT_TRUE(dense.ok());
  ASSERT_FALSE(sparse->candidates.empty());
  for (const SparseCandidate& c : sparse->candidates) {
    EXPECT_NEAR(c.similarity, dense->Row(c.row)[c.col], 1e-9)
        << "(" << c.row << ", " << c.col << ")";
  }
}

TEST(SparseSimilarityTest, NsdNativeMatchesDense) {
  ExpectNativeMatchesDense<NsdAligner>(120, 3);
}

TEST(SparseSimilarityTest, LreaNativeMatchesDense) {
  ExpectNativeMatchesDense<LreaAligner>(100, 4);
}

TEST(SparseSimilarityTest, RegalNativeMatchesDense) {
  ExpectNativeMatchesDense<RegalAligner>(100, 5);
}

TEST(SparseSimilarityTest, DenseFallbackSamplesTheDenseMatrix) {
  AlignmentProblem problem = PermutedProblem(80, /*seed=*/17);
  auto aligner = MakeAligner("IsoRank");
  ASSERT_TRUE(aligner.ok());
  auto sparse = (*aligner)->ComputeSparseSimilarity(problem.g1, problem.g2);
  ASSERT_TRUE(sparse.ok());
  EXPECT_EQ(sparse->mode, SparseSimilarityMode::kDenseFallback);
  auto dense = (*aligner)->ComputeSimilarity(problem.g1, problem.g2);
  ASSERT_TRUE(dense.ok());
  for (const SparseCandidate& c : sparse->candidates) {
    EXPECT_EQ(c.similarity, dense->Row(c.row)[c.col]);
  }
}

// -- End to end -------------------------------------------------------------

TEST(AlignSparseTest, RecoversMostOfAPermutedCopy) {
  AlignmentProblem problem = PermutedProblem(300, /*seed=*/41);
  NsdAligner aligner;
  auto aligned = aligner.Run(problem.g1, problem.g2, SparsePlan());
  ASSERT_TRUE(aligned.ok());
  EXPECT_EQ(aligned->sparse_mode, SparseSimilarityMode::kNative);
  EXPECT_GT(aligned->lsh.candidates, 0);
  int matched = 0;
  for (int v : aligned->alignment) matched += (v >= 0);
  // Every row with at least one candidate gets matched (max cardinality);
  // the LSH stage covers nearly all rows on a permuted copy.
  EXPECT_GT(matched, problem.g1.num_nodes() * 9 / 10);
}

TEST(AlignSparseTest, EmptyGraphIsInvalid) {
  Graph empty = MustGraph(0, {});
  Graph g = MustGraph(2, {{0, 1}});
  NsdAligner aligner;
  EXPECT_EQ(aligner.Run(empty, g, SparsePlan()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AlignSparseTest, ExpiredDeadlinePropagates) {
  AlignmentProblem problem = PermutedProblem(100, /*seed=*/19);
  NsdAligner aligner;
  auto result = aligner.Run(problem.g1, problem.g2, SparsePlan(),
                            Deadline::AfterSeconds(0.0));
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace graphalign

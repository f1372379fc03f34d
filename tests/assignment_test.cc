#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "assignment/assignment.h"
#include "assignment/sparse_lap.h"
#include "common/random.h"

namespace graphalign {
namespace {

// Exhaustive optimal LAP value for small square matrices.
double BruteForceBest(const DenseMatrix& sim) {
  const int n = sim.rows();
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = -1e300;
  do {
    double s = 0.0;
    for (int i = 0; i < n; ++i) s += sim(i, perm[i]);
    best = std::max(best, s);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

bool IsOneToOne(const Alignment& a) {
  std::set<int> used;
  for (int x : a) {
    if (x < 0) continue;
    if (!used.insert(x).second) return false;
  }
  return true;
}

DenseMatrix RandomSim(int n, int m, Rng* rng) {
  DenseMatrix s(n, m);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) s(i, j) = rng->Uniform();
  }
  return s;
}

TEST(NearestNeighborTest, PicksRowArgmax) {
  DenseMatrix sim = DenseMatrix::FromRows({{0.1, 0.9}, {0.8, 0.2}});
  auto a = NearestNeighborAssign(sim);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)[0], 1);
  EXPECT_EQ((*a)[1], 0);
}

TEST(NearestNeighborTest, AllowsManyToOne) {
  DenseMatrix sim = DenseMatrix::FromRows({{0.9, 0.1}, {0.8, 0.2}});
  auto a = NearestNeighborAssign(sim);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)[0], 0);
  EXPECT_EQ((*a)[1], 0);  // Same target twice: NN is many-to-one.
}

TEST(SortGreedyTest, OneToOneAndGreedyOrder) {
  DenseMatrix sim = DenseMatrix::FromRows({{0.9, 0.8}, {0.85, 0.1}});
  auto a = SortGreedyAssign(sim);
  ASSERT_TRUE(a.ok());
  // Greedy takes (0,0)=0.9 first, forcing (1,?)... 1's best left is col 1.
  EXPECT_EQ((*a)[0], 0);
  EXPECT_EQ((*a)[1], 1);
  EXPECT_TRUE(IsOneToOne(*a));
}

TEST(SortGreedyTest, GreedyIsNotAlwaysOptimal) {
  // Classic counterexample: greedy picks 1.0 then 0.0 (total 1.0);
  // optimum is 0.9 + 0.9 = 1.8.
  DenseMatrix sim = DenseMatrix::FromRows({{1.0, 0.9}, {0.9, 0.0}});
  auto greedy = SortGreedyAssign(sim);
  auto optimal = HungarianAssign(sim);
  ASSERT_TRUE(greedy.ok() && optimal.ok());
  EXPECT_LT(AlignmentScore(sim, *greedy), AlignmentScore(sim, *optimal));
}

TEST(HungarianTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(uint64_t{5}));
    DenseMatrix sim = RandomSim(n, n, &rng);
    auto a = HungarianAssign(sim);
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(IsOneToOne(*a));
    EXPECT_NEAR(AlignmentScore(sim, *a), BruteForceBest(sim), 1e-9);
  }
}

TEST(JonkerVolgenantTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(uint64_t{5}));
    DenseMatrix sim = RandomSim(n, n, &rng);
    auto a = JonkerVolgenantAssign(sim);
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(IsOneToOne(*a));
    EXPECT_NEAR(AlignmentScore(sim, *a), BruteForceBest(sim), 1e-9);
  }
}

TEST(LapSolversTest, HungarianAndJvAgreeOnLargerInstances) {
  Rng rng(3);
  for (int n : {10, 40, 120}) {
    DenseMatrix sim = RandomSim(n, n, &rng);
    auto h = HungarianAssign(sim);
    auto jv = JonkerVolgenantAssign(sim);
    ASSERT_TRUE(h.ok() && jv.ok());
    EXPECT_NEAR(AlignmentScore(sim, *h), AlignmentScore(sim, *jv), 1e-8)
        << "n=" << n;
  }
}

TEST(LapSolversTest, RectangularMatrices) {
  Rng rng(4);
  // Wide: fewer sources than targets.
  DenseMatrix wide = RandomSim(3, 6, &rng);
  for (auto method : {AssignmentMethod::kHungarian,
                      AssignmentMethod::kJonkerVolgenant,
                      AssignmentMethod::kSortGreedy}) {
    auto a = ExtractAlignment(wide, method);
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(IsOneToOne(*a));
    int matched = 0;
    for (int x : *a) matched += (x >= 0);
    EXPECT_EQ(matched, 3);
  }
  // Tall: more sources than targets — some sources stay unmatched.
  DenseMatrix tall = RandomSim(6, 3, &rng);
  for (auto method : {AssignmentMethod::kHungarian,
                      AssignmentMethod::kJonkerVolgenant,
                      AssignmentMethod::kSortGreedy}) {
    auto a = ExtractAlignment(tall, method);
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(IsOneToOne(*a));
    int matched = 0;
    for (int x : *a) matched += (x >= 0);
    EXPECT_EQ(matched, 3) << AssignmentMethodName(method);
  }
}

TEST(LapSolversTest, OptimalBeatsOrTiesGreedyAlways) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    DenseMatrix sim = RandomSim(15, 15, &rng);
    auto sg = SortGreedyAssign(sim);
    auto jv = JonkerVolgenantAssign(sim);
    ASSERT_TRUE(sg.ok() && jv.ok());
    EXPECT_GE(AlignmentScore(sim, *jv), AlignmentScore(sim, *sg) - 1e-9);
  }
}

TEST(LapSolversTest, NegativeSimilaritiesHandled) {
  Rng rng(6);
  DenseMatrix sim(8, 8);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) sim(i, j) = rng.Normal();
  auto h = HungarianAssign(sim);
  auto jv = JonkerVolgenantAssign(sim);
  ASSERT_TRUE(h.ok() && jv.ok());
  EXPECT_NEAR(AlignmentScore(sim, *h), AlignmentScore(sim, *jv), 1e-8);
}

TEST(LapSolversTest, IdentityOnDiagonalDominantMatrix) {
  const int n = 50;
  DenseMatrix sim(n, n, 0.1);
  for (int i = 0; i < n; ++i) sim(i, i) = 1.0;
  for (auto method :
       {AssignmentMethod::kNearestNeighbor, AssignmentMethod::kSortGreedy,
        AssignmentMethod::kHungarian, AssignmentMethod::kJonkerVolgenant}) {
    auto a = ExtractAlignment(sim, method);
    ASSERT_TRUE(a.ok());
    for (int i = 0; i < n; ++i) EXPECT_EQ((*a)[i], i);
  }
}

TEST(LapSolversTest, NonFiniteSimilarityIsRefusedByEveryMethod) {
  // An all-NaN row used to leave Hungarian's augmenting column at -1 and
  // read p[-1] (a heap overflow under ASan); one +inf or -inf entry is
  // refused the same way, before any solver runs.
  const int n = 40;
  const double poisons[] = {std::nan(""),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  for (double poison : poisons) {
    DenseMatrix all(n, n, poison);
    DenseMatrix one(n, n, 0.5);
    one(n / 2, n / 3) = poison;
    for (const DenseMatrix* sim : {&all, &one}) {
      for (auto method : {AssignmentMethod::kNearestNeighbor,
                          AssignmentMethod::kSortGreedy,
                          AssignmentMethod::kHungarian,
                          AssignmentMethod::kJonkerVolgenant}) {
        auto a = ExtractAlignment(*sim, method);
        EXPECT_FALSE(a.ok()) << AssignmentMethodName(method);
        if (a.ok()) continue;
        EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);
        EXPECT_NE(a.status().message().find("non-finite similarity"),
                  std::string::npos)
            << a.status().ToString();
      }
    }
  }
}

TEST(HungarianTest, RowWithoutFiniteReducedCostIsRefused) {
  // ExtractAlignment refuses non-finite matrices before any solver runs; a
  // direct call still gets a typed error instead of indexing column -1.
  DenseMatrix sim(4, 4, 0.5);
  for (int j = 0; j < 4; ++j) sim(2, j) = std::nan("");
  auto a = HungarianAssign(sim);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);
}

TEST(LapSolversTest, EmptyMatricesRejected) {
  DenseMatrix empty(0, 0);
  EXPECT_FALSE(NearestNeighborAssign(empty).ok());
  EXPECT_FALSE(SortGreedyAssign(empty).ok());
  EXPECT_FALSE(HungarianAssign(empty).ok());
  EXPECT_FALSE(JonkerVolgenantAssign(empty).ok());
}

TEST(AssignmentMethodTest, Names) {
  EXPECT_STREQ(AssignmentMethodName(AssignmentMethod::kNearestNeighbor), "NN");
  EXPECT_STREQ(AssignmentMethodName(AssignmentMethod::kSortGreedy), "SG");
  EXPECT_STREQ(AssignmentMethodName(AssignmentMethod::kHungarian), "MWM");
  EXPECT_STREQ(AssignmentMethodName(AssignmentMethod::kJonkerVolgenant), "JV");
}

// ---------------------------------------------------------------------------
// Bit-exact extraction. The Hungarian solver and SortGreedy were rewritten
// for speed under the byte-identity rule (DESIGN.md §7); these cases compare
// them with copies of the loops they replaced, on inputs chosen to reach
// every branch where a rewrite could diverge: exact ties (strict-< column
// choice, sort order of equal values), both rectangular orientations
// (Hungarian's transpose), single rows and columns, and near-separable
// scores, where Hungarian's per-row searches run hundreds of steps.

// The index-sort SortGreedy the value-record sort replaced.
Alignment ReferenceSortGreedy(const DenseMatrix& similarity) {
  const int n = similarity.rows();
  const int m = similarity.cols();
  std::vector<int64_t> order(static_cast<size_t>(n) * m);
  std::iota(order.begin(), order.end(), int64_t{0});
  const double* data = similarity.data();
  std::sort(order.begin(), order.end(),
            [&](int64_t a, int64_t b) { return data[a] > data[b]; });
  Alignment align(n, -1);
  std::vector<bool> col_used(m, false);
  int matched = 0;
  const int target = std::min(n, m);
  for (int64_t idx : order) {
    const int i = static_cast<int>(idx / m);
    const int j = static_cast<int>(idx % m);
    if (align[i] != -1 || col_used[j]) continue;
    align[i] = j;
    col_used[j] = true;
    if (++matched == target) break;
  }
  return align;
}

// The all-columns Hungarian the free-list scan replaced (its deadline poll
// dropped).
std::vector<int> ReferenceHungarianMinCost(const DenseMatrix& cost) {
  const int n = cost.rows();
  const int m = cost.cols();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0);
  std::vector<int> p(m + 1, 0), way(m + 1, 0);
  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::vector<double> minv(m + 1, kInf);
    std::vector<bool> used(m + 1, false);
    do {
      used[j0] = true;
      const int i0 = p[j0];
      int j1 = -1;
      double delta = kInf;
      const double* crow = cost.Row(i0 - 1);
      for (int j = 1; j <= m; ++j) {
        if (used[j]) continue;
        const double cur = crow[j - 1] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (int j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const int j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  std::vector<int> row_to_col(n, -1);
  for (int j = 1; j <= m; ++j) {
    if (p[j] > 0) row_to_col[p[j] - 1] = j - 1;
  }
  return row_to_col;
}

Alignment ReferenceHungarian(const DenseMatrix& similarity) {
  const int n = similarity.rows();
  const int m = similarity.cols();
  if (n <= m) {
    DenseMatrix cost(n, m);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) cost(i, j) = -similarity(i, j);
    }
    return ReferenceHungarianMinCost(cost);
  }
  DenseMatrix cost(m, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) cost(j, i) = -similarity(i, j);
  }
  const std::vector<int> col_to_row = ReferenceHungarianMinCost(cost);
  Alignment align(n, -1);
  for (int j = 0; j < m; ++j) {
    if (col_to_row[j] >= 0) align[col_to_row[j]] = j;
  }
  return align;
}

enum class BitExactInput { kUniform, kTies, kNearSeparable };

DenseMatrix BitExactSim(BitExactInput kind, int n, int m, Rng* rng) {
  std::vector<double> a(n), b(m);
  for (double& x : a) x = rng->Uniform();
  for (double& x : b) x = rng->Uniform();
  DenseMatrix s(n, m);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      switch (kind) {
        case BitExactInput::kUniform:
          s(i, j) = rng->Uniform();
          break;
        case BitExactInput::kTies:  // Five levels: ties everywhere.
          s(i, j) = 0.25 * static_cast<double>(rng->UniformInt(uint64_t{5}));
          break;
        case BitExactInput::kNearSeparable:  // Rank one plus 1e-3 noise.
          s(i, j) = a[i] * b[j] + 1e-3 * rng->Uniform();
          break;
      }
    }
  }
  return s;
}

const std::pair<int, int> kBitExactShapes[] = {
    {1, 1},   {1, 9},   {9, 1},     {2, 2},     {5, 5},    {17, 23},
    {23, 17}, {64, 64}, {100, 130}, {130, 100}, {130, 130}};

TEST(LapBitExactTest, HungarianMatchesAllColumnLoop) {
  Rng rng(2024);
  for (BitExactInput kind : {BitExactInput::kUniform, BitExactInput::kTies,
                             BitExactInput::kNearSeparable}) {
    for (auto [n, m] : kBitExactShapes) {
      const DenseMatrix sim = BitExactSim(kind, n, m, &rng);
      auto a = HungarianAssign(sim);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      EXPECT_EQ(*a, ReferenceHungarian(sim))
          << "kind " << static_cast<int>(kind) << ", " << n << "x" << m;
    }
  }
}

TEST(LapBitExactTest, SortGreedyMatchesIndexSort) {
  Rng rng(2025);
  for (BitExactInput kind : {BitExactInput::kUniform, BitExactInput::kTies,
                             BitExactInput::kNearSeparable}) {
    for (auto [n, m] : kBitExactShapes) {
      const DenseMatrix sim = BitExactSim(kind, n, m, &rng);
      auto a = SortGreedyAssign(sim);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      EXPECT_EQ(*a, ReferenceSortGreedy(sim))
          << "kind " << static_cast<int>(kind) << ", " << n << "x" << m;
    }
  }
}

// ---------------------------------------------------------------------------
// Sparse LAP.

TEST(SparseLapTest, MatchesDenseJvOnFullCandidateSet) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 12;
    DenseMatrix sim = RandomSim(n, n, &rng);
    std::vector<SparseCandidate> cands;
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) cands.push_back({i, j, sim(i, j)});
    auto sparse = SparseLapAssign(n, n, cands);
    auto dense = JonkerVolgenantAssign(sim);
    ASSERT_TRUE(sparse.ok() && dense.ok());
    EXPECT_NEAR(AlignmentScore(sim, *sparse), AlignmentScore(sim, *dense),
                1e-8);
  }
}

TEST(SparseLapTest, RespectsCandidateRestrictions) {
  // Only the anti-diagonal is allowed.
  std::vector<SparseCandidate> cands = {{0, 2, 1.0}, {1, 1, 1.0}, {2, 0, 1.0}};
  auto a = SparseLapAssign(3, 3, cands);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)[0], 2);
  EXPECT_EQ((*a)[1], 1);
  EXPECT_EQ((*a)[2], 0);
}

TEST(SparseLapTest, MaximizesCardinalityFirst) {
  // Row 0 could grab col 0 (sim 10), leaving row 1 unmatched; max
  // cardinality requires 0->1, 1->0.
  std::vector<SparseCandidate> cands = {
      {0, 0, 10.0}, {0, 1, 1.0}, {1, 0, 1.0}};
  auto a = SparseLapAssign(2, 2, cands);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)[0], 1);
  EXPECT_EQ((*a)[1], 0);
}

TEST(SparseLapTest, UnmatchableRowsGetMinusOne) {
  std::vector<SparseCandidate> cands = {{0, 0, 1.0}, {1, 0, 2.0}};
  auto a = SparseLapAssign(3, 1, cands);
  ASSERT_TRUE(a.ok());
  int matched = 0;
  for (int x : *a) matched += (x >= 0);
  EXPECT_EQ(matched, 1);
  EXPECT_EQ((*a)[2], -1);
  // The higher-similarity row wins the single column.
  EXPECT_EQ((*a)[1], 0);
}

TEST(SparseLapTest, ValidatesInput) {
  EXPECT_FALSE(SparseLapAssign(2, 2, {{5, 0, 1.0}}).ok());
  EXPECT_FALSE(SparseLapAssign(2, 2, {{0, -1, 1.0}}).ok());
  EXPECT_FALSE(SparseLapAssign(-1, 2, {}).ok());
  EXPECT_FALSE(SparseLapAssign(2, 2, {{0, 0, std::nan("")}}).ok());
  auto empty = SparseLapAssign(3, 3, {});
  ASSERT_TRUE(empty.ok());
  for (int x : *empty) EXPECT_EQ(x, -1);
}

TEST(SparseLapTest, DuplicatePairsKeepTheHighestSimilarity) {
  // LSH bands can emit the same (row, col) more than once; the solver must
  // dedup keeping the best score. The duplicate (0,0) is decisive here:
  // deduped to 0.9, the diagonal scores 0.9 + 0.2 = 1.1 and beats the
  // anti-diagonal's 0.3 + 0.3 = 0.6; if the 0.1 copy were kept instead, the
  // anti-diagonal would win.
  const std::vector<SparseCandidate> cands = {
      {0, 0, 0.1}, {0, 0, 0.9}, {0, 0, 0.5},
      {0, 1, 0.3}, {1, 0, 0.3}, {1, 1, 0.2}};
  auto a = SparseLapAssign(2, 2, cands);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)[0], 0);
  EXPECT_EQ((*a)[1], 1);
}

TEST(SparseLapTest, AllNegativeSimilaritiesStillMatch) {
  // max_sim must clamp at 0.0 so costs (max_sim - sim) stay strictly
  // positive; a negative max_sim would make some costs negative and break
  // Dijkstra's non-negativity requirement.
  std::vector<SparseCandidate> cands = {
      {0, 0, -0.5}, {0, 1, -2.0}, {1, 0, -3.0}, {1, 1, -0.1}};
  auto a = SparseLapAssign(2, 2, cands);
  ASSERT_TRUE(a.ok());
  // Full cardinality, and the best total (-0.5 + -0.1) wins.
  EXPECT_EQ((*a)[0], 0);
  EXPECT_EQ((*a)[1], 1);
}

TEST(SparseLapTest, LargeRandomAgreesWithDense) {
  Rng rng(8);
  const int n = 60;
  DenseMatrix sim = RandomSim(n, n, &rng);
  std::vector<SparseCandidate> cands;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) cands.push_back({i, j, sim(i, j)});
  auto sparse = SparseLapAssign(n, n, cands);
  auto dense = HungarianAssign(sim);
  ASSERT_TRUE(sparse.ok() && dense.ok());
  EXPECT_NEAR(AlignmentScore(sim, *sparse), AlignmentScore(sim, *dense), 1e-7);
}

}  // namespace
}  // namespace graphalign

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "linalg/csr.h"
#include "linalg/dense.h"
#include "linalg/eigen_sym.h"
#include "linalg/kdtree.h"
#include "linalg/sinkhorn.h"
#include "linalg/svd.h"

namespace graphalign {
namespace {

constexpr double kTol = 1e-9;

TEST(DenseMatrixTest, BasicAccessAndFill) {
  DenseMatrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  m(1, 2) = 4.5;
  EXPECT_DOUBLE_EQ(m(1, 2), 4.5);
  m.Fill(1.0);
  EXPECT_DOUBLE_EQ(m.Sum(), 6.0);
  m.Scale(2.0);
  EXPECT_DOUBLE_EQ(m.Sum(), 12.0);
}

TEST(DenseMatrixTest, IdentityAndTranspose) {
  DenseMatrix i = DenseMatrix::Identity(3);
  EXPECT_DOUBLE_EQ(i.Sum(), 3.0);
  DenseMatrix m = DenseMatrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  DenseMatrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(DenseMatrixTest, MultiplyMatchesHandComputation) {
  DenseMatrix a = DenseMatrix::FromRows({{1, 2}, {3, 4}});
  DenseMatrix b = DenseMatrix::FromRows({{5, 6}, {7, 8}});
  DenseMatrix c = Multiply(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(DenseMatrixTest, TransposedMultipliesAgree) {
  Rng rng(1);
  DenseMatrix a(4, 3), b(4, 5);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) a(i, j) = rng.Normal();
    for (int j = 0; j < 5; ++j) b(i, j) = rng.Normal();
  }
  DenseMatrix direct = Multiply(a.Transposed(), b);
  DenseMatrix fused = MultiplyAtB(a, b);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 5; ++j) EXPECT_NEAR(direct(i, j), fused(i, j), kTol);
  }
  DenseMatrix bt = MultiplyABt(a.Transposed(), b.Transposed());
  DenseMatrix bt_ref = Multiply(a.Transposed(), b);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 5; ++j) EXPECT_NEAR(bt(i, j), bt_ref(i, j), kTol);
  }
}

TEST(DenseMatrixTest, MatVecAgree) {
  DenseMatrix a = DenseMatrix::FromRows({{1, 2, 0}, {0, 1, -1}});
  std::vector<double> x = {1, 2, 3};
  std::vector<double> y = MultiplyVec(a, x);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  std::vector<double> z = MultiplyVecT(a, {1, 1});
  ASSERT_EQ(z.size(), 3u);
  EXPECT_DOUBLE_EQ(z[0], 1.0);
  EXPECT_DOUBLE_EQ(z[1], 3.0);
  EXPECT_DOUBLE_EQ(z[2], -1.0);
}

TEST(VectorOpsTest, DotNormAxpyNormalize) {
  std::vector<double> a = {3, 4};
  EXPECT_DOUBLE_EQ(Norm2(a), 5.0);
  std::vector<double> b = {1, -1};
  EXPECT_DOUBLE_EQ(Dot(a, b), -1.0);
  Axpy(2.0, b, &a);
  EXPECT_DOUBLE_EQ(a[0], 5.0);
  EXPECT_DOUBLE_EQ(a[1], 2.0);
  double n = NormalizeInPlace(&a);
  EXPECT_NEAR(n, std::sqrt(29.0), kTol);
  EXPECT_NEAR(Norm2(a), 1.0, kTol);
  std::vector<double> zero = {0, 0};
  EXPECT_DOUBLE_EQ(NormalizeInPlace(&zero), 0.0);
}

TEST(CsrTest, FromTripletsSumsDuplicates) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      2, 2, {{0, 1, 1.0}, {0, 1, 2.0}, {1, 0, 5.0}});
  EXPECT_EQ(m.nnz(), 2);
  DenseMatrix d = m.ToDense();
  EXPECT_DOUBLE_EQ(d(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
}

TEST(CsrTest, SpmvMatchesDense) {
  Rng rng(2);
  std::vector<Triplet> trip;
  for (int i = 0; i < 60; ++i) {
    trip.push_back({static_cast<int>(rng.UniformInt(uint64_t{10})),
                    static_cast<int>(rng.UniformInt(uint64_t{8})),
                    rng.Normal()});
  }
  CsrMatrix s = CsrMatrix::FromTriplets(10, 8, trip);
  DenseMatrix d = s.ToDense();
  std::vector<double> x(8);
  for (double& v : x) v = rng.Normal();
  std::vector<double> ys = s.Multiply(x);
  std::vector<double> yd = MultiplyVec(d, x);
  for (int i = 0; i < 10; ++i) EXPECT_NEAR(ys[i], yd[i], kTol);

  std::vector<double> z(10);
  for (double& v : z) v = rng.Normal();
  std::vector<double> ts = s.MultiplyTransposed(z);
  std::vector<double> td = MultiplyVecT(d, z);
  for (int i = 0; i < 8; ++i) EXPECT_NEAR(ts[i], td[i], kTol);
}

TEST(CsrTest, SpmmMatchesDense) {
  Rng rng(3);
  std::vector<Triplet> trip;
  for (int i = 0; i < 40; ++i) {
    trip.push_back({static_cast<int>(rng.UniformInt(uint64_t{7})),
                    static_cast<int>(rng.UniformInt(uint64_t{6})),
                    rng.Normal()});
  }
  CsrMatrix s = CsrMatrix::FromTriplets(7, 6, trip);
  DenseMatrix b(6, 4);
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 4; ++j) b(i, j) = rng.Normal();
  DenseMatrix c = s.Multiply(b);
  DenseMatrix ref = Multiply(s.ToDense(), b);
  for (int i = 0; i < 7; ++i)
    for (int j = 0; j < 4; ++j) EXPECT_NEAR(c(i, j), ref(i, j), kTol);

  DenseMatrix b2(7, 3);
  for (int i = 0; i < 7; ++i)
    for (int j = 0; j < 3; ++j) b2(i, j) = rng.Normal();
  DenseMatrix ct = s.MultiplyTransposed(b2);
  DenseMatrix ref2 = Multiply(s.ToDense().Transposed(), b2);
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 3; ++j) EXPECT_NEAR(ct(i, j), ref2(i, j), kTol);
}

TEST(CsrTest, TransposeRowSumsScaleRows) {
  CsrMatrix m =
      CsrMatrix::FromTriplets(2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}});
  CsrMatrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t.ToDense()(2, 0), 2.0);

  std::vector<double> rs = m.RowSums();
  EXPECT_DOUBLE_EQ(rs[0], 3.0);
  EXPECT_DOUBLE_EQ(rs[1], 3.0);

  CsrMatrix scaled = m.ScaleRows({2.0, 0.5});
  EXPECT_DOUBLE_EQ(scaled.ToDense()(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(scaled.ToDense()(1, 1), 1.5);
}

TEST(SymmetricEigenTest, DiagonalMatrix) {
  DenseMatrix a = DenseMatrix::FromRows({{3, 0, 0}, {0, 1, 0}, {0, 0, 2}});
  auto res = SymmetricEigen(a);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res->eigenvalues[0], 1.0, kTol);
  EXPECT_NEAR(res->eigenvalues[1], 2.0, kTol);
  EXPECT_NEAR(res->eigenvalues[2], 3.0, kTol);
}

TEST(SymmetricEigenTest, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  DenseMatrix a = DenseMatrix::FromRows({{2, 1}, {1, 2}});
  auto res = SymmetricEigen(a);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res->eigenvalues[0], 1.0, kTol);
  EXPECT_NEAR(res->eigenvalues[1], 3.0, kTol);
}

TEST(SymmetricEigenTest, ReconstructsRandomSymmetricMatrix) {
  Rng rng(4);
  const int n = 20;
  DenseMatrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      double v = rng.Normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  auto res = SymmetricEigen(a);
  ASSERT_TRUE(res.ok());
  // A = V diag(lambda) V^T.
  DenseMatrix vl = res->eigenvectors;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) vl(i, j) *= res->eigenvalues[j];
  }
  DenseMatrix rec = MultiplyABt(vl, res->eigenvectors);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) EXPECT_NEAR(rec(i, j), a(i, j), 1e-8);
  }
  // Eigenvectors are orthonormal.
  DenseMatrix gram = MultiplyAtB(res->eigenvectors, res->eigenvectors);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(SymmetricEigenTest, RejectsNonSquare) {
  EXPECT_FALSE(SymmetricEigen(DenseMatrix(2, 3)).ok());
}

TEST(LanczosTest, MatchesDenseOnRandomMatrix) {
  Rng rng(5);
  const int n = 40;
  DenseMatrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      double v = rng.Normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  auto dense = SymmetricEigen(a);
  ASSERT_TRUE(dense.ok());

  LinearOperator op = [&](const std::vector<double>& x,
                          std::vector<double>* y) {
    *y = MultiplyVec(a, x);
  };
  auto small = LanczosEigen(op, n, 4, SpectrumEnd::kSmallest, n);
  ASSERT_TRUE(small.ok());
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(small->eigenvalues[j], dense->eigenvalues[j], 1e-6);
  }
  auto large = LanczosEigen(op, n, 4, SpectrumEnd::kLargest, n);
  ASSERT_TRUE(large.ok());
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(large->eigenvalues[j], dense->eigenvalues[n - 4 + j], 1e-6);
  }
}

TEST(LanczosTest, EigenvectorsSatisfyResidual) {
  Rng rng(6);
  const int n = 30;
  DenseMatrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      double v = rng.Normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  LinearOperator op = [&](const std::vector<double>& x,
                          std::vector<double>* y) {
    *y = MultiplyVec(a, x);
  };
  auto res = LanczosEigen(op, n, 3, SpectrumEnd::kSmallest, n);
  ASSERT_TRUE(res.ok());
  for (int j = 0; j < 3; ++j) {
    std::vector<double> v = res->eigenvectors.Col(j);
    std::vector<double> av = MultiplyVec(a, v);
    Axpy(-res->eigenvalues[j], v, &av);
    EXPECT_LT(Norm2(av), 1e-6);
  }
}

TEST(LanczosTest, RejectsBadArguments) {
  LinearOperator op = [](const std::vector<double>& x,
                         std::vector<double>* y) { *y = x; };
  EXPECT_FALSE(LanczosEigen(op, 0, 1, SpectrumEnd::kSmallest).ok());
  EXPECT_FALSE(LanczosEigen(op, 5, 0, SpectrumEnd::kSmallest).ok());
  EXPECT_FALSE(LanczosEigen(op, 5, 6, SpectrumEnd::kSmallest).ok());
}

TEST(SvdTest, KnownDiagonal) {
  DenseMatrix a = DenseMatrix::FromRows({{3, 0}, {0, -2}});
  auto res = Svd(a);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res->singular_values[0], 3.0, kTol);
  EXPECT_NEAR(res->singular_values[1], 2.0, kTol);
}

TEST(SvdTest, ReconstructsRectangular) {
  Rng rng(7);
  for (auto [m, n] : {std::pair{8, 5}, std::pair{5, 8}}) {
    DenseMatrix a(m, n);
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < n; ++j) a(i, j) = rng.Normal();
    auto res = Svd(a);
    ASSERT_TRUE(res.ok());
    const int r = static_cast<int>(res->singular_values.size());
    ASSERT_EQ(r, std::min(m, n));
    DenseMatrix us = res->u;
    for (int j = 0; j < r; ++j)
      for (int i = 0; i < m; ++i) us(i, j) *= res->singular_values[j];
    DenseMatrix rec = MultiplyABt(us, res->v);
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < n; ++j) EXPECT_NEAR(rec(i, j), a(i, j), 1e-8);
    // Singular values descending.
    for (int j = 1; j < r; ++j) {
      EXPECT_GE(res->singular_values[j - 1], res->singular_values[j] - kTol);
    }
  }
}

TEST(SvdTest, RankDeficientMatrix) {
  // Rank-1: outer product.
  DenseMatrix a = DenseMatrix::FromRows({{1, 2}, {2, 4}, {3, 6}});
  auto res = Svd(a);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res->singular_values[0], 1.0);
  EXPECT_NEAR(res->singular_values[1], 0.0, 1e-9);
}

TEST(SvdTest, RejectsEmptyAndNonFinite) {
  EXPECT_FALSE(Svd(DenseMatrix(0, 3)).ok());
  DenseMatrix bad(2, 2);
  bad(0, 0) = std::nan("");
  EXPECT_FALSE(Svd(bad).ok());
}

TEST(PseudoInverseTest, InvertsFullRankSquare) {
  DenseMatrix a = DenseMatrix::FromRows({{2, 1}, {1, 3}});
  auto pinv = PseudoInverse(a);
  ASSERT_TRUE(pinv.ok());
  DenseMatrix prod = Multiply(a, *pinv);
  EXPECT_NEAR(prod(0, 0), 1.0, 1e-8);
  EXPECT_NEAR(prod(0, 1), 0.0, 1e-8);
  EXPECT_NEAR(prod(1, 1), 1.0, 1e-8);
}

TEST(PseudoInverseTest, SatisfiesMoorePenroseOnRankDeficient) {
  DenseMatrix a = DenseMatrix::FromRows({{1, 2}, {2, 4}});
  auto pinv = PseudoInverse(a);
  ASSERT_TRUE(pinv.ok());
  // A A+ A = A.
  DenseMatrix apa = Multiply(Multiply(a, *pinv), a);
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) EXPECT_NEAR(apa(i, j), a(i, j), 1e-8);
}

TEST(ProcrustesTest, RecoversRotation) {
  Rng rng(8);
  const double theta = 0.7;
  DenseMatrix q = DenseMatrix::FromRows(
      {{std::cos(theta), -std::sin(theta)}, {std::sin(theta), std::cos(theta)}});
  DenseMatrix a(20, 2);
  for (int i = 0; i < 20; ++i)
    for (int j = 0; j < 2; ++j) a(i, j) = rng.Normal();
  DenseMatrix b = Multiply(a, q);
  auto qhat = ProcrustesRotation(a, b);
  ASSERT_TRUE(qhat.ok());
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) EXPECT_NEAR((*qhat)(i, j), q(i, j), 1e-8);
}

TEST(SinkhornTest, UniformCostGivesProductCoupling) {
  DenseMatrix cost(3, 3, 1.0);
  auto t = SinkhornTransport(cost, UniformMarginal(3), UniformMarginal(3));
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) EXPECT_NEAR((*t)(i, j), 1.0 / 9, 1e-6);
}

TEST(SinkhornTest, MarginalsAreRespected) {
  Rng rng(9);
  DenseMatrix cost(4, 5);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 5; ++j) cost(i, j) = rng.Uniform();
  std::vector<double> mu = {0.1, 0.2, 0.3, 0.4};
  std::vector<double> nu = {0.2, 0.2, 0.2, 0.2, 0.2};
  SinkhornOptions opts;
  opts.max_iters = 2000;
  opts.tolerance = 1e-10;
  auto t = SinkhornTransport(cost, mu, nu, opts);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 4; ++i) {
    double row = 0.0;
    for (int j = 0; j < 5; ++j) row += (*t)(i, j);
    EXPECT_NEAR(row, mu[i], 1e-6);
  }
  for (int j = 0; j < 5; ++j) {
    double col = 0.0;
    for (int i = 0; i < 4; ++i) col += (*t)(i, j);
    EXPECT_NEAR(col, nu[j], 1e-6);
  }
}

TEST(SinkhornTest, LowEpsilonApproachesPermutation) {
  // Cost strongly favors the identity matching.
  DenseMatrix cost = DenseMatrix::FromRows(
      {{0.0, 1.0, 1.0}, {1.0, 0.0, 1.0}, {1.0, 1.0, 0.0}});
  SinkhornOptions opts;
  opts.epsilon = 0.01;
  opts.max_iters = 2000;
  auto t = SinkhornTransport(cost, UniformMarginal(3), UniformMarginal(3), opts);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 3; ++i) EXPECT_GT((*t)(i, i), 0.3);
}

TEST(SinkhornTest, RejectsBadInput) {
  DenseMatrix cost(2, 2, 1.0);
  EXPECT_FALSE(
      SinkhornTransport(cost, UniformMarginal(3), UniformMarginal(2)).ok());
  SinkhornOptions opts;
  opts.epsilon = 0.0;
  EXPECT_FALSE(
      SinkhornTransport(cost, UniformMarginal(2), UniformMarginal(2), opts)
          .ok());
  DenseMatrix neg(2, 2, -1.0);
  EXPECT_FALSE(
      SinkhornProject(neg, UniformMarginal(2), UniformMarginal(2)).ok());
}

TEST(KdTreeTest, NearestMatchesBruteForce) {
  Rng rng(10);
  const int n = 200;
  const int d = 4;
  DenseMatrix pts(n, d);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < d; ++j) pts(i, j) = rng.Normal();
  KdTree tree(pts);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> q(d);
    for (double& v : q) v = rng.Normal();
    auto nn = tree.Nearest(q.data());
    // Brute force.
    int best = -1;
    double best_d = 1e300;
    for (int i = 0; i < n; ++i) {
      double s = 0.0;
      for (int j = 0; j < d; ++j) {
        double diff = pts(i, j) - q[j];
        s += diff * diff;
      }
      if (s < best_d) {
        best_d = s;
        best = i;
      }
    }
    EXPECT_EQ(nn.index, best);
    EXPECT_NEAR(nn.distance, std::sqrt(best_d), 1e-9);
  }
}

TEST(KdTreeTest, KNearestSortedAndCorrectCount) {
  Rng rng(11);
  const int n = 100;
  DenseMatrix pts(n, 3);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < 3; ++j) pts(i, j) = rng.Uniform();
  KdTree tree(pts);
  std::vector<double> q = {0.5, 0.5, 0.5};
  auto nbrs = tree.KNearest(q.data(), 10);
  ASSERT_EQ(nbrs.size(), 10u);
  for (size_t i = 1; i < nbrs.size(); ++i) {
    EXPECT_LE(nbrs[i - 1].distance, nbrs[i].distance + 1e-12);
  }
  // k larger than n clamps.
  EXPECT_EQ(tree.KNearest(q.data(), 500).size(), static_cast<size_t>(n));
}

TEST(KdTreeTest, ExactPointFound) {
  DenseMatrix pts = DenseMatrix::FromRows({{0, 0}, {1, 1}, {2, 2}});
  KdTree tree(pts);
  std::vector<double> q = {1.0, 1.0};
  auto nn = tree.Nearest(q.data());
  EXPECT_EQ(nn.index, 1);
  EXPECT_NEAR(nn.distance, 0.0, 1e-12);
}


// Bit-exact references. The kernels below interleave rows and keep register
// tiles, but each accumulator must add the same terms in the same order as
// these straightforward loops (DESIGN.md §7), so results are compared with
// memcmp, not with a tolerance.

bool SameBytes(const DenseMatrix& x, const DenseMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

DenseMatrix RandomDense(int rows, int cols, uint64_t seed,
                        double zero_frac = 0.0) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      const double v = rng.Uniform() - 0.5;
      m(i, j) = rng.Uniform() < zero_frac ? 0.0 : v;
    }
  }
  return m;
}

// The plain (non-log) Sinkhorn path as two separate passes per iteration.
DenseMatrix ReferenceSinkhornProject(const DenseMatrix& kernel,
                                     const std::vector<double>& mu,
                                     const std::vector<double>& nu,
                                     int max_iters, double tolerance) {
  const int n = kernel.rows();
  const int m = kernel.cols();
  std::vector<double> a(n, 1.0), b(m, 1.0), ka(m);
  constexpr double kTiny = 1e-300;
  for (int iter = 0; iter < max_iters; ++iter) {
    for (int i = 0; i < n; ++i) {
      double s = 0.0;
      for (int j = 0; j < m; ++j) s += kernel(i, j) * b[j];
      a[i] = mu[i] / std::max(s, kTiny);
    }
    std::fill(ka.begin(), ka.end(), 0.0);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) ka[j] += kernel(i, j) * a[i];
    }
    double err = 0.0;
    for (int j = 0; j < m; ++j) {
      err += std::fabs(ka[j] * b[j] - nu[j]);
      b[j] = nu[j] / std::max(ka[j], kTiny);
    }
    if (err < tolerance) break;
  }
  DenseMatrix t(n, m);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) t(i, j) = a[i] * kernel(i, j) * b[j];
  }
  return t;
}

// C = A * B in i-k-j order, skipping zero entries of A.
DenseMatrix ReferenceMultiply(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      if (a(i, k) == 0.0) continue;
      for (int j = 0; j < b.cols(); ++j) c(i, j) += a(i, k) * b(k, j);
    }
  }
  return c;
}

// C = A * B^T, one dot product per entry.
DenseMatrix ReferenceMultiplyABt(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      double s = 0.0;
      for (int k = 0; k < a.cols(); ++k) s += a(i, k) * b(j, k);
      c(i, j) = s;
    }
  }
  return c;
}

// C = X * M for CSR M, scattering sparse row r per row of X, skipping zero
// entries of X.
DenseMatrix ReferenceRightMultiplied(const CsrMatrix& m, const DenseMatrix& x) {
  DenseMatrix c(x.rows(), m.cols());
  for (int i = 0; i < x.rows(); ++i) {
    for (int r = 0; r < m.rows(); ++r) {
      const double xv = x(i, r);
      if (xv == 0.0) continue;
      for (int64_t k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k) {
        c(i, m.col_idx()[k]) += xv * m.values()[k];
      }
    }
  }
  return c;
}

TEST(BitExactKernelTest, SinkhornProjectMatchesReference) {
  for (int n : {1, 2, 3, 5, 7, 130}) {
    for (int m : {1, 2, 9, 130}) {
      for (double tolerance : {0.0, 1e-6}) {
        SCOPED_TRACE(testing::Message() << n << "x" << m << " tol "
                                        << tolerance);
        Rng rng(1000 + 7 * n + m);
        DenseMatrix kernel(n, m);
        for (int i = 0; i < n; ++i) {
          for (int j = 0; j < m; ++j) kernel(i, j) = 0.05 + rng.Uniform();
        }
        const std::vector<double> mu = UniformMarginal(n);
        const std::vector<double> nu = UniformMarginal(m);
        bool used_log = true;
        auto t = SinkhornProject(kernel, mu, nu, /*max_iters=*/50, tolerance,
                                 Deadline(), &used_log);
        ASSERT_TRUE(t.ok());
        EXPECT_FALSE(used_log);
        EXPECT_TRUE(SameBytes(
            *t, ReferenceSinkhornProject(kernel, mu, nu, 50, tolerance)));
      }
    }
  }
}

TEST(BitExactKernelTest, MultiplyMatchesReferenceWithZerosAndTails) {
  // No zeros (every full row block is tiled), a few (tiled and skipping
  // blocks mixed) and many (most blocks skip).
  for (double zero_frac : {0.0, 0.01, 0.3}) {
    for (int rows : {1, 3, 4, 5, 8, 130}) {
      for (int inner : {1, 7, 32}) {
        for (int cols : {1, 3, 4, 6, 32, 33}) {
          SCOPED_TRACE(testing::Message() << rows << "x" << inner << "x"
                                          << cols << " zeros " << zero_frac);
          const DenseMatrix a =
              RandomDense(rows, inner, 10 + rows + inner, zero_frac);
          const DenseMatrix b = RandomDense(inner, cols, 20 + inner + cols);
          EXPECT_TRUE(SameBytes(Multiply(a, b), ReferenceMultiply(a, b)));
        }
      }
    }
  }
}

TEST(BitExactKernelTest, MultiplySkipsZeroCoefficientsAgainstInf) {
  // Column 2 of A is zero exactly where row 2 of B holds inf: a skipped
  // term keeps C finite, while 0 * inf would poison it with NaN.
  DenseMatrix a = RandomDense(9, 5, 31, /*zero_frac=*/0.2);
  DenseMatrix b = RandomDense(5, 7, 32);
  for (int i = 0; i < a.rows(); ++i) a(i, 2) = 0.0;
  for (int j = 0; j < b.cols(); ++j) {
    b(2, j) = std::numeric_limits<double>::infinity();
  }
  const DenseMatrix c = Multiply(a, b);
  for (size_t k = 0; k < c.size(); ++k) {
    EXPECT_TRUE(std::isfinite(c.data()[k]));
  }
  EXPECT_TRUE(SameBytes(c, ReferenceMultiply(a, b)));
}

TEST(BitExactKernelTest, MultiplyABtMatchesReference) {
  for (int rows : {1, 3, 4, 7, 130}) {
    for (int inner : {1, 5, 32}) {
      for (int cols : {1, 2, 9, 130}) {
        SCOPED_TRACE(testing::Message() << rows << "x" << inner << "x"
                                        << cols);
        const DenseMatrix a = RandomDense(rows, inner, 40 + rows);
        const DenseMatrix b = RandomDense(cols, inner, 50 + cols);
        EXPECT_TRUE(SameBytes(MultiplyABt(a, b), ReferenceMultiplyABt(a, b)));
      }
    }
  }
}

TEST(BitExactKernelTest, RightMultipliedMatchesReferenceWithZeros) {
  for (int k : {0, 1, 32}) {
    const int xrows = 4 * k + 3;
    SCOPED_TRACE(testing::Message() << "x rows " << xrows);
    Rng rng(60 + k);
    const int n = 23;
    std::vector<Triplet> trip;
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) {
        if (rng.Uniform() < 0.2) trip.push_back({r, c, rng.Uniform() - 0.5});
      }
    }
    // Row 5 holds an inf that only a zero x value may meet: skipped, it
    // leaves the result finite.
    trip.push_back({5, 0, std::numeric_limits<double>::infinity()});
    const CsrMatrix m = CsrMatrix::FromTriplets(n, n, std::move(trip));
    DenseMatrix x = RandomDense(xrows, n, 70 + k, /*zero_frac=*/0.3);
    for (int i = 0; i < xrows; ++i) x(i, 5) = 0.0;
    const DenseMatrix c = m.RightMultiplied(x);
    for (size_t q = 0; q < c.size(); ++q) {
      EXPECT_TRUE(std::isfinite(c.data()[q]));
    }
    EXPECT_TRUE(SameBytes(c, ReferenceRightMultiplied(m, x)));
  }
}

}  // namespace
}  // namespace graphalign

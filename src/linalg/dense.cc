#include "linalg/dense.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"

namespace graphalign {

DenseMatrix DenseMatrix::Identity(int n) {
  DenseMatrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

DenseMatrix DenseMatrix::FromRows(
    const std::vector<std::vector<double>>& rows) {
  const int r = static_cast<int>(rows.size());
  const int c = r == 0 ? 0 : static_cast<int>(rows[0].size());
  DenseMatrix m(r, c);
  for (int i = 0; i < r; ++i) {
    GA_CHECK(static_cast<int>(rows[i].size()) == c);
    std::copy(rows[i].begin(), rows[i].end(), m.Row(i));
  }
  return m;
}

void DenseMatrix::Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

void DenseMatrix::Scale(double s) {
  for (double& v : data_) v *= s;
}

void DenseMatrix::Axpy(double s, const DenseMatrix& other) {
  GA_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += s * other.data_[i];
}

DenseMatrix DenseMatrix::Transposed() const {
  DenseMatrix t(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    const double* src = Row(r);
    for (int c = 0; c < cols_; ++c) t(c, r) = src[c];
  }
  return t;
}

double DenseMatrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double DenseMatrix::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double DenseMatrix::MaxAbs() const {
  double s = 0.0;
  for (double v : data_) s = std::max(s, std::fabs(v));
  return s;
}

std::vector<double> DenseMatrix::Col(int c) const {
  std::vector<double> v(rows_);
  for (int r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void DenseMatrix::SetCol(int c, const std::vector<double>& v) {
  GA_CHECK(static_cast<int>(v.size()) == rows_);
  for (int r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

namespace {

// C(i, :) += A(i, :) * B in i-k-j order, skipping zero a(i, k): streams
// through rows of B, and a sparse row of A costs only its nonzeros.
void MultiplyRow(const DenseMatrix& a, const DenseMatrix& b, int i,
                 DenseMatrix* c) {
  double* crow = c->Row(i);
  const double* arow = a.Row(i);
  for (int k = 0; k < a.cols(); ++k) {
    const double aik = arow[k];
    if (aik == 0.0) continue;
    const double* brow = b.Row(k);
    for (int j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
  }
}

// Rows [i, i+4) of C = A * B for four rows of A that hold no zero: 4x4
// tiles of C in sixteen accumulators, k innermost. Each entry adds
// a(r, k) * b(k, j) in ascending k, as MultiplyRow does; with no zero in A
// there is no term to skip. Columns past the last full tile take the i-k-j
// loop.
void MultiplyFourDenseRows(const DenseMatrix& a, const DenseMatrix& b, int i,
                           DenseMatrix* c) {
  const int inner = a.cols();
  const int cols = b.cols();
  const double* a0 = a.Row(i);
  const double* a1 = a.Row(i + 1);
  const double* a2 = a.Row(i + 2);
  const double* a3 = a.Row(i + 3);
  double* c0 = c->Row(i);
  double* c1 = c->Row(i + 1);
  double* c2 = c->Row(i + 2);
  double* c3 = c->Row(i + 3);
  int j = 0;
  for (; j + 4 <= cols; j += 4) {
    double t00 = 0.0, t01 = 0.0, t02 = 0.0, t03 = 0.0;
    double t10 = 0.0, t11 = 0.0, t12 = 0.0, t13 = 0.0;
    double t20 = 0.0, t21 = 0.0, t22 = 0.0, t23 = 0.0;
    double t30 = 0.0, t31 = 0.0, t32 = 0.0, t33 = 0.0;
    for (int k = 0; k < inner; ++k) {
      const double* bk = b.Row(k) + j;
      const double b0 = bk[0], b1 = bk[1], b2 = bk[2], b3 = bk[3];
      const double x0 = a0[k], x1 = a1[k], x2 = a2[k], x3 = a3[k];
      t00 += x0 * b0; t01 += x0 * b1; t02 += x0 * b2; t03 += x0 * b3;
      t10 += x1 * b0; t11 += x1 * b1; t12 += x1 * b2; t13 += x1 * b3;
      t20 += x2 * b0; t21 += x2 * b1; t22 += x2 * b2; t23 += x2 * b3;
      t30 += x3 * b0; t31 += x3 * b1; t32 += x3 * b2; t33 += x3 * b3;
    }
    c0[j] = t00; c0[j + 1] = t01; c0[j + 2] = t02; c0[j + 3] = t03;
    c1[j] = t10; c1[j + 1] = t11; c1[j + 2] = t12; c1[j + 3] = t13;
    c2[j] = t20; c2[j + 1] = t21; c2[j + 2] = t22; c2[j + 3] = t23;
    c3[j] = t30; c3[j + 1] = t31; c3[j + 2] = t32; c3[j + 3] = t33;
  }
  for (int r = i; r < i + 4; ++r) {
    const double* arow = a.Row(r);
    double* crow = c->Row(r);
    for (int k = 0; k < inner; ++k) {
      const double* brow = b.Row(k);
      for (int jj = j; jj < cols; ++jj) crow[jj] += arow[k] * brow[jj];
    }
  }
}

bool HasZero(const double* row, int n) {
  return std::find(row, row + n, 0.0) != row + n;
}

}  // namespace

DenseMatrix Multiply(const DenseMatrix& a, const DenseMatrix& b) {
  GA_CHECK(a.cols() == b.rows());
  DenseMatrix c(a.rows(), b.cols());
  const int64_t flops_per_row =
      static_cast<int64_t>(a.cols()) * b.cols() + 1;
  ParallelFor(
      a.rows(),
      [&](int64_t lo, int64_t hi) {
        int i = static_cast<int>(lo);
        // Four rows of A with no zero take the register tiles. A zero
        // coefficient must stay skipped (0 * inf is NaN, not a no-op), and
        // mostly-zero rows are cheapest as i-k-j, so any other row block
        // takes MultiplyRow.
        for (; i + 4 <= hi; i += 4) {
          const int n = a.cols();
          if (!HasZero(a.Row(i), n) && !HasZero(a.Row(i + 1), n) &&
              !HasZero(a.Row(i + 2), n) && !HasZero(a.Row(i + 3), n)) {
            MultiplyFourDenseRows(a, b, i, &c);
          } else {
            for (int r = i; r < i + 4; ++r) MultiplyRow(a, b, r, &c);
          }
        }
        for (; i < hi; ++i) MultiplyRow(a, b, i, &c);
      },
      /*min_work=*/std::max<int64_t>(2, 1'000'000 / flops_per_row));
  return c;
}

DenseMatrix MultiplyAtB(const DenseMatrix& a, const DenseMatrix& b) {
  GA_CHECK(a.rows() == b.rows());
  DenseMatrix c(a.cols(), b.cols());
  const int64_t flops_per_row =
      static_cast<int64_t>(a.rows()) * b.cols() + 1;
  // Block-column ownership: each block owns a contiguous range of A's
  // columns (= rows of C) and accumulates over k in ascending order, so the
  // per-entry summation order matches the sequential k-outer loop exactly
  // and results stay byte-identical regardless of thread count.
  ParallelFor(
      a.cols(),
      [&](int64_t lo, int64_t hi) {
        for (int k = 0; k < a.rows(); ++k) {
          const double* arow = a.Row(k);
          const double* brow = b.Row(k);
          for (int i = static_cast<int>(lo); i < hi; ++i) {
            const double aki = arow[i];
            if (aki == 0.0) continue;
            double* crow = c.Row(i);
            for (int j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
          }
        }
      },
      /*min_work=*/std::max<int64_t>(2, 1'000'000 / flops_per_row));
  return c;
}

DenseMatrix MultiplyABt(const DenseMatrix& a, const DenseMatrix& b) {
  GA_CHECK(a.cols() == b.cols());
  DenseMatrix c(a.rows(), b.rows());
  const int64_t flops_per_row =
      static_cast<int64_t>(a.cols()) * b.rows() + 1;
  ParallelFor(
      a.rows(),
      [&](int64_t lo, int64_t hi) {
        int i = static_cast<int>(lo);
        // Four rows of A against four rows of B: sixteen independent dot
        // products, each still summing in ascending k.
        for (; i + 4 <= hi; i += 4) {
          const double* a0 = a.Row(i);
          const double* a1 = a.Row(i + 1);
          const double* a2 = a.Row(i + 2);
          const double* a3 = a.Row(i + 3);
          double* c0 = c.Row(i);
          double* c1 = c.Row(i + 1);
          double* c2 = c.Row(i + 2);
          double* c3 = c.Row(i + 3);
          int j = 0;
          for (; j + 4 <= b.rows(); j += 4) {
            const double* b0 = b.Row(j);
            const double* b1 = b.Row(j + 1);
            const double* b2 = b.Row(j + 2);
            const double* b3 = b.Row(j + 3);
            double t00 = 0.0, t01 = 0.0, t02 = 0.0, t03 = 0.0;
            double t10 = 0.0, t11 = 0.0, t12 = 0.0, t13 = 0.0;
            double t20 = 0.0, t21 = 0.0, t22 = 0.0, t23 = 0.0;
            double t30 = 0.0, t31 = 0.0, t32 = 0.0, t33 = 0.0;
            for (int k = 0; k < a.cols(); ++k) {
              const double x0 = a0[k], x1 = a1[k], x2 = a2[k], x3 = a3[k];
              const double y0 = b0[k], y1 = b1[k], y2 = b2[k], y3 = b3[k];
              t00 += x0 * y0; t01 += x0 * y1; t02 += x0 * y2; t03 += x0 * y3;
              t10 += x1 * y0; t11 += x1 * y1; t12 += x1 * y2; t13 += x1 * y3;
              t20 += x2 * y0; t21 += x2 * y1; t22 += x2 * y2; t23 += x2 * y3;
              t30 += x3 * y0; t31 += x3 * y1; t32 += x3 * y2; t33 += x3 * y3;
            }
            c0[j] = t00; c0[j + 1] = t01; c0[j + 2] = t02; c0[j + 3] = t03;
            c1[j] = t10; c1[j + 1] = t11; c1[j + 2] = t12; c1[j + 3] = t13;
            c2[j] = t20; c2[j + 1] = t21; c2[j + 2] = t22; c2[j + 3] = t23;
            c3[j] = t30; c3[j + 1] = t31; c3[j + 2] = t32; c3[j + 3] = t33;
          }
          // Rows of B past the last full tile: one dot product per entry.
          for (; j < b.rows(); ++j) {
            const double* brow = b.Row(j);
            for (int r = 0; r < 4; ++r) {
              const double* arow = a.Row(i + r);
              double acc = 0.0;
              for (int k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
              c.Row(i + r)[j] = acc;
            }
          }
        }
        for (; i < hi; ++i) {
          const double* arow = a.Row(i);
          double* crow = c.Row(i);
          for (int j = 0; j < b.rows(); ++j) {
            const double* brow = b.Row(j);
            double s = 0.0;
            for (int k = 0; k < a.cols(); ++k) s += arow[k] * brow[k];
            crow[j] = s;
          }
        }
      },
      /*min_work=*/std::max<int64_t>(2, 1'000'000 / flops_per_row));
  return c;
}

std::vector<double> MultiplyVec(const DenseMatrix& a,
                                const std::vector<double>& x) {
  GA_CHECK(a.cols() == static_cast<int>(x.size()));
  std::vector<double> y(a.rows(), 0.0);
  const int64_t flops_per_row = a.cols() + 1;
  ParallelFor(
      a.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int i = static_cast<int>(lo); i < hi; ++i) {
          const double* arow = a.Row(i);
          double s = 0.0;
          for (int j = 0; j < a.cols(); ++j) s += arow[j] * x[j];
          y[i] = s;
        }
      },
      /*min_work=*/std::max<int64_t>(2, 1'000'000 / flops_per_row));
  return y;
}

std::vector<double> MultiplyVecT(const DenseMatrix& a,
                                 const std::vector<double>& x) {
  GA_CHECK(a.rows() == static_cast<int>(x.size()));
  std::vector<double> y(a.cols(), 0.0);
  for (int i = 0; i < a.rows(); ++i) {
    const double* arow = a.Row(i);
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (int j = 0; j < a.cols(); ++j) y[j] += arow[j] * xi;
  }
  return y;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  GA_CHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double Norm2(const std::vector<double>& a) { return std::sqrt(Dot(a, a)); }

void Axpy(double s, const std::vector<double>& b, std::vector<double>* a) {
  GA_CHECK(a->size() == b.size());
  for (size_t i = 0; i < b.size(); ++i) (*a)[i] += s * b[i];
}

double NormalizeInPlace(std::vector<double>* a) {
  double n = Norm2(*a);
  if (n > 0.0) {
    for (double& v : *a) v /= n;
  }
  return n;
}

}  // namespace graphalign

#include "linalg/csr.h"

#include <algorithm>

#include "common/parallel.h"

namespace graphalign {

CsrMatrix CsrMatrix::FromTriplets(int rows, int cols,
                                  std::vector<Triplet> triplets) {
  GA_CHECK(rows >= 0 && cols >= 0);
  for (const Triplet& t : triplets) {
    GA_CHECK(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  size_t i = 0;
  for (int r = 0; r < rows; ++r) {
    while (i < triplets.size() && triplets[i].row == r) {
      // Sum duplicates.
      double v = triplets[i].value;
      int c = triplets[i].col;
      ++i;
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == c) {
        v += triplets[i].value;
        ++i;
      }
      m.col_idx_.push_back(c);
      m.values_.push_back(v);
    }
    m.row_ptr_[r + 1] = static_cast<int64_t>(m.col_idx_.size());
  }
  return m;
}

std::vector<double> CsrMatrix::Multiply(const std::vector<double>& x) const {
  GA_CHECK(static_cast<int>(x.size()) == cols_);
  std::vector<double> y(rows_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      s += values_[k] * x[col_idx_[k]];
    }
    y[r] = s;
  }
  return y;
}

std::vector<double> CsrMatrix::MultiplyTransposed(
    const std::vector<double>& x) const {
  GA_CHECK(static_cast<int>(x.size()) == rows_);
  std::vector<double> y(cols_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      y[col_idx_[k]] += values_[k] * xr;
    }
  }
  return y;
}

DenseMatrix CsrMatrix::Multiply(const DenseMatrix& b) const {
  GA_CHECK(cols_ == b.rows());
  DenseMatrix c(rows_, b.cols());
  const int64_t avg_flops_per_row =
      rows_ > 0 ? (nnz() * b.cols()) / rows_ + 1 : 1;
  ParallelFor(
      rows_,
      [&](int64_t lo, int64_t hi) {
        for (int r = static_cast<int>(lo); r < hi; ++r) {
          double* crow = c.Row(r);
          for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
            const double v = values_[k];
            const double* brow = b.Row(col_idx_[k]);
            for (int j = 0; j < b.cols(); ++j) crow[j] += v * brow[j];
          }
        }
      },
      /*min_work=*/std::max<int64_t>(2, 1'000'000 / avg_flops_per_row));
  return c;
}

DenseMatrix CsrMatrix::MultiplyTransposed(const DenseMatrix& b) const {
  GA_CHECK(rows_ == b.rows());
  DenseMatrix c(cols_, b.cols());
  // The natural row-major loop scatters into c.Row(col_idx_[k]), which races
  // when rows are split across threads. Build a column-major view (CSC) with
  // an O(nnz) counting sort, then give each block a disjoint range of output
  // rows. The stable fill keeps each column's entries in ascending source-row
  // order, so per-entry accumulation order — and therefore every bit of the
  // result — matches the sequential scatter loop.
  std::vector<int64_t> col_ptr(cols_ + 1, 0);
  for (int c2 : col_idx_) ++col_ptr[c2 + 1];
  for (int j = 0; j < cols_; ++j) col_ptr[j + 1] += col_ptr[j];
  std::vector<int> src_row(values_.size());
  std::vector<double> src_val(values_.size());
  {
    std::vector<int64_t> fill = col_ptr;
    for (int r = 0; r < rows_; ++r) {
      for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        const int64_t slot = fill[col_idx_[k]]++;
        src_row[slot] = r;
        src_val[slot] = values_[k];
      }
    }
  }
  const int64_t avg_flops_per_row =
      cols_ > 0 ? (nnz() * b.cols()) / cols_ + 1 : 1;
  ParallelFor(
      cols_,
      [&](int64_t lo, int64_t hi) {
        for (int i = static_cast<int>(lo); i < hi; ++i) {
          double* crow = c.Row(i);
          for (int64_t k = col_ptr[i]; k < col_ptr[i + 1]; ++k) {
            const double v = src_val[k];
            const double* brow = b.Row(src_row[k]);
            for (int j = 0; j < b.cols(); ++j) crow[j] += v * brow[j];
          }
        }
      },
      /*min_work=*/std::max<int64_t>(2, 1'000'000 / avg_flops_per_row));
  return c;
}

DenseMatrix CsrMatrix::RightMultiplied(const DenseMatrix& x) const {
  GA_CHECK(x.cols() == rows_);
  DenseMatrix c(x.rows(), cols_);
  const int64_t flops_per_row = nnz() + rows_ + 1;
  ParallelFor(
      x.rows(),
      [&](int64_t lo, int64_t hi) {
        int i = static_cast<int>(lo);
        // Four rows of X share each sparse row's index/value loads. Every
        // output entry still adds its terms in ascending r, and a zero x
        // value still skips its term (0 * inf would be NaN).
        for (; i + 4 <= hi; i += 4) {
          const double* x0 = x.Row(i);
          const double* x1 = x.Row(i + 1);
          const double* x2 = x.Row(i + 2);
          const double* x3 = x.Row(i + 3);
          double* c0 = c.Row(i);
          double* c1 = c.Row(i + 1);
          double* c2 = c.Row(i + 2);
          double* c3 = c.Row(i + 3);
          for (int r = 0; r < rows_; ++r) {
            const double v0 = x0[r], v1 = x1[r], v2 = x2[r], v3 = x3[r];
            const int64_t begin = row_ptr_[r];
            const int64_t end = row_ptr_[r + 1];
            if (v0 != 0.0 && v1 != 0.0 && v2 != 0.0 && v3 != 0.0) {
              for (int64_t k = begin; k < end; ++k) {
                const int col = col_idx_[k];
                const double val = values_[k];
                c0[col] += v0 * val;
                c1[col] += v1 * val;
                c2[col] += v2 * val;
                c3[col] += v3 * val;
              }
              continue;
            }
            double* const crows[4] = {c0, c1, c2, c3};
            const double xvs[4] = {v0, v1, v2, v3};
            for (int q = 0; q < 4; ++q) {
              if (xvs[q] == 0.0) continue;
              for (int64_t k = begin; k < end; ++k) {
                crows[q][col_idx_[k]] += xvs[q] * values_[k];
              }
            }
          }
        }
        for (; i < hi; ++i) {
          const double* xrow = x.Row(i);
          double* crow = c.Row(i);
          for (int r = 0; r < rows_; ++r) {
            const double xv = xrow[r];
            if (xv == 0.0) continue;
            for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
              crow[col_idx_[k]] += xv * values_[k];
            }
          }
        }
      },
      /*min_work=*/std::max<int64_t>(2, 1'000'000 / flops_per_row));
  return c;
}

CsrMatrix CsrMatrix::Transposed() const {
  std::vector<Triplet> t;
  t.reserve(values_.size());
  for (int r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      t.push_back({col_idx_[k], r, values_[k]});
    }
  }
  return FromTriplets(cols_, rows_, std::move(t));
}

std::vector<double> CsrMatrix::RowSums() const {
  std::vector<double> s(rows_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      s[r] += values_[k];
    }
  }
  return s;
}

CsrMatrix CsrMatrix::ScaleRows(const std::vector<double>& scale) const {
  GA_CHECK(static_cast<int>(scale.size()) == rows_);
  CsrMatrix m = *this;
  for (int r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      m.values_[k] *= scale[r];
    }
  }
  return m;
}

DenseMatrix CsrMatrix::ToDense() const {
  DenseMatrix d(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      d(r, col_idx_[k]) += values_[k];
    }
  }
  return d;
}

}  // namespace graphalign

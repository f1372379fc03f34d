#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/failpoint.h"
#include "common/random.h"

namespace graphalign {

namespace {

// Householder reduction of symmetric `a` (n x n) to tridiagonal form.
// On exit `a` holds the accumulated orthogonal transform Q, `d` the diagonal
// and `e` the subdiagonal (e[0] unused). The deadline is polled between
// Householder columns (each column costs O(n^2)).
//
// The EISPACK loops walk `a` down its columns; here every O(n^2) pass sweeps
// rows instead. Each accumulator still adds the same terms in the same
// ascending order, so the result is bit-identical (DESIGN.md §7).
Status Tred2(DenseMatrix* a_io, const Deadline& deadline,
             std::vector<double>* d_out, std::vector<double>* e_out) {
  DenseMatrix& a = *a_io;
  const int n = a.rows();
  std::vector<double>& d = *d_out;
  std::vector<double>& e = *e_out;
  d.assign(n, 0.0);
  e.assign(n, 0.0);

  DeadlineChecker checker(deadline, /*stride=*/8);
  for (int i = n - 1; i >= 1; --i) {
    GA_RETURN_IF_EXPIRED(checker, "SymmetricEigen");
    const int l = i - 1;
    double* ai = a.Row(i);
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (int k = 0; k <= l; ++k) scale += std::fabs(ai[k]);
      if (scale == 0.0) {
        e[i] = ai[l];
      } else {
        for (int k = 0; k <= l; ++k) {
          ai[k] /= scale;
          h += ai[k] * ai[k];
        }
        double f = ai[l];
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        ai[l] = f - g;
        // e[j] accumulates g_j = sum_k a(j, k) a(i, k) over the lower
        // triangle: first the row part (k <= j), then the column part
        // (k > j) as row sweeps, so each g_j still sums in ascending k.
        for (int j = 0; j <= l; ++j) {
          const double* aj = a.Row(j);
          g = 0.0;
          for (int k = 0; k <= j; ++k) g += aj[k] * ai[k];
          e[j] = g;
        }
        for (int k = 1; k <= l; ++k) {
          const double* ak = a.Row(k);
          const double aik = ai[k];
          for (int j = 0; j < k; ++j) e[j] += ak[j] * aik;
        }
        f = 0.0;
        for (int j = 0; j <= l; ++j) {
          a(j, i) = ai[j] / h;
          e[j] /= h;
          f += e[j] * ai[j];
        }
        const double hh = f / (h + h);
        for (int j = 0; j <= l; ++j) {
          double* aj = a.Row(j);
          f = ai[j];
          e[j] = g = e[j] - hh * f;
          for (int k = 0; k <= j; ++k) {
            aj[k] -= f * e[k] + g * ai[k];
          }
        }
      }
    } else {
      e[i] = ai[l];
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  // Back-accumulation of Q: one row sweep fills g_j = sum_k a(i, k) a(k, j)
  // for every j <= l, a second applies a(k, j) -= g_j a(k, i). Neither
  // touches row or column i, so filling every g_j first changes no value.
  std::vector<double> g(n);
  for (int i = 0; i < n; ++i) {
    GA_RETURN_IF_EXPIRED(checker, "SymmetricEigen");
    const int l = i - 1;
    double* ai = a.Row(i);
    if (d[i] != 0.0) {
      std::fill(g.begin(), g.begin() + i, 0.0);
      for (int k = 0; k <= l; ++k) {
        const double* ak = a.Row(k);
        const double aik = ai[k];
        for (int j = 0; j <= l; ++j) g[j] += aik * ak[j];
      }
      for (int k = 0; k <= l; ++k) {
        double* ak = a.Row(k);
        const double aki = ak[i];
        for (int j = 0; j <= l; ++j) ak[j] -= g[j] * aki;
      }
    }
    d[i] = ai[i];
    ai[i] = 1.0;
    for (int j = 0; j <= l; ++j) a(j, i) = ai[j] = 0.0;
  }
  return Status::Ok();
}

// Transposes square `m` in place.
void TransposeSquare(DenseMatrix* m) {
  const int n = m->rows();
  for (int r = 0; r < n; ++r) {
    double* row = m->Row(r);
    for (int c = r + 1; c < n; ++c) std::swap(row[c], (*m)(c, r));
  }
}

// Implicit-shift QL on a tridiagonal matrix; `z` accumulates eigenvectors
// (initialized to the transform from Tred2, or identity). Every Givens
// rotation mixes two columns of Z, so they are rotated as two contiguous rows
// of Z^T: `z` is transposed on entry and back on success (on failure the
// caller discards it).
Status Tql2(std::vector<double>* d_io, std::vector<double>* e_io,
            const Deadline& deadline, DenseMatrix* z_io) {
  std::vector<double>& d = *d_io;
  std::vector<double>& e = *e_io;
  DenseMatrix& zt = *z_io;
  TransposeSquare(&zt);
  const int n = static_cast<int>(d.size());

  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  DeadlineChecker checker(deadline, /*stride=*/16);
  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m;
    do {
      GA_RETURN_IF_EXPIRED(checker, "SymmetricEigen");
      for (m = l; m < n - 1; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-14 * dd) break;
      }
      if (m != l) {
        if (iter++ == 100) {
          // Recoverable numerics, not a bug: callers can degrade (fall back
          // to a cheaper similarity + greedy assignment) instead of failing.
          return Status::Numerical("tql2: QL iteration did not converge");
        }
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? std::fabs(r) : -std::fabs(r)));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        int i;
        for (i = m - 1; i >= l; --i) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          double* zi = zt.Row(i);
          double* zi1 = zt.Row(i + 1);
          for (int k = 0; k < n; ++k) {
            f = zi1[k];
            zi1[k] = s * zi[k] + c * f;
            zi[k] = c * zi[k] - s * f;
          }
        }
        if (r == 0.0 && i >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  TransposeSquare(&zt);
  return Status::Ok();
}

void SortAscending(SymmetricEigenResult* res) {
  const int n = static_cast<int>(res->eigenvalues.size());
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return res->eigenvalues[a] < res->eigenvalues[b];
  });
  std::vector<double> vals(n);
  DenseMatrix vecs(res->eigenvectors.rows(), n);
  for (int j = 0; j < n; ++j) {
    vals[j] = res->eigenvalues[order[j]];
    for (int r = 0; r < res->eigenvectors.rows(); ++r) {
      vecs(r, j) = res->eigenvectors(r, order[j]);
    }
  }
  res->eigenvalues = std::move(vals);
  res->eigenvectors = std::move(vecs);
}

}  // namespace

Result<SymmetricEigenResult> SymmetricEigen(DenseMatrix a,
                                            const Deadline& deadline) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SymmetricEigen: matrix is not square");
  }
  const int n = a.rows();
  if (n == 0) {
    return SymmetricEigenResult{{}, DenseMatrix(0, 0)};
  }
  GA_FAILPOINT_STATUS("linalg.eigen.no-converge",
                      Status::Numerical("tql2: QL iteration did not converge"));
  std::vector<double> d;
  std::vector<double> e;
  GA_RETURN_IF_ERROR(Tred2(&a, deadline, &d, &e));
  GA_RETURN_IF_ERROR(Tql2(&d, &e, deadline, &a));
  SymmetricEigenResult res{std::move(d), std::move(a)};
  SortAscending(&res);
  return res;
}

Result<SymmetricEigenResult> LanczosEigen(const LinearOperator& op, int n,
                                          int k, SpectrumEnd end, int steps,
                                          uint64_t seed,
                                          const Deadline& deadline) {
  if (n <= 0) return Status::InvalidArgument("LanczosEigen: n must be > 0");
  if (k <= 0 || k > n) {
    return Status::InvalidArgument("LanczosEigen: need 0 < k <= n");
  }
  GA_FAILPOINT_STATUS(
      "linalg.lanczos.error",
      Status::Numerical("LanczosEigen: iteration lost orthogonality"));
  int m = steps > 0 ? steps : std::max(2 * k + 20, 40);
  m = std::min(m, n);
  if (m < k) m = k;

  Rng rng(seed);
  // Lanczos basis, rows are basis vectors (m x n).
  std::vector<std::vector<double>> basis;
  basis.reserve(m);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Normal();
  NormalizeInPlace(&v);
  basis.push_back(v);

  std::vector<double> alpha;
  std::vector<double> beta;  // beta[j] couples basis[j] and basis[j+1].
  std::vector<double> w(n);

  DeadlineChecker checker(deadline, /*stride=*/4);
  for (int j = 0; j < m; ++j) {
    GA_RETURN_IF_EXPIRED(checker, "LanczosEigen");
    op(basis[j], &w);
    const double a = Dot(w, basis[j]);
    alpha.push_back(a);
    if (j + 1 == m) break;
    Axpy(-a, basis[j], &w);
    if (j > 0) Axpy(-beta[j - 1], basis[j - 1], &w);
    // Full reorthogonalization (twice for numerical safety).
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& q : basis) Axpy(-Dot(w, q), q, &w);
    }
    double b = Norm2(w);
    if (b < 1e-12) {
      // Invariant subspace found: restart with a random orthogonal vector.
      for (double& x : w) x = rng.Normal();
      for (int pass = 0; pass < 2; ++pass) {
        for (const auto& q : basis) Axpy(-Dot(w, q), q, &w);
      }
      b = Norm2(w);
      if (b < 1e-12) {
        m = j + 1;  // The whole space is exhausted.
        break;
      }
      beta.push_back(0.0);
    } else {
      beta.push_back(b);
    }
    for (double& x : w) x /= b;
    basis.push_back(w);
  }

  const int dim = static_cast<int>(alpha.size());
  DenseMatrix t(dim, dim);
  for (int i = 0; i < dim; ++i) {
    t(i, i) = alpha[i];
    if (i + 1 < dim) {
      t(i, i + 1) = beta[i];
      t(i + 1, i) = beta[i];
    }
  }
  GA_ASSIGN_OR_RETURN(SymmetricEigenResult tri,
                      SymmetricEigen(std::move(t), deadline));

  const int kk = std::min(k, dim);
  SymmetricEigenResult out;
  out.eigenvalues.resize(kk);
  out.eigenvectors = DenseMatrix(n, kk);
  for (int j = 0; j < kk; ++j) {
    const int src = end == SpectrumEnd::kSmallest ? j : dim - kk + j;
    out.eigenvalues[j] = tri.eigenvalues[src];
    for (int i = 0; i < dim; ++i) {
      const double s = tri.eigenvectors(i, src);
      if (s == 0.0) continue;
      const std::vector<double>& q = basis[i];
      for (int r = 0; r < n; ++r) out.eigenvectors(r, j) += s * q[r];
    }
  }
  return out;
}

}  // namespace graphalign

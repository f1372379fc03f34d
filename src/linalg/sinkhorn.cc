#include "linalg/sinkhorn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/failpoint.h"

namespace graphalign {

std::vector<double> UniformMarginal(int n) {
  GA_CHECK(n > 0);
  return std::vector<double>(n, 1.0 / n);
}

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// log(sum_j exp(x_j)) over the finite entries of x; kNegInf when all entries
// are kNegInf (an empty row/column of the kernel).
double LogSumExp(const std::vector<double>& x) {
  double hi = kNegInf;
  for (double v : x) hi = std::max(hi, v);
  if (hi == kNegInf) return kNegInf;
  double s = 0.0;
  for (double v : x) {
    if (v != kNegInf) s += std::exp(v - hi);
  }
  return hi + std::log(s);
}

// Log-domain Sinkhorn: iterates dual potentials (f, g) with log-sum-exp
// updates so that T = exp(logK + f_i + g_j) never forms underflowed scaling
// products. Entries of `kernel` that are zero or non-finite become kNegInf
// in logK (zero transport mass); rows/columns with no usable entries get a
// kNegInf potential, conceding their marginal instead of dividing by zero.
Result<DenseMatrix> SinkhornProjectLog(const DenseMatrix& kernel,
                                       const std::vector<double>& mu,
                                       const std::vector<double>& nu,
                                       int max_iters, double tolerance,
                                       const Deadline& deadline) {
  const int n = kernel.rows();
  const int m = kernel.cols();
  DenseMatrix log_k(n, m);
  for (int i = 0; i < n; ++i) {
    const double* krow = kernel.Row(i);
    double* lrow = log_k.Row(i);
    for (int j = 0; j < m; ++j) {
      const double k = krow[j];
      lrow[j] = (std::isfinite(k) && k > 0.0) ? std::log(k) : kNegInf;
    }
  }
  auto safe_log = [](double v) { return v > 0.0 ? std::log(v) : kNegInf; };
  std::vector<double> f(n, 0.0), g(m, 0.0);
  std::vector<double> row_buf(m), col_buf(n);

  DeadlineChecker checker(deadline, /*stride=*/4);
  for (int iter = 0; iter < max_iters; ++iter) {
    GA_RETURN_IF_EXPIRED(checker, "SinkhornProject");
    // f_i = log mu_i - LSE_j(logK_ij + g_j)
    for (int i = 0; i < n; ++i) {
      const double* lrow = log_k.Row(i);
      for (int j = 0; j < m; ++j) {
        row_buf[j] = (lrow[j] == kNegInf || g[j] == kNegInf)
                         ? kNegInf
                         : lrow[j] + g[j];
      }
      const double lse = LogSumExp(row_buf);
      f[i] = lse == kNegInf ? kNegInf : safe_log(mu[i]) - lse;
    }
    // s_j = LSE_i(logK_ij + f_i); the column marginal error uses the
    // pre-update g, then g_j = log nu_j - s_j.
    double err = 0.0;
    for (int j = 0; j < m; ++j) {
      for (int i = 0; i < n; ++i) {
        col_buf[i] = (log_k(i, j) == kNegInf || f[i] == kNegInf)
                         ? kNegInf
                         : log_k(i, j) + f[i];
      }
      const double s = LogSumExp(col_buf);
      const double col_mass =
          (s == kNegInf || g[j] == kNegInf) ? 0.0 : std::exp(s + g[j]);
      err += std::fabs(col_mass - nu[j]);
      g[j] = s == kNegInf ? kNegInf : safe_log(nu[j]) - s;
    }
    if (err < tolerance) break;
  }

  DenseMatrix t(n, m);
  for (int i = 0; i < n; ++i) {
    const double* lrow = log_k.Row(i);
    double* trow = t.Row(i);
    for (int j = 0; j < m; ++j) {
      if (lrow[j] == kNegInf || f[i] == kNegInf || g[j] == kNegInf) {
        trow[j] = 0.0;
      } else {
        const double v = std::exp(lrow[j] + f[i] + g[j]);
        trow[j] = std::isfinite(v) ? v : 0.0;
      }
    }
  }
  return t;
}

}  // namespace

Result<DenseMatrix> SinkhornProject(const DenseMatrix& kernel,
                                    const std::vector<double>& mu,
                                    const std::vector<double>& nu,
                                    int max_iters, double tolerance,
                                    const Deadline& deadline,
                                    bool* used_log_fallback) {
  if (used_log_fallback != nullptr) *used_log_fallback = false;
  const int n = kernel.rows();
  const int m = kernel.cols();
  if (static_cast<int>(mu.size()) != n || static_cast<int>(nu.size()) != m) {
    return Status::InvalidArgument("SinkhornProject: marginal size mismatch");
  }
  bool needs_log_domain = GA_FAILPOINT_FIRED("linalg.sinkhorn.underflow");
  std::vector<double> row_mass(n, 0.0), col_mass(m, 0.0);
  for (int i = 0; i < n; ++i) {
    const double* krow = kernel.Row(i);
    for (int j = 0; j < m; ++j) {
      const double k = krow[j];
      if (std::isfinite(k) && k < 0.0) {
        // Negative mass is a caller bug, never an underflow artifact.
        return Status::InvalidArgument(
            "SinkhornProject: kernel must be finite and non-negative");
      }
      if (!std::isfinite(k)) {
        needs_log_domain = true;
      } else {
        row_mass[i] += k;
        col_mass[j] += k;
      }
    }
  }
  // A row/column that underflowed to all-zero while its marginal wants mass
  // cannot be scaled back; only the log-domain path degrades gracefully.
  if (!needs_log_domain) {
    for (int i = 0; i < n; ++i) {
      if (row_mass[i] <= 0.0 && mu[i] > 0.0) needs_log_domain = true;
    }
    for (int j = 0; j < m; ++j) {
      if (col_mass[j] <= 0.0 && nu[j] > 0.0) needs_log_domain = true;
    }
  }
  if (needs_log_domain) {
    if (used_log_fallback != nullptr) *used_log_fallback = true;
    return SinkhornProjectLog(kernel, mu, nu, max_iters, tolerance, deadline);
  }
  std::vector<double> a(n, 1.0);
  std::vector<double> b(m, 1.0);
  std::vector<double> ka(m);
  constexpr double kTiny = 1e-300;

  DeadlineChecker checker(deadline, /*stride=*/8);
  for (int iter = 0; iter < max_iters; ++iter) {
    GA_RETURN_IF_EXPIRED(checker, "SinkhornProject");
    // One pass over K per iteration: a = mu / (K b) for four rows at a time,
    // then those rows' terms of ka = K^T a while they are still in cache.
    // Each (K b)_i sums in ascending j and each ka_j in ascending i, exactly
    // as two separate passes would (DESIGN.md §7).
    std::fill(ka.begin(), ka.end(), 0.0);
    int i = 0;
    for (; i + 4 <= n; i += 4) {
      const double* k0 = kernel.Row(i);
      const double* k1 = kernel.Row(i + 1);
      const double* k2 = kernel.Row(i + 2);
      const double* k3 = kernel.Row(i + 3);
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (int j = 0; j < m; ++j) {
        const double bj = b[j];
        s0 += k0[j] * bj;
        s1 += k1[j] * bj;
        s2 += k2[j] * bj;
        s3 += k3[j] * bj;
      }
      const double a0 = a[i] = mu[i] / std::max(s0, kTiny);
      const double a1 = a[i + 1] = mu[i + 1] / std::max(s1, kTiny);
      const double a2 = a[i + 2] = mu[i + 2] / std::max(s2, kTiny);
      const double a3 = a[i + 3] = mu[i + 3] / std::max(s3, kTiny);
      for (int j = 0; j < m; ++j) {
        ka[j] = (((ka[j] + k0[j] * a0) + k1[j] * a1) + k2[j] * a2) +
                k3[j] * a3;
      }
    }
    for (; i < n; ++i) {
      const double* krow = kernel.Row(i);
      double s = 0.0;
      for (int j = 0; j < m; ++j) s += krow[j] * b[j];
      const double ai = a[i] = mu[i] / std::max(s, kTiny);
      for (int j = 0; j < m; ++j) ka[j] += krow[j] * ai;
    }
    // b = nu / (K^T a)
    double err = 0.0;
    for (int j = 0; j < m; ++j) {
      err += std::fabs(ka[j] * b[j] - nu[j]);
      b[j] = nu[j] / std::max(ka[j], kTiny);
    }
    if (err < tolerance) break;
  }

  DenseMatrix t(n, m);
  bool finite = true;
  for (int i = 0; i < n; ++i) {
    const double* krow = kernel.Row(i);
    double* trow = t.Row(i);
    for (int j = 0; j < m; ++j) {
      trow[j] = a[i] * krow[j] * b[j];
      finite = finite && std::isfinite(trow[j]);
    }
  }
  if (!finite) {
    // Scaling factors overflowed (a*K*b hit inf*0 or similar): redo the
    // projection in the log domain rather than returning poisoned mass.
    if (used_log_fallback != nullptr) *used_log_fallback = true;
    return SinkhornProjectLog(kernel, mu, nu, max_iters, tolerance, deadline);
  }
  return t;
}

Result<DenseMatrix> SinkhornTransport(const DenseMatrix& cost,
                                      const std::vector<double>& mu,
                                      const std::vector<double>& nu,
                                      const SinkhornOptions& options,
                                      const Deadline& deadline) {
  const int n = cost.rows();
  const int m = cost.cols();
  if (n == 0 || m == 0) {
    return Status::InvalidArgument("SinkhornTransport: empty cost matrix");
  }
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument("SinkhornTransport: epsilon must be > 0");
  }
  // Stabilize: exp(-(C - min C)/eps) keeps the kernel in (0, 1].
  double cmin = cost(0, 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) cmin = std::min(cmin, cost(i, j));
  }
  DenseMatrix kernel(n, m);
  for (int i = 0; i < n; ++i) {
    const double* crow = cost.Row(i);
    double* krow = kernel.Row(i);
    for (int j = 0; j < m; ++j) {
      krow[j] = std::exp(-(crow[j] - cmin) / options.epsilon);
    }
  }
  return SinkhornProject(kernel, mu, nu, options.max_iters, options.tolerance,
                         deadline);
}

}  // namespace graphalign

#include "align/gw_common.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "linalg/sinkhorn.h"

namespace graphalign {

namespace {

// Elementwise-squared copy of a CSR matrix.
CsrMatrix SquaredValues(const CsrMatrix& m) {
  CsrMatrix out = m;
  for (double& v : *out.mutable_values()) v *= v;
  return out;
}

// grad = (Cs^2 mu) 1^T + 1 (Ct^2 nu)^T - 2 Cs T Ct^T. Ct is symmetric here
// (costs come from undirected structure), so Ct^T = Ct.
DenseMatrix GwGradient(const CsrMatrix& cs, const CsrMatrix& cs2,
                       const CsrMatrix& ct, const CsrMatrix& ct2,
                       const std::vector<double>& mu,
                       const std::vector<double>& nu,
                       const DenseMatrix& t) {
  const std::vector<double> row_part = cs2.Multiply(mu);
  const std::vector<double> col_part = ct2.Multiply(nu);
  DenseMatrix cross = ct.RightMultiplied(cs.Multiply(t));  // Cs T Ct
  DenseMatrix grad(t.rows(), t.cols());
  ParallelFor(t.rows(), [&](int64_t lo, int64_t hi) {
    for (int i = static_cast<int>(lo); i < hi; ++i) {
      double* grow = grad.Row(i);
      const double* xrow = cross.Row(i);
      for (int j = 0; j < t.cols(); ++j) {
        grow[j] = row_part[i] + col_part[j] - 2.0 * xrow[j];
      }
    }
  }, std::max<int64_t>(2, 500'000 / (t.cols() + 1)));
  return grad;
}

}  // namespace

CsrMatrix DenseToCsr(const DenseMatrix& m) {
  std::vector<Triplet> trip;
  for (int i = 0; i < m.rows(); ++i) {
    for (int j = 0; j < m.cols(); ++j) {
      if (m(i, j) != 0.0) trip.push_back({i, j, m(i, j)});
    }
  }
  return CsrMatrix::FromTriplets(m.rows(), m.cols(), std::move(trip));
}

Result<DenseMatrix> GromovWassersteinTransport(
    const CsrMatrix& cs, const CsrMatrix& ct, const std::vector<double>& mu,
    const std::vector<double>& nu, const GwOptions& options,
    const DenseMatrix* extra_cost, const DenseMatrix* initial_transport,
    const Deadline& deadline) {
  const int n1 = cs.rows();
  const int n2 = ct.rows();
  if (cs.rows() != cs.cols() || ct.rows() != ct.cols()) {
    return Status::InvalidArgument("GW: cost matrices must be square");
  }
  if (static_cast<int>(mu.size()) != n1 || static_cast<int>(nu.size()) != n2) {
    return Status::InvalidArgument("GW: marginal size mismatch");
  }
  if (options.beta <= 0.0) {
    return Status::InvalidArgument("GW: beta must be positive");
  }
  if (extra_cost != nullptr &&
      (extra_cost->rows() != n1 || extra_cost->cols() != n2)) {
    return Status::InvalidArgument("GW: extra cost shape mismatch");
  }

  const CsrMatrix cs2 = SquaredValues(cs);
  const CsrMatrix ct2 = SquaredValues(ct);

  DenseMatrix t(n1, n2);
  if (initial_transport != nullptr) {
    if (initial_transport->rows() != n1 || initial_transport->cols() != n2) {
      return Status::InvalidArgument("GW: initial transport shape mismatch");
    }
    t = *initial_transport;
  } else {
    for (int i = 0; i < n1; ++i) {
      for (int j = 0; j < n2; ++j) t(i, j) = mu[i] * nu[j];
    }
  }

  for (int iter = 0; iter < options.outer_iterations; ++iter) {
    // Each proximal step costs O(nnz * n2 + n1 * n2), so checking every
    // iteration bounds overshoot by one step.
    GA_RETURN_IF_EXPIRED(deadline, "GW transport");
    DenseMatrix grad = GwGradient(cs, cs2, ct, ct2, mu, nu, t);
    if (extra_cost != nullptr) grad.Axpy(1.0, *extra_cost);
    // Proximal kernel K = T .* exp(-grad/beta), stabilized by subtracting
    // the global gradient minimum (one shift for the whole matrix).
    double gmin = grad(0, 0);
    for (int i = 0; i < n1; ++i) {
      const double* grow = grad.Row(i);
      for (int j = 0; j < n2; ++j) gmin = std::min(gmin, grow[j]);
    }
    DenseMatrix kernel(n1, n2);
    constexpr double kFloor = 1e-16;
    for (int i = 0; i < n1; ++i) {
      const double* grow = grad.Row(i);
      const double* trow = t.Row(i);
      double* krow = kernel.Row(i);
      for (int j = 0; j < n2; ++j) {
        krow[j] = std::max(trow[j], kFloor) *
                  std::exp(-(grow[j] - gmin) / options.beta);
      }
    }
    GA_ASSIGN_OR_RETURN(
        DenseMatrix next,
        SinkhornProject(kernel, mu, nu, options.sinkhorn_iterations,
                        /*tolerance=*/1e-6, deadline));
    // Largest entrywise change of the plan, max |next - t|.
    double change = 0.0;
    const double* np = next.data();
    const double* tp = t.data();
    for (size_t i = 0; i < t.size(); ++i) {
      change = std::max(change, std::fabs(np[i] - tp[i]));
    }
    t = std::move(next);
    if (change < options.tolerance) break;
  }
  return t;
}

double GromovWassersteinObjective(const CsrMatrix& cs, const CsrMatrix& ct,
                                  const std::vector<double>& mu,
                                  const std::vector<double>& nu,
                                  const DenseMatrix& transport) {
  const CsrMatrix cs2 = SquaredValues(cs);
  const CsrMatrix ct2 = SquaredValues(ct);
  DenseMatrix grad =
      GwGradient(cs, cs2, ct, ct2, mu, nu, transport);
  // <L, T> with L = f1 mu 1' + 1 nu' f2 - 2 Cs T Ct; grad already is that L.
  double obj = 0.0;
  for (int i = 0; i < transport.rows(); ++i) {
    const double* g = grad.Row(i);
    const double* t = transport.Row(i);
    for (int j = 0; j < transport.cols(); ++j) obj += g[j] * t[j];
  }
  return obj;
}

}  // namespace graphalign

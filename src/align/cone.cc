#include "align/cone.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "align/isorank.h"
#include "common/parallel.h"
#include "linalg/csr.h"
#include "linalg/eigen_sym.h"
#include "linalg/kdtree.h"
#include "linalg/sinkhorn.h"
#include "linalg/svd.h"

namespace graphalign {

namespace {

// Proximity embedding: top-d eigenpairs of M = sum_{r=1..T} Ahat^r / T,
// scaled by sqrt(|lambda|). Ahat is the symmetric normalized adjacency.
Result<DenseMatrix> ProximityEmbedding(const Graph& g, int dim, int window,
                                       uint64_t seed,
                                       const Deadline& deadline) {
  const int n = g.num_nodes();
  // Clamp well below n: with d ~ n the Procrustes rotation is flexible
  // enough to map anything onto anything and alignment signal vanishes.
  const int d = std::max(2, std::min(dim, n / 3));
  const CsrMatrix ahat = g.SymNormalizedAdjacencyCsr();
  LinearOperator op = [&ahat, window](const std::vector<double>& x,
                                      std::vector<double>* y) {
    std::vector<double> power = x;
    y->assign(x.size(), 0.0);
    for (int r = 1; r <= window; ++r) {
      power = ahat.Multiply(power);
      for (size_t i = 0; i < x.size(); ++i) (*y)[i] += power[i];
    }
    for (double& v : *y) v /= window;
  };
  // The polynomial's extreme eigenvalues can be negative for bipartite-ish
  // graphs, but the dominant structure lives at the large end.
  GA_ASSIGN_OR_RETURN(
      SymmetricEigenResult eig,
      LanczosEigen(op, n, d, SpectrumEnd::kLargest,
                   std::min(n, std::max(2 * d + 20, 60)), seed, deadline));
  DenseMatrix y = eig.eigenvectors;  // n x d
  for (int j = 0; j < y.cols(); ++j) {
    const double s = std::sqrt(std::fabs(eig.eigenvalues[j]));
    for (int i = 0; i < n; ++i) y(i, j) *= s;
  }
  return y;
}

// Pads embedding matrices to a common column count (dims can differ when the
// graphs have very different sizes).
void PadColumns(DenseMatrix* m, int cols) {
  if (m->cols() == cols) return;
  DenseMatrix out(m->rows(), cols);
  for (int i = 0; i < m->rows(); ++i) {
    for (int j = 0; j < std::min(m->cols(), cols); ++j) {
      out(i, j) = (*m)(i, j);
    }
  }
  *m = std::move(out);
}

}  // namespace

Result<DenseMatrix> ConeAligner::AlignedEmbeddings(const Graph& g1,
                                                   const Graph& g2,
                                                   const Deadline& deadline) {
  GA_RETURN_IF_ERROR(ValidateInputs(g1, g2));
  if (options_.dim < 2 || options_.window < 1 ||
      options_.outer_iterations < 1) {
    return Status::InvalidArgument("CONE: bad options");
  }
  const int n1 = g1.num_nodes();
  const int n2 = g2.num_nodes();
  GA_ASSIGN_OR_RETURN(
      DenseMatrix y1,
      ProximityEmbedding(g1, options_.dim, options_.window, options_.seed,
                         deadline));
  GA_ASSIGN_OR_RETURN(
      DenseMatrix y2,
      ProximityEmbedding(g2, options_.dim, options_.window, options_.seed + 1,
                         deadline));
  const int d = std::max(y1.cols(), y2.cols());
  PadColumns(&y1, d);
  PadColumns(&y2, d);

  const std::vector<double> mu = UniformMarginal(n1);
  const std::vector<double> nu = UniformMarginal(n2);

  // Warm start (CONE initializes the alternation with a convex surrogate;
  // we use a degree-similarity transport, which serves the same purpose of
  // avoiding the trivial local optimum at Q = I): rotate Y1 onto the
  // barycentric projection of a degree-informed coupling.
  DenseMatrix q = DenseMatrix::Identity(d);
  {
    DenseMatrix prior = DegreeSimilarityPrior(g1, g2);
    auto t0 = SinkhornProject(prior, mu, nu, options_.sinkhorn_iterations,
                              /*tolerance=*/1e-6, deadline);
    if (t0.ok()) {
      DenseMatrix target = Multiply(*t0, y2);
      target.Scale(static_cast<double>(n1));
      auto q0 = ProcrustesRotation(y1, target, deadline);
      if (q0.ok()) q = *std::move(q0);
    }
  }
  for (int iter = 0; iter < options_.outer_iterations; ++iter) {
    // One Wasserstein/Procrustes alternation per check: each costs
    // O(n1 n2 d), so the overshoot is bounded by a single alternation.
    GA_RETURN_IF_EXPIRED(deadline, "CONE");
    DenseMatrix y1q = Multiply(y1, q);  // n1 x d
    // Cost: squared Euclidean distances |a|^2 + |b|^2 - 2 a.b, with the dot
    // products from MultiplyABt overwritten in place.
    DenseMatrix cost = MultiplyABt(y1q, y2);
    std::vector<double> norm2(n2, 0.0);
    for (int v = 0; v < n2; ++v) {
      const double* row = y2.Row(v);
      for (int j = 0; j < d; ++j) norm2[v] += row[j] * row[j];
    }
    ParallelFor(n1, [&](int64_t lo, int64_t hi) {
      for (int u = static_cast<int>(lo); u < hi; ++u) {
        const double* a = y1q.Row(u);
        double na = 0.0;
        for (int j = 0; j < d; ++j) na += a[j] * a[j];
        double* crow = cost.Row(u);
        for (int v = 0; v < n2; ++v) crow[v] = na + norm2[v] - 2.0 * crow[v];
      }
    }, std::max<int64_t>(2, 500'000 / (static_cast<int64_t>(n2) + 1)));
    // Normalize the cost scale so epsilon is a relative regularization
    // strength regardless of embedding magnitude.
    const double cost_scale = cost.Sum() / (static_cast<double>(n1) * n2);
    if (cost_scale > 0.0) cost.Scale(1.0 / cost_scale);
    SinkhornOptions sopt;
    sopt.epsilon = options_.epsilon;
    sopt.max_iters = options_.sinkhorn_iterations;
    GA_ASSIGN_OR_RETURN(DenseMatrix t,
                        SinkhornTransport(cost, mu, nu, sopt, deadline));
    // Procrustes: rotate Y1 onto the barycentric projection n1 * T * Y2.
    DenseMatrix target = Multiply(t, y2);
    target.Scale(static_cast<double>(n1));
    GA_ASSIGN_OR_RETURN(q, ProcrustesRotation(y1, target, deadline));
  }

  DenseMatrix stacked(n1 + n2, d);
  DenseMatrix y1q = Multiply(y1, q);
  for (int u = 0; u < n1; ++u) {
    for (int j = 0; j < d; ++j) stacked(u, j) = y1q(u, j);
  }
  for (int v = 0; v < n2; ++v) {
    for (int j = 0; j < d; ++j) stacked(n1 + v, j) = y2(v, j);
  }
  return stacked;
}

Result<DenseMatrix> ConeAligner::ComputeSimilarityImpl(
    const Graph& g1, const Graph& g2, const Deadline& deadline) {
  GA_ASSIGN_OR_RETURN(DenseMatrix y, AlignedEmbeddings(g1, g2, deadline));
  GA_RETURN_IF_EXPIRED(deadline, "CONE similarity");
  const int n1 = g1.num_nodes();
  const int n2 = g2.num_nodes();
  const int d = y.cols();
  DenseMatrix sim(n1, n2);
  ParallelFor(n1, [&](int64_t lo, int64_t hi) {
    for (int u = static_cast<int>(lo); u < hi; ++u) {
      const double* a = y.Row(u);
      double* out = sim.Row(u);
      for (int v = 0; v < n2; ++v) {
        const double* b = y.Row(n1 + v);
        double d2 = 0.0;
        for (int j = 0; j < d; ++j) {
          const double diff = a[j] - b[j];
          d2 += diff * diff;
        }
        out[v] = 1.0 / (1.0 + std::sqrt(d2));
      }
    }
  }, std::max<int64_t>(2, 500'000 / (static_cast<int64_t>(n2) * d + 1)));
  return sim;
}

Result<Alignment> ConeAligner::AlignNativeImpl(const Graph& g1,
                                               const Graph& g2,
                                               const Deadline& deadline) {
  GA_ASSIGN_OR_RETURN(DenseMatrix y, AlignedEmbeddings(g1, g2, deadline));
  GA_RETURN_IF_EXPIRED(deadline, "CONE nearest-neighbor");
  return NearestTargets(y, g1.num_nodes(), g2.num_nodes());
}

}  // namespace graphalign

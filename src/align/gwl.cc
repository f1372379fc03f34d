#include "align/gwl.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"

namespace graphalign {

namespace {

DenseMatrix RandomEmbedding(int n, int d, Rng* rng) {
  DenseMatrix x(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) x(i, j) = rng->Normal() / std::sqrt(d);
  }
  return x;
}

// Squared-distance cost between embedding rows, scaled by `weight`.
DenseMatrix EmbeddingCost(const DenseMatrix& x1, const DenseMatrix& x2,
                          double weight) {
  const int n1 = x1.rows();
  const int n2 = x2.rows();
  const int d = x1.cols();
  DenseMatrix cost(n1, n2);
  ParallelFor(n1, [&](int64_t lo, int64_t hi) {
    for (int i = static_cast<int>(lo); i < hi; ++i) {
      const double* a = x1.Row(i);
      double* crow = cost.Row(i);
      for (int j = 0; j < n2; ++j) {
        const double* b = x2.Row(j);
        double s = 0.0;
        for (int k = 0; k < d; ++k) {
          const double diff = a[k] - b[k];
          s += diff * diff;
        }
        crow[j] = weight * s;
      }
    }
  }, std::max<int64_t>(2, 500'000 / (static_cast<int64_t>(n2) * d + 1)));
  return cost;
}

// Pulls each row of x1 toward the transport-weighted barycenter of x2.
void UpdateEmbeddings(const DenseMatrix& t, DenseMatrix* x1,
                      const DenseMatrix& x2, double lr) {
  const int n1 = x1->rows();
  const int d = x1->cols();
  std::vector<double> target(d);
  for (int i = 0; i < n1; ++i) {
    const double* trow = t.Row(i);
    double mass = 0.0;
    for (int j = 0; j < x2.rows(); ++j) mass += trow[j];
    if (mass <= 0.0) continue;
    // Sweep rows of x2; each target[k] still sums over ascending j.
    std::fill(target.begin(), target.end(), 0.0);
    for (int j = 0; j < x2.rows(); ++j) {
      const double tj = trow[j];
      const double* x2row = x2.Row(j);
      for (int k = 0; k < d; ++k) target[k] += tj * x2row[k];
    }
    double* xrow = x1->Row(i);
    for (int k = 0; k < d; ++k) {
      xrow[k] = (1.0 - lr) * xrow[k] + lr * (target[k] / mass);
    }
  }
}

}  // namespace

Result<DenseMatrix> GwlAligner::ComputeSimilarityImpl(
    const Graph& g1, const Graph& g2, const Deadline& deadline) {
  GA_RETURN_IF_ERROR(ValidateInputs(g1, g2));
  if (options_.epochs < 1 || options_.embedding_dim < 1) {
    return Status::InvalidArgument("GWL: bad options");
  }
  const int n1 = g1.num_nodes();
  const int n2 = g2.num_nodes();
  const CsrMatrix cs = g1.AdjacencyCsr();
  const CsrMatrix ct = g2.AdjacencyCsr();
  // Node distributions: degree-proportional, as GWL's reference
  // implementation estimates them from the graph.
  std::vector<double> mu(n1), nu(n2);
  double zs = 0.0, zt = 0.0;
  for (int i = 0; i < n1; ++i) zs += g1.Degree(i) + 1.0;
  for (int j = 0; j < n2; ++j) zt += g2.Degree(j) + 1.0;
  for (int i = 0; i < n1; ++i) mu[i] = (g1.Degree(i) + 1.0) / zs;
  for (int j = 0; j < n2; ++j) nu[j] = (g2.Degree(j) + 1.0) / zt;

  Rng rng(options_.seed);
  DenseMatrix x1 = RandomEmbedding(n1, options_.embedding_dim, &rng);
  DenseMatrix x2 = RandomEmbedding(n2, options_.embedding_dim, &rng);

  DenseMatrix t(n1, n2);
  for (int i = 0; i < n1; ++i) {
    for (int j = 0; j < n2; ++j) t(i, j) = mu[i] * nu[j];
  }
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    GA_RETURN_IF_EXPIRED(deadline, "GWL");
    // The embedding (Wasserstein) term enters from the second epoch, once
    // the transport has shaped the embeddings.
    DenseMatrix extra;
    const DenseMatrix* extra_ptr = nullptr;
    if (epoch > 0) {
      extra = EmbeddingCost(x1, x2, options_.embedding_weight);
      extra_ptr = &extra;
    }
    GA_ASSIGN_OR_RETURN(
        t, GromovWassersteinTransport(cs, ct, mu, nu, options_.gw, extra_ptr,
                                      &t, deadline));
    UpdateEmbeddings(t, &x1, x2, /*lr=*/0.5);
    DenseMatrix tt = t.Transposed();
    UpdateEmbeddings(tt, &x2, x1, /*lr=*/0.5);
  }
  const double mx = t.MaxAbs();
  if (mx > 0.0) t.Scale(1.0 / mx);
  return t;
}

}  // namespace graphalign
